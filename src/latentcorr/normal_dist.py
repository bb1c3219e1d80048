"""Univariate, bivariate, and structured trivariate Gaussian distribution
functions.

The trivariate CDF here is not a general one: it is the distribution of
``(U1, U2, (V1 - V2)/sqrt(2))`` where ``(U1, V1)`` and ``(U2, V2)`` are
independent standard bivariate normal pairs with correlation ``r``.  Its
covariance is

    [[1, 0,  r/sqrt(2)],
     [0, 1, -r/sqrt(2)],
     [r/sqrt(2), -r/sqrt(2), 1]]

which is exactly the structure the discretized-variable bridge functions
need, at a third bound of 0 only.  It is computed by Plackett's identity:
the value at r = 0 plus the integral over r of its closed-form derivative,
by one fixed 64-node Gauss-Legendre rule in log(1 - |r|), with absolute
error <= 1e-14 for bounds in [-8.5, 8.5] and |r| <= 1 - 1e-6.  One kernel
(_phi3_grid) runs it on each task's grid of bounds, one row (D_l, D_l+1)
per cutoff, with the r-only factors once per task (_phi3_factors, which a
caller may compute once for many calls) and each bound's density once.  A
last bound of +inf costs no normal CDF: its row is exactly the density
term of the bound before (see _phi3_kernel).  Everything in this module is
pure and reentrant.

Infinite arguments are accepted everywhere: the bivariate CDF resolves
them analytically (marginalization identities), and the trivariate
integrand takes its limits at them.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri, owens_t

__all__ = [
    "std_cdf",
    "std_quantile",
    "bivariate_pdf",
    "bivariate_cdf",
]

_SQRT2 = np.sqrt(2.0)

# Bounds beyond this radius are infinite to double precision (see _phi3_grid).
_FAR = 1e3

# Gauss-Legendre rule of the Plackett integral in _phi3_grid, on u in [0, 1].
_PHI3_U, _PHI3_W = leggauss(64)
_PHI3_U, _PHI3_W = 0.5 * (1.0 + _PHI3_U), 0.5 * _PHI3_W


def std_cdf(x):
    """Standard normal CDF; accepts +-inf and arrays."""
    return ndtr(x)


def std_quantile(p):
    """Inverse standard normal CDF on [0, 1]; returns -+inf at the endpoints.

    Raises ValueError outside [0, 1].
    """
    p_arr = np.asarray(p, dtype=float)
    if np.any((p_arr < 0.0) | (p_arr > 1.0)) or np.any(np.isnan(p_arr)):
        raise ValueError(f"probability outside [0, 1]: {p!r}")
    out = ndtri(p_arr)
    return out if out.ndim else float(out)


def bivariate_pdf(u, v, rho):
    """Standard bivariate normal density with correlation rho; 0 at +-inf."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    rho = np.asarray(rho, dtype=float)
    u, v, rho = np.broadcast_arrays(u, v, rho)
    finite = np.isfinite(u) & np.isfinite(v)
    us = np.where(finite, u, 0.0)
    vs = np.where(finite, v, 0.0)
    q = 1.0 - rho * rho
    z = (us * us - 2.0 * rho * us * vs + vs * vs) / q
    out = np.exp(-0.5 * z) / (2.0 * np.pi * np.sqrt(q))
    out = np.where(finite, out, 0.0)
    return out if out.ndim else float(out)


def bivariate_cdf(u, v, rho):
    """Standard bivariate normal CDF, vectorized, via Owen's T identity.

    Handles +-inf arguments and rho = +-1 analytically.  Absolute error is
    at the level of scipy's owens_t (~1e-15), well inside the 1e-10
    contract.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    rho = np.asarray(rho, dtype=float)
    u, v, rho = np.broadcast_arrays(u, v, rho)
    scalar = u.ndim == 0
    h = np.atleast_1d(u).astype(float).copy()
    k = np.atleast_1d(v).astype(float).copy()
    r = np.atleast_1d(rho).astype(float).copy()
    if np.any(np.abs(r) > 1.0):
        raise ValueError("correlation outside [-1, 1]")

    out = np.empty(h.shape, dtype=float)
    ph = ndtr(h)
    pk = ndtr(k)

    neg_inf = (h == -np.inf) | (k == -np.inf)
    h_inf = (h == np.inf) & ~neg_inf
    k_inf = (k == np.inf) & ~neg_inf & ~h_inf
    r_one = (r == 1.0) & np.isfinite(h) & np.isfinite(k)
    r_neg_one = (r == -1.0) & np.isfinite(h) & np.isfinite(k)
    general = ~(neg_inf | h_inf | k_inf | r_one | r_neg_one)

    out[neg_inf] = 0.0
    out[h_inf] = pk[h_inf]
    out[k_inf] = ph[k_inf]
    out[r_one] = np.minimum(ph[r_one], pk[r_one])
    out[r_neg_one] = np.maximum(ph[r_neg_one] + pk[r_neg_one] - 1.0, 0.0)

    if np.any(general):
        hg, kg, rg = h[general], k[general], r[general]
        phg, pkg = ph[general], pk[general]
        s = np.sqrt((1.0 - rg) * (1.0 + rg))
        hz = hg == 0.0
        kz = kg == 0.0
        # Owen T terms; at a zero bound the term degenerates to the
        # T(x, +-inf) = Phi(-|x|)/2 limit, which at x = 0 is +-1/4.
        ah = np.where(hz, 0.0, (kg - rg * hg) / np.where(hz, 1.0, hg * s))
        ak = np.where(kz, 0.0, (hg - rg * kg) / np.where(kz, 1.0, kg * s))
        th = np.where(hz, 0.25 * np.sign(kg), owens_t(hg, ah))
        tk = np.where(kz, 0.25 * np.sign(hg), owens_t(kg, ak))
        prod = hg * kg
        delta = np.where((prod > 0.0) | ((prod == 0.0) & (hg + kg >= 0.0)), 0.0, 0.5)
        val = 0.5 * (phg + pkg) - th - tk - delta
        both_zero = hz & kz
        if np.any(both_zero):
            val = np.where(both_zero, 0.25 + np.arcsin(rg) / (2.0 * np.pi), val)
        out[general] = np.clip(val, 0.0, 1.0)

    return float(out[0]) if scalar else out.reshape(u.shape)


def _phi3_factors(r):
    """What _phi3_grid's rule needs of r alone, for tasks at r (shape (T,)):
    the node weights, then rho, rho^2, 1/q^2, the conditional scale and the
    norm at the nodes and at s = r, each with a bound axis of length 1."""
    r = np.asarray(r, dtype=float)[:, None]
    sign = np.sign(r)
    log_gap = np.log1p(-np.abs(r))
    gap = np.exp(log_gap * _PHI3_U)  # 1 - |s| at the nodes
    weights = -sign * log_gap * gap * _PHI3_W  # ds = -sign(r) log(1 - |r|) exp(t) du
    # axes (task, bound, s): the nodes, then s = r
    s = np.concatenate([sign * (1.0 - gap), r], axis=1)[:, None, :]
    rho = s / _SQRT2
    rho2 = rho * rho
    q2 = 1.0 - rho2
    inv_q2 = 1.0 / q2
    inv_sd = np.sqrt(q2 / ((1.0 - s) * (1.0 + s)))
    norm = np.sqrt(inv_q2) / (2.0 * np.pi * _SQRT2)
    return weights[:, None, :], rho, rho2, inv_q2, inv_sd, norm


def _phi3_grid(grid, r):
    """Structured trivariate CDF at c = 0 and its r-derivative along bound grids.

    Task t has latent correlation r[t] in (-1, 1) and the rows
    (a, b) = (grid[t, l], grid[t, l + 1]), l = 0..m-2; returns the
    (T, m - 1) values Phi3(a, b, 0; r[t]) and derivatives dPhi3/dr.  Each
    value integrates Plackett's identity from the independent case r = 0,

        Phi3(a, b, 0; r) = Phi(a) Phi(b) / 2 + int_0^r dPhi3/ds ds,

    with one fixed 64-node Gauss-Legendre rule in t, 1 - |s| = exp(t),
    t in [log(1 - |r|), 0], which flattens the steep end of the integrand
    as |r| -> 1.  The integrand comes from Plackett's identity on the two
    s-dependent covariance entries (sigma_13 = rho, sigma_23 = -rho,
    rho = s/sqrt(2)):

        dPhi3/dsigma_13 = phi2(a, 0; rho) * Phi(b | U1 = a, W = 0),
        dPhi3/dsigma_23 = phi2(b, 0; -rho) * Phi(a | U2 = b, W = 0),

    and dPhi3/ds is their difference over sqrt(2); given two of the
    coordinates the third is normal with variance (1 - s^2)/(1 - rho^2).
    It is evaluated at the nodes and at s = r, which is the derivative.
    What depends only on s is computed once per task (_phi3_factors), and
    each bound's density and conditional mean once, for the bound as the a
    of one row and as the b of the row before, where they are the same.
    Absolute error <= 1e-14 for bounds in [-8.5, 8.5] and |r| <= 1 - 1e-6.
    An infinite bound needs no special case: a -inf bound leaves an
    integrand of 0, and a = +inf or b = +inf leaves the derivative of a
    bivariate CDF.  Every element is computed on its own, so a row's value
    does not depend on its grid or batch.
    """
    grid = np.asarray(grid, dtype=float)
    return _phi3_kernel(grid, ndtr(grid), _phi3_factors(r))


def _phi3_kernel(grid, cdf, factors):
    """_phi3_grid with the grid's ndtr and the tasks' _phi3_factors given.

    A last bound of +inf (any bound at or beyond _FAR) gives its row
    exactly the density term of the bound before, phi2(D, 0; rho) up to
    the norm, so that bound's density and mean and the row's two ndtr
    calls are skipped.  Exact: the clipped bound's density
    exp(-0.5 * 1e6 / q^2) underflows to +0.0, and wherever the bound
    before has a nonzero density (|D| < 38.6, as 1/q^2 >= 1) its
    conditional mean is at most |D| (rho^2/q^2 <= 1) and the conditional
    scale at least 1, so Phi(b | U1 = a, W = 0) has an argument of at
    least 961, where ndtr is exactly 1.0: the row is dens * 1.0 - 0.0 *
    cond = dens.  Elsewhere a density of +0.0 leaves +0.0 either way.
    """
    weights, rho, rho2, inv_q2, inv_sd, norm = factors
    # beyond +-_FAR a bound acts as infinite: the density factors it enters
    # underflow to 0 and the conditional CDFs it enters round to 0 or 1
    x = np.clip(grid, -_FAR, _FAR)[:, :, None]
    rows = x.shape[1] - 1
    # rows 0..inner-1 need both bounds; a last +inf row needs only the
    # density of the bound before, which is then the last density row
    inner = rows - (rows > 0 and bool(np.all(x[:, -1] == _FAR)))
    x2 = x[:, : inner + 1]
    # phi2 (up to norm) and the conditional mean of the other U given
    # (U1, W) = (x, 0) for a bound x as a, which are those given (U2, W) =
    # (x, 0) as b (a zero mean may differ in sign, which ndtr cannot see);
    # in place: fresh temporaries of this size cost about as much as ndtr
    dens = np.multiply(-0.5 * (x2 * x2), inv_q2)
    np.exp(dens, out=dens)
    mean = np.multiply(rho2, x2)
    mean *= inv_q2
    slope = dens[:, :rows]  # dens_a * cond_b - dens_b * cond_a, row by row
    if inner:
        cond_a = np.subtract(x[:, :inner], mean[:, 1 : inner + 1])
        cond_a *= inv_sd
        cond_a = ndtr(cond_a, out=cond_a)
        cond_a *= dens[:, 1 : inner + 1]
        cond_b = np.subtract(x[:, 1 : inner + 1], mean[:, :inner], out=mean[:, :inner])
        cond_b *= inv_sd
        slope[:, :inner] *= ndtr(cond_b, out=cond_b)
        slope[:, :inner] -= cond_a
    slope *= norm
    integral = np.sum(np.multiply(weights, slope[:, :, :-1], out=slope[:, :, :-1]), axis=2)
    value = np.clip(cdf[:, :-1] * cdf[:, 1:] * 0.5 + integral, 0.0, 1.0)  # Phi(0) = 0.5
    return value, slope[:, :, -1]
