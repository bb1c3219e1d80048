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
need.  It is computed by Plackett's identity: the value at r = 0 plus the
integral over r of its closed-form derivative, by one fixed 64-node
Gauss-Legendre rule in log(1 - |r|), with absolute error <= 1e-14 for
bounds in [-8.5, 8.5] and |r| <= 1 - 1e-6.  Everything in this module is
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
    "std_pdf",
    "std_quantile",
    "bivariate_pdf",
    "bivariate_cdf",
    "trivariate_cdf",
    "trivariate_cdf_grad",
]

_SQRT2 = np.sqrt(2.0)

# Bounds beyond this radius are infinite to double precision (see _phi3_grad).
_FAR = 1e3

# Gauss-Legendre rule of the Plackett integral in _phi3_batch, on u in [0, 1].
_PHI3_U, _PHI3_W = leggauss(64)
_PHI3_U, _PHI3_W = 0.5 * (1.0 + _PHI3_U), 0.5 * _PHI3_W

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def std_cdf(x):
    """Standard normal CDF; accepts +-inf and arrays."""
    return ndtr(x)


def std_pdf(x):
    """Standard normal density; 0 at +-inf."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.isfinite(x), np.exp(-0.5 * np.square(np.where(np.isfinite(x), x, 0.0))) * _INV_SQRT_2PI, 0.0)
    return out if out.ndim else float(out)


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


def _phi3_grad(a, b, c, r):
    """d/dr of the structured trivariate CDF at (a, b, c), broadcast over rows.

    Plackett's identity on the two r-dependent covariance entries
    (sigma_13 = rho, sigma_23 = -rho, rho = r/sqrt(2)) gives

        dPhi3/dsigma_13 = phi2(a, c; rho) * Phi(b | U1 = a, W = c),
        dPhi3/dsigma_23 = phi2(b, c; -rho) * Phi(a | U2 = b, W = c),

    and dPhi3/dr is their difference over sqrt(2).  Given two of the
    coordinates the third is normal with variance (1 - r^2)/(1 - rho^2).
    """
    a, b, c, r = (np.asarray(v, dtype=float) for v in (a, b, c, r))
    # beyond +-_FAR a bound acts as infinite: the density factors it enters
    # underflow to 0 and the conditional CDFs it enters round to 0 or 1
    a, b, c = (np.clip(v, -_FAR, _FAR) for v in (a, b, c))
    rho = r / _SQRT2
    q2 = 1.0 - rho * rho
    inv_q2 = 1.0 / q2
    inv_sd = np.sqrt(q2 / ((1.0 - r) * (1.0 + r)))
    rc = rho * c
    dens_13 = np.exp(-0.5 * (a * a - 2.0 * a * rc + c * c) * inv_q2)
    dens_23 = np.exp(-0.5 * (b * b + 2.0 * b * rc + c * c) * inv_q2)
    # conditional means of U2 given (U1, W) = (a, c) and of U1 given (U2, W) = (b, c)
    cond_2 = ndtr((b - (rho * rho * a - rc) * inv_q2) * inv_sd)
    cond_1 = ndtr((a - (rho * rho * b + rc) * inv_q2) * inv_sd)
    norm = np.sqrt(inv_q2) / (2.0 * np.pi * _SQRT2)
    return norm * (dens_13 * cond_2 - dens_23 * cond_1)


def _phi3_batch(a, b, c, r):
    """Structured trivariate CDF, one row per element of a, b, c, r (broadcast).

    Each row has its own r in (-1, 1) and integrates Plackett's identity
    from the independent case r = 0,

        Phi3(a, b, c; r) = Phi(a) Phi(b) Phi(c) + int_0^r dPhi3/ds ds,

    with the closed-form integrand of _phi3_grad and one fixed 64-node
    Gauss-Legendre rule in t, 1 - |s| = exp(t), t in [log(1 - |r|), 0],
    which flattens the steep end of the integrand as |r| -> 1.  Absolute
    error <= 1e-14 for bounds in [-8.5, 8.5] and |r| <= 1 - 1e-6.  An
    infinite bound needs no special case: a -inf bound or c = +inf leaves
    an integrand of 0, and a = +inf or b = +inf leaves the derivative of a
    bivariate CDF.  Every row is computed on its own, so its value does
    not depend on the batch.
    """
    a, b, c, r = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c, r))
    )
    a, b, c, r = (v[:, None] for v in (a, b, c, r))
    log_gap = np.log1p(-np.abs(r))
    gap = np.exp(log_gap * _PHI3_U)  # 1 - |s| at the nodes
    weights = -np.sign(r) * log_gap * gap * _PHI3_W  # ds = -sign(r) log(1 - |r|) exp(t) du
    integral = np.sum(weights * _phi3_grad(a, b, c, np.sign(r) * (1.0 - gap)), axis=1)
    return np.clip(ndtr(a[:, 0]) * ndtr(b[:, 0]) * ndtr(c[:, 0]) + integral, 0.0, 1.0)


def trivariate_cdf(a, b, c, r):
    """CDF of (U1, U2, (V1-V2)/sqrt(2)) at (a, b, c) for latent correlation r.

    r must lie in (-1, 1) so the implied covariance is positive definite.
    Computed by Plackett's identity with a fixed rule (see _phi3_batch);
    absolute error <= 1e-14 for |r| <= 1 - 1e-6.
    """
    if not -1.0 < r < 1.0:
        raise ValueError(f"latent correlation must be in (-1, 1), got {r}")
    return float(_phi3_batch(np.float64(a), np.float64(b), np.float64(c), float(r))[0])


def trivariate_cdf_grad(a, b, r):
    """Scalar d/dr of trivariate_cdf(a, b, 0, r)."""
    return float(_phi3_grad(np.float64(a), np.float64(b), 0.0, float(r)))
