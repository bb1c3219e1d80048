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
need.  Everything in this module is pure and reentrant.

Infinite arguments are accepted everywhere and resolved analytically
(marginalization identities) before any numeric integration.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ndtr, ndtri, owens_t


@functools.lru_cache(maxsize=None)
def _leggauss_cached(n_nodes: int):
    return leggauss(n_nodes)

__all__ = [
    "std_cdf",
    "std_pdf",
    "std_quantile",
    "bivariate_pdf",
    "bivariate_cdf",
    "trivariate_cdf",
    "trivariate_cdf_grad",
    "QuadratureWarning",
]


class QuadratureWarning(RuntimeWarning):
    """The trivariate quadrature kept its largest rule without meeting its tolerance."""


# Node counts of the adaptive Gauss-Legendre rule, tried in turn.
_NODE_COUNTS = (32, 64, 128, 256, 512)

# Mass beyond this radius is < 1e-17; safe truncation for quadrature tails.
_TAIL = 8.5

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


def _phi3_quad(a, b, c, r, n_nodes):
    """Fixed-rule evaluation of the structured trivariate CDF.

    Conditions on the first coordinate: given U1 = x, the pair
    (U2, (V1-V2)/sqrt(2)) is bivariate normal with mean (0, x*rho),
    variances (1, 1 - rho^2) and covariance -rho, rho = r/sqrt(2).  The
    outer integral over x is a composite Gauss-Legendre rule; a, b, c and
    r are equal-length arrays, one row each.
    """
    rho = r / np.sqrt(2.0)
    q = np.sqrt(1.0 - rho * rho)
    rho_in = -rho / q
    lo = -_TAIL
    hi = np.clip(a, lo, _TAIL)
    x, w = _leggauss_cached(n_nodes)
    # map to [lo, hi] per row
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    inner = bivariate_cdf(
        np.broadcast_to(b[:, None], nodes.shape),
        (c[:, None] - rho[:, None] * nodes) / q[:, None],
        rho_in[:, None],
    )
    # mass beyond the +-_TAIL truncation is < 1e-17 and is dropped
    return np.sum(weights * std_pdf(nodes) * inner, axis=1)


def _phi3_batch(a, b, c, r, tol=1e-10, pair_ids=None):
    """Structured trivariate CDF, one row per element of a, b, c, r (broadcast).

    Each row has its own r in (-1, 1).  Infinite bounds are resolved
    analytically; finite rows go through an adaptively refined
    Gauss-Legendre rule.  Rows with the same label in pair_ids (default:
    all rows) form one pair, whose node count is doubled until two
    successive estimates agree to tol on every finite row of that pair, so
    a pair's value does not depend on the other rows of the batch.  A pair
    that still misses tol at the largest rule keeps that estimate and is
    reported with a QuadratureWarning.
    """
    a, b, c, r = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c, r))
    )
    out = np.zeros(a.shape, dtype=float)
    rho = r / np.sqrt(2.0)

    any_neg_inf = (a == -np.inf) | (b == -np.inf) | (c == -np.inf)
    a_inf = (a == np.inf) & ~any_neg_inf
    b_inf = (b == np.inf) & ~any_neg_inf & ~a_inf
    c_inf = (c == np.inf) & ~any_neg_inf & ~a_inf & ~b_inf

    # marginalization identities for the infinite bounds
    if np.any(a_inf):
        out[a_inf] = bivariate_cdf(b[a_inf], c[a_inf], -rho[a_inf])
    if np.any(b_inf):
        out[b_inf] = bivariate_cdf(a[b_inf], c[b_inf], rho[b_inf])
    if np.any(c_inf):
        out[c_inf] = ndtr(a[c_inf]) * ndtr(b[c_inf])

    rows = np.flatnonzero(~(any_neg_inf | a_inf | b_inf | c_inf))
    if not rows.size:
        return out
    label = np.zeros(rows.size, dtype=int)
    if pair_ids is not None:
        label = np.unique(np.broadcast_to(pair_ids, a.shape)[rows], return_inverse=True)[1]
    worst = np.zeros(label.max() + 1)
    prev = _phi3_quad(a[rows], b[rows], c[rows], r[rows], _NODE_COUNTS[0])
    for n_nodes in _NODE_COUNTS[1:]:
        cur = _phi3_quad(a[rows], b[rows], c[rows], r[rows], n_nodes)
        worst[:] = 0.0
        np.maximum.at(worst, label, np.abs(cur - prev))
        done = worst[label] < tol
        out[rows[done]] = np.clip(cur[done], 0.0, 1.0)
        rows, label, prev = rows[~done], label[~done], cur[~done]
        if not rows.size:
            return out
    out[rows] = np.clip(prev, 0.0, 1.0)
    for pair in np.unique(label):
        row = rows[label == pair][0]
        warnings.warn(
            f"trivariate normal quadrature missed tol {tol:.1e} at {_NODE_COUNTS[-1]} nodes: "
            f"worst node difference {worst[pair]:.3e} at r = {float(r[row])!r}",
            QuadratureWarning,
            stacklevel=2,
        )
    return out


def trivariate_cdf(a, b, c, r):
    """CDF of (U1, U2, (V1-V2)/sqrt(2)) at (a, b, c) for latent correlation r.

    r must lie in (-1, 1) so the implied covariance is positive definite.
    Absolute error <= 1e-8 (typically far better).
    """
    if not -1.0 < r < 1.0:
        raise ValueError(f"latent correlation must be in (-1, 1), got {r}")
    return float(_phi3_batch(np.float64(a), np.float64(b), np.float64(c), float(r))[0])


def _phi3_c0_grad(a, b, r):
    """d/dr of the structured trivariate CDF at third bound c = 0, one r per row.

    Closed form from Plackett's identity applied to the two r-dependent
    covariance entries (sigma_13 = rho, sigma_23 = -rho, rho = r/sqrt(2)).
    Rows with infinite bounds reduce to the bivariate derivative or zero.
    """
    a, b, r = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, r))
    )
    rho = r / np.sqrt(2.0)
    q2 = 1.0 - rho * rho
    cond_sd = np.sqrt((1.0 - 2.0 * rho * rho) / q2)

    out = np.zeros(a.shape, dtype=float)
    neg_inf = (a == -np.inf) | (b == -np.inf)
    fin = ~neg_inf

    af = np.where(np.isfinite(a), a, 0.0)
    bf = np.where(np.isfinite(b), b, 0.0)
    # d Phi3 / d sigma_13 = phi2(a, 0; rho) * Phi(b | U1=a, W=0)
    mu2 = rho * rho * af / q2
    term1 = bivariate_pdf(a, np.zeros_like(a), rho) * ndtr((bf - mu2) / cond_sd)
    term1 = np.where(b == np.inf, bivariate_pdf(a, np.zeros_like(a), rho), term1)
    # d Phi3 / d sigma_23 = phi2(b, 0; -rho) * Phi(a | U2=b, W=0)
    mu1 = rho * rho * bf / q2
    term2 = bivariate_pdf(b, np.zeros_like(b), -rho) * ndtr((af - mu1) / cond_sd)
    term2 = np.where(a == np.inf, bivariate_pdf(b, np.zeros_like(b), -rho), term2)

    out[fin] = ((term1 - term2) / np.sqrt(2.0))[fin]
    return out


def trivariate_cdf_grad(a, b, r):
    """Scalar d/dr of trivariate_cdf(a, b, 0, r)."""
    return float(_phi3_c0_grad(np.float64(a), np.float64(b), float(r))[0])
