"""Oracles that only the tests call.

The Monte Carlo Kendall statistics draw through `latentcorr.simulate`'s own
sampler, so every seed gives the stream the package gives it.  The normal
density and the structured trivariate CDF at c = 0 and its r-derivative are
scalar forms: the trivariate ones are one task of one row of the package's
grid kernel, `normal_dist._phi3_grid`.  `reference_phi3_grid` is that
kernel before it took its r-only factors per kind group and its +inf row
from the density before: every row computed, each bound's density included.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from latentcorr import kendall
from latentcorr import normal_dist as nd
from latentcorr.normal_dist import _phi3_grid
from latentcorr.simulate import _discretize, _rng, _sample_latent

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def std_pdf(x):
    """Standard normal density; 0 at +-inf."""
    x = np.asarray(x, dtype=float)
    out = np.where(np.isfinite(x), np.exp(-0.5 * np.square(np.where(np.isfinite(x), x, 0.0))) * _INV_SQRT_2PI, 0.0)
    return out if out.ndim else float(out)


def trivariate_cdf(a, b, r):
    """CDF of (U1, U2, (V1-V2)/sqrt(2)) at (a, b, 0) for latent correlation r.

    r must lie in (-1, 1) so the implied covariance is positive definite.
    Computed by Plackett's identity with a fixed rule (see _phi3_grid, of
    which this is one task of one row); absolute error <= 1e-14 for
    |r| <= 1 - 1e-6.
    """
    if not -1.0 < r < 1.0:
        raise ValueError(f"latent correlation must be in (-1, 1), got {r}")
    return float(_phi3_grid([[a, b]], [r])[0][0, 0])


def trivariate_cdf_grad(a, b, r):
    """Scalar d/dr of trivariate_cdf(a, b, r), r in (-1, 1)."""
    if not -1.0 < r < 1.0:
        raise ValueError(f"latent correlation must be in (-1, 1), got {r}")
    return float(_phi3_grid([[a, b]], [r])[1][0, 0])


def mc_population_tau_a(r, cutoffs_j=None, cutoffs_k=None, n_draws=10**6, seed=0):
    """Monte-Carlo population tau-a: mean sign product over independent
    observation pairs.  Returns (estimate, standard_error)."""
    seq = np.random.SeedSequence(seed)
    rng = _rng(seq)
    chol = np.linalg.cholesky(np.array([[1.0, r], [r, 1.0]]))
    z1 = _sample_latent(chol, n_draws, rng)
    z2 = _sample_latent(chol, n_draws, rng)
    x1 = _discretize(z1, (cutoffs_j, cutoffs_k))
    x2 = _discretize(z2, (cutoffs_j, cutoffs_k))
    signs = np.sign(x1[:, 0] - x2[:, 0]) * np.sign(x1[:, 1] - x2[:, 1])
    return float(signs.mean()), float(signs.std(ddof=1) / np.sqrt(n_draws))


def mc_tau_b_replicates(r, cutoffs_j, cutoffs_k=None, n=84, reps=10**4, seed=0):
    """Replicate means of the tie-corrected tau on samples of size n.

    Degenerate replicates (a side with a single observed level) are
    excluded; fewer than 2 left is a ValueError.  Returns (mean,
    standard_error_of_mean).
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    root = np.random.SeedSequence(seed)
    children = root.spawn(reps)
    chol = np.linalg.cholesky(np.array([[1.0, r], [r, 1.0]]))
    # one stacked count; a constant side gives a NaN tau_b
    x = np.stack([_discretize(_sample_latent(chol, n, _rng(c)), (cutoffs_j, cutoffs_k))
                  for c in children])
    vals = kendall.tau_b(x[:, :, :1], x[:, :, 1:]).tau_b.ravel()
    vals = vals[~np.isnan(vals)]
    if vals.size < 2:
        raise ValueError(f"{reps - vals.size} of {reps} replicates are degenerate (a side with a single "
                         "observed level); need at least 2 that are not")
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(vals.size))


def reference_phi3_grid(grid, c, r):
    """normal_dist._phi3_grid's values and derivatives as the kernel with a
    third bound c computed them at c = +-0, every row and bound computed in
    full; the kernel, which has Phi(0) = 0.5 built in, must equal it bit for
    bit."""
    if c != 0.0:
        raise ValueError(f"the reference has only the c = 0 form, got c = {c}")
    grid = np.asarray(grid, dtype=float)
    r = np.asarray(r, dtype=float)[:, None]
    sign = np.sign(r)
    log_gap = np.log1p(-np.abs(r))
    gap = np.exp(log_gap * nd._PHI3_U)
    weights = -sign * log_gap * gap * nd._PHI3_W
    s = np.concatenate([sign * (1.0 - gap), r], axis=1)[:, None, :]
    x = np.clip(grid, -nd._FAR, nd._FAR)[:, :, None]
    rho = s / nd._SQRT2
    rho2 = rho * rho
    q2 = 1.0 - rho2
    inv_q2 = 1.0 / q2
    inv_sd = np.sqrt(q2 / ((1.0 - s) * (1.0 + s)))
    dens = np.exp(-0.5 * (x * x) * inv_q2)
    mean = rho2 * x * inv_q2
    cond_b = ndtr((x[:, 1:] - mean[:, :-1]) * inv_sd)
    cond_a = ndtr((x[:, :-1] - mean[:, 1:]) * inv_sd)
    slope = np.multiply(dens[:, :-1], cond_b, out=cond_b)
    slope -= np.multiply(dens[:, 1:], cond_a, out=cond_a)
    slope *= np.sqrt(inv_q2) / (2.0 * np.pi * nd._SQRT2)
    integral = np.sum(weights[:, None, :] * slope[:, :, :-1], axis=2)
    cdf = ndtr(grid)
    value = np.clip(cdf[:, :-1] * cdf[:, 1:] * ndtr(c) + integral, 0.0, 1.0)
    return value, slope[:, :, -1]
