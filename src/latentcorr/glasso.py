"""Graphical lasso over a correlation matrix, with HBIC model selection.

Solves  min_Omega  tr(R Omega) - log det Omega + lam * sum_{j != k} |Omega_jk|
by block coordinate descent on the covariance estimate W (one column at a
time, each column a lasso subproblem solved by cyclic coordinate descent).
The diagonal is unpenalized, so W keeps the diagonal of R.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GlassoConfig",
    "PrecisionEstimate",
    "glasso_fit",
    "glasso_objective",
    "refit_support",
    "default_lambda_path",
    "hbic_score",
    "select_hbic",
]


# Coordinate descent stops when no entry of W moves by more than
# CONVERGENCE_TOL in a sweep, or after MAX_SWEEPS sweeps (the inner lasso
# uses a tenth of the tolerance and the same cap).
CONVERGENCE_TOL = 1e-6
MAX_SWEEPS = 500
# Off-diagonal precision entries above this magnitude count as edges.
EDGE_THRESHOLD = 1e-8
LAMBDA_PATH_POINTS = 10


@dataclass(frozen=True)
class GlassoConfig:
    lambda_path: tuple[float, ...] | None = None
    hbic_cn: float = 3.0


@dataclass
class PrecisionEstimate:
    """One fitted precision matrix plus its selection bookkeeping."""

    lam: float
    omega: np.ndarray
    objective: float
    edges: list[tuple[int, int]]
    hbic: float = np.nan
    sweeps: int = 0

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _soft_threshold(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def glasso_objective(r: np.ndarray, omega: np.ndarray, lam: float) -> float:
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return np.inf
    penalty = lam * (np.abs(omega).sum() - np.abs(np.diag(omega)).sum())
    return float(np.trace(r @ omega) - logdet + penalty)


def _fit_core(r: np.ndarray, lam_mat: np.ndarray):
    """Block coordinate descent with a per-entry penalty matrix."""
    d = r.shape[0]
    if d == 1:
        return np.array([[1.0 / r[0, 0]]]), 0

    w = r.copy()
    beta = np.zeros((d, d))
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        w_old = w.copy()
        for j in range(d):
            idx = np.arange(d) != j
            w11 = w[np.ix_(idx, idx)]
            s12 = r[idx, j]
            lam12 = lam_mat[idx, j]
            b = beta[idx, j]
            # Lasso: min 1/2 b' W11 b - s12' b + sum lam_m |b_m| via cyclic CD.
            v = w11 @ b
            for _ in range(MAX_SWEEPS):
                delta = 0.0
                for m in range(d - 1):
                    old = b[m]
                    resid = s12[m] - (v[m] - w11[m, m] * old)
                    new = _soft_threshold(resid, lam12[m]) / w11[m, m]
                    if new != old:
                        v += (new - old) * w11[:, m]
                        b[m] = new
                        delta = max(delta, abs(new - old))
                if delta < CONVERGENCE_TOL * 0.1:
                    break
            beta[idx, j] = b
            w12 = w11 @ b
            w[idx, j] = w12
            w[j, idx] = w12
        if np.abs(w - w_old).max() < CONVERGENCE_TOL:
            break

    omega = np.empty((d, d))
    for j in range(d):
        idx = np.arange(d) != j
        b = beta[idx, j]
        o_jj = 1.0 / (w[j, j] - w[idx, j] @ b)
        omega[j, j] = o_jj
        omega[idx, j] = -b * o_jj
    return 0.5 * (omega + omega.T), sweeps


def glasso_fit(r: np.ndarray, lam: float) -> PrecisionEstimate:
    """Fit one penalized precision matrix at penalty lam."""
    r = np.asarray(r, dtype=float)
    d = r.shape[0]
    if r.shape != (d, d):
        raise ValueError("correlation matrix must be square")
    if lam < 0:
        raise ValueError(f"penalty must be nonnegative, got {lam}")
    omega, sweeps = _fit_core(r, np.full((d, d), float(lam)))
    edges = _edges(omega, EDGE_THRESHOLD)
    return PrecisionEstimate(
        lam=float(lam),
        omega=omega,
        objective=glasso_objective(r, omega, lam),
        edges=edges,
        sweeps=sweeps,
    )


# Effectively-infinite penalty used to pin entries outside a support to
# zero when refitting the support-constrained maximum likelihood estimate.
_SUPPORT_PENALTY = 1e8


def refit_support(r: np.ndarray, edges) -> np.ndarray:
    """Unpenalized MLE of the precision matrix constrained to a support.

    Off-diagonal entries outside the edge set are forced to exact zero;
    entries on the support are unpenalized.
    """
    r = np.asarray(r, dtype=float)
    d = r.shape[0]
    lam_mat = np.full((d, d), _SUPPORT_PENALTY)
    np.fill_diagonal(lam_mat, 0.0)
    for j, k in edges:
        lam_mat[j, k] = lam_mat[k, j] = 0.0
    omega, _ = _fit_core(r, lam_mat)
    return omega


def _edges(omega: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    d = omega.shape[0]
    return [
        (j, k)
        for j in range(d)
        for k in range(j + 1, d)
        if abs(omega[j, k]) > threshold
    ]


def default_lambda_path(r: np.ndarray) -> tuple[float, ...]:
    """10 equally spaced penalties from m/10 up to m = max offdiag |R|.

    When the off-diagonal is identically zero the path degenerates to a
    single tiny positive penalty.
    """
    r = np.asarray(r, dtype=float)
    off = np.abs(r - np.diag(np.diag(r)))
    m = float(off.max())
    if m <= 0.0:
        return (1e-8,)
    return tuple(np.linspace(m / LAMBDA_PATH_POINTS, m, LAMBDA_PATH_POINTS))


def hbic_score(r: np.ndarray, omega: np.ndarray, n: int, cn: float = 3.0) -> float:
    """tr(R Omega) - log det Omega + cn * |E| * log(log n) * log d / n."""
    d = r.shape[0]
    sign, logdet = np.linalg.slogdet(omega)
    if sign <= 0:
        return np.inf
    n_edges = len(_edges(omega, 0.0))
    penalty = cn * n_edges * np.log(np.log(n)) * np.log(d) / n
    return float(np.trace(r @ omega) - logdet + penalty)


def select_hbic(
    r: np.ndarray,
    n: int,
    config: GlassoConfig = GlassoConfig(),
) -> tuple[PrecisionEstimate, list[PrecisionEstimate]]:
    """Fit the whole penalty path and pick the HBIC minimizer.

    Each penalty determines a candidate edge set; the HBIC likelihood
    term is evaluated at the support-constrained unpenalized refit of
    that edge set, not at the shrunken penalized estimate (shrinkage
    grows with the penalty and would otherwise dominate the score,
    making selection collapse to the smallest penalty regardless of the
    data).  Ties break toward the smallest penalty.  Returns the winner
    and the full path ordered from smallest to largest penalty.
    """
    r = np.asarray(r, dtype=float)
    if n < 3:
        raise ValueError(f"need n >= 3 observations for HBIC, got {n}")
    path = config.lambda_path or default_lambda_path(r)
    fits = []
    refit_cache: dict[tuple, float] = {}
    for lam in sorted(path):
        fit = glasso_fit(r, lam)
        support = tuple(fit.edges)
        if support not in refit_cache:
            refit_cache[support] = hbic_score(
                r, refit_support(r, support), n, config.hbic_cn
            )
        fit.hbic = refit_cache[support]
        fits.append(fit)
    best = min(fits, key=lambda f: (f.hbic, f.lam))
    return best, fits
