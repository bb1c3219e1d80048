"""Graphical lasso over a correlation matrix, with HBIC model selection.

Solves  min_Omega  tr(R Omega) - log det Omega + sum_{j != k} lam_jk |Omega_jk|
by block coordinate descent on the covariance estimate W.  The diagonal is
unpenalized, so W keeps the diagonal of R.  Each step updates one column
of W through the lasso subproblem

    min_b  1/2 b' W11 b - s12' b + sum_m lam_m |b_m|,

which an active-set (feature-sign) method solves exactly (Lee et al. 2007,
"Efficient sparse coding algorithms").  On the active set A with signs
theta it solves  W11[A, A] b_A = s12[A] - lam_A theta_A.  If that moves a
penalized coordinate through zero, it stops at the first crossing and
drops the coordinate; otherwise it admits the zero coordinate that most
violates the KKT condition |W11 b - s12|_m <= lam_m, until none does.
Each column starts from the previous sweep's b, or the previous lam's
(`select_hbic` fits from the largest lam down).  W always starts at R,
so the start changes the work, not the result.

`glasso_fit` puts lam on every off-diagonal entry.  `refit_support`
computes the exact maximum likelihood estimate under a zero pattern (ESL
Algorithm 17.1): the penalty is 0 on the support, whose coordinates are
always active, and infinite off it, so those are never admitted and each
column is one solve W11[A, A] b_A = s12[A].  Both return a PrecisionEstimate
(a refit's has lam = 0) that says whether the fit converged.

Both first split the variables into the connected components of
{|R_jk| > lam_jk} (for a refit: the support edges).  The solution is block
diagonal over them (Witten, Friedman & Simon 2011; Mazumder & Hastie 2012),
so each component is fitted alone and a single variable j gets 1 / R_jj.
"""

from __future__ import annotations

from dataclasses import dataclass

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


# Block coordinate descent stops when no entry of W moves by more than
# CONVERGENCE_TOL in a sweep, or after MAX_SWEEPS sweeps; a column solve
# stops after MAX_SWEEPS active-set steps.
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
    """One fitted precision matrix plus its selection bookkeeping.

    From `glasso_fit`, or from `refit_support` with lam = 0.  `sweeps`
    counts the block coordinate descent sweeps of the slowest component
    (0 when every variable is its own component).  `converged` is false
    when the fit or one of its column solves stopped at MAX_SWEEPS; on
    the path of `select_hbic` it also covers the fit's support refit.
    """

    lam: float
    omega: np.ndarray
    objective: float
    edges: list[tuple[int, int]]
    hbic: float = np.nan
    sweeps: int = 0
    converged: bool = True

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def glasso_objective(r: np.ndarray, omega: np.ndarray, lam: float) -> float:
    """tr(R Omega) - log det Omega + lam * sum_{j != k} |Omega_jk|, inf
    unless Omega is positive definite."""
    try:
        np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        return np.inf
    logdet = np.linalg.slogdet(omega)[1]
    penalty = lam * (np.abs(omega).sum() - np.abs(np.diag(omega)).sum())
    return float(np.trace(r @ omega) - logdet + penalty)


def _lasso_column(w, s, lam, b):
    """Exact minimizer of 1/2 b'Wb - s'b + sum_m lam_m |b_m|, warm-started at b.

    Coordinates with lam_m = 0 are always active and those with
    lam_m = inf are never admitted.  Returns (b, converged, wb), where wb
    is W b as the KKT check formed it when b's nonzeros are the active
    set, else None.
    """
    b = b.copy()
    active = (b != 0) | (lam == 0)
    theta = np.sign(b)
    for _ in range(MAX_SWEEPS):
        a = active.nonzero()[0]
        lam_a, theta_a = lam[a], theta[a]
        x = np.linalg.solve(w.take(a, 0).take(a, 1), s[a] - lam_a * theta_a)
        crossed = ((lam_a > 0) & (x * theta_a < 0)).nonzero()[0]
        if crossed.size:
            # Step to the first sign change and drop the coordinates there.
            old = b[a[crossed]]
            t = old / (old - x[crossed])
            step = t.min()
            if step == 0:
                # A coordinate admitted at zero moves toward its sign in exact
                # arithmetic, so its violation was roundoff: b is optimal.
                return b, True, None
            b[a] += step * (x - b[a])
            gone = a[crossed[t == step]]
            b[gone] = 0.0
            active[gone] = False
            continue
        b[a] = x
        wb = w[:, a] @ x
        grad = wb - s
        excess = np.abs(grad) - lam
        excess[active] = -np.inf
        m = int(np.argmax(excess))
        if excess[m] <= 0:
            return b, True, wb if x.all() else None
        active[m] = True
        theta[m] = -np.sign(grad[m])
    return b, False, None


def _fit_block(r: np.ndarray, lam: np.ndarray, beta: np.ndarray):
    """Block coordinate descent on one connected component (d >= 2), from
    the lasso coefficients beta (row j: column j's), updated in place."""
    d = r.shape[0]
    lam = lam.copy()
    np.fill_diagonal(lam, np.inf)  # column j's own coordinate is not a variable
    # With every penalty 0 or inf (a refit), column j's active set is fixed.
    fixed = None if ((lam > 0) & (lam < np.inf)).any() else [
        (lam[:, j] == 0).nonzero()[0] for j in range(d)]
    w = r.copy()
    converged = True
    for sweeps in range(1, MAX_SWEEPS + 1):
        w_old = w.copy()
        for j in range(d):
            if fixed is None:
                beta[j], ok, w12 = _lasso_column(w, r[:, j], lam[:, j], beta[j])
                converged &= ok
            else:
                a = fixed[j]
                x = beta[j, a] = np.linalg.solve(w.take(a, 0).take(a, 1), r[a, j])
                w12 = w[:, a] @ x if x.all() else None
            if w12 is None:
                nz = beta[j].nonzero()[0]
                w12 = w[:, nz] @ beta[j, nz]
            w12[j] = w[j, j]
            w[:, j] = w12
            w[j, :] = w12
        if np.abs(w - w_old).max() < CONVERGENCE_TOL:
            break
    else:
        converged = False

    omega = -beta.T
    o_diag = 1.0 / (np.diag(w) - np.einsum("ij,ij->i", w, beta))
    omega *= o_diag
    np.fill_diagonal(omega, o_diag)
    return 0.5 * (omega + omega.T), sweeps, converged


def _components(adj: np.ndarray) -> list[np.ndarray]:
    """Connected components of a symmetric boolean adjacency matrix."""
    label = np.arange(adj.shape[0])
    while True:
        # each vertex takes the smallest label among itself and its neighbours
        new = np.where(adj, label, label[:, None]).min(axis=1)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    return [np.flatnonzero(label == c) for c in np.unique(label)]


def _fit_core(r: np.ndarray, lam: np.ndarray, beta: np.ndarray):
    """Fit with a per-entry penalty matrix, one component at a time, from
    the lasso coefficients beta.  Returns (omega, sweeps, converged)."""
    omega = np.zeros_like(r)
    sweeps, converged = 0, True
    for block in _components(np.abs(r) > lam):
        if block.size == 1:
            j = block[0]
            omega[j, j] = 1.0 / r[j, j]
            continue
        ix = np.ix_(block, block)
        omega[ix], block_sweeps, ok = _fit_block(r[ix], lam[ix], beta[ix])
        sweeps = max(sweeps, block_sweeps)
        converged &= ok
    return omega, sweeps, converged


def _check_correlation(r) -> np.ndarray:
    """r as a float array; raises ValueError unless square, nonempty and finite."""
    r = np.asarray(r, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("correlation matrix must be square")
    if r.size == 0:
        raise ValueError("correlation matrix is empty (0 x 0)")
    bad = np.argwhere(~np.isfinite(r))
    if bad.size:
        j, k = bad[0]
        raise ValueError(f"correlation matrix entry ({j}, {k}) is not finite: {r[j, k]}")
    return r


def _check_penalty(lam: float) -> None:
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"penalty must be finite and nonnegative, got {lam}")


def _estimate(r: np.ndarray, lam: float, penalty: np.ndarray, beta: np.ndarray) -> PrecisionEstimate:
    """Fit under the per-entry penalty matrix; lam is the objective's penalty."""
    omega, sweeps, converged = _fit_core(r, penalty, beta)
    return PrecisionEstimate(
        lam=lam,
        omega=omega,
        objective=glasso_objective(r, omega, lam),
        edges=_edges(omega, EDGE_THRESHOLD),
        sweeps=sweeps,
        converged=converged,
    )


def glasso_fit(r: np.ndarray, lam: float, *, start: PrecisionEstimate | None = None) -> PrecisionEstimate:
    """Fit one penalized precision matrix at penalty lam.

    `start`, an estimate on the same r, starts each column's lasso from
    beta[j, k] = -omega[k, j] / omega[j, j].  W still starts at R, so the
    result is the cold start's (start=None)."""
    r = _check_correlation(r)
    d = r.shape[0]
    _check_penalty(lam)
    beta = np.zeros((d, d))
    if start is not None:
        if start.omega.shape != r.shape:
            raise ValueError(f"start shape {start.omega.shape} does not match correlation shape {r.shape}")
        beta = -start.omega.T / np.diag(start.omega)[:, None]
        beta[beta == 0] = 0.0  # as a cold start's; -0.0 would flip the sign of omega's zeros
        np.fill_diagonal(beta, 0.0)
    return _estimate(r, float(lam), np.full((d, d), float(lam)), beta)


def refit_support(r: np.ndarray, edges) -> PrecisionEstimate:
    """Unpenalized MLE of the precision matrix constrained to a support.

    Off-diagonal entries of `omega` outside the edge set are exact zeros;
    entries on the support are unpenalized.  The estimate has lam = 0, so
    its objective is the unpenalized negative log-likelihood, and
    `converged` is false when the refit stopped at MAX_SWEEPS.
    """
    r = _check_correlation(r)
    d = r.shape[0]
    penalty = np.full((d, d), np.inf)
    np.fill_diagonal(penalty, 0.0)
    for edge in edges:
        if not (all(isinstance(v, (int, np.integer)) and 0 <= v < d for v in edge)
                and len(edge) == 2 and edge[0] != edge[1]):
            raise ValueError(f"edge {edge!r} is not two distinct integers in 0..{d - 1}")
        penalty[edge[0], edge[1]] = penalty[edge[1], edge[0]] = 0.0
    return _estimate(r, 0.0, penalty, np.zeros((d, d)))


def _edges(omega: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    j, k = np.nonzero(np.triu(np.abs(omega) > threshold, 1))
    return list(zip(j.tolist(), k.tolist()))


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
    if n < 3:  # log(log n) must be positive
        raise ValueError(f"need n >= 3 observations for HBIC, got {n}")
    r = _check_correlation(r)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != r.shape:
        raise ValueError(f"precision matrix shape {omega.shape} does not match correlation shape {r.shape}")
    d = r.shape[0]
    n_edges = len(_edges(omega, 0.0))
    penalty = cn * n_edges * np.log(np.log(n)) * np.log(d) / n
    return float(glasso_objective(r, omega, 0.0) + penalty)


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
    data).  Each distinct penalty is fitted once and each distinct edge
    set refitted once.  Ties break toward the smallest penalty.  Returns
    the winner and the full path ordered from smallest to largest penalty.
    """
    r = _check_correlation(r)
    cn = config.hbic_cn
    if not (np.isfinite(cn) and cn >= 0):
        raise ValueError(f"hbic_cn must be finite and nonnegative, got {cn}")
    path = default_lambda_path(r) if config.lambda_path is None else config.lambda_path
    if len(path) == 0:
        raise ValueError("lambda path is empty")
    for lam in path:
        _check_penalty(lam)
    fits = []
    refits: dict[tuple, PrecisionEstimate] = {}
    fit = None
    for lam in sorted(set(path), reverse=True):  # each fit starts from the last
        fit = glasso_fit(r, lam, start=fit)
        support = tuple(fit.edges)
        refit = refits.get(support)
        if refit is None:
            refit = refits[support] = refit_support(r, support)
            refit.hbic = hbic_score(r, refit.omega, n, cn)
        fit.hbic = refit.hbic
        fit.converged = fit.converged and refit.converged
        fits.insert(0, fit)
    best = min(fits, key=lambda f: (f.hbic, f.lam))
    return best, fits
