"""Graphical lasso over a correlation matrix, with HBIC model selection.

Solves  min_Omega  tr(R Omega) - log det Omega + lam sum_{j != k} |Omega_jk|
by block coordinate descent on the covariance estimate W.  The diagonal is
unpenalized, so W keeps the diagonal of R.  Each step updates one column
of W through the lasso subproblem

    min_b  1/2 b' W11 b - s12' b + lam sum_m |b_m|,

which an active-set (feature-sign) method solves exactly (Lee et al. 2007,
"Efficient sparse coding algorithms").  On the active set A with signs
theta it solves  W11[A, A] b_A = s12[A] - lam theta_A.  If that moves a
coordinate through zero, it stops at the first crossing and drops the
coordinate; otherwise it admits the zero coordinate that most violates the
KKT condition |W11 b - s12|_m <= lam, until none does.
Each column starts from the previous sweep's b, or the previous lam's
(`select_hbic` fits from the largest lam down).  W always starts at R,
so the start changes the work, not the result.

`glasso_fit` puts lam on every off-diagonal entry.  `refit_support`
computes the exact maximum likelihood estimate under a zero pattern (ESL
Algorithm 17.1): lam = 0 with Omega_jk = 0 off a support, so column j's
active set is its support neighbours, fixed, and each column is one solve
W11[A, A] b_A = s12[A] per sweep (as at lam = 0 without a support, where
every variable is a neighbour).  Both return a PrecisionEstimate (a
refit's has lam = 0) that says whether the fit converged.

Every solve calls the compiled LAPACK routine behind np.linalg.solve
without its Python wrapper, so it gives np.linalg.solve's bits, and under
np.linalg.solve's floating-point error state (see `_fit_block`).

Both first split the variables into the connected components of
{|R_jk| > lam} (for a refit: of its support edges).  The solution is block
diagonal over them (Witten, Friedman & Simon 2011; Mazumder & Hastie 2012),
so each component is fitted alone and a single variable j gets 1 / R_jj.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

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


def _raise_singular(err, flag):
    raise np.linalg.LinAlgError("Singular matrix")


# The gufunc np.linalg.solve calls for a 1-D right-hand side (private numpy
# API; a test pins its bits to np.linalg.solve), and np.linalg.solve's error
# state, under which it raises LinAlgError for a singular matrix.
_solve = partial(_umath_linalg.solve1, signature="dd->d")
_SOLVE_ERRSTATE = dict(call=_raise_singular, invalid="call", over="ignore", divide="ignore", under="ignore")


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


def _lasso_column(w, s, lam, j, b):
    """Exact minimizer of 1/2 b'Wb - s'b + lam * sum_m |b_m| over b with
    b_j = 0, warm-started at b and updated in place (lam > 0).

    Returns (converged, wb), where wb is W b as the KKT check formed it
    when b's nonzeros are the active set, else None.
    """
    active = b != 0
    theta = np.sign(b)
    for _ in range(MAX_SWEEPS):
        a = active.nonzero()[0]
        theta_a = theta[a]
        x = _solve(w.take(a, 0).take(a, 1), s[a] - lam * theta_a)
        crossed = (x * theta_a < 0).nonzero()[0]
        if crossed.size:
            # Step to the first sign change and drop the coordinates there.
            old = b[a[crossed]]
            t = old / (old - x[crossed])
            step = t.min()
            if step == 0:
                # A coordinate admitted at zero moves toward its sign in exact
                # arithmetic, so its violation was roundoff: b is optimal.
                return True, None
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
        excess[j] = -np.inf
        m = excess.argmax()
        if excess[m] <= 0:
            return True, wb if np.count_nonzero(x) == x.size else None
        active[m] = True
        theta[m] = -np.sign(grad[m])
    return False, None


def _fit_block(r: np.ndarray, lam: float, support: np.ndarray | None, beta: np.ndarray):
    """Block coordinate descent on one connected component (d >= 2), from
    the lasso coefficients beta (row j: column j's), updated in place.

    lam is the penalty on every off-diagonal entry.  At lam = 0 column j's
    active set is fixed: its neighbours in the boolean support (False on
    the diagonal), or every other variable when support is None.  The
    sweeps run under np.linalg.solve's error state, so a singular system
    raises LinAlgError("Singular matrix") and overflow, division by zero
    and underflow are ignored.  The rest of the loop's arithmetic runs
    under it too; on a finite r it raises no floating-point error.
    """
    d = r.shape[0]
    # at lam = 0 column j's active set is fixed, and so is its right-hand side
    fixed = None
    if lam == 0:
        nbrs = ~np.eye(d, dtype=bool) if support is None else support
        fixed = [(a, r[a, j]) for j in range(d) for a in [nbrs[:, j].nonzero()[0]]]
    w = r.copy()
    converged = True
    with np.errstate(**_SOLVE_ERRSTATE):
        for sweeps in range(1, MAX_SWEEPS + 1):
            w_old = w.copy()
            for j in range(d):
                if fixed is None:
                    ok, w12 = _lasso_column(w, r[:, j], lam, j, beta[j])
                    converged &= ok
                else:
                    a, s_a = fixed[j]
                    x = beta[j, a] = _solve(w.take(a, 0).take(a, 1), s_a)
                    w12 = w[:, a] @ x if np.count_nonzero(x) == x.size else None
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

    omega = 0.0 - beta.T  # not -beta.T, whose +0.0 coefficients give -0.0 entries
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        o_diag = 1.0 / (np.diag(w) - np.einsum("ij,ij->i", w, beta))
    if not np.all(np.isfinite(o_diag) & (o_diag > 0.0)):  # W is singular to working precision
        raise np.linalg.LinAlgError("Singular matrix")
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


def _fit(r: np.ndarray, lam: float, support: np.ndarray | None, beta: np.ndarray) -> PrecisionEstimate:
    """Fit at penalty lam, restricted to the boolean support unless it is
    None, one component of {|R_jk| > lam} (and the support) at a time, from
    the lasso coefficients beta."""
    adj = np.abs(r) > lam
    if support is not None:
        adj &= support
    omega = np.zeros_like(r)
    sweeps, converged = 0, True
    for block in _components(adj):
        if block.size == 1:
            j = block[0]
            omega[j, j] = 1.0 / r[j, j]
            continue
        ix = np.ix_(block, block)
        omega[ix], block_sweeps, ok = _fit_block(r[ix], lam, None if support is None else support[ix], beta[ix])
        sweeps = max(sweeps, block_sweeps)
        converged &= ok
    return PrecisionEstimate(
        lam=lam,
        omega=omega,
        objective=glasso_objective(r, omega, lam),
        edges=_edges(omega, EDGE_THRESHOLD),
        sweeps=sweeps,
        converged=converged,
    )


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


def glasso_fit(r: np.ndarray, lam: float, *, start: PrecisionEstimate | None = None) -> PrecisionEstimate:
    """Fit one penalized precision matrix at penalty lam.

    `start`, an estimate on the same r with a finite omega, a positive
    diagonal and finite coefficients beta[j, k] = -omega[k, j] /
    omega[j, j], starts each column's lasso from them.  W still starts at
    R, so the result is the cold start's (start=None)."""
    r = _check_correlation(r)
    d = r.shape[0]
    _check_penalty(lam)
    beta = np.zeros((d, d))
    if start is not None:
        if start.omega.shape != r.shape:
            raise ValueError(f"start shape {start.omega.shape} does not match correlation shape {r.shape}")
        bad = np.argwhere(~np.isfinite(start.omega))
        if bad.size:
            j, k = bad[0]
            raise ValueError(f"start precision entry ({j}, {k}) is not finite: {start.omega[j, k]}")
        bad = (np.diag(start.omega) <= 0).nonzero()[0]
        if bad.size:
            j = bad[0]
            raise ValueError(f"start precision entry ({j}, {j}) is not positive: {start.omega[j, j]}")
        with np.errstate(over="ignore"):  # a tiny diagonal entry; named below
            beta = -start.omega.T / np.diag(start.omega)[:, None]
        np.fill_diagonal(beta, 0.0)
        bad = np.argwhere(~np.isfinite(beta))
        if bad.size:
            j, k = bad[0]
            raise ValueError(f"start coefficient ({j}, {k}), -omega[{k}, {j}] / omega[{j}, {j}], is not finite: "
                             f"{beta[j, k]}")
    return _fit(r, float(lam), None, beta)


def refit_support(r: np.ndarray, edges) -> PrecisionEstimate:
    """Unpenalized MLE of the precision matrix constrained to a support.

    Off-diagonal entries of `omega` outside the edge set are exact zeros;
    entries on the support are unpenalized.  The estimate has lam = 0, so
    its objective is the unpenalized negative log-likelihood, and
    `converged` is false when the refit stopped at MAX_SWEEPS.
    """
    r = _check_correlation(r)
    d = r.shape[0]
    support = np.zeros((d, d), dtype=bool)
    for edge in edges:
        if not (all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and 0 <= v < d for v in edge)
                and len(edge) == 2 and edge[0] != edge[1]):
            raise ValueError(f"edge {edge!r} is not two distinct integers in 0..{d - 1}")
        support[edge[0], edge[1]] = support[edge[1], edge[0]] = True
    return _fit(r, 0.0, support, np.zeros((d, d)))


def _edges(omega: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    j, k = np.nonzero(np.triu(np.abs(omega) > threshold, 1))
    return list(zip(j.tolist(), k.tolist()))


def default_lambda_path(r: np.ndarray) -> tuple[float, ...]:
    """10 equally spaced penalties from m/10 up to m = max offdiag |R|.

    When the off-diagonal is identically zero the path degenerates to a
    single tiny positive penalty.  r is checked as `select_hbic` checks it.
    """
    r = _check_correlation(r)
    off = np.abs(r - np.diag(np.diag(r)))
    m = float(off.max())
    if m <= 0.0:
        return (1e-8,)
    return tuple(np.linspace(m / LAMBDA_PATH_POINTS, m, LAMBDA_PATH_POINTS))


def _hbic_penalty(omega: np.ndarray, n: int, cn: float) -> float:
    """cn * |E| * log(log n) * log d / n, |E| counting every nonzero edge."""
    if n < 3:  # log(log n) must be positive
        raise ValueError(f"need n >= 3 observations for HBIC, got {n}")
    return cn * len(_edges(omega, 0.0)) * np.log(np.log(n)) * np.log(omega.shape[0]) / n


def hbic_score(r: np.ndarray, omega: np.ndarray, n: int, cn: float = 3.0) -> float:
    """tr(R Omega) - log det Omega + cn * |E| * log(log n) * log d / n."""
    r = _check_correlation(r)
    omega = np.asarray(omega, dtype=float)
    if omega.shape != r.shape:
        raise ValueError(f"precision matrix shape {omega.shape} does not match correlation shape {r.shape}")
    return float(glasso_objective(r, omega, 0.0) + _hbic_penalty(omega, n, cn))


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
            refit.hbic = float(refit.objective + _hbic_penalty(refit.omega, n, cn))
        fit.hbic = refit.hbic
        fit.converged = fit.converged and refit.converged
        fits.insert(0, fit)
    best = min(fits, key=lambda f: (f.hbic, f.lam))
    return best, fits
