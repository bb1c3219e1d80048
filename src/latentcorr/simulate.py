"""Latent Gaussian copula sampling and the error-curve experiments.

Provides seeded data generation from the latent model, the two
discretization experiments (equal-mass levels, and collapse-from-16) and
the concentration-rate harness.  All randomness flows through a
counter-based Philox generator with one spawned stream per replicate, so
replicates are reproducible and order-independent.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

# estimate_cutoffs and invert_bridge are unused here but stay bound:
# perfbench/spans.py wraps them by name.
from .bridge import estimate_cutoffs, invert_bridge
from .estimator import ColumnSpec, estimate_latent_correlation
from .normal_dist import std_quantile

__all__ = [
    "CopulaSpec",
    "ErrorCurve",
    "sample_copula",
    "equal_mass_cutoffs",
    "scenario1",
    "scenario2",
    "check_discretization_options",
    "concentration_check",
    "error_curves_to_text",
]

R_GRID_CAP = 0.99  # latent correlations must stay inside (-1, 1)
N_BINS = 10

# Cells (replicates x rows x columns) of one estimator call of the discretization
# experiments, 2 MB of float64; one r of the default 80 replicates takes 136,000.
STACK_CELLS = 1 << 18


def _rng(seed_seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed_seq))


@dataclass(frozen=True)
class CopulaSpec:
    """Sampling recipe: latent correlation plus per-column discretization.

    cutoffs[j] is None for a continuous column, else the nondecreasing latent
    thresholds producing codes 0..p-1.  chol is sigma's Cholesky factor,
    computed once for every sample drawn from the spec.
    """

    sigma: np.ndarray
    cutoffs: tuple = ()
    chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sigma = np.asarray(self.sigma, dtype=float)
        d = sigma.shape[0]
        if sigma.shape != (d, d) or not np.allclose(sigma, sigma.T):
            raise ValueError("sigma must be a symmetric square matrix")
        if not np.allclose(np.diag(sigma), 1.0):
            raise ValueError("sigma must have a unit diagonal")
        if np.linalg.eigvalsh(sigma)[0] <= 0:
            raise ValueError("sigma must be positive definite")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "chol", np.linalg.cholesky(sigma))
        cuts = self.cutoffs or (None,) * d
        if len(cuts) != d:
            raise ValueError(f"{len(cuts)} cutoff entries for {d} columns")
        cuts = tuple(None if c is None else np.asarray(c, dtype=float) for c in cuts)
        for j, c in enumerate(cuts):
            if c is not None and (c.size == 0 or np.any(np.isnan(c)) or np.any(c[1:] < c[:-1])):
                raise ValueError(
                    f"column x{j}: cutoffs must be one or more nondecreasing, non-NaN values, "
                    f"got {c.tolist()}"
                )
        object.__setattr__(self, "cutoffs", cuts)

    @property
    def d(self) -> int:
        return self.sigma.shape[0]

    @property
    def column_specs(self) -> list[ColumnSpec]:
        return [
            ColumnSpec(f"x{j}", None if c is None else c.size + 1)
            for j, c in enumerate(self.cutoffs)
        ]


@dataclass
class ErrorCurve:
    """Binned mean squared error of the latent correlation estimate."""

    p: int
    bin_low: np.ndarray
    bin_high: np.ndarray
    mse: np.ndarray
    reps: int
    label: str = ""


def sample_copula(spec: CopulaSpec, n: int, seed) -> np.ndarray:
    """Draw n rows: latent N(0, sigma), then threshold discretized columns."""
    if n < 1:
        raise ValueError("need n >= 1")
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    z = _sample_latent(spec.chol, n, _rng(seq))
    return _discretize(z, spec.cutoffs)


def _sample_latent(chol: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((n, chol.shape[0])) @ chol.T


def _discretize(z: np.ndarray, cutoffs) -> np.ndarray:
    x = z.copy()
    for j, cuts in enumerate(cutoffs):
        if cuts is not None:
            x[:, j] = np.digitize(z[:, j], cuts)
    return x


def equal_mass_cutoffs(p: int) -> np.ndarray:
    """Population thresholds Phi^{-1}(l/p), l = 1..p-1 (equal level masses)."""
    if p < 2:
        raise ValueError("need p >= 2 levels")
    return std_quantile(np.arange(1, p) / p)


def _default_r_grid() -> np.ndarray:
    grid = np.round(np.arange(0.0, 1.0 + 1e-9, 0.01), 2)
    return grid[grid <= R_GRID_CAP]


def check_discretization_options(p_values, r_grid, n, reps):
    """Sorted distinct level counts and the r grid of a discretization run.

    Raises ValueError for a level count outside 2..16, an empty r grid or
    one outside [0, R_GRID_CAP], n < 2 or reps < 1.
    """
    p_values = sorted(set(int(p) for p in p_values))
    if not p_values or any(p < 2 or p > 16 for p in p_values):
        raise ValueError(f"level counts must lie in 2..16, got {p_values}")
    r_grid = _default_r_grid() if r_grid is None else np.asarray(r_grid, dtype=float)
    if r_grid.size == 0 or np.any(~(r_grid >= 0)) or np.any(r_grid > R_GRID_CAP):
        raise ValueError(f"r grid must be nonempty and lie in [0, {R_GRID_CAP}]")
    if n < 2:
        raise ValueError(f"need n >= 2 rows per replicate, got {n}")
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    return p_values, r_grid


def _estimate_replicates(x, specs, pair_lists, where):
    """Estimates of the replicates of the stack x, with one estimator call
    per distinct pair list (pair_lists[i] is replicate i's); an error names
    where[i] of the first replicate that fails alone (as in its stack)."""
    estimates = {}
    try:
        for pairs in dict.fromkeys(pair_lists):  # distinct, in order
            idx = [i for i, other in enumerate(pair_lists) if other == pairs]
            stack = x if len(idx) == len(x) else x[idx]
            estimates.update(zip(idx, estimate_latent_correlation(stack, specs, pairs=pairs)))
    except Exception:
        for sample, pairs, label in zip(x, pair_lists, where):
            try:
                estimate_latent_correlation(sample, specs, pairs=pairs)
            except Exception as exc:
                raise type(exc)(f"{label}: {exc}") from exc
        raise
    return [estimates[i] for i in range(len(x))]


def _run_discretization_experiment(p_values, r_grid, n, reps, seed, collapse=False):
    """Shared harness for both discretization protocols.

    For every (r, replicate) one latent bivariate sample is drawn and
    reused across all p values and the continuous baseline, so curves for
    different p are directly comparable and the uncollapsed p=16 curve is
    identical across protocols under the same seed.  The replicates of
    consecutive r values, as many whole r values as fit STACK_CELLS cells
    (at least one), go in one stack and one estimator call, covering the
    (ordinal, continuous) pair of every p and the continuous baseline pair
    (z0, z); replicates whose pair lists differ go in separate calls.
    collapse selects the collapse-from-16 protocol over equal-mass levels.
    """
    p_values, r_grid = check_discretization_options(p_values, r_grid, n, reps)
    root = np.random.SeedSequence(seed)
    children = root.spawn(r_grid.size * reps)
    # every p's codes from one search of z into edges (np.digitize is that
    # search), then lookup[i, m], the code of p_values[m] past i edges
    if collapse:  # 16 equal-mass levels, the highest merged down to p
        edges = equal_mass_cutoffs(16)
        lookup = np.minimum.outer(np.arange(edges.size + 1), np.array(p_values) - 1)
    else:  # p's code #{cuts <= z}, from the union of every p's cutoffs
        pop_cuts = [equal_mass_cutoffs(p) for p in p_values]
        edges = np.unique(np.concatenate(pop_cuts))
        below = np.append(-np.inf, edges)
        lookup = np.column_stack([np.searchsorted(cuts, below, side="right") for cuts in pop_cuts])
    # one ordinal column per p, then the two latent columns z0 and z
    specs = [ColumnSpec(f"p{p}", p) for p in p_values] + [ColumnSpec("z0"), ColumnSpec("z")]
    base, last = len(p_values), len(p_values) + 1

    sq_err = np.zeros((r_grid.size, base + 1))  # per r: each p's, then the baseline's
    per_call = max(1, STACK_CELLS // (reps * n * (last + 1)))  # whole r values
    for first in range(0, r_grid.size, per_call):
        grid = r_grid[first : first + per_call]
        x = np.empty((grid.size * reps, n, last + 1))
        for i, r in enumerate(grid):
            chol = np.linalg.cholesky(np.array([[1.0, r], [r, 1.0]]))
            for rep in range(reps):
                x[i * reps + rep, :, base:] = _sample_latent(chol, n, _rng(children[(first + i) * reps + rep]))
        x[..., :base] = lookup[np.searchsorted(edges, x[..., base], side="right")]
        # a single observed level carries no rank information; the
        # all-ties tau maps to 0, so such a column gets no pair
        varied = x[..., :base].min(axis=1) < x[..., :base].max(axis=1)
        pair_lists = [tuple((m, last) for m in np.flatnonzero(v)) + ((base, last),) for v in varied]
        where = [f"r = {r:g}, replicate {rep}" for r in grid for rep in range(reps)]
        r_hat = np.array([est.values[:last, last] for est in _estimate_replicates(x, specs, pair_lists, where)])
        r_hat[:, :base][~varied] = 0.0
        err = (r_hat - np.repeat(grid, reps)[:, None]) ** 2
        # each r's replicates summed in order, as one by one
        sq_err[first : first + grid.size] = np.cumsum(err.reshape(grid.size, reps, -1), axis=1)[:, -1]

    # l / N_BINS is the float nearest each edge, so r = 0.3 lands in [0.3, 0.4)
    bins = np.arange(N_BINS + 1) / N_BINS
    which = np.clip(np.digitize(r_grid, bins) - 1, 0, N_BINS - 1)
    counts = np.bincount(which, minlength=N_BINS).astype(float)
    counts[counts == 0] = np.nan

    def _curve(total, p, label):
        per_r = total / reps
        binned = np.bincount(which, weights=per_r, minlength=N_BINS) / counts
        return ErrorCurve(
            p=p, bin_low=bins[:-1].copy(), bin_high=bins[1:].copy(),
            mse=binned, reps=reps, label=label,
        )

    tag = "collapsed" if collapse else "equal_mass"
    curves = [_curve(sq_err[:, m], p, tag) for m, p in enumerate(p_values)]
    curves.append(_curve(sq_err[:, base], 0, "continuous_baseline"))
    return curves


def scenario1(p_values=range(2, 17), r_grid=None, n=100, reps=80, seed=0):
    """Equal-mass discretization: cutoffs Phi^{-1}(l/p) for each p.

    Returns one ErrorCurve per p plus the continuous-data baseline
    (labelled p=0).
    """
    return _run_discretization_experiment(p_values, r_grid, n, reps, seed)


def scenario2(p_values=range(2, 17), r_grid=None, n=100, reps=80, seed=0):
    """Collapse-from-16: discretize at 16 equal-mass levels, then merge the
    highest levels down until p remain.  The p=16 curve is identical to
    the equal-mass protocol under the same seed."""
    return _run_discretization_experiment(p_values, r_grid, n, reps, seed, collapse=True)


def concentration_check(
    d=10, p=3, n_grid=(250, 500, 1000, 2000, 4000), seed=0, n_seeds=20
):
    """Sup-norm error of the estimated latent correlation matrix vs n.

    Half the columns are p-level ordinal (equal-mass cutoffs), half
    continuous; the latent correlation is AR(1) with parameter 0.5.
    Returns (n_grid array, mean sup-error per n, fitted log-log slope).
    Raises ValueError for d < 2, fewer than two distinct n, any n < 2, or
    n_seeds < 1.
    """
    n_grid = np.asarray(sorted(n_grid), dtype=int)
    if d < 2:
        raise ValueError(f"need d >= 2 columns, got {d}")
    if np.unique(n_grid).size < 2 or n_grid[0] < 2:
        raise ValueError(f"need two or more distinct sample sizes n >= 2, got {n_grid.tolist()}")
    if n_seeds < 1:
        raise ValueError(f"need n_seeds >= 1, got {n_seeds}")
    sigma = 0.5 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    cuts = equal_mass_cutoffs(p)
    cutoffs = tuple(cuts if j < d // 2 else None for j in range(d))
    spec = CopulaSpec(sigma, cutoffs)
    specs = spec.column_specs

    root = np.random.SeedSequence(seed)
    children = root.spawn(n_seeds * n_grid.size)
    sup_err = np.zeros((n_seeds, n_grid.size))
    for i, n in enumerate(n_grid):  # one estimator call per n over the n_seeds replicates
        x = np.stack([sample_copula(spec, int(n), children[s * n_grid.size + i]) for s in range(n_seeds)])
        where = [f"n = {n}, replicate {s}" for s in range(n_seeds)]
        for s, est in enumerate(_estimate_replicates(x, specs, [None] * n_seeds, where)):
            sup_err[s, i] = np.abs(est.values - sigma).max()
    mean_err = sup_err.mean(axis=0)
    slope = np.polyfit(np.log(n_grid), np.log(mean_err), 1)[0]
    return n_grid, mean_err, float(slope)


def error_curves_to_text(curves) -> str:
    """Tab-delimited table with columns p, bin_low, bin_high, mse, reps."""
    buf = io.StringIO()
    buf.write("p\tbin_low\tbin_high\tmse\treps\n")
    for curve in curves:
        for lo, hi, mse in zip(curve.bin_low, curve.bin_high, curve.mse):
            buf.write(f"{curve.p}\t{lo:.1f}\t{hi:.1f}\t{mse:.12e}\t{curve.reps}\n")
    return buf.getvalue()

