"""Latent Gaussian copula sampling and the error-curve experiments.

Provides seeded data generation from the latent model, the two
discretization experiments (equal-mass levels, and collapse-from-16),
the concentration-rate harness, and the Monte-Carlo oracles used by the
test suite.  All randomness flows through a counter-based Philox
generator with one spawned stream per replicate, so replicates are
reproducible and order-independent.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import kendall
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
    "mc_population_tau_a",
    "mc_tau_b_replicates",
]

R_GRID_CAP = 0.99  # latent correlations must stay inside (-1, 1)
N_BINS = 10


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
    return np.array([std_quantile(l / p) for l in range(1, p)])


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


def _estimate_replicates(samples, specs, pairs, where):
    """One estimator call over the replicates {rep: sample}, stacked; an error
    names where, and the first replicate that fails alone (as in the stack)."""
    try:
        return estimate_latent_correlation(np.stack(list(samples.values())), specs, pairs=pairs)
    except Exception:
        for rep, x in samples.items():
            try:
                estimate_latent_correlation(x, specs, pairs=pairs)
            except Exception as exc:
                raise type(exc)(f"{where}, replicate {rep}: {exc}") from exc
        raise


def _run_discretization_experiment(p_values, r_grid, n, reps, seed, collapse=False):
    """Shared harness for both discretization protocols.

    For every (r, replicate) one latent bivariate sample is drawn and
    reused across all p values and the continuous baseline, so curves for
    different p are directly comparable and the uncollapsed p=16 curve is
    identical across protocols under the same seed.  Each r makes one
    estimator call over its replicates, stacked, covering the (ordinal,
    continuous) pair of every p and the continuous baseline pair (z0, z);
    replicates whose pair lists differ go in separate stacks.
    collapse selects the collapse-from-16 protocol over equal-mass levels.
    """
    p_values, r_grid = check_discretization_options(p_values, r_grid, n, reps)
    root = np.random.SeedSequence(seed)
    children = root.spawn(r_grid.size * reps)
    pop_cuts = {p: equal_mass_cutoffs(p) for p in p_values}
    base_cuts = equal_mass_cutoffs(16) if collapse else None
    # one ordinal column per p, then the two latent columns z0 and z
    specs = [ColumnSpec(f"p{p}", p) for p in p_values] + [ColumnSpec("z0"), ColumnSpec("z")]
    base, last = len(p_values), len(p_values) + 1

    sq_err = {p: np.zeros(r_grid.size) for p in p_values}
    sq_err_base = np.zeros(r_grid.size)
    for i, r in enumerate(r_grid):
        chol = np.linalg.cholesky(np.array([[1.0, r], [r, 1.0]]))
        groups = {}  # replicates by pair list: {varied columns: {rep: sample}}
        varied = []
        for rep in range(reps):
            z = _sample_latent(chol, n, _rng(children[i * reps + rep]))
            if collapse:
                codes16 = np.digitize(z[:, 0], base_cuts).astype(float)
                codes = [np.minimum(codes16, p - 1) for p in p_values]
            else:
                codes = [np.digitize(z[:, 0], pop_cuts[p]).astype(float) for p in p_values]
            # a single observed level carries no rank information; the
            # all-ties tau maps to 0, so such a column gets no pair
            varied.append(tuple(m for m, c in enumerate(codes) if c.min() < c.max()))
            groups.setdefault(varied[-1], {})[rep] = np.column_stack(codes + [z[:, 0], z[:, 1]])
        estimates = {}
        for columns, samples in groups.items():
            pairs = [(m, last) for m in columns] + [(base, last)]
            estimates.update(zip(samples, _estimate_replicates(samples, specs, pairs, f"r = {r:g}")))
        for rep, est in sorted(estimates.items()):
            sq_err_base[i] += (est.values[base, last] - r) ** 2
            for m, p in enumerate(p_values):
                r_hat = est.values[m, last] if m in varied[rep] else 0.0
                sq_err[p][i] += (r_hat - r) ** 2

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
    curves = [_curve(sq_err[p], p, tag) for p in p_values]
    curves.append(_curve(sq_err_base, 0, "continuous_baseline"))
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
    """
    n_grid = np.asarray(sorted(n_grid), dtype=int)
    sigma = 0.5 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    cuts = equal_mass_cutoffs(p)
    cutoffs = tuple(cuts if j < d // 2 else None for j in range(d))
    spec = CopulaSpec(sigma, cutoffs)
    specs = spec.column_specs

    root = np.random.SeedSequence(seed)
    children = root.spawn(n_seeds * n_grid.size)
    sup_err = np.zeros((n_seeds, n_grid.size))
    for i, n in enumerate(n_grid):  # one estimator call per n over the n_seeds replicates
        samples = {s: sample_copula(spec, int(n), children[s * n_grid.size + i]) for s in range(n_seeds)}
        for s, est in enumerate(_estimate_replicates(samples, specs, None, f"n = {n}")):
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
