"""Latent correlation matrix assembly and PSD projection.

Builds the full d x d matrix of bridge-inverted latent correlations from
a mixed-type data matrix, tagging every entry with the bridge that
produced it and whether its tau fell outside the achievable range.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass, field

import numpy as np

from . import kendall
from .bridge import (
    BridgeInversionError,
    BridgeKind,
    _Bridges,
    _newton,
    _untied,
    estimate_cutoffs,
    invert_bridge,
)
from .glasso import _check_correlation

__all__ = [
    "ColumnSpec",
    "LatentCorrelationMatrix",
    "infer_column_specs",
    "estimate_latent_correlation",
    "project_psd",
]

# A column is treated as ordinal when every value is an integer code and
# the number of distinct levels stays at or below this.
ORDINAL_INFERENCE_MAX_LEVELS = 10

# project_psd clips eigenvalues below this floor.
PSD_EPS = 1e-8


@dataclass(frozen=True)
class ColumnSpec:
    """Declared type of one variable: continuous, or ordinal with p levels."""

    name: str
    levels: int | None = None  # None = continuous

    @property
    def is_ordinal(self) -> bool:
        return self.levels is not None

    def __post_init__(self):
        levels = self.levels
        if levels is not None and not (isinstance(levels, numbers.Integral) and levels >= 2):
            raise ValueError(f"ordinal column {self.name!r} needs integer levels >= 2, got {levels!r}")


@dataclass
class LatentCorrelationMatrix:
    values: np.ndarray
    method: np.ndarray  # per-entry bridge tag (object array of str)
    clamped: np.ndarray  # per-entry bool
    specs: list[ColumnSpec] = field(default_factory=list)

    @property
    def d(self) -> int:
        return self.values.shape[0]


def infer_column_specs(data: np.ndarray, names=None) -> list[ColumnSpec]:
    """Ordinal if all values are finite integers with few distinct levels.

    NaN is missing; a column holding +-inf is continuous.
    """
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    names = names or [f"x{j}" for j in range(d)]
    if len(names) != d:
        raise ValueError(f"{len(names)} names for {d} columns")
    specs = []
    for j in range(d):
        col = data[:, j]
        col = col[~np.isnan(col)]
        distinct = np.unique(col)
        if (
            distinct.size >= 2
            and distinct.size <= ORDINAL_INFERENCE_MAX_LEVELS
            and np.all(np.isfinite(distinct) & (distinct == np.round(distinct)))
        ):
            specs.append(ColumnSpec(names[j], levels=distinct.size))
        else:
            specs.append(ColumnSpec(names[j], levels=None))
    return specs


def _pair_label(j: int, k: int, specs) -> str:
    return f"pair ({j}, {k}) [{specs[j].name!r}, {specs[k].name!r}]"


def _levels_and_grids(stack, ordinal):
    """Observed level counts (reps, d) of the ordinal columns of a stack (0
    elsewhere), and each (replicate, column)'s cutoff grid row -inf, D_1,
    ..., D_{p-1}, +inf, padded with +inf to the widest (reps, d, width + 1).

    One sort over the stack gives every column its observed levels: empty
    declared levels collapse, and the sorted values' level numbers
    0..levels-1 are the codes that one estimate_cutoffs call counts.  A
    column with fewer levels than the widest takes the first p - 1 of its
    cutoffs, which are the ones its own level count gives.
    """
    reps, n, d = stack.shape
    v = stack.transpose(2, 0, 1)[ordinal]  # (columns, reps, n), a copy
    v.sort(axis=-1)  # blanks last
    blank = np.isnan(v)
    new = (v[..., 1:] != v[..., :-1]) & ~blank[..., 1:]
    levels = np.zeros((reps, d), dtype=int)
    levels[:, ordinal] = 1 + new.sum(axis=-1).T
    width = int(levels.max(initial=2))  # 2 for no replicate
    grid = np.full((reps, d, width + 1), np.inf)
    grid[..., 0] = -np.inf
    if ordinal:
        v[..., 0] = 0.0  # the codes, in place of the sorted values
        np.cumsum(new, axis=-1, out=v[..., 1:])
        v[blank] = np.nan
        cuts = estimate_cutoffs(v.reshape(-1, n), width).reshape(len(ordinal), reps, width - 1)
        cuts = cuts.transpose(1, 0, 2)
        grid[:, ordinal, 1:width] = np.where(np.arange(1, width) < levels[:, ordinal, None], cuts, np.inf)
    return levels, grid


def estimate_latent_correlation(
    data,
    specs: list[ColumnSpec] | None = None,
    variant: str = "a",
    pairs=None,
) -> LatentCorrelationMatrix | list[LatentCorrelationMatrix]:
    """Bridge-inverted latent correlation matrix of a mixed data matrix.

    data is one (n, d) matrix, or a (reps, n, d) stack of replicates that
    share specs and pairs (specs are inferred from all replicates at once).
    A stack gives a list of one matrix per replicate, each equal to its own
    2-D call, and its errors name the replicate as well as the pair.

    variant 'b' inverts the first-order tau-b bridge of every pair at its
    sample tau-b and tags each entry kind.tag + ":tau_b".  A column of a
    listed pair with fewer than two distinct observed values in a replicate
    raises DegenerateColumnError naming the replicate and the column.

    pairs lists the column pairs (j, k) to estimate (default: every
    j < k).  Other off-diagonal entries are NaN, tagged "not_estimated",
    and only columns in a listed pair are checked and given cutoffs.
    One kendall call counts the taus of every replicate at once: of every
    pair of the listed pairs' columns when they are all listed, else of the
    pairs' left columns against their right columns.  Levels, cutoffs and
    the tau-b factors come from one pass per (replicate, column), and the
    pairs of every replicate form one table of arrays (bridge._Bridges),
    with no object per pair.  Continuous pairs are inverted in closed form,
    one invert_bridge call each; all other pairs need Newton and are
    inverted together by one loop over the table (bridge._newton, as
    bridge.invert_bridges does), and take their method tags from its kind
    groups.  A pair with fewer than 2 complete rows, or under tau-b a side
    constant over them, raises its own kendall call's error, the first in
    (replicate, pair) order.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    data = np.asarray(data, dtype=float)
    if data.ndim not in (2, 3):
        raise ValueError("data must be a 2-D (n, d) matrix or a 3-D (reps, n, d) stack")
    d = data.shape[-1]
    stack = data if data.ndim == 3 else data[None]
    where = [f"replicate {rep}: " if data.ndim == 3 else "" for rep in range(len(stack))]
    if specs is None:
        specs = infer_column_specs(stack.reshape(stack.shape[0] * stack.shape[1], d))
    if len(specs) != d:
        raise ValueError(f"{len(specs)} specs for {d} columns")
    if pairs is None:
        pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    else:
        checked = set()
        for pair in pairs:
            j, k = sorted(operator.index(c) for c in pair)
            if not 0 <= j < k < d:
                raise ValueError(f"pair {tuple(pair)}: need two distinct column indices in 0..{d - 1}")
            checked.add((j, k))
        pairs = sorted(checked)

    used = sorted({c for pair in pairs for c in pair})
    # NaN-ignoring extremes: lo > hi for a column with no observed value
    lo = np.fmin.reduce(stack, axis=1, initial=np.inf)[:, used]
    hi = np.fmax.reduce(stack, axis=1, initial=-np.inf)[:, used]
    constant = np.argwhere(lo >= hi)
    if constant.size:
        rep, i = constant[0]
        spec = specs[used[i]]
        raise kendall.DegenerateColumnError(
            f"{where[rep]}{'ordinal' if spec.is_ordinal else 'continuous'} column {spec.name!r} "
            f"has {'no' if lo[rep, i] > hi[rep, i] else 'a single'} observed value"
        )
    reps = len(stack)
    levels, grid = _levels_and_grids(stack, [c for c in used if specs[c].is_ordinal])
    over = np.argwhere(levels > [spec.levels or 0 for spec in specs])
    if over.size:
        rep, j = over[0]
        raise ValueError(
            f"{where[rep]}ordinal column {specs[j].name!r} declares {specs[j].levels} levels "
            f"but has {levels[rep, j]} observed levels"
        )
    # the tau-b factor u of each (replicate, column), 1 for a continuous one;
    # each sum runs over exactly its p - 1 terms, as a pair's own task sums them
    untied = np.ones((reps, d))
    if variant == "b":
        for p in np.unique(levels[levels > 0]).tolist():
            at = np.nonzero(levels == p)
            untied[at] = _untied(grid[at][:, 1:p])

    diag = np.arange(d)
    values = np.full((reps, d, d), np.nan)
    values[:, diag, diag] = 1.0
    method = np.full((reps, d, d), np.array("not_estimated", dtype=object))  # one shared str
    method[:, diag, diag] = "diag"
    clamped = np.zeros((reps, d, d), dtype=bool)

    every = len(pairs) == len(used) * (len(used) - 1) // 2
    left = used if every else sorted({j for j, _ in pairs})
    right = used if every else sorted({k for _, k in pairs})
    # views of the data where the columns are consecutive
    x, y = (data[..., slice(c[0], c[-1] + 1) if c and c[-1] - c[0] == len(c) - 1 else c] for c in (left, right))
    y = x if every else y
    taus = kendall.tau_b(x, y).tau_b if variant == "b" else kendall.tau_a(x, y)
    taus = np.reshape(taus, (reps, len(left), len(right)))
    row, col = {c: i for i, c in enumerate(left)}, {c: i for i, c in enumerate(right)}

    # the pair table: one entry per (replicate, pair), in that order
    jj, kk = (np.array([pair[side] for pair in pairs], dtype=int) for side in (0, 1))
    tau = taus[:, [row[j] for j in jj.tolist()], [col[k] for k in kk.tolist()]]
    lj, lk = levels[:, jj], levels[:, kk]
    # every observed level has a row, so the cutoffs are finite and increasing
    # and every u is above 0; a NaN tau (fewer than 2 complete rows, or a
    # constant side under tau-b) is the only entry a pair's own count refuses
    bad = np.argwhere(np.isnan(tau))
    if bad.size:
        rep, i = bad[0].tolist()
        j, k = pairs[i]
        try:  # the pair's own count raises the error that says which
            (kendall.tau_b if variant == "b" else kendall.tau_a)(stack[rep, :, j], stack[rep, :, k])
        except ValueError as exc:
            raise type(exc)(f"{where[rep]}{_pair_label(j, k, specs)}: {exc}") from exc

    suffix = ":tau_b" if variant == "b" else ""

    def fill(rep, j, k, r, flagged, tag):
        values[rep, j, k] = values[rep, k, j] = r
        clamped[rep, j, k] = clamped[rep, k, j] = flagged
        method[rep, j, k] = method[rep, k, j] = tag

    continuous = (lj == 0) & (lk == 0)
    rep_c, pair_c = np.nonzero(continuous)
    sine = BridgeKind()
    results = [invert_bridge(t, sine) for t in tau[rep_c, pair_c].tolist()]  # closed form
    r, flagged = [res.r for res in results], [res.clamped for res in results]
    fill(rep_c, jj[pair_c], kk[pair_c], r, flagged, sine.tag + suffix)

    rep_t, pair_t = np.nonzero(~continuous)
    if rep_t.size:
        j_t, k_t, lj_t, lk_t = jj[pair_t], kk[pair_t], lj[rep_t, pair_t], lk[rep_t, pair_t]
        scale = np.sqrt(untied[rep_t, j_t] * untied[rep_t, k_t])
        bridges = _Bridges(lj_t, lk_t, grid[rep_t, j_t], grid[rep_t, k_t], scale)
        try:
            r, flagged, _ = _newton(
                bridges, tau[rep_t, pair_t], lambda i: BridgeKind(int(lj_t[i]) or None, int(lk_t[i]) or None)
            )
        except BridgeInversionError as exc:
            rep, j, k = (int(a[exc.index]) for a in (rep_t, j_t, k_t))
            raise BridgeInversionError(f"{where[rep]}{_pair_label(j, k, specs)}: {exc}", exc.index) from exc
        # method tags, one BridgeKind per kind group of the table
        tags = np.array([BridgeKind(p_j, p_k or None).tag + suffix for p_j, p_k in bridges.kinds], dtype=object)
        fill(rep_t, j_t, k_t, r, flagged, tags[bridges.kind])

    estimates = [
        LatentCorrelationMatrix(*fields, specs=list(specs)) for fields in zip(values, method, clamped)
    ]
    return estimates if data.ndim == 3 else estimates[0]


def project_psd(matrix) -> np.ndarray:
    """Nearest-PSD surrogate: clip eigenvalues below PSD_EPS, rescale diagonal.

    Returns the input unchanged (up to symmetrization) when it is already
    positive semidefinite with unit diagonal.  Idempotent.
    """
    if isinstance(matrix, LatentCorrelationMatrix):
        matrix = matrix.values
    a = _check_correlation(matrix)
    a = 0.5 * (a + a.T)
    eigval, eigvec = np.linalg.eigh(a)
    if eigval[0] >= 0.0:
        return a
    clipped = np.maximum(eigval, PSD_EPS)
    out = (eigvec * clipped) @ eigvec.T
    scale = 1.0 / np.sqrt(np.diag(out))
    out = out * scale[:, None] * scale[None, :]
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out
