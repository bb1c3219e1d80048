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
    InversionTask,
    estimate_cutoffs,
    invert_bridge,
    invert_bridges,
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


def _recode_ordinal(col: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank-recode observed ordinal values to consecutive codes 0..p-1.

    Collapses empty levels, so the effective level count may be smaller
    than declared.
    """
    out = np.full(col.shape, np.nan)
    mask = ~np.isnan(col)
    levels, codes = np.unique(col[mask], return_inverse=True)
    out[mask] = codes
    return out, levels.size


def _pair_label(j: int, k: int, specs) -> str:
    return f"pair ({j}, {k}) [{specs[j].name!r}, {specs[k].name!r}]"


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

    variant 'b' uses the first-order tau-b bridges where they exist
    (binary-binary, binary-continuous) and falls back to tau-a elsewhere,
    tagging each entry with what was actually used.

    pairs lists the column pairs (j, k) to estimate (default: every
    j < k).  Other off-diagonal entries are NaN, tagged "not_estimated",
    and only columns in a listed pair are checked and given cutoffs.
    One kendall call counts the taus of every replicate at once: of every
    pair of the listed pairs' columns when they are all listed, else of the
    pairs' left columns against their right columns.  Continuous pairs are
    inverted in closed form as they come; all other pairs of every
    replicate need Newton and are inverted together in one batch
    (bridge.invert_bridges) after the loop.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    data = np.asarray(data, dtype=float)
    if data.ndim not in (2, 3):
        raise ValueError("data must be a 2-D (n, d) matrix or a 3-D (reps, n, d) stack")
    d = data.shape[-1]
    cols = np.array(data)  # ordinal columns are recoded in place
    stack = cols if cols.ndim == 3 else cols[None]  # a view either way
    where = [f"replicate {rep}: " if data.ndim == 3 else "" for rep in range(len(stack))]
    if specs is None:
        specs = infer_column_specs(stack.reshape(-1, d))
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

    eff_levels = [[0] * d for _ in stack]
    cutoffs = {}  # (replicate, ordinal column) -> cutoffs
    used = sorted({c for pair in pairs for c in pair})
    for rep, sample in enumerate(stack):
        for j in used:
            spec = specs[j]
            if spec.is_ordinal:
                sample[:, j], levels = _recode_ordinal(sample[:, j])
                if levels < 2:
                    raise kendall.DegenerateColumnError(
                        f"{where[rep]}ordinal column {spec.name!r} has a single observed level"
                    )
                if levels > spec.levels:
                    raise ValueError(
                        f"{where[rep]}ordinal column {spec.name!r} declares {spec.levels} levels "
                        f"but has {levels} observed levels"
                    )
                eff_levels[rep][j] = levels
                cutoffs[rep, j] = estimate_cutoffs(sample[~np.isnan(sample[:, j]), j], levels)

    reps, diag = len(stack), np.arange(d)
    values = np.full((reps, d, d), np.nan)
    values[:, diag, diag] = 1.0
    method = np.full((reps, d, d), "not_estimated", dtype=object)
    method[:, diag, diag] = "diag"
    clamped = np.zeros((reps, d, d), dtype=bool)

    every = len(pairs) == len(used) * (len(used) - 1) // 2
    left = used if every else sorted({j for j, _ in pairs})
    right = used if every else sorted({k for _, k in pairs})
    x = cols[..., left]
    y = x if every else cols[..., right]
    if variant == "b":
        stats = kendall.tau_b(x, y)
        taus = {"a": stats.tau_a, "b": stats.tau_b}
    else:
        taus = {"a": kendall.tau_a(x, y)}
    taus = {v: np.reshape(t, (reps, len(left), len(right))) for v, t in taus.items()}
    row, col = {c: i for i, c in enumerate(left)}, {c: i for i, c in enumerate(right)}

    tasks, batched = [], []
    for rep, sample in enumerate(stack):
        for j, k in pairs:
            kind = BridgeKind(eff_levels[rep][j] or None, eff_levels[rep][k] or None)
            use_variant = "b" if variant == "b" and kind.has_tau_b else "a"
            tag = kind.tag
            if variant == "b":
                tag += ":tau_b" if use_variant == "b" else ":tau_a_fallback"
            method[rep, j, k] = method[rep, k, j] = tag
            try:
                tau = float(taus[use_variant][rep, row[j], col[k]])
                if np.isnan(tau):  # fewer than 2 complete rows, or constant under tau-b:
                    # the pair's own count raises the error that says which
                    (kendall.tau_b if use_variant == "b" else kendall.tau_a)(sample[:, j], sample[:, k])
                if kind.is_continuous_pair:  # closed form, so nothing to batch
                    res = invert_bridge(tau, kind)
                    values[rep, j, k] = values[rep, k, j] = res.r
                    clamped[rep, j, k] = clamped[rep, k, j] = res.clamped
                else:
                    cuts = cutoffs.get((rep, j)), cutoffs.get((rep, k))
                    tasks.append(InversionTask(tau, kind, *cuts, use_variant))
                    batched.append((rep, j, k))
            except ValueError as exc:
                raise type(exc)(f"{where[rep]}{_pair_label(j, k, specs)}: {exc}") from exc

    try:
        results = invert_bridges(tasks)
    except BridgeInversionError as exc:
        rep, j, k = batched[exc.index]
        raise BridgeInversionError(f"{where[rep]}{_pair_label(j, k, specs)}: {exc}", exc.index) from exc
    for (rep, j, k), res in zip(batched, results):
        values[rep, j, k] = values[rep, k, j] = res.r
        clamped[rep, j, k] = clamped[rep, k, j] = res.clamped

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
