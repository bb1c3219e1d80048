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
) -> LatentCorrelationMatrix:
    """Bridge-inverted latent correlation matrix of a mixed data matrix.

    variant 'b' uses the first-order tau-b bridges where they exist
    (binary-binary, binary-continuous) and falls back to tau-a elsewhere,
    tagging each entry with what was actually used.

    pairs lists the column pairs (j, k) to estimate (default: every
    j < k).  Other off-diagonal entries are NaN, tagged "not_estimated",
    and only columns in a listed pair are checked and given cutoffs.
    One kendall call counts the tau of every pair of those columns at once.
    Continuous pairs are inverted in closed form as they come; all other
    pairs need Newton and are inverted together in one batch
    (bridge.invert_bridges) after the loop.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D (n, d) matrix")
    n, d = data.shape
    if specs is None:
        specs = infer_column_specs(data)
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

    cols = np.array(data, dtype=float)
    eff_levels = [0] * d
    cutoffs: list[np.ndarray | None] = [None] * d
    used = sorted({c for pair in pairs for c in pair})
    for j in used:
        spec = specs[j]
        if spec.is_ordinal:
            cols[:, j], eff_levels[j] = _recode_ordinal(data[:, j])
            if eff_levels[j] < 2:
                raise kendall.DegenerateColumnError(
                    f"ordinal column {spec.name!r} has a single observed level"
                )
            if eff_levels[j] > spec.levels:
                raise ValueError(
                    f"ordinal column {spec.name!r} declares {spec.levels} levels "
                    f"but has {eff_levels[j]} observed levels"
                )
            cutoffs[j] = estimate_cutoffs(cols[~np.isnan(cols[:, j]), j], eff_levels[j])

    values = np.full((d, d), np.nan)
    np.fill_diagonal(values, 1.0)
    method = np.full((d, d), "not_estimated", dtype=object)
    np.fill_diagonal(method, "diag")
    clamped = np.zeros((d, d), dtype=bool)

    block = cols[:, used]
    if variant == "b":
        stats = kendall.tau_b(block, block)
        taus = {"a": stats.tau_a, "b": stats.tau_b}
    else:
        taus = {"a": kendall.tau_a(block, block)}
    at = {c: i for i, c in enumerate(used)}

    tasks, batched = [], []
    for j, k in pairs:
        kind = BridgeKind(eff_levels[j] or None, eff_levels[k] or None)
        use_variant = "b" if variant == "b" and kind.has_tau_b else "a"
        tag = kind.tag
        if variant == "b":
            tag += ":tau_b" if use_variant == "b" else ":tau_a_fallback"
        method[j, k] = method[k, j] = tag
        try:
            tau = float(taus[use_variant][at[j], at[k]])
            if np.isnan(tau):  # fewer than 2 complete rows, or constant under tau-b:
                # the pair's own count raises the error that says which
                (kendall.tau_b if use_variant == "b" else kendall.tau_a)(cols[:, j], cols[:, k])
            if kind.is_continuous_pair:  # closed form, so nothing to batch
                res = invert_bridge(tau, kind)
                values[j, k] = values[k, j] = res.r
                clamped[j, k] = clamped[k, j] = res.clamped
            else:
                tasks.append(InversionTask(tau, kind, cutoffs[j], cutoffs[k], use_variant))
                batched.append((j, k))
        except ValueError as exc:
            raise type(exc)(f"{_pair_label(j, k, specs)}: {exc}") from exc

    try:
        results = invert_bridges(tasks)
    except BridgeInversionError as exc:
        j, k = batched[exc.index]
        raise BridgeInversionError(f"{_pair_label(j, k, specs)}: {exc}", exc.index) from exc
    for (j, k), res in zip(batched, results):
        values[j, k] = values[k, j] = res.r
        clamped[j, k] = clamped[k, j] = res.clamped

    return LatentCorrelationMatrix(values=values, method=method, clamped=clamped, specs=list(specs))


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
