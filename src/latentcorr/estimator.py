"""Latent correlation matrix assembly and PSD projection.

Builds the full d x d matrix of bridge-inverted latent correlations from
a mixed-type data matrix, tagging every entry with the bridge that
produced it and whether its tau fell outside the achievable range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kendall
from .bridge import (
    BridgeKind,
    UnsupportedPairError,
    estimate_cutoffs,
    invert_bridge,
)

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


@dataclass(frozen=True)
class ColumnSpec:
    """Declared type of one variable: continuous, or ordinal with p levels."""

    name: str
    levels: int | None = None  # None = continuous

    @property
    def is_ordinal(self) -> bool:
        return self.levels is not None

    def __post_init__(self):
        if self.levels is not None and self.levels < 2:
            raise ValueError(f"ordinal column {self.name!r} needs >= 2 levels")


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
    """Ordinal if all finite values are integers with few distinct levels."""
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    names = names or [f"x{j}" for j in range(d)]
    specs = []
    for j in range(d):
        col = data[:, j]
        col = col[~np.isnan(col)]
        distinct = np.unique(col)
        if (
            distinct.size >= 2
            and distinct.size <= ORDINAL_INFERENCE_MAX_LEVELS
            and np.all(distinct == np.round(distinct))
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


def _pair_kind(spec_j: ColumnSpec, spec_k: ColumnSpec, p_j: int, p_k: int) -> BridgeKind:
    if spec_j.is_ordinal and spec_k.is_ordinal:
        return BridgeKind.ordinal_ordinal(p_j, p_k)
    if spec_j.is_ordinal:
        return BridgeKind.ordinal_continuous(p_j)
    if spec_k.is_ordinal:
        return BridgeKind(None, p_k)
    return BridgeKind.continuous_continuous()


def estimate_latent_correlation(
    data,
    specs: list[ColumnSpec] | None = None,
    variant: str = "a",
    on_unsupported: str = "raise",
) -> LatentCorrelationMatrix:
    """Bridge-inverted latent correlation matrix of a mixed data matrix.

    variant 'b' uses the first-order tau-b bridges where they exist
    (binary-binary, binary-continuous) and falls back to tau-a elsewhere,
    tagging each entry with what was actually used.  Ordinal-ordinal
    pairs with more than 3 levels per side have no bridge; on_unsupported
    picks the response: "raise" (default), "fallback" (apply the
    continuous rule sin(pi/2 * tau_a)), or "missing" (NaN entry tagged
    "unsupported").
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    if on_unsupported not in ("raise", "fallback", "missing"):
        raise ValueError(f"on_unsupported must be raise|fallback|missing, got {on_unsupported!r}")
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValueError("data must be a 2-D (n, d) matrix")
    n, d = data.shape
    if specs is None:
        specs = infer_column_specs(data)
    if len(specs) != d:
        raise ValueError(f"{len(specs)} specs for {d} columns")

    cols = np.array(data, dtype=float)
    eff_levels = [0] * d
    cutoffs: list[np.ndarray | None] = [None] * d
    for j, spec in enumerate(specs):
        if spec.is_ordinal:
            cols[:, j], eff_levels[j] = _recode_ordinal(data[:, j])
            if eff_levels[j] < 2:
                raise kendall.DegenerateColumnError(
                    f"ordinal column {spec.name!r} has a single observed level"
                )
            cutoffs[j] = estimate_cutoffs(cols[~np.isnan(cols[:, j]), j], eff_levels[j])

    values = np.eye(d)
    method = np.full((d, d), "diag", dtype=object)
    clamped = np.zeros((d, d), dtype=bool)

    for j in range(d):
        for k in range(j + 1, d):
            xj, xk = cols[:, j], cols[:, k]
            keep = ~(np.isnan(xj) | np.isnan(xk))
            xj, xk = xj[keep], xk[keep]
            kind = _pair_kind(specs[j], specs[k], eff_levels[j], eff_levels[k])
            use_variant = "a"
            tag = _kind_tag(kind)
            if variant == "b" and _tau_b_supported(kind):
                use_variant = "b"
                tag += ":tau_b"
            elif variant == "b":
                tag += ":tau_a_fallback"
            try:
                if use_variant == "b":
                    tau = kendall.tau_b(xj, xk).tau_b
                else:
                    tau = kendall.tau_a(xj, xk)
                res = invert_bridge(tau, kind, cutoffs[j], cutoffs[k], variant=use_variant)
            except UnsupportedPairError:
                if on_unsupported == "raise":
                    raise UnsupportedPairError(
                        f"pair ({j}, {k}) [{specs[j].name!r}, {specs[k].name!r}]: no bridge "
                        f"for {eff_levels[j]} x {eff_levels[k]} ordinal levels"
                    ) from None
                if on_unsupported == "missing":
                    values[j, k] = values[k, j] = np.nan
                    method[j, k] = method[k, j] = "unsupported"
                    continue
                tau = kendall.tau_a(xj, xk)
                res = invert_bridge(tau, BridgeKind.continuous_continuous())
                tag = "sin_fallback"
            except ValueError as exc:
                raise type(exc)(
                    f"pair ({j}, {k}) [{specs[j].name!r}, {specs[k].name!r}]: {exc}"
                ) from exc
            values[j, k] = values[k, j] = res.r
            method[j, k] = method[k, j] = tag
            clamped[j, k] = clamped[k, j] = res.clamped

    return LatentCorrelationMatrix(values=values, method=method, clamped=clamped, specs=list(specs))


def _tau_b_supported(kind: BridgeKind) -> bool:
    lj, lk = kind.levels_j, kind.levels_k
    if lj is None and lk is None:
        return False
    return all(l in (None, 2) for l in (lj, lk))


def _kind_tag(kind: BridgeKind) -> str:
    lj, lk = kind.levels_j, kind.levels_k
    if lj is None and lk is None:
        return "sin"
    if lj is None or lk is None:
        return f"ordinal{lj or lk}_continuous"
    return f"ordinal{lj}_ordinal{lk}"


def project_psd(matrix, eps: float = 1e-8) -> np.ndarray:
    """Nearest-PSD surrogate: clip eigenvalues below eps, rescale diagonal.

    Returns the input unchanged (up to symmetrization) when it is already
    positive semidefinite with unit diagonal.  Idempotent.
    """
    if isinstance(matrix, LatentCorrelationMatrix):
        matrix = matrix.values
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    a = 0.5 * (a + a.T)
    eigval, eigvec = np.linalg.eigh(a)
    if eigval[0] >= 0.0:
        return a
    clipped = np.maximum(eigval, eps)
    out = (eigvec * clipped) @ eigvec.T
    scale = 1.0 / np.sqrt(np.diag(out))
    out = out * scale[:, None] * scale[None, :]
    out = 0.5 * (out + out.T)
    np.fill_diagonal(out, 1.0)
    return out
