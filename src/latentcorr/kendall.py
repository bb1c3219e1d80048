"""Sample Kendall statistics with tie accounting.

``tau_a`` and ``tau_b`` run in O(n log n) via merge-sort inversion
counting (Knight's algorithm); the O(n^2) pair enumeration used as a test
oracle lives in the test suite.  Rows with a missing (NaN) entry in
either column of a pair are dropped pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import count_inversions

__all__ = ["TauStatistics", "DegenerateColumnError", "tau_a", "tau_b"]


class DegenerateColumnError(ValueError):
    """A column is constant, so tau_b's tie correction divides by zero."""


@dataclass(frozen=True)
class TauStatistics:
    tau_a: float
    tau_b: float
    concordant: int
    discordant: int
    ties_j: int
    ties_k: int
    n_pairs: int


def _tie_pairs(new_run: np.ndarray) -> int:
    """Sum of C(run, 2) over runs of equal values in a sorted array.

    new_run[i] is True where entry i + 1 differs from entry i.  Built with
    !=, so equal infinite values form a run (their difference is NaN).
    """
    run_lengths = np.diff(np.concatenate(([0], np.flatnonzero(new_run) + 1, [new_run.size + 1])))
    return int(np.sum(run_lengths * (run_lengths - 1) // 2))


def _clean_pair(x, y):
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.size != y.size:
        raise ValueError(f"length mismatch: {x.size} vs {y.size}")
    keep = ~(np.isnan(x) | np.isnan(y))
    x, y = x[keep], y[keep]
    if x.size < 2:
        raise ValueError(f"need at least 2 complete observations, got {x.size}")
    return x, y


def _tau_counts(x, y) -> tuple[int, int, int, int, int]:
    """(C(n, 2), C - D, discordant, ties in x, ties in y) over all pairs."""
    n_pairs = x.size * (x.size - 1) // 2
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    new_x = xs[1:] != xs[:-1]
    t_x = _tie_pairs(new_x)
    # joint ties: lexsorted, so equal (x, y) pairs are adjacent
    t_xy = _tie_pairs(new_x | (ys[1:] != ys[:-1]))
    discordant = count_inversions(ys)
    y_sorted = np.sort(ys)
    t_y = _tie_pairs(y_sorted[1:] != y_sorted[:-1])
    return n_pairs, n_pairs - t_x - t_y + t_xy - 2 * discordant, discordant, t_x, t_y


def tau_a(x, y) -> float:
    """Kendall's tau-a: (C - D) / C(n, 2), ties contributing zero."""
    x, y = _clean_pair(x, y)
    n_pairs, con_minus_dis, *_ = _tau_counts(x, y)
    return con_minus_dis / n_pairs


def tau_b(x, y) -> TauStatistics:
    """Kendall's tau-b with full concordance/tie counts.

    Raises DegenerateColumnError when either column is constant.
    """
    x, y = _clean_pair(x, y)
    n_pairs, con_minus_dis, discordant, t_x, t_y = _tau_counts(x, y)
    if n_pairs == t_x or n_pairs == t_y:
        which = "first" if n_pairs == t_x else "second"
        raise DegenerateColumnError(f"{which} column is constant; tau_b undefined")
    return TauStatistics(
        tau_a=con_minus_dis / n_pairs,
        # the product can pass 2**64 from n = 92,682; math.sqrt takes any int
        tau_b=con_minus_dis / math.sqrt((n_pairs - t_x) * (n_pairs - t_y)),
        concordant=con_minus_dis + discordant,
        discordant=discordant,
        ties_j=t_x,
        ties_k=t_y,
        n_pairs=n_pairs,
    )
