"""Sample Kendall statistics with tie accounting.

``tau_a`` and ``tau_b`` take two (n, p) and (n, q) blocks of columns and
give the statistics of every column pair at once; two columns are counted
as one-column blocks.  Rows with a missing (NaN) entry in either column of
a pair are dropped pairwise.  A block is counted by one of two exact
kernels, chosen by GRAM_MAX_CELLS_PER_PAIR_ROW: a sign Gram over the row
pairs (i, (i + h) mod n) of lags h = 1 .. n // 2, which meet each row pair
once when lag n / 2 of an even n takes rows i < n / 2 only; or the
O(n log n) merge-sort inversion count (Knight's algorithm) once per column
pair.  Both produce the same integer counts, so every statistic is the same
bit for bit whichever kernel ran.  The O(n^2) oracle is in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._kernels import count_inversions

__all__ = ["TauStatistics", "DegenerateColumnError", "tau_a", "tau_b"]

# A block is counted by the sign Gram while its sign matrix, C(n, 2) row
# pairs by the block's columns, holds fewer than this many cells per column
# pair and row, and otherwise by the merge kernel, whose cost per column
# pair grows about as n.  Set from the timings in CHANGES.md.
GRAM_MAX_CELLS_PER_PAIR_ROW = 150

# Sign cells per Gram chunk of whole lags.  Temporaries take a few bytes per
# cell of max(GRAM_CHUNK_CELLS, n * width): at most one lag, the input's size.
# Gram entries sum at most max(GRAM_CHUNK_CELLS // width, n) terms in {-1, 0,
# 1} per chunk, exact in float32 below 2**24: the Gram needs n - 1 < 2 * min(p,
# q) * GRAM_MAX_CELLS_PER_PAIR_ROW, so n >= 2**24 needs over 2**47 / it cells.
GRAM_CHUNK_CELLS = 1 << 16


class DegenerateColumnError(ValueError):
    """A column is constant, so tau_b's tie correction divides by zero."""


@dataclass(frozen=True)
class TauStatistics:
    """Counts and taus of one column pair, or (p, q) arrays of them for blocks."""

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


def _ties(v) -> int:
    """Tied pairs of a 1-D array."""
    v = np.sort(v)
    return _tie_pairs(v[1:] != v[:-1])


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
    t_y = _ties(ys)
    return n_pairs, n_pairs - t_x - t_y + t_xy - 2 * discordant, discordant, t_x, t_y


def _blocks(x, y):
    """(x, y, y is x, column) for two (n, p) and (n, q) blocks, or for two
    columns (neither input 2-D, so both raveled) as (n, 1) blocks."""
    same = y is x
    x = np.asarray(x, dtype=float)
    y = x if same else np.asarray(y, dtype=float)
    column = x.ndim != 2 and y.ndim != 2
    if column:
        if x.size != y.size:
            raise ValueError(f"length mismatch: {x.size} vs {y.size}")
        x = x.reshape(-1, 1)
        y = x if same else y.reshape(-1, 1)
    elif x.ndim != 2 or y.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError(
            f"need two columns or two blocks of equal row count, got shapes {x.shape} and {y.shape}"
        )
    return x, y, same, column


def _check_column(x, y, n_pairs, t_x=None, t_y=None) -> None:
    """Raise a column call's errors from its (1, 1) counts: fewer than 2
    complete rows, or, given the tie counts, a constant column."""
    if n_pairs[0, 0] == 0:  # for m = 0 and m = 1 alike, so m is counted here
        m = int(np.count_nonzero(~(np.isnan(x) | np.isnan(y))))
        raise ValueError(f"need at least 2 complete observations, got {m}")
    for which, ties in (("first", t_x), ("second", t_y)):
        if ties is not None and ties[0, 0] == n_pairs[0, 0]:
            raise DegenerateColumnError(f"{which} column is constant; tau_b undefined")


def _circle(v):
    """(n + 1, n, p) view of an (n, p) array whose [h, i] is row (i + h) mod n."""
    doubled = np.ascontiguousarray(np.concatenate((v, v)))  # blocks may be column-major
    return sliding_window_view(doubled, len(v), axis=0).transpose(0, 2, 1)


def _signs(v, observed, h: int, step: int, ties: bool):
    """float32 sign(v[(i + h) mod n] - v[i]) over up to step lags from h of
    _circle views, as (pairs, p), lag n / 2 of an even n from rows i < n / 2;
    0 where a row is blank or the values are equal (also equal infinities);
    with ties, also its absolute value and the both-rows-observed indicator."""
    n = v.shape[1]
    lags = slice(h, min(h + step, n // 2 + 1))
    flags = np.empty((3, *v[lags].shape), dtype=bool)
    np.greater(v[lags], v[0], out=flags[0])
    np.less(v[lags], v[0], out=flags[1])
    if ties:
        np.logical_and(observed[lags], observed[0], out=flags[2])
    pairs = min(n * (n - 1) // 2, (lags.stop - 1) * n) - (h - 1) * n
    gt, lt, both = flags.reshape(3, -1, v.shape[2])[:, :pairs]
    sign = np.subtract(gt, lt, dtype=np.float32)
    return (sign, np.add(gt, lt, dtype=np.float32), both.astype(np.float32)) if ties else (sign,)


def _block_counts(x, y, same: bool, ties: bool):
    """(C(n, 2), C - D, discordant, ties in x, ties in y) of every column pair
    of the blocks x and y, as (p, q) int64 arrays; the last three are None
    unless ties.

    Sign Gram: with S the row-pair signs of a block's columns, C - D is
    SᵀS, C + D is |S|ᵀ|S|, and the pairs tied in x are C(n, 2) minus
    |Sx|ᵀBy, where B marks the row pairs observed in both rows; a pair's
    order flips both factors of its terms, so it does not matter.  Every sum
    is an integer below 2**53, exact in floats.  Merge: one inversion count
    per column pair (per unordered pair when y is x).
    """
    n, p = x.shape
    q = y.shape[1]
    width, col_pairs = (p, p * (p - 1) // 2) if same else (p + q, p * q)
    if (n - 1) * width < 2 * GRAM_MAX_CELLS_PER_PAIR_ROW * col_pairs:
        obs_x = ~np.isnan(x)
        obs_y = obs_x if same else ~np.isnan(y)
        complete = (obs_x.T.astype(float) @ obs_y).astype(np.int64)
        n_pairs = complete * (complete - 1) // 2
        grams = np.zeros((4 if ties else 1, p, q))
        cx = _circle(x), _circle(obs_x) if ties else None
        cy = cx if same else (_circle(y), _circle(obs_y) if ties else None)
        step = max(1, GRAM_CHUNK_CELLS // max(1, n * width))
        for h in range(1, n // 2 + 1, step):
            sx = _signs(*cx, h, step, ties)
            sy = sx if same else _signs(*cy, h, step, ties)
            grams[0] += sx[0].T @ sy[0]
            if ties:
                grams[1] += sx[1].T @ sy[1]
                grams[2] += sx[1].T @ sy[2]
                grams[3] += sx[2].T @ sy[1]
        g = grams.astype(np.int64)
        if not ties:
            return n_pairs, g[0], None, None, None
        return n_pairs, g[0], (g[1] - g[0]) // 2, n_pairs - g[2], n_pairs - g[3]

    counts = np.zeros((5, p, q), dtype=np.int64)
    for j in range(p):
        for k in range(j if same else 0, q):
            keep = ~(np.isnan(x[:, j]) | np.isnan(y[:, k]))
            xj, yk = x[keep, j], y[keep, k]
            if same and j == k:  # the column with itself: every untied pair concords
                n_pairs, t = xj.size * (xj.size - 1) // 2, _ties(xj)
                counts[:, j, j] = n_pairs, n_pairs - t, 0, t, t
            else:
                counts[:, j, k] = _tau_counts(xj, yk)
                if same:
                    counts[:, k, j] = counts[[0, 1, 2, 4, 3], j, k]
    return tuple(counts)


def tau_a(x, y):
    """Kendall's tau-a: (C - D) / C(n, 2), ties contributing zero.

    Blocks x (n, p) and y (n, q) give the (p, q) array of every column
    pair, NaN where a pair has fewer than 2 complete rows; pass the same
    block as x and y to count each pair once.  Two columns give a float
    and raise ValueError below 2 complete rows.
    """
    x, y, same, column = _blocks(x, y)
    n_pairs, con_minus_dis, *_ = _block_counts(x, y, same, ties=False)
    if column:
        _check_column(x, y, n_pairs)
    with np.errstate(invalid="ignore"):
        tau = con_minus_dis / n_pairs
    return tau.item() if column else tau


def tau_b(x, y) -> TauStatistics:
    """Kendall's tau-b with full concordance/tie counts.

    Blocks x (n, p) and y (n, q): every field is a (p, q) array, with NaN
    taus where a pair has fewer than 2 complete rows and NaN tau_b where
    either column is constant over them.  Two columns give Python numbers
    and raise ValueError below 2 complete rows and DegenerateColumnError
    when either column is constant.
    """
    x, y, same, column = _blocks(x, y)
    n_pairs, con_minus_dis, discordant, t_x, t_y = _block_counts(x, y, same, ties=True)
    if column:
        _check_column(x, y, n_pairs, t_x, t_y)
    with np.errstate(invalid="ignore"):
        fields = (
            con_minus_dis / n_pairs,
            # the factors are integers below 2**53, so their float product is
            # the exact product rounded once; it can pass 2**64 from n = 92,682
            con_minus_dis / np.sqrt((n_pairs - t_x).astype(float) * (n_pairs - t_y)),
            con_minus_dis + discordant,
            discordant,
            t_x,
            t_y,
            n_pairs,
        )
    if column:
        fields = [f.item() for f in fields]
    return TauStatistics(*fields)
