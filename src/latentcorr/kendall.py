"""Sample Kendall statistics with tie accounting.

``tau_a`` and ``tau_b`` take two (n, p) and (n, q) blocks of columns and
give the statistics of every column pair at once; two columns are counted
as one-column blocks, and two (reps, n, p) and (reps, n, q) stacks of
blocks give (reps, p, q) results, replicate by replicate in one call.
Rows with a missing (NaN) entry in either column of a pair are dropped
pairwise.  A block is counted by one of two exact kernels, chosen by
GRAM_MAX_CELLS_PER_PAIR_ROW: a sign Gram over the row pairs
(i, (i + h) mod n) of lags h = 1 .. n // 2, which meet each row pair once
when lag n / 2 of an even n takes rows i < n / 2 only, with one batched
matrix product per chunk for the replicates of a stack, in slices of at
most GRAM_CHUNK_CELLS cells; or the O(n log n) merge-sort inversion count
(Knight's algorithm) once per replicate and column pair.  Both produce the
same integer counts, so every statistic is the same bit for bit whichever
kernel ran and whatever the stack.  The O(n^2) oracle is in the test suite.
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

# Sign cells per Gram chunk of whole lags.  A larger stack is counted in
# slices of whole replicates of at most this many cells (or one replicate),
# so temporaries take a few bytes per cell of max(GRAM_CHUNK_CELLS, n *
# width): at most one lag of a replicate.  A replicate's Gram entries sum at
# most max(GRAM_CHUNK_CELLS // (reps * width), n) terms in {-1, 0, 1} per
# chunk, exact in float32 below 2**24: the Gram needs n - 1 < 2 * min(p, q) *
# GRAM_MAX_CELLS_PER_PAIR_ROW, so n >= 2**24 needs over 2**47 / it cells.
GRAM_CHUNK_CELLS = 1 << 16


class DegenerateColumnError(ValueError):
    """A column is constant where it is used: no tau measures it, and tau_b divides by zero."""


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
    """(x, y, y is x, shape): the inputs as (n, reps, p) and (n, reps, q)
    stacks, and the shape of the caller's results.  Two (reps, n, p) and
    (reps, n, q) stacks give (reps, p, q); two (n, p) and (n, q) blocks are
    stacks of one and give (p, q); two columns (neither input 2-D or 3-D, so
    both raveled) are (n, 1) blocks and give ()."""
    same = y is x
    x = np.asarray(x, dtype=float)
    y = x if same else np.asarray(y, dtype=float)
    if x.ndim < 2 and y.ndim < 2:
        if x.size != y.size:
            raise ValueError(f"length mismatch: {x.size} vs {y.size}")
        shape, x, y = (), x.reshape(-1, 1), y.reshape(-1, 1)
    elif x.ndim == y.ndim <= 3 and x.shape[:-1] == y.shape[:-1]:
        shape = x.shape[:-2] + (x.shape[-1], y.shape[-1])
    else:
        raise ValueError(
            "need two columns or two blocks of equal row count (or two stacks of them with "
            f"equal replicates), got shapes {x.shape} and {y.shape}"
        )
    x, y = ((v if v.ndim == 3 else v[None]).transpose(1, 0, 2) for v in (x, y))
    return x, (x if same else y), same, shape


def _check_column(x, y, n_pairs, t_x=None, t_y=None) -> None:
    """Raise a column call's errors from its counts: fewer than 2 complete
    rows, or, given the tie counts, a constant column."""
    if n_pairs.item() == 0:  # for m = 0 and m = 1 alike, so m is counted here
        m = int(np.count_nonzero(~(np.isnan(x) | np.isnan(y))))
        raise ValueError(f"need at least 2 complete observations, got {m}")
    for which, ties in (("first", t_x), ("second", t_y)):
        if ties is not None and ties.item() == n_pairs.item():
            raise DegenerateColumnError(f"{which} column is constant; tau_b undefined")


def _circle(v):
    """(n + 1, n, reps, p) view of an (n, reps, p) stack whose [h, i] is row
    (i + h) mod n."""
    doubled = np.ascontiguousarray(np.concatenate((v, v)))  # stacks arrive transposed
    return sliding_window_view(doubled, len(v), axis=0).transpose(0, 3, 1, 2)


def _signs(v, observed, h: int, step: int, ties: bool):
    """float32 sign(v[(i + h) mod n] - v[i]) over up to step lags from h of
    _circle views, as (pairs, reps, p), lag n / 2 of an even n from rows
    i < n / 2; 0 where a row is blank or the values are equal (also equal
    infinities); with ties, also its absolute value and the both-rows-observed
    indicator."""
    n = v.shape[1]
    lags = slice(h, min(h + step, n // 2 + 1))
    flags = np.empty((3, *v[lags].shape), dtype=bool)
    np.greater(v[lags], v[0], out=flags[0])
    np.less(v[lags], v[0], out=flags[1])
    if ties:
        np.logical_and(observed[lags], observed[0], out=flags[2])
    pairs = min(n * (n - 1) // 2, (lags.stop - 1) * n) - (h - 1) * n
    gt, lt, both = flags.reshape(3, flags.shape[1] * n, *v.shape[2:])[:, :pairs]
    sign = np.subtract(gt, lt, dtype=np.float32)
    return (sign, np.add(gt, lt, dtype=np.float32), both.astype(np.float32)) if ties else (sign,)


def _block_counts(x, y, same: bool, ties: bool):
    """(C(n, 2), C - D, discordant, ties in x, ties in y) of every column pair
    of the (n, reps, p) and (n, reps, q) stacks x and y, as (reps, p, q) int64
    arrays; the last three are None unless ties.

    Sign Gram: with S the row-pair signs of a block's columns, C - D is
    SᵀS, C + D is |S|ᵀ|S|, and the pairs tied in x are C(n, 2) minus
    |Sx|ᵀBy, where B marks the row pairs observed in both rows; a pair's
    order flips both factors of its terms, so it does not matter.  Every sum
    is an integer below 2**53, exact in floats.  Merge: one inversion count
    per replicate and column pair (per unordered pair when y is x).
    """
    n, reps, p = x.shape
    q = y.shape[2]
    width, col_pairs = (p, p * (p - 1) // 2) if same else (p + q, p * q)
    if (n - 1) * width < 2 * GRAM_MAX_CELLS_PER_PAIR_ROW * col_pairs:
        per = max(1, GRAM_CHUNK_CELLS // max(1, n * width))  # replicates per slice
        if reps > per:
            parts = [_block_counts(x[:, i : i + per], y[:, i : i + per], same, ties)
                     for i in range(0, reps, per)]
            return tuple(None if part[0] is None else np.concatenate(part) for part in zip(*parts))

        def gram(a, b):  # aᵀb of (rows, reps, p) and (rows, reps, q): one product per replicate
            return a.transpose(1, 2, 0) @ b.transpose(1, 0, 2)

        obs_x = ~np.isnan(x)
        obs_y = obs_x if same else ~np.isnan(y)
        complete = gram(obs_x.astype(float), obs_y).astype(np.int64)
        n_pairs = complete * (complete - 1) // 2
        grams = np.zeros((4 if ties else 1, reps, p, q))
        cx = _circle(x), _circle(obs_x) if ties else None
        cy = cx if same else (_circle(y), _circle(obs_y) if ties else None)
        step = max(1, GRAM_CHUNK_CELLS // max(1, n * reps * width))
        for h in range(1, n // 2 + 1, step):
            sx = _signs(*cx, h, step, ties)
            sy = sx if same else _signs(*cy, h, step, ties)
            grams[0] += gram(sx[0], sy[0])
            if ties:
                grams[1] += gram(sx[1], sy[1])
                grams[2] += gram(sx[1], sy[2])
                grams[3] += gram(sx[2], sy[1])
        g = grams.astype(np.int64)
        if not ties:
            return n_pairs, g[0], None, None, None
        return n_pairs, g[0], (g[1] - g[0]) // 2, n_pairs - g[2], n_pairs - g[3]

    counts = np.zeros((5, reps, p, q), dtype=np.int64)
    for rep, j in np.ndindex(reps, p):
        for k in range(j if same else 0, q):
            keep = ~(np.isnan(x[:, rep, j]) | np.isnan(y[:, rep, k]))
            xj, yk = x[keep, rep, j], y[keep, rep, k]
            if same and j == k:  # the column with itself: every untied pair concords
                n_pairs, t = xj.size * (xj.size - 1) // 2, _ties(xj)
                counts[:, rep, j, j] = n_pairs, n_pairs - t, 0, t, t
            else:
                counts[:, rep, j, k] = _tau_counts(xj, yk)
                if same:
                    counts[:, rep, k, j] = counts[[0, 1, 2, 4, 3], rep, j, k]
    return tuple(counts)


def tau_a(x, y):
    """Kendall's tau-a: (C - D) / C(n, 2), ties contributing zero.

    Blocks x (n, p) and y (n, q) give the (p, q) array of every column
    pair, NaN where a pair has fewer than 2 complete rows; pass the same
    block as x and y to count each pair once.  Stacks x (reps, n, p) and
    y (reps, n, q) give (reps, p, q), each replicate as its blocks alone.
    Two columns give a float and raise ValueError below 2 complete rows.
    """
    x, y, same, shape = _blocks(x, y)
    n_pairs, con_minus_dis, *_ = _block_counts(x, y, same, ties=False)
    if not shape:
        _check_column(x, y, n_pairs)
    with np.errstate(invalid="ignore"):
        tau = (con_minus_dis / n_pairs).reshape(shape)
    return tau if shape else tau.item()


def tau_b(x, y) -> TauStatistics:
    """Kendall's tau-b with full concordance/tie counts.

    Blocks x (n, p) and y (n, q): every field is a (p, q) array, with NaN
    taus where a pair has fewer than 2 complete rows and NaN tau_b where
    either column is constant over them; stacks x (reps, n, p) and
    y (reps, n, q) give (reps, p, q) fields.  Two columns give Python
    numbers and raise ValueError below 2 complete rows and
    DegenerateColumnError when either column is constant.
    """
    x, y, same, shape = _blocks(x, y)
    n_pairs, con_minus_dis, discordant, t_x, t_y = _block_counts(x, y, same, ties=True)
    if not shape:
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
    fields = [f.reshape(shape) for f in fields]
    return TauStatistics(*(fields if shape else [f.item() for f in fields]))
