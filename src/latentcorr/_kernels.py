"""Inversion counting behind the Kendall statistics.

One exact numpy kernel: a bottom-up merge sort over dense ranks.  Each
of its ceil(log2 n) levels counts and merges every pair of adjacent
sorted runs at once, with whole-array numpy calls (Knight 1966).
"""

from __future__ import annotations

import numpy as np

# perfbench/child.py reports this in its environment record.
BACKEND = "numpy"


def count_inversions(a) -> int:
    """Strict inversions (i < j, a[i] > a[j]) of a 1-D array, exactly.

    At each level the key block * (n + 1) + rank sorts every pair of
    adjacent sorted runs into one, and stays below n**2, so int64
    arithmetic is exact for n < 3e9.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    n = a.size
    rank = np.unique(a, return_inverse=True)[1].astype(np.int64)
    pos = np.arange(n)
    inv = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        key = block * (n + 1) + rank
        right = (pos // width) % 2 == 1
        # The left-run keys are sorted across blocks.  Those at or below the
        # end of a right element's own left run number (block + 1) * width,
        # as every left run before a right one is full; the ones above its
        # key are its inversions.
        below = np.searchsorted(key[~right], key[right], side="right")
        inv += int(np.sum((block[right] + 1) * width - below))
        # timsort finds the two sorted runs per block and merges them in O(n)
        rank = np.sort(key, kind="stable") - block * (n + 1)
        width *= 2
    return inv
