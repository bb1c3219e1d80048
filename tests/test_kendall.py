"""Kendall rank statistics, checked against exhaustive pair enumeration."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from latentcorr import kendall
from latentcorr._kernels import count_inversions

# ---------------------------------------------------------------------------
# Oracle: O(n^2) enumeration of concordant/discordant/tied pairs
# ---------------------------------------------------------------------------


def brute_force_counts(x, y):
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, 1)
    prod = dx[iu] * dy[iu]
    conc = int((prod > 0).sum())
    disc = int((prod < 0).sum())
    ties_x = int((dx[iu] == 0).sum())
    ties_y = int((dy[iu] == 0).sum())
    return conc, disc, ties_x, ties_y


def brute_force_tau_a(x, y):
    n = len(x)
    conc, disc, *_ = brute_force_counts(x, y)
    return (conc - disc) / (n * (n - 1) / 2)


def brute_force_tau_b(x, y):
    n = len(x)
    n_pairs = n * (n - 1) / 2
    conc, disc, tx, ty = brute_force_counts(x, y)
    return (conc - disc) / np.sqrt((n_pairs - tx) * (n_pairs - ty))


# ---------------------------------------------------------------------------
# Hand-checkable examples
# ---------------------------------------------------------------------------


def test_tau_a_hand_example_with_ties():
    # pairs: (0,0):tied-x (1,2) concordant with both others -> C=2, D=0, N=3
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([1.0, 2.0, 3.0])
    assert kendall.tau_a(x, y) == pytest.approx(2 / 3)
    stats = kendall.tau_b(x, y)
    assert stats.tau_b == pytest.approx(2 / np.sqrt(6))
    assert (stats.concordant, stats.discordant) == (2, 0)
    assert (stats.ties_j, stats.ties_k, stats.n_pairs) == (1, 0, 3)


def test_tau_perfect_orderings():
    x = np.arange(10.0)
    assert kendall.tau_a(x, x) == 1.0
    assert kendall.tau_a(x, -x) == -1.0
    assert kendall.tau_b(x, x**3).tau_b == 1.0


def test_tau_b_equals_tau_a_without_ties():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal((2, 101))
    stats = kendall.tau_b(x, y)
    assert stats.tau_b == pytest.approx(stats.tau_a, abs=1e-15)


# ---------------------------------------------------------------------------
# Oracle equivalence and invariances
# ---------------------------------------------------------------------------


def test_matches_enumeration_on_random_mixed_inputs():
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(3, 200))
        x = rng.integers(0, rng.integers(2, 8), n).astype(float)
        y = (
            rng.standard_normal(n)
            if rng.random() < 0.5
            else rng.integers(0, 5, n).astype(float)
        )
        stats = kendall.tau_b(x, y)
        conc, disc, tx, ty = brute_force_counts(x, y)
        assert (stats.concordant, stats.discordant) == (conc, disc)
        assert (stats.ties_j, stats.ties_k) == (tx, ty)
        assert stats.tau_a == brute_force_tau_a(x, y)
        assert stats.tau_b == brute_force_tau_b(x, y)


def test_antisymmetry_and_monotone_invariance():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 4, 150).astype(float)
    y = rng.standard_normal(150)
    tau = kendall.tau_a(x, y)
    assert kendall.tau_a(x, -y) == -tau
    assert kendall.tau_a(np.exp(x), y) == tau  # strictly monotone transform
    assert kendall.tau_b(x, y**3).tau_b == kendall.tau_b(x, y).tau_b


def test_nan_pairs_are_dropped():
    x = np.array([0.0, 1.0, np.nan, 2.0, 3.0])
    y = np.array([1.0, 2.0, 5.0, np.nan, 4.0])
    assert kendall.tau_a(x, y) == kendall.tau_a(
        np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 4.0])
    )


def test_degenerate_column_raises():
    const = np.ones(10)
    varying = np.arange(10.0)
    with pytest.raises(kendall.DegenerateColumnError):
        kendall.tau_b(const, varying)
    with pytest.raises(kendall.DegenerateColumnError):
        kendall.tau_b(varying, const)
    # tau_a is defined (zero) for a constant column
    assert kendall.tau_a(const, varying) == 0.0


def comparison_counts(x, y):
    """brute_force_counts with signs from comparisons, not differences, so
    equal infinite values tie (inf - inf is NaN)."""
    def signs(v):
        return (v[:, None] > v[None, :]).astype(int) - (v[:, None] < v[None, :]).astype(int)

    iu = np.triu_indices(len(x), 1)
    dx, dy = signs(x)[iu], signs(y)[iu]
    prod = dx * dy
    return int((prod > 0).sum()), int((prod < 0).sum()), int((dx == 0).sum()), int((dy == 0).sum())


def test_equal_infinite_values_tie():
    x = np.array([1.0, np.inf, np.inf, 2.0, -np.inf, -np.inf])
    y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 0.5])
    rng = np.random.default_rng(5)
    levels = np.array([-np.inf, -1.0, 0.0, 2.5, np.inf])
    cases = [(x, y), (y, x)] + [tuple(rng.choice(levels, (2, int(n)))) for n in rng.integers(2, 40, 40)]
    for x, y in cases:
        conc, disc, tx, ty = comparison_counts(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = kendall.tau_a(x, y)
            if tx < x.size * (x.size - 1) // 2 and ty < y.size * (y.size - 1) // 2:
                stats = kendall.tau_b(x, y)
                assert (stats.concordant, stats.discordant, stats.ties_j, stats.ties_k) == (conc, disc, tx, ty)
        assert tau == (conc - disc) / (x.size * (x.size - 1) // 2)
    assert kendall.tau_a(*cases[0]) == 1 / 15


def test_input_validation():
    with pytest.raises(ValueError):
        kendall.tau_a(np.arange(3.0), np.arange(4.0))
    with pytest.raises(ValueError):
        kendall.tau_a(np.array([1.0]), np.array([2.0]))


# ---------------------------------------------------------------------------
# Inversion kernel and large n
# ---------------------------------------------------------------------------


def test_inversion_kernel_matches_enumeration():
    rng = np.random.default_rng(4)
    for n in (0, 1, 2, 3, 17, 256, 1000, 4097):
        cases = (
            rng.standard_normal(n),
            rng.integers(0, 5, n).astype(float),
            np.zeros(n),
            np.arange(n, 0, -1.0),
        )
        for arr in cases:
            # oracle: O(n^2) strict-inversion count over pairs i < j
            brute = int(np.triu(arr[:, None] > arr[None, :], 1).sum())
            assert count_inversions(arr) == brute


def test_tau_at_large_n():
    # from n = 92,682 rows, C(n, 2)**2 passes 2**64
    x = np.arange(100_000.0)
    assert kendall.tau_a(x, x) == 1.0
    assert kendall.tau_a(x, -x) == -1.0


def test_tau_b_at_large_n_matches_contingency_counts():
    # binary x ternary, in shuffled row order; with these ties the tau_b
    # denominator (N - ties_x)(N - ties_y) passes 2**64 at n = 150,000
    table = np.array([[30_000, 25_000, 20_000], [20_000, 25_000, 30_000]])
    n = int(table.sum())
    cells = [(i, j) for i in range(2) for j in range(3)]
    x = np.repeat([float(i) for i, _ in cells], table.ravel())
    y = np.repeat([float(j) for _, j in cells], table.ravel())
    order = np.random.default_rng(5).permutation(n)
    stats = kendall.tau_b(x[order], y[order])

    conc = int(sum(table[0, j] * table[1, k] for j in range(3) for k in range(3) if k > j))
    disc = int(sum(table[0, j] * table[1, k] for j in range(3) for k in range(3) if k < j))
    ties_x = int(sum(r * (r - 1) // 2 for r in table.sum(axis=1)))
    ties_y = int(sum(c * (c - 1) // 2 for c in table.sum(axis=0)))
    n_pairs = n * (n - 1) // 2
    assert (n_pairs - ties_x) * (n_pairs - ties_y) > 2**64
    assert (stats.concordant, stats.discordant) == (conc, disc)
    assert (stats.ties_j, stats.ties_k, stats.n_pairs) == (ties_x, ties_y, n_pairs)
    expected = (conc - disc) / np.sqrt(float(n_pairs - ties_x) * float(n_pairs - ties_y))
    assert stats.tau_b == pytest.approx(expected, rel=1e-12)
    assert stats.tau_a == (conc - disc) / n_pairs


# ---------------------------------------------------------------------------
# Blocks of columns: both kernels against enumeration and the column calls
# ---------------------------------------------------------------------------

FIELDS = ("tau_a", "tau_b", "concordant", "discordant", "ties_j", "ties_k", "n_pairs")


def _mixed_block(rng, n, p):
    """Continuous, coarse integer, +-inf-laden, constant and all-blank
    columns, with blanks at a few rates."""
    cols = []
    for j in range(p):
        kind = j % 5
        if kind == 0:
            col = rng.standard_normal(n)
        elif kind == 1:
            col = rng.integers(0, 3, n).astype(float)
        elif kind == 2:
            col = rng.choice([-np.inf, -1.0, 0.0, np.inf], n)
        elif kind == 3:
            col = np.full(n, 2.0)
        else:
            col = np.full(n, np.nan) if j == 4 else rng.standard_normal(n)
        col[rng.random(n) < (0.0, 0.05, 0.3)[j % 3]] = np.nan
        cols.append(col)
    return np.column_stack(cols) if cols else np.empty((n, 0))


def _enumerated_stats(x, y):
    """The block statistics by enumerating each pair's complete rows."""
    out = {f: np.zeros((x.shape[1], y.shape[1])) for f in FIELDS}
    for j in range(x.shape[1]):
        for k in range(y.shape[1]):
            keep = ~(np.isnan(x[:, j]) | np.isnan(y[:, k]))
            m = int(keep.sum())
            n_pairs = m * (m - 1) // 2
            conc, disc, tx, ty = comparison_counts(x[keep, j], y[keep, k]) if m else (0, 0, 0, 0)
            undefined = n_pairs == tx or n_pairs == ty
            row = {
                "tau_a": (conc - disc) / n_pairs if n_pairs else np.nan,
                "tau_b": np.nan if undefined else (conc - disc) / math.sqrt((n_pairs - tx) * (n_pairs - ty)),
                "concordant": conc, "discordant": disc, "ties_j": tx, "ties_k": ty, "n_pairs": n_pairs,
            }
            for f in FIELDS:
                out[f][j, k] = row[f]
    return out


@pytest.mark.parametrize("kernel", ["gram", "merge"])
def test_block_statistics_match_enumeration_and_column_calls(kernel, monkeypatch):
    monkeypatch.setattr(kendall, "GRAM_MAX_CELLS_PER_PAIR_ROW", 10**9 if kernel == "gram" else 0)
    # one lag per chunk at n = 41; three at n = 30, the last with half lag 15
    monkeypatch.setattr(kendall, "GRAM_CHUNK_CELLS", 450)
    rng = np.random.default_rng(12)
    complete_rows_seen, constant_seen = set(), set()
    for n, p, q in [(41, 6, 3), (30, 5, None), (3, 2, 4), (2, 3, None), (1, 2, 2), (25, 1, None), (9, 0, 2)]:
        x = _mixed_block(rng, n, p)
        y = x if q is None else _mixed_block(rng, n, q)[:, ::-1]
        want = _enumerated_stats(x, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tau = kendall.tau_a(x, y)
            stats = kendall.tau_b(x, y)
        assert tau.shape == (x.shape[1], y.shape[1])
        assert np.array_equal(tau, want["tau_a"], equal_nan=True)
        for f in FIELDS:
            assert np.array_equal(getattr(stats, f), want[f], equal_nan=True), f
        for j in range(x.shape[1]):
            for k in range(y.shape[1]):
                if want["n_pairs"][j, k] == 0:
                    m = int(np.sum(~(np.isnan(x[:, j]) | np.isnan(y[:, k]))))
                    message = f"^need at least 2 complete observations, got {m}$"
                    for call in (kendall.tau_a, kendall.tau_b):
                        with pytest.raises(ValueError, match=message) as err:
                            call(x[:, j], y[:, k])
                        assert type(err.value) is ValueError
                    complete_rows_seen.add(m)
                    continue
                assert tau[j, k] == kendall.tau_a(x[:, j], y[:, k])
                if np.isnan(stats.tau_b[j, k]):
                    which = "first" if want["ties_j"][j, k] == want["n_pairs"][j, k] else "second"
                    message = f"^{which} column is constant; tau_b undefined$"
                    with pytest.raises(kendall.DegenerateColumnError, match=message):
                        kendall.tau_b(x[:, j], y[:, k])
                    constant_seen.add(which)
                    continue
                column = kendall.tau_b(x[:, j], y[:, k])
                assert all(getattr(stats, f)[j, k] == getattr(column, f) for f in FIELDS)
        if q is None:  # the symmetric pass counts each pair once and mirrors it
            other = kendall.tau_b(x, x.copy())
            for f in FIELDS:
                assert np.array_equal(getattr(stats, f), getattr(other, f), equal_nan=True), f
    # column calls take the crossover's kernel too, and raise as before
    assert complete_rows_seen == {0, 1} and constant_seen == {"first", "second"}


def test_gram_chunks_cover_each_row_pair_once_within_the_cap(monkeypatch):
    chunks, signs = [], kendall._signs

    def record(*args):
        chunks.append(signs(*args))
        return chunks[-1]

    monkeypatch.setattr(kendall, "_signs", record)
    monkeypatch.setattr(kendall, "GRAM_MAX_CELLS_PER_PAIR_ROW", 10**9)
    for n in range(10):
        # column r of the identity is 1 on row r only, so the signs of the row
        # pair (i, i') are nonzero in columns i and i' and nowhere else
        x = np.eye(n)
        for cap in (1, 3, 7, 20, 100):
            monkeypatch.setattr(kendall, "GRAM_CHUNK_CELLS", cap * n)  # cap cells per column
            chunks.clear()
            kendall.tau_a(x, x)
            seen = []
            for (sign,) in chunks:
                assert 0 < len(sign) <= max(cap, n)
                seen += [tuple(np.flatnonzero(row)) for row in sign]
            # every pair once, the half lag n / 2 of an even n included
            assert sorted(seen) == [(i, j) for i in range(n) for j in range(i + 1, n)]


def test_both_kernels_agree_on_a_wide_block_with_blanks(monkeypatch):
    rng = np.random.default_rng(13)
    x = rng.standard_normal((150, 20))
    x[:, ::3] = np.round(x[:, ::3])  # tied columns
    x[rng.random(x.shape) < 0.01] = np.nan
    results = []
    for crossover in (10**9, 0):
        monkeypatch.setattr(kendall, "GRAM_MAX_CELLS_PER_PAIR_ROW", crossover)
        results.append((kendall.tau_a(x, x), kendall.tau_b(x, x)))
    (gram_a, gram_b), (merge_a, merge_b) = results
    assert np.array_equal(gram_a, merge_a)
    for f in FIELDS:
        assert np.array_equal(getattr(gram_b, f), getattr(merge_b, f)), f
    assert np.array_equal(gram_a, gram_a.T)


@pytest.mark.parametrize("kernel", ["gram", "merge"])
def test_stacked_statistics_equal_each_replicate_alone(kernel, monkeypatch):
    monkeypatch.setattr(kendall, "GRAM_MAX_CELLS_PER_PAIR_ROW", 10**9 if kernel == "gram" else 0)
    rng = np.random.default_rng(14)
    for reps, n, p, q, chunk in [(3, 31, 6, 3, 450), (4, 30, 5, None, 10**6), (2, 2, 2, 1, 1), (5, 40, 1, 1, 200)]:
        monkeypatch.setattr(kendall, "GRAM_CHUNK_CELLS", chunk)  # several lags per chunk, or one
        x = np.stack([_mixed_block(rng, n, p) for _ in range(reps)])
        x[1, :, 0] = 1.0  # one replicate's column is constant
        y = x if q is None else np.stack([_mixed_block(rng, n, q)[:, ::-1] for _ in range(reps)])
        tau, stats = kendall.tau_a(x, y), kendall.tau_b(x, y)
        assert tau.shape == (reps, p, y.shape[2])
        for rep in range(reps):
            alone = kendall.tau_b(x[rep], x[rep] if q is None else y[rep])
            assert np.array_equal(tau[rep], kendall.tau_a(x[rep], y[rep]), equal_nan=True)
            for f in FIELDS:
                assert np.array_equal(getattr(stats, f)[rep], getattr(alone, f), equal_nan=True), f
    with pytest.raises(ValueError, match="two columns or two blocks"):
        kendall.tau_a(np.zeros((2, 5, 2)), np.zeros((3, 5, 2)))


@pytest.mark.parametrize("count", [kendall.tau_a, kendall.tau_b])
def test_temporaries_of_a_stack_do_not_grow_with_its_replicates(count):
    # a stack is counted in slices of whole replicates of GRAM_CHUNK_CELLS
    # cells; the results themselves still grow with it
    x = np.random.default_rng(15).standard_normal((200, 100, 17))
    peak = {}
    for reps in (20, 200):
        tracemalloc.start()
        try:
            count(x[:reps], x[:reps])
            peak[reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak[200] < 3 * peak[20]


def test_column_calls_keep_scalar_results():
    x, y = np.array([0.0, 1.0, 2.0, 2.0]), np.array([1.0, 0.0, 3.0, 4.0])
    assert type(kendall.tau_a(x, y)) is float
    stats = kendall.tau_b(x, y)
    assert type(stats.tau_b) is float and type(stats.concordant) is int


def test_block_shape_validation():
    with pytest.raises(ValueError, match="two columns or two blocks"):
        kendall.tau_a(np.zeros((5, 2)), np.zeros(5))
    with pytest.raises(ValueError, match="two columns or two blocks"):
        kendall.tau_b(np.zeros((5, 2)), np.zeros((4, 2)))
