"""Kendall rank statistics, checked against exhaustive pair enumeration."""

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
