"""Matrix assembly from mixed data and the PSD projection."""

import numpy as np
import pytest

from latentcorr import bridge, estimator, kendall, simulate
from latentcorr.estimator import ColumnSpec
from test_bridge import counting_loop

# ---------------------------------------------------------------------------
# Column spec inference and recoding
# ---------------------------------------------------------------------------


def test_infer_column_specs():
    rng = np.random.default_rng(0)
    data = np.column_stack(
        [
            rng.integers(0, 3, 200).astype(float),  # 3 integer levels -> ordinal
            rng.standard_normal(200),  # continuous
            rng.integers(0, 50, 200).astype(float),  # too many levels -> continuous
            np.repeat([1.5, 2.5], 100),  # non-integer levels -> continuous
        ]
    )
    specs = estimator.infer_column_specs(data, ["a", "b", "c", "d"])
    assert [s.levels for s in specs] == [3, None, None, None]
    assert [s.name for s in specs] == ["a", "b", "c", "d"]


def test_infer_column_specs_treats_an_infinite_column_as_continuous():
    col = np.array([1.0, np.inf, 2.0, 0.0, 3.0, 1.0])
    specs = estimator.infer_column_specs(np.column_stack([col, -col, np.arange(6.0) % 3]))
    assert [s.levels for s in specs] == [None, None, 3]


def test_recode_collapses_empty_levels():
    # codes 0, 5 and 9 of a declared 10-level column: 3 effective levels
    col = np.array([0.0, 5.0, 5.0, 9.0, np.nan, 0.0, 9.0, 5.0])
    data = np.column_stack([col, np.arange(8.0)])
    est = estimator.estimate_latent_correlation(data, [ColumnSpec("a", 10), ColumnSpec("b")])
    assert est.method[0, 1] == "ordinal3_continuous"
    recoded = np.array([0.0, 1.0, 1.0, 2.0, np.nan, 0.0, 2.0, 1.0])
    alone = estimator.estimate_latent_correlation(np.column_stack([recoded, np.arange(8.0)]),
                                                  [ColumnSpec("a", 3), ColumnSpec("b")])
    assert np.array_equal(est.values, alone.values)
    with pytest.raises(ValueError, match=r"^ordinal column 'a' declares 2 levels but has 3 observed levels$"):
        estimator.estimate_latent_correlation(data, [ColumnSpec("a", 2), ColumnSpec("b")])


def test_column_spec_validation():
    with pytest.raises(ValueError):
        ColumnSpec("x", levels=1)
    with pytest.raises(ValueError, match=r"'a' needs integer levels >= 2, got 2.5"):
        ColumnSpec("a", 2.5)
    assert ColumnSpec("b", np.int64(3)).levels == 3


def test_infer_column_specs_rejects_a_wrong_number_of_names():
    with pytest.raises(ValueError, match="2 names for 3 columns"):
        estimator.infer_column_specs(np.zeros((4, 3)), ["a", "b"])


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------


def _mixed_sample(n, r, seed):
    sigma = np.array([[1.0, r], [r, 1.0]])
    spec = simulate.CopulaSpec(sigma, (simulate.equal_mass_cutoffs(3), None))
    return simulate.sample_copula(spec, n, seed)


def test_recovers_known_correlation():
    data = _mixed_sample(20_000, 0.5, 1)
    est = estimator.estimate_latent_correlation(data)
    assert est.values[0, 1] == pytest.approx(0.5, abs=0.03)
    assert est.method[0, 1] == "ordinal3_continuous"
    assert not est.clamped.any()
    assert np.allclose(np.diag(est.values), 1.0)


def test_method_tags_cover_all_pair_kinds():
    rng = np.random.default_rng(2)
    n = 500
    data = np.column_stack(
        [
            rng.integers(0, 2, n).astype(float),
            rng.integers(0, 3, n).astype(float),
            rng.standard_normal(n),
            rng.standard_normal(n),
        ]
    )
    est = estimator.estimate_latent_correlation(data)
    assert est.method[0, 1] == "ordinal2_ordinal3"
    assert est.method[0, 2] == "ordinal2_continuous"
    assert est.method[1, 2] == "ordinal3_continuous"
    assert est.method[2, 3] == "sin"
    assert est.method[0, 0] == "diag"


def test_tau_b_variant_tags_every_pair():
    rng = np.random.default_rng(3)
    n = 400
    data = np.column_stack(
        [
            rng.integers(0, 2, n).astype(float),
            rng.integers(0, 3, n).astype(float),
            rng.standard_normal(n),
        ]
    )
    est = estimator.estimate_latent_correlation(data, variant="b")
    assert est.method[0, 2] == "ordinal2_continuous:tau_b"
    assert est.method[0, 1] == "ordinal2_ordinal3:tau_b"
    assert est.method[1, 2] == "ordinal3_continuous:tau_b"


def test_comonotone_pair_clamps():
    x = np.arange(100.0)
    data = np.column_stack([x, np.exp(x / 30.0)])
    est = estimator.estimate_latent_correlation(data)
    assert est.clamped[0, 1]
    assert est.values[0, 1] == pytest.approx(1.0 - 1e-6)


def test_pairwise_deletion_of_missing_values():
    rng = np.random.default_rng(4)
    data = np.column_stack([rng.standard_normal(300), rng.standard_normal(300)])
    data[:30, 0] = np.nan
    est = estimator.estimate_latent_correlation(data)
    complete = data[30:]
    est2 = estimator.estimate_latent_correlation(complete)
    assert est.values[0, 1] == est2.values[0, 1]


def test_tau_b_names_pair_left_constant_by_pairwise_deletion():
    rng = np.random.default_rng(6)
    binary = np.tile([0.0, 1.0], 50)
    c = rng.standard_normal(100)
    c[binary == 1.0] = np.nan  # the rows complete in (a, c) all have a == 0
    data = np.column_stack([binary, rng.standard_normal(100), c])
    specs = [ColumnSpec("a", 2), ColumnSpec("b", None), ColumnSpec("c", None)]
    with pytest.raises(kendall.DegenerateColumnError, match=r"pair \(0, 2\) \['a', 'c'\]"):
        estimator.estimate_latent_correlation(data, specs, variant="b")


def test_many_level_ordinal_pair_is_estimated():
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    spec = simulate.CopulaSpec(sigma, (simulate.equal_mass_cutoffs(5), simulate.equal_mass_cutoffs(7)))
    data = simulate.sample_copula(spec, 20_000, 2)
    est = estimator.estimate_latent_correlation(data)
    assert est.values[0, 1] == pytest.approx(0.5, abs=0.03)
    assert est.method[0, 1] == "ordinal5_ordinal7"
    est_b = estimator.estimate_latent_correlation(data, variant="b")
    assert est_b.values[0, 1] == pytest.approx(0.5, abs=0.03)
    assert est_b.method[0, 1] == "ordinal5_ordinal7:tau_b"


@pytest.mark.parametrize("variant", ["a", "b"])
def test_tau_counted_once_per_estimate(variant, monkeypatch):
    rng = np.random.default_rng(5)
    n = 300
    data = np.column_stack(
        [rng.integers(0, 5, n).astype(float), rng.integers(0, 5, n).astype(float),
         rng.standard_normal(n)]
    )
    calls = []
    for name in ("tau_a", "tau_b"):
        fn = getattr(kendall, name)
        def counted(x, y, fn=fn, name=name):
            calls.append((name, np.shape(x), y is x))
            return fn(x, y)

        monkeypatch.setattr(kendall, name, counted)
    est = estimator.estimate_latent_correlation(data, variant=variant)
    assert est.method[0, 1] == "ordinal5_ordinal5" + (":tau_b" if variant == "b" else "")
    assert np.isfinite(est.values).all()
    assert calls == [("tau_" + variant, (n, 3), True)]  # one block call, the block passed as x and y


@pytest.mark.parametrize("variant", ["a", "b"])
def test_error_names_the_first_listed_pair_without_two_complete_rows(variant):
    data = np.random.default_rng(7).standard_normal((100, 4))
    data[50:, 0] = np.nan
    data[:49, 2] = np.nan  # (a, c) share row 49 only
    data[:60, 3] = np.nan  # (a, d) share no row; (b, d) share 40
    specs = [ColumnSpec(name) for name in "abcd"]
    message = r"^pair \(0, 2\) \['a', 'c'\]: need at least 2 complete observations, got 1$"
    with pytest.raises(ValueError, match=message):
        estimator.estimate_latent_correlation(data, specs, variant=variant)


def test_tau_b_error_names_the_first_listed_pair_left_constant():
    rng = np.random.default_rng(8)
    n = 100
    u, v = rng.standard_normal((2, n))
    u[50:] = np.nan
    v[:50] = 1.0  # constant over the rows of (u, v)
    a = np.tile([0.0, 1.0], n // 2)
    c = rng.standard_normal(n)
    c[a == 1.0] = np.nan  # (a, c) is left with a == 0 only
    e = np.tile([0.0, 0.0, 1.0, 1.0], n // 4)
    f = rng.standard_normal(n)
    f[e == 0.0] = np.nan  # (e, f) is left with e == 1 only
    data = np.column_stack([u, v, a, c, e, f])
    specs = [ColumnSpec(name, levels) for name, levels in zip("uvacef", (None, None, 2, None, 2, None))]
    message = r"^pair \(0, 1\) \['u', 'v'\]: second column is constant"
    with pytest.raises(kendall.DegenerateColumnError, match=message):
        estimator.estimate_latent_correlation(data, specs, variant="b")
    assert np.isfinite(estimator.estimate_latent_correlation(data, specs).values).all()


def _four_column_sample():
    rng = np.random.default_rng(9)
    n = 400
    return np.column_stack(
        [rng.integers(0, 3, n).astype(float), rng.standard_normal(n),
         rng.integers(0, 2, n).astype(float), rng.standard_normal(n)]
    )


def test_pairs_selects_the_estimated_entries():
    data = _four_column_sample()
    full = estimator.estimate_latent_correlation(data)
    data[:, 2] = 1.0  # a single observed level: fine while column 2 is in no pair
    part = estimator.estimate_latent_correlation(data, full.specs, pairs=[(3, 0), (0, 1)])
    for j, k in ((0, 1), (0, 3)):
        assert part.values[j, k] == part.values[k, j] == full.values[j, k]
        assert part.method[j, k] == full.method[j, k]
    others = np.ones((4, 4), dtype=bool)
    others[[0, 1, 0, 3], [1, 0, 3, 0]] = False
    np.fill_diagonal(others, False)
    assert np.isnan(part.values[others]).all()
    assert set(part.method[others]) == {"not_estimated"}
    assert np.array_equal(np.diag(part.values), np.ones(4))
    assert estimator.estimate_latent_correlation(data, full.specs, pairs=[]).method[0, 1] == "not_estimated"


@pytest.mark.parametrize("pair", [(1, 1), (0, 4), (-1, 2)])
def test_pairs_rejects_bad_column_indices(pair):
    with pytest.raises(ValueError, match="distinct column indices"):
        estimator.estimate_latent_correlation(_four_column_sample(), pairs=[pair])


def test_batched_inversion_errors_name_the_pair(monkeypatch):
    data = _four_column_sample()
    specs = [ColumnSpec(name, levels) for name, levels in zip("abcd", (3, None, 2, None))]
    monkeypatch.setattr(estimator, "estimate_cutoffs",
                        lambda codes, p: np.tile(np.linspace(1.0, -1.0, p - 1), (len(codes), 1)))
    with pytest.raises(ValueError, match=r"pair \(0, 1\) \['a', 'b'\]: cutoffs must be nondecreasing"):
        estimator.estimate_latent_correlation(data, specs)
    monkeypatch.undo()
    monkeypatch.setattr(bridge, "NEWTON_MAX_ITER", 0)
    with pytest.raises(bridge.BridgeInversionError, match=r"pair \(0, 1\) \['a', 'b'\]: no convergence"):
        estimator.estimate_latent_correlation(data, specs)


def _stack(reps=4, n=60):
    """Replicates of ordinal(3), continuous, binary, continuous and ordinal(4)
    columns with blanks; replicate 2's first column never takes level 1."""
    rng = np.random.default_rng(10)
    z = rng.standard_normal((reps, n, 5))
    z[..., 1] += z[..., 0]
    x = z.copy()
    x[..., 0] = np.digitize(z[..., 0], [-0.5, 0.5])
    x[..., 2] = z[..., 2] > 0.3
    x[..., 4] = np.digitize(z[..., 4] + z[..., 3], [-1.0, 0.0, 1.0])
    x[2, x[2, :, 0] == 1, 0] = 2.0
    x[rng.random(x.shape) < 0.05] = np.nan
    return x, [ColumnSpec(name, levels) for name, levels in zip("abcde", (3, None, 2, None, 4))]


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("pairs", [None, [(0, 1), (2, 1), (0, 3), (4, 3), (2, 4)]])
def test_a_stack_is_estimated_as_each_replicate_alone(variant, pairs):
    x, specs = _stack()
    stacked = estimator.estimate_latent_correlation(x, specs, variant=variant, pairs=pairs)
    assert len(stacked) == len(x)
    for rep, est in enumerate(stacked):
        alone = estimator.estimate_latent_correlation(x[rep], specs, variant=variant, pairs=pairs)
        assert np.array_equal(est.values, alone.values, equal_nan=True)
        assert np.array_equal(est.method, alone.method)
        assert np.array_equal(est.clamped, alone.clamped)
        assert est.specs == alone.specs
    tag = "ordinal2_continuous" + (":tau_b" if variant == "b" else "")
    assert stacked[2].method[0, 1] == tag and stacked[0].method[0, 1] != tag  # the empty level
    assert estimator.estimate_latent_correlation(x[:0], specs, pairs=pairs) == []


def test_a_stack_error_names_the_replicate(monkeypatch):
    x, specs = _stack()
    x[3, :, 0] = 1.0
    with pytest.raises(kendall.DegenerateColumnError, match=r"^replicate 3: ordinal column 'a' has a single"):
        estimator.estimate_latent_correlation(x, specs)
    x, specs = _stack()
    x[1, 2:, 3] = np.nan
    x[1, :2, 1] = np.nan
    message = r"^replicate 1: pair \(1, 3\) \['b', 'd'\]: need at least 2 complete observations, got 0$"
    with pytest.raises(ValueError, match=message):
        estimator.estimate_latent_correlation(x, specs)
    x, specs = _stack()
    monkeypatch.setattr(bridge, "NEWTON_MAX_ITER", 0)
    with pytest.raises(bridge.BridgeInversionError, match=r"^replicate 0: pair \(0, 1\) \['a', 'b'\]: no convergence"):
        estimator.estimate_latent_correlation(x, specs)


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("crossover", [kendall.GRAM_MAX_CELLS_PER_PAIR_ROW, 0])  # the Gram, then the merge
def test_stacked_levels_and_cutoffs_match_unique_and_the_counting_loop(variant, crossover, monkeypatch):
    # ordinal values that are fractional, negative, +-inf and +-0.0, with
    # blanks, replicates that are almost all blank and empty declared levels
    monkeypatch.setattr(kendall, "GRAM_MAX_CELLS_PER_PAIR_ROW", crossover)
    rng = np.random.default_rng(13)
    reps, n = 6, 40
    values = np.array([-np.inf, -2.5, -1.0, -0.0, 0.0, 0.75, 2.0, 3.5, np.inf])
    x = rng.standard_normal((reps, n, 3))
    x[..., 0] = rng.choice(values, (reps, n))
    x[..., 1] = rng.choice(values[2:6], (reps, n))
    x[rng.random((reps, n, 3)) < 0.1] = np.nan
    x[1, 4:, 0] = np.nan
    x[1, :4, 0] = [np.inf, -0.0, 0.0, np.inf]  # 2 levels in 4 rows
    x[3, :, 1] = np.where(np.arange(n) % 2, -0.0, 0.0)
    x[3, :2, 1] = 0.75
    x[[1, 3], :4, 2] = [0.3, -1.2, 2.0, 0.1]
    specs = [ColumnSpec("a", 12), ColumnSpec("b", 6), ColumnSpec("c")]
    stacked = estimator.estimate_latent_correlation(x, specs, variant=variant)
    count = kendall.tau_b if variant == "b" else kendall.tau_a
    levels = np.zeros((reps, 2), dtype=int)
    for rep, est in enumerate(stacked):
        codes, cuts = [], []
        for j in (0, 1):
            col = x[rep, :, j]
            observed, code = np.unique(col[~np.isnan(col)], return_inverse=True)
            levels[rep, j] = observed.size
            codes.append(np.full(n, np.nan))
            codes[-1][~np.isnan(col)] = code
            cuts.append(counting_loop(codes[-1], observed.size))
        columns = codes + [x[rep, :, 2]]
        for j, k in ((0, 1), (0, 2), (1, 2)):
            kind = bridge.BridgeKind(*(int(levels[rep, c]) if c < 2 else None for c in (j, k)))
            tau = count(columns[j], columns[k])
            tau = tau.tau_b if variant == "b" else tau
            want = bridge.invert_bridge(tau, kind, *(cuts[c] for c in (j, k) if c < 2), variant=variant)
            assert est.method[j, k].startswith(kind.tag)
            assert (est.values[j, k], est.clamped[j, k]) == (want.r, want.clamped)
    assert levels[1, 0] == 2 and levels[3, 1] == 2 and (levels < [12, 6]).all()
    for j, name in ((1, "b"), (0, "a")):  # named: the first replicate, then the first column
        specs[j] = ColumnSpec(name, 2)
        rep, c = next((rep, c) for rep in range(reps) for c in (0, 1) if levels[rep, c] > specs[c].levels)
        message = (f"^replicate {rep}: ordinal column '{specs[c].name}' declares 2 levels "
                   f"but has {levels[rep, c]} observed levels$")
        with pytest.raises(ValueError, match=message):
            estimator.estimate_latent_correlation(x, specs, variant=variant)


def test_single_level_ordinal_column_raises():
    data = np.column_stack([np.ones(50), np.arange(50.0)])
    with pytest.raises(kendall.DegenerateColumnError):
        estimator.estimate_latent_correlation(
            data, [ColumnSpec("a", 2), ColumnSpec("b", None)]
        )


@pytest.mark.parametrize("variant", ["a", "b"])
def test_a_used_column_needs_two_distinct_observed_values(variant):
    data = np.array([[1, 2, 7], [2, 1, 7], [3, 5, 7], [4, 4, 7], [5, 5, 7]], dtype=float)
    with pytest.raises(kendall.DegenerateColumnError, match=r"^continuous column 'x2' has a single observed value$"):
        estimator.estimate_latent_correlation(data, variant=variant)
    x, specs = _stack()
    x[2, :, 3] = np.where(np.arange(x.shape[1]) % 2, np.nan, np.inf)
    x[1, :, 1] = np.nan
    with pytest.raises(kendall.DegenerateColumnError, match=r"^replicate 1: continuous column 'b' has no observed value$"):
        estimator.estimate_latent_correlation(x, specs, variant=variant)
    with pytest.raises(kendall.DegenerateColumnError, match=r"^replicate 2: continuous column 'd' has a single"):
        estimator.estimate_latent_correlation(x, specs, variant=variant, pairs=[(0, 3)])
    assert all(np.isfinite(est.values[0, 4]) for est in estimator.estimate_latent_correlation(x, specs, pairs=[(0, 4)]))


def test_zero_columns_give_empty_matrices():
    est = estimator.estimate_latent_correlation(np.zeros((5, 0)))
    assert est.values.shape == est.method.shape == (0, 0) and est.specs == []
    stacked = estimator.estimate_latent_correlation(np.zeros((3, 5, 0)))
    assert [e.values.shape for e in stacked] == [(0, 0)] * 3


def test_spec_count_mismatch():
    with pytest.raises(ValueError):
        estimator.estimate_latent_correlation(
            np.zeros((10, 3)), [ColumnSpec("a", None)]
        )


# ---------------------------------------------------------------------------
# Metamorphic relations: the estimate depends on each column only through
# the order of its values
# ---------------------------------------------------------------------------

METAMORPHIC_LEVELS = (None, 2, 3, None, 5, 7, 3, None)


def _metamorphic_data(reps):
    """(reps, 300, 8) stack: continuous and 2/3/5/7-level codes, 5 % blanks."""
    rng = np.random.default_rng(131)
    d = len(METAMORPHIC_LEVELS)
    sigma = 0.6 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
    z = rng.standard_normal((reps, 300, d)) @ np.linalg.cholesky(sigma).T
    x = z.copy()
    for j, p in enumerate(METAMORPHIC_LEVELS):
        if p:
            x[..., j] = np.digitize(z[..., j], np.linspace(-1.2, 1.2, p + 1)[1:-1])
    x[rng.random(x.shape) < 0.05] = np.nan
    return x


def _estimate_values(x, variant, pairs):
    specs = [ColumnSpec(f"c{j}", p) for j, p in enumerate(METAMORPHIC_LEVELS)]
    ests = estimator.estimate_latent_correlation(x, specs, variant=variant, pairs=pairs)
    return [(e.values, e.method, e.clamped) for e in (ests if x.ndim == 3 else [ests])]


@pytest.mark.parametrize("variant", ["a", "b"])
@pytest.mark.parametrize("reps, pairs", [(None, None), (2, [(0, 1), (2, 1), (4, 5), (7, 3), (6, 2), (5, 7)])])
def test_increasing_transforms_and_row_order_keep_the_bits_and_reversal_negates(variant, reps, pairs):
    x = _metamorphic_data(reps or 1)
    x = x if reps else x[0]
    base = _estimate_values(x, variant, pairs)
    continuous = np.array([p is None for p in METAMORPHIC_LEVELS])

    # exp for continuous columns, an increasing relabelling for ordinal codes
    moved = np.where(continuous, np.exp(x), 10.0 * x + x * x - 5.0)
    rng = np.random.default_rng(7)
    shuffled = np.stack([rng.permutation(rep) for rep in x.reshape(-1, *x.shape[-2:])]).reshape(x.shape)
    for other in (moved, shuffled):
        for (v0, m0, c0), (v1, m1, c1) in zip(base, _estimate_values(other, variant, pairs)):
            assert np.array_equal(v0, v1, equal_nan=True)
            assert np.array_equal(m0, m1) and np.array_equal(c0, c1)

    # reversing columns 0, 2 and 5 negates every entry pairing one of them with another column
    flip = np.zeros(len(METAMORPHIC_LEVELS), dtype=bool)
    flip[[0, 2, 5]] = True
    top = np.array([(p or 1) - 1 for p in METAMORPHIC_LEVELS], dtype=float)
    reversed_x = np.where(flip, np.where(continuous, -x, top - x), x)
    sign = np.where(flip, -1.0, 1.0)
    for (v0, m0, _), (v1, m1, _) in zip(base, _estimate_values(reversed_x, variant, pairs)):
        want = v0 * np.outer(sign, sign)
        assert np.array_equal(np.isnan(v1), np.isnan(want))
        assert np.nanmax(np.abs(v1 - want)) <= 1e-15
        assert np.array_equal(m0, m1)


# ---------------------------------------------------------------------------
# PSD projection
# ---------------------------------------------------------------------------


def test_projection_of_indefinite_matrix():
    a = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    assert np.linalg.eigvalsh(a)[0] < 0  # oracle: input is indefinite
    p = estimator.project_psd(a)
    assert np.linalg.eigvalsh(p)[0] >= 0
    assert np.allclose(np.diag(p), 1.0)
    assert np.allclose(p, p.T)
    # idempotent
    assert np.allclose(estimator.project_psd(p), p, atol=1e-12)


def test_projection_is_identity_on_psd_input():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((4, 40))
    r = np.corrcoef(b)
    assert np.array_equal(estimator.project_psd(r), 0.5 * (r + r.T))


def test_projection_accepts_estimate_object():
    data = _mixed_sample(500, 0.4, 7)
    est = estimator.estimate_latent_correlation(data)
    p = estimator.project_psd(est)
    assert p.shape == (2, 2)


def test_projection_rejects_nonsquare():
    with pytest.raises(ValueError):
        estimator.project_psd(np.zeros((2, 3)))


def test_projection_rejects_an_empty_matrix():
    with pytest.raises(ValueError, match="empty"):
        estimator.project_psd(np.zeros((0, 0)))


def test_projection_rejects_entries_left_out_by_pairs():
    part = estimator.estimate_latent_correlation(_four_column_sample(), pairs=[(0, 1), (0, 3)])
    with pytest.raises(ValueError, match=r"entry \(0, 2\) is not finite: nan"):
        estimator.project_psd(part)
