"""Copula sampling, error-curve experiments, and the Monte-Carlo oracles."""

import numpy as np
import pytest

from latentcorr import bridge, kendall, simulate
from latentcorr import normal_dist as nd
from latentcorr.simulate import CopulaSpec

# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    spec = CopulaSpec(np.array([[1.0, 0.4], [0.4, 1.0]]), (np.array([0.0]), None))
    a = simulate.sample_copula(spec, 1000, 42)
    b = simulate.sample_copula(spec, 1000, 42)
    assert np.array_equal(a, b)
    c = simulate.sample_copula(spec, 1000, 43)
    assert not np.array_equal(a, c)


def test_independent_pair_sample_correlation_near_zero():
    x = simulate.sample_copula(CopulaSpec(np.eye(2)), 100_000, 0)
    assert abs(np.corrcoef(x.T)[0, 1]) < 0.01  # 3 / sqrt(n)


def test_comonotone_pair_has_unit_tau():
    # residual noise scale is sqrt(2e-9) ~ 4.5e-5, far below typical gaps
    # between n=100 standard normal draws, so the ordering is identical
    r = 1.0 - 1e-9
    x = simulate.sample_copula(CopulaSpec(np.array([[1.0, r], [r, 1.0]])), 100, 1)
    assert kendall.tau_a(x[:, 0], x[:, 1]) == 1.0


def test_equal_mass_levels():
    cuts = simulate.equal_mass_cutoffs(3)
    assert cuts == pytest.approx([nd.std_quantile(1 / 3), nd.std_quantile(2 / 3)])
    spec = CopulaSpec(np.eye(2), (cuts, None))
    x = simulate.sample_copula(spec, 100_000, 2)
    freqs = np.bincount(x[:, 0].astype(int), minlength=3) / 100_000
    assert np.abs(freqs - 1 / 3).max() < 0.005
    assert set(np.unique(x[:, 0])) == {0.0, 1.0, 2.0}


def test_estimated_cutoffs_recover_population_cutoffs():
    p, n = 4, 20_000
    cuts = simulate.equal_mass_cutoffs(p)
    spec = CopulaSpec(np.eye(2), (cuts, None))
    x = simulate.sample_copula(spec, n, 3)
    est = bridge.estimate_cutoffs(x[:, 0], p)
    assert np.abs(est - cuts).max() < 3 * np.sqrt(p / n)


def test_copula_spec_validation():
    with pytest.raises(ValueError):
        CopulaSpec(np.array([[1.0, 1.1], [1.1, 1.0]]))  # not PD
    with pytest.raises(ValueError):
        CopulaSpec(np.array([[2.0, 0.0], [0.0, 1.0]]))  # diagonal not 1
    with pytest.raises(ValueError):
        CopulaSpec(np.eye(2), (None,))  # wrong cutoff count
    for cuts in ([1.0, -1.0], [np.nan], []):
        with pytest.raises(ValueError, match="column x1: cutoffs must be one or more"):
            CopulaSpec(np.eye(2), (None, cuts))
    for cuts in ([np.inf, -np.inf], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="column x1: cutoffs must be one or more"):
            CopulaSpec(np.eye(2), (None, cuts))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_copula_spec_takes_coincident_infinite_cutoffs_without_a_warning():
    spec = CopulaSpec(np.eye(2), ([-np.inf, -np.inf, 0.0], [np.inf, np.inf]))
    x = simulate.sample_copula(spec, 50, 4)
    assert set(np.unique(x[:, 0])) <= {2.0, 3.0} and np.all(x[:, 1] == 0.0)


# ---------------------------------------------------------------------------
# Error-curve experiments (desk-scale configurations)
# ---------------------------------------------------------------------------


def test_error_curve_shape_and_determinism():
    curves = simulate.scenario1(p_values=(2, 16), r_grid=[0.15, 0.55], n=100, reps=5, seed=9)
    assert [c.p for c in curves] == [2, 16, 0]  # baseline labelled p=0
    for c in curves:
        assert c.bin_low.size == 10 and c.bin_high.size == 10
        assert c.reps == 5
        finite = np.isfinite(c.mse)
        assert finite.sum() == 2  # only the two populated bins
    again = simulate.scenario1(p_values=(2, 16), r_grid=[0.15, 0.55], n=100, reps=5, seed=9)
    for c1, c2 in zip(curves, again):
        assert np.array_equal(np.nan_to_num(c1.mse), np.nan_to_num(c2.mse))


def test_every_bin_holds_one_r_at_step_one_tenth():
    # the grid `simulate --r-step 0.1` builds: ten r values for ten bins, so
    # ten finite bins means one r in each, with r = 0.3 and 0.7 in their own
    r_grid = np.round(np.arange(0.0, simulate.R_GRID_CAP + 1e-9, 0.1), 10)
    for curve in simulate.scenario1(p_values=(2,), r_grid=r_grid, n=30, reps=1, seed=3):
        assert np.isfinite(curve.mse).all()
        assert np.array_equal(curve.bin_low, r_grid)


def test_collapse_protocol_matches_equal_mass_at_sixteen():
    kw = dict(r_grid=[0.25, 0.85], n=100, reps=6, seed=11)
    s1 = {c.p: c.mse for c in simulate.scenario1(p_values=(16,), **kw)}
    s2 = {c.p: c.mse for c in simulate.scenario2(p_values=(16,), **kw)}
    assert np.array_equal(np.nan_to_num(s1[16]), np.nan_to_num(s2[16]))
    # the shared latent draws also make the baselines identical
    assert np.array_equal(np.nan_to_num(s1[0]), np.nan_to_num(s2[0]))


def test_collapsing_to_binary_increases_error():
    curves = simulate.scenario2(p_values=(2, 16), r_grid=[0.45, 0.75], n=100, reps=20, seed=12)
    mse = {c.p: np.nanmean(c.mse) for c in curves}
    assert mse[2] > mse[16]


def test_r_grid_validation():
    with pytest.raises(ValueError):
        simulate.scenario1(p_values=(2,), r_grid=[0.5, 1.0], reps=1)
    with pytest.raises(ValueError):
        simulate.scenario1(p_values=(17,), r_grid=[0.5], reps=1)


def test_error_curves_text_format():
    curves = simulate.scenario1(p_values=(3,), r_grid=[0.05], n=50, reps=2, seed=13)
    text = simulate.error_curves_to_text(curves)
    lines = text.strip().split("\n")
    assert lines[0] == "p\tbin_low\tbin_high\tmse\treps"
    assert len(lines) == 1 + 10 * len(curves)
    first = lines[1].split("\t")
    assert first[0] == "3" and first[1] == "0.0" and first[2] == "0.1" and first[4] == "2"


# ---------------------------------------------------------------------------
# Concentration harness
# ---------------------------------------------------------------------------


def test_concentration_errors_shrink_with_n():
    n_grid, err, slope = simulate.concentration_check(
        d=4, p=3, n_grid=(200, 800, 3200), seed=5, n_seeds=5
    )
    assert np.all(np.diff(err) < 0)
    assert -0.8 < slope < -0.2


def test_concentration_single_pair():
    n_grid, err, slope = simulate.concentration_check(
        d=2, p=3, n_grid=(200, 800), seed=6, n_seeds=3
    )
    assert err.shape == (2,)
    assert np.all(err > 0)


# ---------------------------------------------------------------------------
# Monte-Carlo oracles
# ---------------------------------------------------------------------------


def test_mc_population_tau_independent_is_zero():
    est, se = simulate.mc_population_tau_a(0.0, np.array([0.0]), None, n_draws=200_000, seed=14)
    assert abs(est) < 3 * se


def test_mc_population_tau_continuous_matches_arcsine():
    est, se = simulate.mc_population_tau_a(0.6, None, None, n_draws=400_000, seed=15)
    assert abs(est - 2 / np.pi * np.arcsin(0.6)) < 3 * se


def test_mc_tau_b_replicates_sane():
    mean, se = simulate.mc_tau_b_replicates(0.0, np.array([0.0]), None, n=40, reps=400, seed=16)
    assert abs(mean) < 3 * se
    assert se < 0.01


def test_mc_tau_b_replicates_needs_two_replicates_that_are_not_degenerate():
    with pytest.raises(ValueError, match=r"^5 of 5 replicates are degenerate"):
        simulate.mc_tau_b_replicates(0.3, np.array([np.inf]), None, n=10, reps=5)
    with pytest.raises(ValueError, match=r"^0 of 1 replicates are degenerate .*need at least 2"):
        simulate.mc_tau_b_replicates(0.3, np.array([0.0]), None, n=40, reps=1)
