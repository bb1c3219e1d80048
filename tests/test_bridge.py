"""Bridge functions linking latent correlations to population rank
correlations: closed-form reductions, Monte-Carlo validation, inversion."""

import math

import numpy as np
import pytest
from scipy.special import gammaln

from latentcorr import bridge, simulate
from latentcorr import normal_dist as nd
from latentcorr.bridge import BridgeKind

# ---------------------------------------------------------------------------
# Oracles: independent closed-form routes built from the bivariate CDF only
# ---------------------------------------------------------------------------


def binary_continuous_tau(r, delta):
    """Population tau of a (binary, continuous) pair, single-cutoff form."""
    return 4.0 * nd.bivariate_cdf(delta, 0.0, r / np.sqrt(2.0)) - 2.0 * nd.std_cdf(delta)


def binary_binary_tau(r, dj, dk):
    """Population tau of a (binary, binary) pair."""
    return 2.0 * (nd.bivariate_cdf(dj, dk, r) - nd.std_cdf(dj) * nd.std_cdf(dk))


def closed_form_up_to_three_levels(r, cj, ck):
    """Population tau of an ordinal-ordinal pair with at most 3 levels per
    side, and its derivative: the closed form the grid sum replaced, a
    binary side taking +inf as its second cutoff."""
    (dj1, dj2), (dk1, dk2) = (np.append(c, [np.inf] * (2 - c.size)) for c in (cj, ck))
    p_hi = nd.bivariate_cdf(dj2, dk2, r)
    p_lo = nd.bivariate_cdf(-dj1, -dk1, r)
    m_j = nd.std_cdf(dj2) - nd.bivariate_cdf(dj2, dk1, r)
    m_k = nd.std_cdf(dk2) - nd.bivariate_cdf(dj1, dk2, r)
    value = 2.0 * p_hi * p_lo - 2.0 * m_j * m_k
    d_hi = nd.bivariate_pdf(dj2, dk2, r)
    d_lo = nd.bivariate_pdf(-dj1, -dk1, r)
    d_mj = nd.bivariate_pdf(dj2, dk1, r)
    d_mk = nd.bivariate_pdf(dj1, dk2, r)
    deriv = 2.0 * (d_hi * p_lo + p_hi * d_lo) + 2.0 * (d_mj * m_k + m_j * d_mk)
    return value, deriv


def mc_tau(r, cuts_j, cuts_k, n_draws=200_000, seed=0):
    return simulate.mc_population_tau_a(r, cuts_j, cuts_k, n_draws=n_draws, seed=seed)


# ---------------------------------------------------------------------------
# Continuous-continuous
# ---------------------------------------------------------------------------


def test_continuous_pair_closed_form():
    kind = BridgeKind(None, None)
    for r in (-0.95, -0.3, 0.0, 0.4, 0.9):
        ev = bridge.bridge_forward(r, kind)
        assert ev.value == pytest.approx(2.0 / math.pi * math.asin(r), abs=1e-15)
    res = bridge.invert_bridge(0.5, kind)
    assert res.r == pytest.approx(math.sin(math.pi * 0.25), abs=1e-12)
    assert not res.clamped


@pytest.mark.parametrize(
    "levels, bad", [((1, None), "1"), ((None, 0), "0"), ((3, -2), "-2"), ((2.0, None), "2.0"), ((None, True), "True")]
)
def test_bridge_kind_rejects_bad_level_counts(levels, bad):
    with pytest.raises(ValueError, match=f"integer >= 2, got {bad}$"):
        BridgeKind(*levels)
    assert BridgeKind(np.int64(3), 2).tag == "ordinal3_ordinal2"


# ---------------------------------------------------------------------------
# Reduction identities
# ---------------------------------------------------------------------------


def test_two_level_sum_reduces_to_single_cutoff_form():
    kind = BridgeKind(2, None)
    for delta in (-1.2, 0.0, 0.8):
        cuts = np.array([delta])
        for r in np.linspace(-0.95, 0.95, 21):
            got = bridge.bridge_forward(r, kind, cuts).value
            assert got == pytest.approx(binary_continuous_tau(r, delta), abs=1e-9)


def test_ordinal_ordinal_with_infinite_cutoffs_reduces_to_binary_form():
    kind = BridgeKind(2, 2)
    for dj, dk in [(-0.7, 0.3), (0.0, 0.0), (1.1, -1.4)]:
        for r in np.linspace(-0.9, 0.9, 13):
            got = bridge.bridge_forward(r, kind, np.array([dj]), np.array([dk])).value
            assert got == pytest.approx(binary_binary_tau(r, dj, dk), abs=1e-9)


def test_grid_sum_matches_closed_form_up_to_three_levels():
    rng = np.random.default_rng(21)
    for _ in range(200):
        pj, pk = (int(p) for p in rng.integers(2, 4, 2))
        cj, ck = np.sort(rng.uniform(-2, 2, pj - 1)), np.sort(rng.uniform(-2, 2, pk - 1))
        r = rng.uniform(-1.0 + bridge.CLAMP, 1.0 - bridge.CLAMP)
        ev = bridge.bridge_forward(r, BridgeKind(pj, pk), cj, ck)
        value, deriv = closed_form_up_to_three_levels(r, cj, ck)
        assert abs(ev.value - value) <= 1e-14
        assert abs(ev.derivative - deriv) <= 1e-14


def test_forward_is_odd_in_r_at_symmetric_cutoffs():
    kind = BridgeKind(3, None)
    cuts = np.array([-0.6, 0.6])
    for r in (0.2, 0.5, 0.8):
        f_pos = bridge.bridge_forward(r, kind, cuts).value
        f_neg = bridge.bridge_forward(-r, kind, cuts).value
        assert f_pos == pytest.approx(-f_neg, abs=1e-10)
    assert bridge.bridge_forward(0.0, kind, cuts).value == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte-Carlo validation of the forward maps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "cuts_j,cuts_k",
    [
        (np.array([0.3]), None),
        (np.array([-0.8, 0.5]), None),
        (np.array([-0.4, 0.1, 0.9]), None),  # four levels
        (np.array([0.0]), np.array([0.4])),
        (np.array([-0.5, 0.5]), np.array([0.2])),
        (np.array([-0.5, 0.5]), np.array([-0.3, 0.8])),
    ],
)
def test_forward_matches_monte_carlo(cuts_j, cuts_k):
    pj = None if cuts_j is None else cuts_j.size + 1
    pk = None if cuts_k is None else cuts_k.size + 1
    kind = BridgeKind(pj, pk)
    r = 0.6
    want, se = mc_tau(r, cuts_j, cuts_k, seed=17)
    got = bridge.bridge_forward(r, kind, cuts_j, cuts_k).value
    assert abs(got - want) < 3.0 * se


@pytest.mark.parametrize("pj, pk", [(4, 2), (5, 7), (10, 3), (16, 16)])
@pytest.mark.parametrize("r", [-0.5, 0.2, 0.6])
def test_many_level_ordinal_pairs_match_monte_carlo(pj, pk, r):
    cj, ck = simulate.equal_mass_cutoffs(pj), simulate.equal_mass_cutoffs(pk)
    want, se = simulate.mc_population_tau_a(r, cj, ck, n_draws=10**6, seed=pj * 100 + pk)
    got = bridge.bridge_forward(r, BridgeKind(pj, pk), cj, ck).value
    assert abs(got - want) < 3.0 * se


def test_example_four_level_continuous_at_point_six():
    cuts = simulate.equal_mass_cutoffs(4)
    kind = BridgeKind(4, None)
    want, se = simulate.mc_population_tau_a(0.6, cuts, None, n_draws=10**6, seed=5)
    got = bridge.bridge_forward(0.6, kind, cuts).value
    assert abs(got - want) < 3.0 * se


# ---------------------------------------------------------------------------
# Derivatives and monotonicity
# ---------------------------------------------------------------------------


def test_forward_derivative_matches_finite_differences():
    rng = np.random.default_rng(7)
    eps = 1e-6
    cases = [
        (BridgeKind(3, None), np.sort(rng.uniform(-1.5, 1.5, 2)), None),
        (BridgeKind(5, None), np.sort(rng.uniform(-1.5, 1.5, 4)), None),
        (
            BridgeKind(3, 3),
            np.sort(rng.uniform(-1.5, 1.5, 2)),
            np.sort(rng.uniform(-1.5, 1.5, 2)),
        ),
        (BridgeKind(2, 2), np.array([0.4]), np.array([-0.2])),
        (BridgeKind(5, 7), simulate.equal_mass_cutoffs(5), simulate.equal_mass_cutoffs(7)),
    ]
    for kind, cj, ck in cases:
        for r in (-0.7, 0.1, 0.6):
            ev = bridge.bridge_forward(r, kind, cj, ck)
            fd = (
                bridge.bridge_forward(r + eps, kind, cj, ck).value
                - bridge.bridge_forward(r - eps, kind, cj, ck).value
            ) / (2 * eps)
            assert ev.derivative == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_forward_strictly_increasing():
    rng = np.random.default_rng(8)
    grid = np.linspace(-0.98, 0.98, 40)
    for _ in range(10):
        cuts = np.sort(rng.uniform(-1.5, 1.5, 2))
        kind = BridgeKind(3, None)
        vals = [bridge.bridge_forward(float(r), kind, cuts).value for r in grid]
        assert np.all(np.diff(vals) > 0)


def test_many_level_ordinal_pairs_strictly_increasing():
    rng = np.random.default_rng(18)
    grid = np.linspace(-0.98, 0.98, 40)
    for _ in range(10):
        pj, pk = (int(p) for p in rng.integers(4, 17, 2))
        cj, ck = np.sort(rng.uniform(-1.5, 1.5, pj - 1)), np.sort(rng.uniform(-1.5, 1.5, pk - 1))
        vals = [bridge.bridge_forward(float(r), BridgeKind(pj, pk), cj, ck).value for r in grid]
        assert np.all(np.diff(vals) > 0)


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def test_round_trip_across_kinds():
    cases = [
        (BridgeKind(2, None), np.array([0.3]), None),
        (BridgeKind(4, None), np.array([-0.9, 0.0, 0.9]), None),
        (BridgeKind(2, 3), np.array([0.0]), np.array([-0.5, 0.7])),
        (BridgeKind(3, 3), np.array([-1.0, 0.2]), np.array([-0.2, 1.0])),
    ]
    for kind, cj, ck in cases:
        for r in (-0.9, -0.5, 0.0, 0.5, 0.9):
            tau = bridge.bridge_forward(r, kind, cj, ck).value
            res = bridge.invert_bridge(tau, kind, cj, ck)
            assert res.r == pytest.approx(r, abs=1e-7)
            assert not res.clamped


def test_every_ordinal_pair_round_trips():
    # every level count 2..16 on each side, equal-mass cutoffs
    tasks, want = [], []
    for pj in range(2, 17):
        for pk in range(2, 17):
            kind = BridgeKind(pj, pk)
            cj, ck = simulate.equal_mass_cutoffs(pj), simulate.equal_mass_cutoffs(pk)
            for r in (-0.9, 0.0, 0.5, 0.9):
                ev = bridge.bridge_forward(r, kind, cj, ck)
                assert np.isfinite(ev.value) and ev.derivative > 0.0
                tasks.append(bridge.InversionTask(ev.value, kind, cj, ck))
                want.append(r)
    results = bridge.invert_bridges(tasks)
    assert not any(res.clamped for res in results)
    assert max(abs(res.r - r) for res, r in zip(results, want)) <= 1e-7


def test_out_of_range_tau_clamps():
    kind = BridgeKind(2, None)
    cuts = np.array([0.0])
    res = bridge.invert_bridge(0.99, kind, cuts)  # above the achievable max (0.5)
    assert res.clamped
    assert res.r == pytest.approx(1.0 - 1e-6)
    res = bridge.invert_bridge(-0.99, kind, cuts)
    assert res.clamped
    assert res.r == pytest.approx(-1.0 + 1e-6)
    assert float(res) == res.r


def test_tau_b_bridge_binary_continuous():
    kind = BridgeKind(2, None)
    cuts = np.array([0.0])
    # tie-probability denominator at a balanced cutoff is sqrt(1/2)
    ev_a = bridge.bridge_forward(0.5, kind, cuts)
    ev_b = bridge.bridge_forward_tau_b(0.5, kind, cuts)
    assert ev_b.value == pytest.approx(ev_a.value * np.sqrt(2.0), abs=1e-12)
    res = bridge.invert_bridge(ev_b.value, kind, cuts, variant="b")
    assert res.r == pytest.approx(0.5, abs=1e-8)


def test_tau_b_binary_binary_saturates_at_unity():
    kind = BridgeKind(2, 2)
    cuts = np.array([0.0])
    val = bridge.bridge_forward_tau_b(1.0 - 1e-9, kind, cuts, cuts).value
    assert val == pytest.approx(1.0, abs=1e-4)


def test_tau_b_second_order_close_to_first_order():
    kind = BridgeKind(2, None)
    cuts = np.array([0.0])
    first = bridge.bridge_forward_tau_b(0.5, kind, cuts).value
    second = bridge.tau_b_second_order(0.5, 0.0, 84)
    assert abs(second - first) < 1e-3
    assert bridge.tau_b_second_order(0.0, 0.0, 84) == pytest.approx(0.0, abs=1e-12)


def tau_b_second_order_by_trinomial_sum(r, delta, n):
    """The ratio expansion of tau_b_second_order with its cross moment
    E[(C - D) * sqrt(C + D)] summed over every (C, D), C + D <= C(n, 2), of
    the trinomial model (p_con, p_dis, p_rest) of the pair counts."""
    n_pairs = n * (n - 1) // 2
    phi = nd.std_cdf(delta)
    n0 = np.arange(n + 1)
    ties = n0 * (n0 - 1) // 2 + (n - n0) * (n - n0 - 1) // 2
    log_pmf = (
        gammaln(n + 1) - gammaln(n0 + 1) - gammaln(n - n0 + 1)
        + n0 * math.log(phi) + (n - n0) * math.log1p(-phi)
    )
    e_t = float(np.sum(np.sqrt(n_pairs - ties) * np.exp(log_pmf)))
    var_t = n_pairs * (2.0 * phi - 2.0 * phi * phi) - e_t * e_t

    rho = r / math.sqrt(2.0)
    phi3 = nd.trivariate_cdf(delta, delta, 0.0, r)
    p_con = 2.0 * (nd.bivariate_cdf(delta, 0.0, rho) - phi3)
    p_dis = 2.0 * (nd.bivariate_cdf(delta, 0.0, -rho) - phi3)
    p_rest = 1.0 - p_con - p_dis
    C, D = np.meshgrid(np.arange(n_pairs + 1.0), np.arange(n_pairs + 1.0), indexing="ij")
    valid = C + D <= n_pairs
    C, D = C[valid], D[valid]
    rest = n_pairs - C - D
    log_mult = (
        gammaln(n_pairs + 1) - gammaln(C + 1) - gammaln(D + 1) - gammaln(rest + 1)
        + C * math.log(p_con) + D * math.log(p_dis) + rest * math.log(p_rest)
    )
    e_y_x = float(np.sum((C - D) * np.sqrt(C + D) * np.exp(log_mult)))

    mu_y = math.sqrt(n_pairs) * (p_con - p_dis)
    cov_yx = e_y_x / math.sqrt(n_pairs) - mu_y * e_t
    return mu_y / e_t + (var_t * mu_y / e_t - cov_yx) / (e_t * e_t)


@pytest.mark.parametrize("n", [2, 5, 12, 20])
def test_tau_b_second_order_matches_the_full_trinomial_sum(n):
    for delta in (-1.0, 0.0, 0.7):
        for r in (-0.9, -0.3, 0.0, 0.4, 0.95):
            want = tau_b_second_order_by_trinomial_sum(r, delta, n)
            got = bridge.tau_b_second_order(r, delta, n)
            assert got == pytest.approx(want, abs=1e-13), (n, delta, r)


def test_tau_b_second_order_rejects_oversize_n():
    with pytest.raises(ValueError):
        bridge.tau_b_second_order(0.5, 0.0, 500)  # C(500, 2) > 10^4


# ---------------------------------------------------------------------------
# Cutoff estimation and error paths
# ---------------------------------------------------------------------------


def test_estimate_cutoffs_matches_quantiles():
    # 25% in level 0 -> single cutoff at the lower quartile of the normal
    col = np.array([0.0] * 25 + [1.0] * 75, dtype=float)
    cuts = bridge.estimate_cutoffs(col, 2)
    assert cuts[0] == pytest.approx(nd.std_quantile(0.25), abs=1e-12)
    col3 = np.array([0.0] * 20 + [1.0] * 30 + [2.0] * 50, dtype=float)
    cuts3 = bridge.estimate_cutoffs(col3, 3)
    assert cuts3 == pytest.approx([nd.std_quantile(0.2), nd.std_quantile(0.5)], abs=1e-12)


def test_estimate_cutoffs_matches_the_counting_loop():
    # one pass per cutoff, counting the codes <= l - 1: the reference for
    # the sorted search, including empty levels and fractional codes
    def counting_loop(codes, p):
        codes = codes[~np.isnan(codes)]
        return nd.std_quantile(np.array([np.sum(codes <= l - 1) / codes.size for l in range(1, p)]))

    rng = np.random.default_rng(11)
    for p in (2, 3, 5, 16):
        for n in (1, 7, 100):
            codes = rng.integers(0, p, n).astype(float)
            codes[rng.random(n) < 0.1] = np.nan
            codes[0] = rng.integers(0, p)
            assert np.array_equal(bridge.estimate_cutoffs(codes, p), counting_loop(codes, p))
            empty = np.where(codes == 1, 0.0, codes)  # level 1 empty
            assert np.array_equal(bridge.estimate_cutoffs(empty, p), counting_loop(empty, p))
            halves = rng.integers(0, 2 * p - 1, n) / 2.0
            assert np.array_equal(bridge.estimate_cutoffs(halves, p), counting_loop(halves, p))


def test_nan_cutoffs_are_rejected_when_the_task_is_built():
    with pytest.raises(ValueError, match=r"cutoffs_j must not be NaN, got \[nan\]"):
        bridge.InversionTask(0.1, BridgeKind(2, None), np.array([np.nan]))
    with pytest.raises(ValueError, match="cutoffs_k must not be NaN"):
        bridge.invert_bridge(0.1, BridgeKind(2, 3), np.array([0.0]), np.array([0.2, np.nan]))
    # infinite cutoffs stay legal
    task = bridge.InversionTask(0.1, BridgeKind(3, None), np.array([-np.inf, 0.5]))
    assert task.cutoffs_j[0] == -np.inf


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_coincident_infinite_cutoffs_are_checked_without_a_warning():
    # two empty lowest levels: the bridge is the binary one at cutoff 0
    four = bridge.invert_bridge(0.1, BridgeKind(4, None), [-np.inf, -np.inf, 0.0])
    assert four == bridge.invert_bridge(0.1, BridgeKind(2, None), [0.0])
    bridge.InversionTask(0.1, BridgeKind(None, 3), None, np.array([np.inf, np.inf]))
    with pytest.raises(ValueError, match="nondecreasing"):
        bridge.InversionTask(0.1, BridgeKind(3, None), np.array([np.inf, -np.inf]))


def test_tau_b_bridge_divides_by_the_untied_probabilities():
    kind = BridgeKind(3, 3)
    cj, ck = np.array([-0.5, 0.5]), np.array([-1.0, 0.2])
    # u = 1 - sum_a pi_a^2: the probability that two observations are untied
    u_j, u_k = (1.0 - np.sum(np.diff(nd.std_cdf(np.r_[-np.inf, c, np.inf])) ** 2) for c in (cj, ck))
    for r in (-0.8, -0.3, 0.0, 0.4, 0.9):
        ev_a = bridge.bridge_forward(r, kind, cj, ck)
        ev_b = bridge.bridge_forward_tau_b(r, kind, cj, ck)
        assert ev_b.value == pytest.approx(ev_a.value / math.sqrt(u_j * u_k), rel=1e-12, abs=1e-15)
        assert ev_b.derivative == pytest.approx(ev_a.derivative / math.sqrt(u_j * u_k), rel=1e-12)


@pytest.mark.parametrize("cj, ck", [
    (np.array([0.4]), None),
    (np.array([-1.2]), np.array([0.7])),
    (None, np.array([2.5])),
])
def test_binary_tau_b_bridge_divides_by_two_phi_one_minus_phi(cj, ck):
    kind = BridgeKind(*(None if c is None else 2 for c in (cj, ck)))
    untied = [2.0 * phi * (1.0 - phi) for phi in (nd.std_cdf(c[0]) for c in (cj, ck) if c is not None)]
    scale = math.sqrt(math.prod(untied))
    assert bridge.InversionTask(0.1, kind, cj, ck, "b").scale == scale
    for r in (-0.7, 0.0, 0.3, 0.9):
        ev_a = bridge.bridge_forward(r, kind, cj, ck)
        ev_b = bridge.bridge_forward_tau_b(r, kind, cj, ck)
        assert (ev_b.value, ev_b.derivative) == (ev_a.value / scale, ev_a.derivative / scale)


@pytest.mark.parametrize("cuts", [[np.inf, np.inf], [-np.inf, np.inf], [-np.inf, -np.inf]])
def test_tau_b_bridge_of_a_side_with_one_level_of_mass_is_degenerate(cuts):
    cuts = np.array(cuts)
    with pytest.raises(bridge.DegenerateBridgeError, match="all the mass"):
        bridge.bridge_forward_tau_b(0.3, BridgeKind(3, None), cuts)
    with pytest.raises(bridge.DegenerateBridgeError, match="all the mass"):
        bridge.InversionTask(0.1, BridgeKind(4, 3), np.array([-0.5, 0.0, 0.5]), cuts, "b")
    bridge.InversionTask(0.1, BridgeKind(3, None), cuts)  # the tau-a bridge is defined


@pytest.mark.parametrize("r, cj, ck, seed", [
    (0.5, np.array([-0.3, 0.8]), None, 1900),
    (-0.4, simulate.equal_mass_cutoffs(5), simulate.equal_mass_cutoffs(7) + 0.3, 1901),
    (0.7, simulate.equal_mass_cutoffs(16), None, 1902),
    (0.6, np.array([-0.6, 0.1]), np.array([-0.9, 0.0, 0.9]), 1903),
])
def test_tau_b_bridge_matches_simulation(r, cj, ck, seed):
    """The first-order tau-b bridge within 3 SE of the mean sample tau-b."""
    kind = BridgeKind(*(None if c is None else c.size + 1 for c in (cj, ck)))
    mean, se = simulate.mc_tau_b_replicates(r, cj, ck, n=1000, reps=400, seed=seed)
    assert abs(bridge.bridge_forward_tau_b(r, kind, cj, ck).value - mean) <= 3.0 * se


def test_tau_b_bridge_round_trip_and_monotonicity_for_random_kinds():
    rng = np.random.default_rng(19)
    r_grid = np.linspace(-0.99, 0.99, 40)
    for _ in range(25):
        levels = [(None, 2, 3, 5, 7, 16)[i] for i in rng.integers(6, size=2)]
        cj, ck = (None if p is None else np.sort(rng.uniform(-1.5, 1.5, p - 1)) for p in levels)
        kind = BridgeKind(*levels)
        values = [bridge.bridge_forward_tau_b(r, kind, cj, ck).value for r in r_grid]
        assert np.all(np.diff(values) > 0.0), kind
        for r in (-0.9, -0.5, 0.0, 0.5, 0.9):
            tau = bridge.bridge_forward_tau_b(r, kind, cj, ck).value
            assert bridge.invert_bridge(tau, kind, cj, ck, "b").r == pytest.approx(r, abs=1e-7), kind


def test_invert_rejects_invalid_tau():
    with pytest.raises(ValueError):
        bridge.invert_bridge(1.5, BridgeKind(None, None))
    with pytest.raises(ValueError):
        bridge.invert_bridge(np.nan, BridgeKind(None, None))


# ---------------------------------------------------------------------------
# Batched inversion
# ---------------------------------------------------------------------------


def mixed_batch():
    """Inversion tasks of every kind, both variants, in- and out-of-range tau."""
    rng = np.random.default_rng(12)
    task = bridge.InversionTask
    tasks = []
    for p in range(2, 17):
        # equal-mass cutoffs, and the p-level collapse of 16 equal-mass levels
        for cuts in (simulate.equal_mass_cutoffs(p), simulate.equal_mass_cutoffs(16)[: p - 1]):
            tasks += [task(tau, BridgeKind(p, None), cuts) for tau in rng.uniform(-0.6, 0.6, 2)]
        tasks.append(task(rng.uniform(-0.6, 0.6), BridgeKind(None, p), None, simulate.equal_mass_cutoffs(p)))
    tasks.append(task(0.2, BridgeKind(4, None), np.array([-0.5, -0.5, 0.7])))  # an empty level
    # ordinal-ordinal grids of many shapes, one of them (5 x 7) with two cutoff sets
    for pj, pk in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 7), (7, 5), (10, 3), (16, 16), (5, 7)):
        cj, ck = np.sort(rng.uniform(-1, 1, pj - 1)), np.sort(rng.uniform(-1, 1, pk - 1))
        tasks += [task(tau, BridgeKind(pj, pk), cj, ck) for tau in (-0.3, 0.05, 0.4)]
    empty_level = np.array([-0.5, -0.5, 0.7])
    tasks.append(task(0.2, BridgeKind(4, 5), empty_level, simulate.equal_mass_cutoffs(5)))
    for kind, cj, ck in (
        (BridgeKind(2, None), np.array([0.4]), None),
        (BridgeKind(None, 2), None, np.array([-0.6])),
        (BridgeKind(2, 2), np.array([0.4]), np.array([-0.3])),
    ):
        tasks += [task(tau, kind, cj, ck, "b") for tau in (-0.5, 0.1, 0.6)]
    for tau in (-1.0, -0.7, 0.7, 1.0):  # clamped at both ends
        tasks.append(task(tau, BridgeKind(3, None), np.array([-0.5, 0.5])))
        tasks.append(task(tau, BridgeKind(2, 3), np.array([0.0]), np.array([-0.5, 0.5])))
        tasks.append(task(tau, BridgeKind(6, 4), simulate.equal_mass_cutoffs(6), np.array([-0.5, 0.0, 0.5])))
        tasks.append(task(tau, BridgeKind(None, None)))
    return tasks + near_end_tasks()


END_OFFSETS = (0.0, 1e-16, 1e-12, 5e-9, bridge.NEWTON_TOL, 2e-8, 1e-6, 1e-3)


def near_end_tasks():
    """Tasks whose tau is F(+-(1 - CLAMP)) + delta for delta = +-END_OFFSETS,
    just in and just out of range, plus tau = 0 and +-1; a flat bridge's
    iterate with F(r) = tau shows neither end in range."""
    tasks = []
    for kind, cj, ck, variant in (
        (BridgeKind(3, None), np.array([-0.5, 0.5]), None, "a"),
        (BridgeKind(None, 16), None, simulate.equal_mass_cutoffs(16), "a"),
        (BridgeKind(2, 3), np.array([0.0]), np.array([-0.5, 0.5]), "a"),
        (BridgeKind(6, 4), simulate.equal_mass_cutoffs(6), np.array([-0.5, 0.0, 0.5]), "a"),
        (BridgeKind(2, None), np.array([0.4]), None, "b"),
        (BridgeKind(2, 2), np.array([0.4]), np.array([-0.3]), "b"),
        (BridgeKind(2, None), np.array([np.inf]), None, "a"),  # one level, so F = 0 at every r
    ):
        forward = bridge.bridge_forward if variant == "a" else bridge.bridge_forward_tau_b
        taus = [0.0, -1.0, 1.0]
        for end in (-1.0 + bridge.CLAMP, 1.0 - bridge.CLAMP):
            at_end = forward(end, kind, cj, ck).value
            taus += [at_end + sign * delta for delta in END_OFFSETS for sign in (1, -1)]
        tasks += [bridge.InversionTask(t, kind, cj, ck, variant) for t in taus if -1.0 <= t <= 1.0]
    return tasks


def scalar_newton(task):
    """Safeguarded Newton on one task, step by step: the reference for invert_bridges."""
    forward = bridge.bridge_forward if task.variant == "a" else bridge.bridge_forward_tau_b
    tau = task.tau

    def f(r):
        return forward(r, task.kind, task.cutoffs_j, task.cutoffs_k)

    lo, hi = -1.0 + bridge.CLAMP, 1.0 - bridge.CLAMP
    f_lo, f_hi = f(lo).value - tau, f(hi).value - tau
    if f_lo >= 0.0:
        return bridge.InversionResult(lo, f_lo > 0.0, 0)
    if f_hi <= 0.0:
        return bridge.InversionResult(hi, f_hi < 0.0, 0)
    r = min(max(math.sin(math.pi / 2.0 * tau), lo + 1e-12), hi - 1e-12)
    for iterations in range(1, bridge.NEWTON_MAX_ITER + 1):
        ev = f(r)
        g = ev.value - tau
        if abs(g) <= bridge.NEWTON_TOL:
            return bridge.InversionResult(r, False, iterations)
        if g > 0.0:
            hi = r
        else:
            lo = r
        step = r - g / ev.derivative if ev.derivative > 0.0 and math.isfinite(ev.derivative) else None
        r = step if step is not None and lo < step < hi else 0.5 * (lo + hi)
    raise AssertionError(f"no convergence for {task}")


@pytest.mark.parametrize("max_rows", [bridge.MAX_QUADRATURE_ROWS, 7])
def test_batched_inversion_matches_each_task_alone(max_rows, monkeypatch):
    """A cap of 7 rows makes calls of one pair for p > 8 and of a few pairs
    below: every result is the task's alone."""
    monkeypatch.setattr(bridge, "MAX_QUADRATURE_ROWS", max_rows)
    tasks = mixed_batch()
    together = bridge.invert_bridges(tasks)
    alone = [bridge.invert_bridge(t.tau, t.kind, t.cutoffs_j, t.cutoffs_k, t.variant) for t in tasks]
    assert together == alone  # r, clamped and iterations, exactly
    newton = [(t, res) for t, res in zip(tasks, together) if not t.kind.is_continuous_pair]
    assert [res for _, res in newton] == [scalar_newton(t) for t, _ in newton]
    ends = {-1.0 + bridge.CLAMP, 1.0 - bridge.CLAMP}
    assert {res.r for res in together if res.clamped} == ends
    # a tau exactly at F(end) ends there unflagged, as it did before iterating
    newton = [res for t, res in zip(tasks, together) if not (t.kind.is_continuous_pair or res.r in ends)]
    assert len(newton) > 60 and all(res.iterations > 0 and not res.clamped for res in newton)
    assert bridge.invert_bridges([]) == []


def _count_end_rows(monkeypatch):
    """Count the forward rows evaluated at r = +-(1 - CLAMP)."""
    rows = {"ends": 0, "all": 0}
    evaluate = bridge._Bridges.evaluate

    def counted(self, r, idx):
        rows["ends"] += int(np.sum(np.abs(r) == 1.0 - bridge.CLAMP))
        rows["all"] += r.size
        return evaluate(self, r, idx)

    monkeypatch.setattr(bridge._Bridges, "evaluate", counted)
    return rows


def test_bracket_ends_are_evaluated_only_where_a_task_needs_them(monkeypatch):
    tasks = mixed_batch()[: -len(near_end_tasks())]
    tasks = [t for t, res in zip(tasks, bridge.invert_bridges(tasks)) if res.iterations > 0]
    rows = _count_end_rows(monkeypatch)
    assert len(tasks) > 60 and all(res.iterations > 0 for res in bridge.invert_bridges(tasks))
    assert rows["ends"] <= 0.1 * 2 * len(tasks), rows
    # the scenario-1 experiment at the benchmark's size: 1,200 Newton tasks
    rows.update(ends=0, all=0)
    r_grid = np.round(np.arange(0.0, simulate.R_GRID_CAP + 1e-9, 0.1), 10)
    simulate.scenario1(r_grid=r_grid, n=100, reps=8, seed=0)
    assert rows["all"] > 1200 and rows["ends"] <= 0.1 * 2 * 1200, rows


def test_out_of_range_tasks_clamp_without_newton_steps(monkeypatch):
    tasks = near_end_tasks()
    eager = [scalar_newton(t) for t in tasks]
    outside = [t for t, res in zip(tasks, eager) if res.iterations == 0]
    assert len(outside) > 20
    monkeypatch.setattr(bridge, "NEWTON_MAX_ITER", 0)
    assert bridge.invert_bridges(outside) == [res for res in eager if res.iterations == 0]
    inside = bridge.InversionTask(0.3, BridgeKind(3, None), np.array([-0.5, 0.5]))
    with pytest.raises(bridge.BridgeInversionError, match="no convergence after 0") as caught:
        bridge.invert_bridges(outside + [inside])
    assert caught.value.index == len(outside)


def test_batched_inversion_names_the_unconverged_task(monkeypatch):
    monkeypatch.setattr(bridge, "NEWTON_MAX_ITER", 0)
    tasks = [
        bridge.InversionTask(0.5, BridgeKind(None, None)),
        bridge.InversionTask(0.3, BridgeKind(3, None), np.array([-0.5, 0.5])),
    ]
    with pytest.raises(bridge.BridgeInversionError, match="no convergence after 0") as caught:
        bridge.invert_bridges(tasks)
    assert caught.value.index == 1


def test_inversion_task_checks_its_inputs():
    with pytest.raises(ValueError, match="variant"):
        bridge.InversionTask(0.1, BridgeKind(2, None), np.array([0.0]), variant="c")
    with pytest.raises(ValueError, match="nondecreasing"):
        bridge.InversionTask(0.1, BridgeKind(3, None), np.array([0.5, -0.5]))
