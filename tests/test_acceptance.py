"""Acceptance suite: one test (and one summary line) per release criterion.

Each test exercises end-to-end behaviour with pinned configurations and
tolerances, and reports a single CRITERION nn [PASS|FAIL] line through the
shared recorder in conftest.py.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy import optimize

from conftest import record_acceptance
from latentcorr import estimator, glasso, kendall, simulate
from latentcorr.bridge import (
    BridgeKind,
    bridge_forward,
    bridge_forward_tau_b,
    invert_bridge,
    tau_b_second_order,
)
from latentcorr.normal_dist import bivariate_cdf, std_cdf
import oracles

# ---------------------------------------------------------------------------
# Criterion helpers
# ---------------------------------------------------------------------------

# Every supported pair kind with representative level counts, including the
# largest level count exercised by the error-curve experiments.
ROUND_TRIP_KINDS = [
    ("continuous/continuous", BridgeKind(None, None), 0, 0),
    ("binary/continuous", BridgeKind(2, None), 2, 0),
    ("ternary/continuous", BridgeKind(3, None), 3, 0),
    ("5-level/continuous", BridgeKind(5, None), 5, 0),
    ("16-level/continuous", BridgeKind(16, None), 16, 0),
    ("binary/binary", BridgeKind(2, 2), 2, 2),
    ("binary/ternary", BridgeKind(2, 3), 2, 3),
    ("ternary/ternary", BridgeKind(3, 3), 3, 3),
]


def cutoff_grid(p: int) -> list:
    """Three cutoff vectors per side, all entries within [-1.5, 1.5]."""
    if p == 0:
        return [None]
    return [
        np.linspace(-1.1, 1.1, p + 1)[1:-1] + shift
        for shift in (-0.4, 0.0, 0.4)
    ]


def random_kind_and_cutoffs(rng):
    name, kind, pj, pk = ROUND_TRIP_KINDS[rng.integers(len(ROUND_TRIP_KINDS))]
    def draw(p):
        if p == 0:
            return None
        return np.sort(rng.uniform(-1.5, 1.5, size=p - 1))
    return name, kind, draw(pj), draw(pk)


def brute_force_2x2(r12: float, lam: float) -> np.ndarray:
    """Penalized 2x2 precision fit by scalar minimization.

    The unpenalized diagonal stationarity condition pins diag(inv(O)) to
    diag(R) = (1, 1), so the full problem profiles down to one working
    covariance parameter w in (-1, 1).
    """
    r = np.array([[1.0, r12], [r12, 1.0]])

    def profiled(w):
        omega = np.linalg.inv(np.array([[1.0, w], [w, 1.0]]))
        return (
            np.trace(r @ omega)
            - np.linalg.slogdet(omega)[1]
            + 2 * lam * abs(omega[0, 1])
        )

    w = optimize.minimize_scalar(
        profiled, bounds=(-1 + 1e-9, 1 - 1e-9), method="bounded",
        options={"xatol": 1e-12},
    ).x
    return np.linalg.inv(np.array([[1.0, w], [w, 1.0]]))


def chain_correlation(d: int, off: float) -> np.ndarray:
    omega = np.eye(d)
    for j in range(d - 1):
        omega[j, j + 1] = omega[j + 1, j] = off
    sigma = np.linalg.inv(omega)
    scale = np.sqrt(np.diag(sigma))
    return sigma / np.outer(scale, scale)


def mean_mse(curve) -> float:
    return float(np.mean(curve.mse))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_01_bridge_round_trip():
    r_values = (-0.9, -0.5, 0.0, 0.5, 0.9)
    worst = 0.0
    for name, kind, pj, pk in ROUND_TRIP_KINDS:
        for cj, ck in itertools.product(cutoff_grid(pj), cutoff_grid(pk)):
            for r in r_values:
                tau = bridge_forward(r, kind, cj, ck).value
                r_back = invert_bridge(tau, kind, cj, ck).r
                worst = max(worst, abs(r_back - r))
    record_acceptance(
        1,
        "bridge round-trip |invert(forward(r)) - r| <= 1e-7 for all kinds",
        worst <= 1e-7,
        f"max abs error {worst:.3e}",
    )


def test_criterion_02_bridge_monotonicity():
    rng = np.random.default_rng(2026)
    r_grid = np.linspace(-0.99, 0.99, 40)
    violations = 0
    for _ in range(50):
        _, kind, cj, ck = random_kind_and_cutoffs(rng)
        values = np.array([bridge_forward(r, kind, cj, ck).value for r in r_grid])
        violations += int(np.any(np.diff(values) <= 0.0))
    record_acceptance(
        2,
        "forward bridge strictly increasing for 50 random cutoff configs",
        violations == 0,
        f"{violations} violating configs on a 40-point r grid",
    )


def test_criterion_03_reduction_identities():
    r_values = np.linspace(-0.95, 0.95, 21)
    worst = 0.0
    # general ordinal/continuous sum at p=2 vs the closed binary/continuous form
    for delta in (-1.0, 0.0, 0.8):
        cj = np.array([delta])
        for r in r_values:
            general = bridge_forward(r, BridgeKind(2, None), cj).value
            closed = 4.0 * bivariate_cdf(delta, 0.0, r / np.sqrt(2.0)) - 2.0 * std_cdf(delta)
            worst = max(worst, abs(general - closed))
    # general ordinal/ordinal sum at (2, 2) vs the closed binary/binary form
    for dj, dk in itertools.product((-0.7, 0.0, 0.6), repeat=2):
        cj, ck = np.array([dj]), np.array([dk])
        for r in r_values:
            general = bridge_forward(r, BridgeKind(2, 2), cj, ck).value
            closed = 2.0 * (bivariate_cdf(dj, dk, r) - std_cdf(dj) * std_cdf(dk))
            worst = max(worst, abs(general - closed))
    record_acceptance(
        3,
        "binary reductions of the general bridge agree to 1e-9",
        worst <= 1e-9,
        f"max abs deviation {worst:.3e}",
    )


def test_criterion_04_monte_carlo_bridge_validity():
    worst_z = 0.0
    detail = ""
    seed = 400
    for name, kind, pj, pk in ROUND_TRIP_KINDS:
        if pj == 16:
            continue  # the 1e6-draw sweep covers p in {0, 2, 3, 5}
        cj = simulate.equal_mass_cutoffs(pj) if pj else None
        ck = simulate.equal_mass_cutoffs(pk) if pk else None
        for r in (0.2, 0.6):
            seed += 1
            est, se = oracles.mc_population_tau_a(r, cj, ck, n_draws=10**6, seed=seed)
            z = abs(est - bridge_forward(r, kind, cj, ck).value) / se
            if z > worst_z:
                worst_z = z
                detail = f"worst |z| {z:.2f} at {name}, r={r}"
    record_acceptance(
        4,
        "population tau from 1e6 draws matches the bridge within 3 SE",
        worst_z <= 3.0,
        detail,
    )


def test_criterion_05_scenario1_error_trend():
    curves = simulate.scenario1(p_values=(2, 4, 8, 16), reps=80, seed=0)
    by_p = {c.p: mean_mse(c) for c in curves}
    baseline = by_p.pop(0)
    ordered = [by_p[p] for p in (2, 4, 8, 16)]
    decreasing = all(a > b for a, b in zip(ordered, ordered[1:]))
    ratio = by_p[16] / baseline
    record_acceptance(
        5,
        "mean binned MSE strictly decreasing in p and p=16 within 1.5x baseline",
        decreasing and ratio <= 1.5,
        "mse(p=2,4,8,16)=" + ",".join(f"{v:.4f}" for v in ordered)
        + f"; p16/baseline={ratio:.3f}",
    )


def test_criterion_06_scenario2_collapse_penalty():
    curves = simulate.scenario2(p_values=(2, 16), reps=80, seed=0)
    by_p = {c.p: mean_mse(c) for c in curves if c.p}
    factor = by_p[2] / by_p[16]
    record_acceptance(
        6,
        "collapsing 16 levels to 2 inflates mean MSE by >= 1.2x",
        factor >= 1.2,
        f"collapsed-p2 / p16 = {factor:.2f}",
    )


def test_criterion_07_concentration_rate():
    n_grid, sup_err, slope = simulate.concentration_check(seed=7)
    shrinking = sup_err[-1] < sup_err[0]
    record_acceptance(
        7,
        "sup-error log-log slope vs n within [-0.65, -0.35] (d=10, p=3)",
        shrinking and -0.65 <= slope <= -0.35,
        f"slope {slope:.3f} over n={n_grid[0]}..{n_grid[-1]}",
    )


def test_criterion_08_tau_b_taylor_agreement():
    n = 84
    delta = 0.0
    cj = np.array([delta])
    kind = BridgeKind(2, None)
    r_grid = np.arange(-0.9, 0.91, 0.3)
    max_gap = 0.0
    worst_z = 0.0
    for i, r in enumerate(r_grid):
        first = bridge_forward_tau_b(r, kind, cj).value
        second = tau_b_second_order(r, delta, n)
        max_gap = max(max_gap, abs(second - first))
        mc_mean, mc_se = oracles.mc_tau_b_replicates(
            r, cj, None, n=n, reps=10**4, seed=8600 + i
        )
        worst_z = max(
            worst_z, abs(first - mc_mean) / mc_se, abs(second - mc_mean) / mc_se
        )
    record_acceptance(
        8,
        "tau-b Taylor orders within 0.01 of each other and 2 SE of simulation",
        max_gap < 0.01 and worst_z <= 2.0,
        f"max |2nd-1st| {max_gap:.2e}; worst |z| {worst_z:.2f}",
    )


def test_criterion_09_glasso_correctness():
    # (a) 2x2 solution vs scalar brute force
    worst = 0.0
    for r12 in (-0.8, -0.3, 0.2, 0.6, 0.9):
        for lam in (0.01, 0.1, 0.4, 1.0):
            r = np.array([[1.0, r12], [r12, 1.0]])
            fit = glasso.glasso_fit(r, lam)
            worst = max(
                worst, float(np.max(np.abs(fit.omega - brute_force_2x2(r12, lam))))
            )
    two_by_two_ok = worst <= 1e-6

    # (b) sparsity monotone along an increasing lambda path
    rng = np.random.default_rng(909)
    a = rng.standard_normal((8, 40))
    cov = a @ a.T / 40
    scale = np.sqrt(np.diag(cov))
    r = cov / np.outer(scale, scale)
    counts = [
        len(glasso.glasso_fit(r, lam).edges)
        for lam in np.linspace(0.02, 0.8, 12)
    ]
    monotone_ok = all(a >= b for a, b in zip(counts, counts[1:]))

    # (c) chain support recovery through the full estimation pipeline
    r_true = chain_correlation(5, 0.45)
    cuts = simulate.equal_mass_cutoffs(3)
    spec = simulate.CopulaSpec(r_true, tuple(cuts if j % 2 else None for j in range(5)))
    truth = {(j, j + 1) for j in range(4)}
    hits = 0
    for seed in range(1000, 1020):
        x = simulate.sample_copula(spec, 2000, seed)
        est = estimator.estimate_latent_correlation(x, spec.column_specs)
        r_hat = estimator.project_psd(est.values)
        best, _ = glasso.select_hbic(r_hat, 2000)
        hits += set(map(tuple, best.edges)) == truth
    record_acceptance(
        9,
        "glasso matches brute force, path sparsity monotone, chain recovered",
        two_by_two_ok and monotone_ok and hits >= 18,
        f"2x2 err {worst:.1e}; edge counts {counts}; chain {hits}/20 seeds",
    )


def test_criterion_10_kendall_oracle_equivalence():
    rng = np.random.default_rng(1010)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(3, 501))
        style = rng.integers(3)
        if style == 0:
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
        elif style == 1:
            x = rng.integers(0, rng.integers(2, 8), n).astype(float)
            y = rng.standard_normal(n)
        else:
            x = rng.integers(0, rng.integers(2, 8), n).astype(float)
            y = rng.integers(0, rng.integers(2, 8), n).astype(float)
        dx = np.sign(x[:, None] - x[None, :])[np.triu_indices(n, 1)]
        dy = np.sign(y[:, None] - y[None, :])[np.triu_indices(n, 1)]
        concordant = int(np.sum(dx * dy > 0))
        discordant = int(np.sum(dx * dy < 0))
        n_pairs = n * (n - 1) // 2
        tau_a_brute = (concordant - discordant) / n_pairs
        denom = np.sqrt(
            (n_pairs - int(np.sum(dx == 0))) * (n_pairs - int(np.sum(dy == 0)))
        )
        try:
            stats = kendall.tau_b(x, y)
        except kendall.DegenerateColumnError:
            continue
        tau_b_brute = (concordant - discordant) / denom
        if stats.tau_a != tau_a_brute or stats.tau_b != tau_b_brute:
            mismatches += 1
    record_acceptance(
        10,
        "fast Kendall tau equals O(n^2) enumeration on 200 mixed inputs",
        mismatches == 0,
        f"{mismatches} mismatching inputs",
    )
