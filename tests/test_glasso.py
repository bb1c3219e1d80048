"""Penalized precision estimation: solver optimality, path behavior, and
model selection."""

import json
import warnings

import numpy as np
import pytest
from scipy import optimize

from latentcorr import glasso
from latentcorr.cli import main
from latentcorr.glasso import GlassoConfig

# ---------------------------------------------------------------------------
# Oracle: 2x2 problem reduced to scalar minimization
# ---------------------------------------------------------------------------


def brute_force_2x2(r12, lam):
    """Minimize tr(R O) - log det O + 2 lam |o12| over symmetric PD O.

    Stationarity in the unpenalized diagonal forces diag(inv(O)) = diag(R)
    = (1, 1), so the minimizer is O = inv([[1, w], [w, 1]]) for some
    w in (-1, 1); minimize the profiled objective over w.
    """
    r = np.array([[1.0, r12], [r12, 1.0]])

    def profiled(w):
        cov = np.array([[1.0, w], [w, 1.0]])
        omega = np.linalg.inv(cov)
        return (
            np.trace(r @ omega)
            - np.linalg.slogdet(omega)[1]
            + 2 * lam * abs(omega[0, 1])
        )

    res = optimize.minimize_scalar(
        profiled, bounds=(-1 + 1e-9, 1 - 1e-9), method="bounded",
        options={"xatol": 1e-12},
    )
    w = res.x
    return np.linalg.inv(np.array([[1.0, w], [w, 1.0]]))


# ---------------------------------------------------------------------------
# Solver correctness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r12", [0.0, 0.3, -0.6, 0.9])
@pytest.mark.parametrize("lam", [0.01, 0.2, 0.7])
def test_two_by_two_matches_scalar_brute_force(r12, lam):
    r = np.array([[1.0, r12], [r12, 1.0]])
    fit = glasso.glasso_fit(r, lam)
    want = brute_force_2x2(r12, lam)
    assert np.abs(fit.omega - want).max() < 1e-6


def test_kkt_conditions_hold():
    rng = np.random.default_rng(1)
    r = np.corrcoef(rng.standard_normal((8, 200)))
    lam = 0.15
    fit = glasso.glasso_fit(r, lam)
    w = np.linalg.inv(fit.omega)
    g = w - r
    off = ~np.eye(8, dtype=bool)
    # subgradient optimality: |W - R| <= lam off the diagonal,
    # with W - R = lam * sign(omega) on active entries
    assert np.abs(g[off]).max() <= lam + 1e-4
    active = (np.abs(fit.omega) > 1e-8) & off
    assert np.abs(g[active] - lam * np.sign(fit.omega[active])).max() < 1e-4
    # diagonal is unpenalized: diag(inv(omega)) = diag(R)
    assert np.abs(np.diag(w) - np.diag(r)).max() < 1e-8


def assert_kkt(r, fit):
    """Subgradient optimality of a fit, with the tolerances used above.

    The diagonal check allows 1e-7 instead of 1e-8: sweeps stop once W
    moves by less than CONVERGENCE_TOL = 1e-6, which leaves diag(inv(omega))
    up to about 4e-8 from diag(R) at d = 30.
    """
    d = r.shape[0]
    w = np.linalg.inv(fit.omega)
    g = w - r
    off = ~np.eye(d, dtype=bool)
    assert np.abs(g[off]).max() <= fit.lam + 1e-4
    active = (np.abs(fit.omega) > 1e-8) & off
    if active.any():
        assert np.abs(g[active] - fit.lam * np.sign(fit.omega[active])).max() < 1e-4
    assert np.abs(np.diag(w) - np.diag(r)).max() < 1e-7


def test_kkt_holds_along_default_path():
    # d = 30 from 60 samples: along the path the active sets grow from
    # empty to about 300 edges, and coordinates enter and leave the column
    # solves' active sets
    rng = np.random.default_rng(30)
    r = np.corrcoef(rng.standard_normal((30, 60)))
    counts = []
    for lam in glasso.default_lambda_path(r):
        fit = glasso.glasso_fit(r, lam)
        assert fit.converged
        assert_kkt(r, fit)
        counts.append(fit.n_edges)
    assert counts[0] > 100 and counts[-1] == 0


def lasso_kkt_excess(w, s, lam, b):
    """Largest violation of the lasso optimality conditions at b."""
    g = w @ b - s
    on = b != 0
    return max(
        np.abs(g[on] + lam[on] * np.sign(b[on])).max(initial=0.0),
        (np.abs(g[~on]) - lam[~on]).max(initial=0.0),
    )


def test_column_solver_recovers_from_wrong_signs():
    # a warm start whose signs are all wrong makes every coordinate cross
    # zero, leave the active set and come back with the other sign
    rng = np.random.default_rng(12)
    a = rng.standard_normal((12, 40))
    w = a @ a.T / 40
    s = rng.standard_normal(12)
    lam = np.full(12, 0.3)
    cold, ok = glasso._lasso_column(w, s, lam, np.zeros(12))
    assert ok and lasso_kkt_excess(w, s, lam, cold) < 1e-12
    assert 0 < np.count_nonzero(cold) < 12
    warm, ok = glasso._lasso_column(w, s, lam, -np.sign(cold) - 0.5 * (cold == 0))
    assert ok and lasso_kkt_excess(w, s, lam, warm) < 1e-12
    assert np.abs(warm - cold).max() < 1e-12


def test_block_diagonal_input_fits_each_block_alone():
    rng = np.random.default_rng(13)
    blocks = [[0, 2, 4, 6], [1, 3, 5], [7]]
    r = np.eye(8)
    for idx in blocks[:2]:
        r[np.ix_(idx, idx)] = np.corrcoef(rng.standard_normal((len(idx), 50)))
    lam = 0.05
    fit = glasso.glasso_fit(r, lam)
    cross = np.ones((8, 8), dtype=bool)
    for idx in blocks:
        cross[np.ix_(idx, idx)] = False
        alone = glasso.glasso_fit(r[np.ix_(idx, idx)], lam)
        assert np.array_equal(fit.omega[np.ix_(idx, idx)], alone.omega)
    assert np.all(fit.omega[cross] == 0.0)
    assert fit.omega[7, 7] == 1.0
    assert fit.n_edges > 0
    assert_kkt(r, fit)


def brute_force_refit(r, support):
    """Minimize tr(R O) - log det O over O with the given zero pattern."""
    d = r.shape[0]
    rows = list(range(d)) + [j for j, _ in support]
    cols = list(range(d)) + [k for _, k in support]

    def unpack(theta):
        omega = np.zeros((d, d))
        omega[rows, cols] = theta
        omega[cols, rows] = theta
        return omega

    def nll(theta):
        omega = unpack(theta)
        sign, logdet = np.linalg.slogdet(omega)
        if sign <= 0:
            return np.inf, np.zeros_like(theta)
        g = r - np.linalg.inv(omega)
        grad = np.where(np.arange(len(theta)) < d, 1.0, 2.0) * g[rows, cols]
        return np.trace(r @ omega) - logdet, grad

    x0 = np.r_[1.0 / np.diag(r), np.zeros(len(support))]
    res = optimize.minimize(nll, x0, jac=True, method="BFGS", options={"gtol": 1e-11})
    return unpack(res.x)


def test_refit_support_matches_brute_force_on_a_cycle():
    rng = np.random.default_rng(11)
    r = np.corrcoef(rng.standard_normal((4, 50)))
    support = [(0, 1), (1, 2), (2, 3), (0, 3)]  # a 4-cycle: not chordal
    got = glasso.refit_support(r, support).omega
    assert np.abs(got - brute_force_refit(r, support)).max() < 1e-6
    assert got[0, 2] == 0.0 and got[1, 3] == 0.0


def test_max_sweeps_one_is_reported_unconverged(monkeypatch, tmp_path):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((200, 5))
    x[:, 1:] += x[:, :-1]
    monkeypatch.setattr(glasso, "MAX_SWEEPS", 1)
    assert not glasso.glasso_fit(np.corrcoef(x.T), 0.05).converged
    assert not glasso.refit_support(np.corrcoef(x.T), [(0, 1), (1, 2)]).converged

    path = tmp_path / "x.csv"
    np.savetxt(path, x, delimiter=",", header="a,b,c,d,e", comments="", fmt="%.6f")
    out = tmp_path / "out"
    assert main(["graph", "--data", str(path), "--out-dir", str(out)]) == 0
    lines = (out / "hbic_trace.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    unconverged = [float(row["lambda"]) for row in rows if row["converged"] == "0"]
    assert unconverged
    report = json.loads((out / "run_report.json").read_text())
    assert report["unconverged_lambdas"] == pytest.approx(unconverged)


def test_zero_penalty_recovers_inverse():
    rng = np.random.default_rng(2)
    r = np.corrcoef(rng.standard_normal((4, 500)))
    fit = glasso.glasso_fit(r, 0.0)
    assert np.abs(fit.omega - np.linalg.inv(r)).max() < 1e-6


def test_large_penalty_gives_diagonal():
    rng = np.random.default_rng(3)
    r = np.corrcoef(rng.standard_normal((5, 100)))
    fit = glasso.glasso_fit(r, 1.0)
    assert fit.edges == []
    assert np.abs(fit.omega - np.diag(1.0 / np.diag(r))).max() < 1e-10


def test_symmetry_and_objective():
    rng = np.random.default_rng(4)
    r = np.corrcoef(rng.standard_normal((6, 300)))
    fit = glasso.glasso_fit(r, 0.1)
    assert np.array_equal(fit.omega, fit.omega.T)
    assert np.isfinite(fit.objective)
    # perturbing the solution cannot improve the objective
    rng2 = np.random.default_rng(5)
    for _ in range(10):
        noise = rng2.standard_normal((6, 6)) * 1e-3
        noise = 0.5 * (noise + noise.T)
        assert glasso.glasso_objective(r, fit.omega + noise, 0.1) >= fit.objective - 1e-9
    # not positive definite: inf, also when the determinant is positive
    assert glasso.glasso_objective(np.eye(2), -np.eye(2), 0.0) == np.inf
    assert glasso.glasso_objective(np.eye(2), np.diag([1.0, 0.0]), 0.0) == np.inf


def test_rejects_bad_inputs():
    with pytest.raises(ValueError):
        glasso.glasso_fit(np.eye(3), -0.1)
    with pytest.raises(ValueError):
        glasso.glasso_fit(np.zeros((2, 3)), 0.1)
    empty = np.zeros((0, 0))
    for call in (
        lambda: glasso.glasso_fit(empty, 0.1),
        lambda: glasso.refit_support(empty, []),
        lambda: glasso.select_hbic(empty, 100),
        lambda: glasso.hbic_score(empty, empty, 100),
    ):
        with pytest.raises(ValueError, match="empty"):
            call()
    with pytest.raises(ValueError, match=r"shape \(2, 2\) does not match correlation shape \(3, 3\)"):
        glasso.hbic_score(np.eye(3), np.eye(2), 100)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="penalty"):
            glasso.glasso_fit(np.eye(3), lam)
    for cn in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match="hbic_cn"):
            glasso.select_hbic(np.eye(3), 100, GlassoConfig(hbic_cn=cn))
    for path in ((np.nan, 0.1), (np.inf,), (0.1, -0.2)):
        with pytest.raises(ValueError, match="penalty"):
            glasso.select_hbic(np.eye(3), 100, GlassoConfig(lambda_path=path))


def test_rejects_non_finite_correlation_entries():
    r = np.eye(3)
    r[0, 2] = r[2, 0] = np.nan  # a pair left out by estimate_latent_correlation(pairs=...)
    match = r"entry \(0, 2\) is not finite: nan"
    with pytest.raises(ValueError, match=match):
        glasso.glasso_fit(r, 0.1)
    with pytest.raises(ValueError, match=match):
        glasso.refit_support(r, [(0, 1)])
    for config in (GlassoConfig(), GlassoConfig(lambda_path=(0.1, 0.2))):
        with pytest.raises(ValueError, match=match):
            glasso.select_hbic(r, 100, config)
    r[0, 2] = r[2, 0] = 0.2
    r[1, 1] = np.inf
    with pytest.raises(ValueError, match=r"entry \(1, 1\) is not finite: inf"):
        glasso.glasso_fit(r, 0.1)


def test_one_by_one():
    fit = glasso.glasso_fit(np.array([[2.0]]), 0.3)
    assert fit.omega[0, 0] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Penalty path / HBIC
# ---------------------------------------------------------------------------


def test_default_lambda_path_endpoints():
    r = np.array([[1.0, 0.6, -0.2], [0.6, 1.0, 0.1], [-0.2, 0.1, 1.0]])
    path = glasso.default_lambda_path(r)
    assert len(path) == 10
    assert path[0] == pytest.approx(0.06)
    assert path[-1] == pytest.approx(0.6)
    assert np.allclose(np.diff(path), path[1] - path[0])  # equally spaced


def test_default_lambda_path_degenerate():
    assert glasso.default_lambda_path(np.eye(4)) == (1e-8,)


def test_sparsity_monotone_along_path():
    rng = np.random.default_rng(6)
    r = np.corrcoef(rng.standard_normal((7, 150)))
    best, fits = glasso.select_hbic(r, 150)
    edge_counts = [f.n_edges for f in fits]
    assert all(a >= b for a, b in zip(edge_counts, edge_counts[1:]))
    assert len(fits) == 10
    assert best in fits


def test_hbic_tie_breaks_to_smallest_lambda():
    # independent variables: every path point gives the empty graph, so all
    # scores tie and the smallest penalty must be reported
    r = np.eye(3)
    best, fits = glasso.select_hbic(r, 100, GlassoConfig(lambda_path=(0.2, 0.5, 0.9)))
    assert best.lam == pytest.approx(0.2)
    assert best.edges == []


def test_hbic_requires_enough_observations():
    with pytest.raises(ValueError):
        glasso.select_hbic(np.eye(3), 2)
    for n in (1, 2):
        with pytest.raises(ValueError, match="n >= 3"):
            glasso.hbic_score(np.eye(3), np.eye(3), n)


def test_repeated_penalties_are_fitted_once():
    rng = np.random.default_rng(9)
    r = np.corrcoef(rng.standard_normal((5, 100)))
    _, fits = glasso.select_hbic(r, 100, GlassoConfig(lambda_path=(0.2, 0.1, 0.2)))
    assert [f.lam for f in fits] == [0.1, 0.2]


def test_warnings_inside_a_refit_reach_the_caller(monkeypatch):
    fit_core = glasso._fit_core
    raised = []

    def warning_fit_core(r, lam):
        raised.append(f"fit {len(raised)}")
        warnings.warn(raised[-1], RuntimeWarning)
        return fit_core(r, lam)

    monkeypatch.setattr(glasso, "_fit_core", warning_fit_core)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((40, 6))
    x[:, 1:] += x[:, :-1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, fits = glasso.select_hbic(np.corrcoef(x.T), 40)
    assert len(raised) > len(fits)  # the refits ran too
    assert [str(w.message) for w in caught] == raised


def test_refit_support_constrained_mle():
    rng = np.random.default_rng(7)
    r = np.corrcoef(rng.standard_normal((4, 500)))
    # full support: unconstrained MLE is inv(R)
    full = [(j, k) for j in range(4) for k in range(j + 1, 4)]
    refit = glasso.refit_support(r, full)
    assert np.abs(refit.omega - np.linalg.inv(r)).max() < 1e-6
    assert refit.converged and refit.lam == 0.0
    assert refit.objective == glasso.glasso_objective(r, refit.omega, 0.0)
    # empty support: diagonal MLE
    empty = glasso.refit_support(r, []).omega
    assert np.abs(empty - np.diag(1.0 / np.diag(r))).max() < 1e-10
    # partial support: exact zeros off support, inverse matches R on support
    part = glasso.refit_support(r, [(0, 1)]).omega
    assert part[0, 2] == 0.0 and part[1, 3] == 0.0 and part[2, 3] == 0.0
    w = np.linalg.inv(part)
    assert w[0, 1] == pytest.approx(r[0, 1], abs=1e-6)
    assert np.abs(np.diag(w) - np.diag(r)).max() < 1e-6


def test_chain_support_recovery_single_seed():
    d = 5
    omega = np.eye(d)
    for j in range(d - 1):
        omega[j, j + 1] = omega[j + 1, j] = 0.45
    sigma = np.linalg.inv(omega)
    scale = np.sqrt(np.diag(sigma))
    r_true = sigma / np.outer(scale, scale)
    rng = np.random.default_rng(8)
    x = rng.multivariate_normal(np.zeros(d), r_true, size=2000)
    r_hat = np.corrcoef(x.T)
    best, _ = glasso.select_hbic(r_hat, 2000)
    assert set(best.edges) == {(j, j + 1) for j in range(d - 1)}
