"""Penalized precision estimation: solver optimality, path behavior, and
model selection."""

import dataclasses
import json
import re
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
    # zero, leave the active set and come back with the other sign;
    # coordinate 12 is the column's own, which is never admitted
    rng = np.random.default_rng(12)
    a = rng.standard_normal((13, 40))
    w = a @ a.T / 40
    s = rng.standard_normal(13)
    lam = np.append(np.full(12, 0.3), np.inf)
    cold = np.zeros(13)
    ok, _ = glasso._lasso_column(w, s, 0.3, 12, cold)
    assert ok and lasso_kkt_excess(w, s, lam, cold) < 1e-12
    assert 0 < np.count_nonzero(cold) < 12
    warm = (-np.sign(cold) - 0.5 * (cold == 0)) * (lam < np.inf)
    ok, _ = glasso._lasso_column(w, s, 0.3, 12, warm)
    assert ok and lasso_kkt_excess(w, s, lam, warm) < 1e-12
    assert np.abs(warm - cold).max() < 1e-12


def test_column_solver_returns_w_b_as_the_nonzeros_give_it():
    # the W column the solver hands back is W b over b's nonzeros, bit for
    # bit, cold and warm, or None; coordinate j is the column's own
    rng = np.random.default_rng(14)
    returned = 0
    for trial in range(80):
        a = rng.standard_normal((40, 80))
        w = a @ a.T / 80
        s = rng.standard_normal(40)
        lam, j = rng.uniform(0.05, 0.6), trial % 40
        lams = np.full(40, lam)
        lams[j] = np.inf
        b = np.zeros(40) if trial % 2 else rng.standard_normal(40) * (lams < np.inf)
        ok, wb = glasso._lasso_column(w, s, lam, j, b)
        assert ok and lasso_kkt_excess(w, s, lams, b) < 1e-10 and b[j] == 0
        if wb is not None:
            nz = b.nonzero()[0]
            assert np.array_equal(wb, w[:, nz] @ b[nz])
            returned += 1
    assert returned > 40


def test_solve_name_is_numpy_solve_bit_for_bit():
    rng = np.random.default_rng(18)
    for k in range(1, 41):
        a, b = rng.standard_normal((k, k)), rng.standard_normal(k)
        for order in ("C", "F"):
            aa = np.asarray(a, order=order)
            assert glasso._solve(aa, b).tobytes() == np.linalg.solve(aa, b).tobytes()
    with np.errstate(**glasso._SOLVE_ERRSTATE):
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            glasso._solve(np.ones((3, 3)), np.ones(3))


def test_a_singular_correlation_raises_singular_matrix():
    # variables 1 and 2 are the same variable, so column 0's system is singular
    r = np.corrcoef(np.random.default_rng(19).standard_normal((2, 30)))[np.ix_([0, 1, 1], [0, 1, 1])]
    before = np.geterr()
    for fit in (lambda: glasso.glasso_fit(r, 0.0), lambda: glasso.refit_support(r, [(0, 1), (0, 2), (1, 2)])):
        with pytest.raises(np.linalg.LinAlgError, match="^Singular matrix$"):
            fit()
        assert np.geterr() == before
    glasso.glasso_fit(np.eye(2), 0.0)
    assert np.geterr() == before


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


def test_select_hbic_rejects_an_explicit_empty_path():
    with pytest.raises(ValueError, match="lambda path is empty"):
        glasso.select_hbic(np.eye(3), 100, GlassoConfig(lambda_path=()))


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


def eye_with(j, k, value):
    r = np.eye(3)
    r[j, k] = r[k, j] = value
    return r


@pytest.mark.parametrize("r, match", [
    (np.full((3, 3), np.nan), r"entry \(0, 0\) is not finite: nan"),
    (np.zeros((0, 0)), r"is empty \(0 x 0\)"),
    (np.zeros((2, 3)), r"must be square"),
    (eye_with(0, 1, np.inf), r"entry \(0, 1\) is not finite: inf"),
    (eye_with(1, 2, -np.inf), r"entry \(1, 2\) is not finite: -inf"),
], ids=["nan", "empty", "not_square", "inf", "minus_inf"])
def test_default_lambda_path_checks_the_correlation_matrix(r, match):
    with pytest.raises(ValueError, match="correlation matrix " + match):
        glasso.default_lambda_path(r)


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


def path_input():
    """d = 12 from 40 samples, column 2 near the sum of columns 0 and 1, and
    a path of 10 penalties down to 0.01: along it components merge and
    entries of omega change sign."""
    rng = np.random.default_rng(4)
    x = rng.standard_normal((40, 12))
    x[:, 1:] += 0.6 * x[:, :-1]
    x[:, 2] = x[:, 0] + x[:, 1] + 0.3 * rng.standard_normal(40)
    r = np.corrcoef(x.T)
    return r, tuple(np.geomspace(0.01, glasso.default_lambda_path(r)[-1], 10))


def assert_same_fit(got, want):
    assert got.omega.tobytes() == want.omega.tobytes()
    assert (got.lam, got.objective, got.edges, got.sweeps, got.converged) == (
        want.lam, want.objective, want.edges, want.sweeps, want.converged)


def test_path_fits_equal_cold_fits_bit_for_bit(monkeypatch):
    r, path = path_input()
    cold = [glasso.glasso_fit(r, lam) for lam in path]
    multi = [len([c for c in glasso._components(np.abs(r) > lam) if c.size > 1]) for lam in path]
    assert any(a < b for a, b in zip(multi, multi[1:]))  # components merge as lam falls
    omegas = np.array([fit.omega for fit in cold])
    assert ((omegas > 1e-8).any(0) & (omegas < -1e-8).any(0)).any()  # an entry changes sign

    solves = []
    solve = glasso._solve
    monkeypatch.setattr(glasso, "_solve", lambda a, b: solves.append(1) or solve(a, b))
    _, fits = glasso.select_hbic(r, 40, GlassoConfig(lambda_path=path))
    warm_solves = len(solves)
    for fit, want in zip(fits, cold):
        assert fit.converged and want.converged
        assert_same_fit(fit, want)
    # the same fits and refits from cold starts take more column solves
    solves.clear()
    for lam in path:
        glasso.glasso_fit(r, lam)
    for support in {tuple(fit.edges) for fit in fits}:
        glasso.refit_support(r, support)
    assert warm_solves < len(solves)


def test_zeros_inside_a_component_are_positive_zeros():
    # precision.tsv prints a -0.0 entry as "-0"
    r, path = path_input()
    best, fits = glasso.select_hbic(r, 40, GlassoConfig(lambda_path=path))
    omegas = [f.omega for f in fits] + [best.omega, glasso.refit_support(r, [(0, 1), (1, 2), (2, 5)]).omega]
    inside = 0
    for omega in omegas:
        for comp in glasso._components(omega != 0):
            inside += np.count_nonzero(omega[np.ix_(comp, comp)] == 0)
        assert not np.signbit(omega[omega == 0]).any()
    assert inside > 0  # exact zeros between variables of one component


def test_a_fit_from_any_start_is_the_cold_fit():
    # starts from another penalty, from the dense unpenalized refit, and
    # each of these with every off-diagonal sign flipped
    r, path = path_input()
    cold = [glasso.glasso_fit(r, lam) for lam in path]
    dense = glasso.refit_support(r, [(j, k) for j in range(12) for k in range(j + 1, 12)])
    flip = 2.0 * np.eye(12) - 1.0
    for i, want in enumerate(cold):
        for start in (cold[-1 - i], cold[(i + 3) % len(cold)], dense):
            for s in (start, dataclasses.replace(start, omega=start.omega * flip)):
                assert_same_fit(glasso.glasso_fit(r, want.lam, start=s), want)
    with pytest.raises(ValueError, match=r"start shape \(3, 3\) does not match correlation shape \(12, 12\)"):
        glasso.glasso_fit(r, 0.1, start=glasso.glasso_fit(np.eye(3), 0.1))


def test_a_start_without_a_finite_positive_precision_is_refused():
    r, _ = path_input()
    good = glasso.glasso_fit(r, 0.1)
    nan, zero_diag, inf_off, negative_diag = (good.omega.copy() for _ in range(4))
    nan[:] = np.nan
    zero_diag[3, 3] = 0.0
    inf_off[2, 5] = np.inf
    negative_diag[7, 7] = -1.0
    for omega, match in ((nan, r"entry \(0, 0\) is not finite: nan"),
                         (zero_diag, r"entry \(3, 3\) is not positive: 0.0"),
                         (inf_off, r"entry \(2, 5\) is not finite: inf"),
                         (negative_diag, r"entry \(7, 7\) is not positive: -1.0")):
        with pytest.raises(ValueError, match="start precision " + match):
            glasso.glasso_fit(r, 0.1, start=dataclasses.replace(good, omega=omega))


def test_a_start_whose_coefficients_overflow_is_refused():
    # beta[1, 3] = -omega[3, 1] / omega[1, 1] overflows, with a subnormal
    # and with a tiny normal omega[1, 1]
    r, _ = path_input()
    good = glasso.glasso_fit(r, 0.1)
    subnormal, huge = np.eye(12), np.eye(12)
    subnormal[1, 1], subnormal[1, 3], subnormal[3, 1] = 1e-310, 0.5, 0.5
    huge[1, 1], huge[1, 3], huge[3, 1] = 1e-300, 1e308, 1e308
    for omega in (subnormal, huge):
        with pytest.raises(ValueError, match=re.escape(
                "start coefficient (1, 3), -omega[3, 1] / omega[1, 1], is not finite: -inf")):
            glasso.glasso_fit(r, 0.1, start=dataclasses.replace(good, omega=omega))
    # a subnormal diagonal entry with finite coefficients is a valid start
    subnormal[1, 3] = subnormal[3, 1] = 0.0
    assert_same_fit(glasso.glasso_fit(r, 0.1, start=dataclasses.replace(good, omega=subnormal)), good)


def test_warnings_inside_a_refit_reach_the_caller(monkeypatch):
    fit = glasso._fit
    raised = []

    def warning_fit(r, lam, *rest):
        raised.append(f"fit {len(raised)}")
        warnings.warn(raised[-1], RuntimeWarning)
        return fit(r, lam, *rest)

    monkeypatch.setattr(glasso, "_fit", warning_fit)
    rng = np.random.default_rng(10)
    x = rng.standard_normal((40, 6))
    x[:, 1:] += x[:, :-1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, fits = glasso.select_hbic(np.corrcoef(x.T), 40)
    assert len(raised) > len(fits)  # the refits ran too
    assert [str(w.message) for w in caught] == raised


# ---------------------------------------------------------------------------
# Reference: the column step with a penalty per coordinate and np.linalg.solve
# ---------------------------------------------------------------------------


def reference_lasso_column(w, s, lam, b):
    """Exact minimizer of 1/2 b'Wb - s'b + sum_m lam_m |b_m|, warm-started at
    b, with a penalty per coordinate: lam_m = 0 keeps m always active and
    lam_m = inf never admits it.  Every step solves with np.linalg.solve.
    Returns (b, converged, wb) as `glasso._lasso_column` returns (converged,
    wb) after updating b."""
    b = b.copy()
    active = (b != 0) | (lam == 0)
    theta = np.sign(b)
    for _ in range(glasso.MAX_SWEEPS):
        a = active.nonzero()[0]
        lam_a, theta_a = lam[a], theta[a]
        x = np.linalg.solve(w.take(a, 0).take(a, 1), s[a] - lam_a * theta_a)
        crossed = ((lam_a > 0) & (x * theta_a < 0)).nonzero()[0]
        if crossed.size:
            old = b[a[crossed]]
            t = old / (old - x[crossed])
            step = t.min()
            if step == 0:
                return b, True, None
            b[a] += step * (x - b[a])
            gone = a[crossed[t == step]]
            b[gone] = 0.0
            active[gone] = False
            continue
        b[a] = x
        wb = w[:, a] @ x
        grad = wb - s
        excess = np.abs(grad) - lam
        excess[active] = -np.inf
        m = int(np.argmax(excess))
        if excess[m] <= 0:
            return b, True, wb if x.all() else None
        active[m] = True
        theta[m] = -np.sign(grad[m])
    return b, False, None


def reference_fit_block(r, lam, beta, general=False):
    """`glasso._fit_block` through `reference_lasso_column` and, for refit
    columns (every penalty 0 or inf), one np.linalg.solve per sweep; with
    `general`, refit columns go through `reference_lasso_column` too."""
    d = r.shape[0]
    lam = lam.copy()
    np.fill_diagonal(lam, np.inf)
    fixed = None if general or ((lam > 0) & (lam < np.inf)).any() else [
        (lam[:, j] == 0).nonzero()[0] for j in range(d)]
    w = r.copy()
    converged = True
    for sweeps in range(1, glasso.MAX_SWEEPS + 1):
        w_old = w.copy()
        for j in range(d):
            if fixed is None:
                beta[j], ok, w12 = reference_lasso_column(w, r[:, j], lam[:, j], beta[j])
                converged &= ok
            else:
                a = fixed[j]
                x = beta[j, a] = np.linalg.solve(w.take(a, 0).take(a, 1), r[a, j])
                w12 = w[:, a] @ x if x.all() else None
            if w12 is None:
                nz = beta[j].nonzero()[0]
                w12 = w[:, nz] @ beta[j, nz]
            w12[j] = w[j, j]
            w[:, j] = w12
            w[j, :] = w12
        if np.abs(w - w_old).max() < glasso.CONVERGENCE_TOL:
            break
    else:
        converged = False
    omega = 0.0 - beta.T
    o_diag = 1.0 / (np.diag(w) - np.einsum("ij,ij->i", w, beta))
    omega *= o_diag
    np.fill_diagonal(omega, o_diag)
    return 0.5 * (omega + omega.T), sweeps, converged


def penalty_matrix(d, lam, support):
    """The per-entry penalty `reference_fit_block` takes for `glasso._fit_block`'s
    (lam, support): lam on every entry, or, for a support, 0 on it and on
    the diagonal and inf off it."""
    if support is None:
        return np.full((d, d), lam)
    penalty = np.where(support, 0.0, np.inf)
    np.fill_diagonal(penalty, 0.0)
    return penalty


def reference_inputs():
    """path_input's R and three AR-like sample correlations (d = 5, 14, 25),
    each also with its upper triangle moved by up to 1 ulp, so R is not
    exactly symmetric."""
    rng = np.random.default_rng(17)
    rs = [path_input()[0]]
    for d in (5, 14, 25):
        x = rng.standard_normal((2 * d, d))
        x[:, 1:] += 0.7 * x[:, :-1]
        rs.append(np.corrcoef(x.T))
    return rs + [r + np.triu(rng.integers(-1, 2, r.shape) * np.spacing(r), 1) for r in rs]


def test_fits_equal_the_reference_column_step_bit_for_bit(monkeypatch):
    cases = reference_inputs()
    assert any(not np.array_equal(r, r.T) for r in cases)
    got = [([glasso.glasso_fit(r, lam) for lam in (0.0, 0.05, 0.3)], glasso.select_hbic(r, 40)) for r in cases]
    for r, (_, (_, path)) in zip(cases, got):
        for fit in path:  # HBIC from the refit's own objective, as hbic_score gives it
            assert fit.hbic == glasso.hbic_score(r, glasso.refit_support(r, fit.edges).omega, 40)
    monkeypatch.setattr(glasso, "_fit_block", lambda r, lam, support, beta: reference_fit_block(
        r, penalty_matrix(len(r), lam, support), beta))
    for r, (fits, (best, path)) in zip(cases, got):
        for fit in fits:
            assert_same_fit(fit, glasso.glasso_fit(r, fit.lam))
        want_best, want_path = glasso.select_hbic(r, 40)
        assert len(path) == len(want_path) and len({f.n_edges for f in path}) > 2
        for fit, want in zip([best] + path, [want_best] + want_path):
            assert_same_fit(fit, want)
            assert fit.hbic == want.hbic


def exact_zero_input():
    """A 12-variable R and support where column 0's first solve gives exact
    zeros: its support neighbours are the odd variables, correlated with it,
    and the even ones, uncorrelated with it and with the odd ones (variable
    11 ties both groups into one component).  Its W column must then be
    summed over the nonzeros only: over all of them, it differs here."""
    odd, even = [1, 3, 5, 7, 9], [2, 4, 6, 8, 10]
    mask = np.zeros((12, 12), dtype=bool)
    for group in (odd, even):
        mask[np.ix_(group, group)] = True
    mask[0, odd] = mask[odd, 0] = True
    mask[11, 1:11] = mask[1:11, 11] = True
    np.fill_diagonal(mask, False)
    r = np.triu(np.where(mask, np.random.default_rng(2).uniform(0.02, 0.09, (12, 12)), 0.0), 1)
    support = [(j, k) for j in range(12) for k in range(j + 1, 12) if (j, k) != (0, 11)]
    return r + r.T + np.eye(12), support


def test_refit_support_equals_the_general_column_solver_bit_for_bit(monkeypatch):
    # refit_support against itself with every column of every component a
    # `reference_lasso_column` call (penalty 0 on the support, inf off it):
    # supports from the path fits, random supports of several components,
    # and the exact-zero case above
    r, path = path_input()
    supports = [glasso.glasso_fit(r, lam).edges for lam in path]
    rng = np.random.default_rng(16)
    for _ in range(6):
        pairs = np.argwhere(np.triu(rng.random((12, 12)) < 0.15, 1))
        supports.append([(int(j), int(k)) for j, k in pairs])
    cases = [(r, support) for support in supports] + [exact_zero_input()]
    got = [glasso.refit_support(rr, support) for rr, support in cases]
    monkeypatch.setattr(glasso, "_fit_block", lambda r, lam, support, beta: reference_fit_block(
        r, penalty_matrix(len(r), lam, support), beta, general=True))
    for (rr, support), fit in zip(cases, got):
        want = glasso.refit_support(rr, support)
        assert fit.omega.tobytes() == want.omega.tobytes()
        assert (fit.sweeps, fit.converged) == (want.sweeps, want.converged)


def test_a_refit_fits_each_component_of_its_support_alone():
    # r couples every pair of variables; the support is a chain within each
    # of three groups, so the refit is each group's own refit, bit for bit
    r, _ = path_input()
    groups = [[0, 3, 5, 7], [1, 2, 4], [6, 8, 9, 10, 11]]
    chain = [[(m, m + 1) for m in range(len(g) - 1)] for g in groups]
    refit = glasso.refit_support(r, [(g[m], g[k]) for g, links in zip(groups, chain) for m, k in links])
    alone = [glasso.refit_support(r[np.ix_(g, g)], links) for g, links in zip(groups, chain)]
    want = np.zeros_like(r)
    for g, fit in zip(groups, alone):
        want[np.ix_(g, g)] = fit.omega
    assert np.all(r != 0)
    assert refit.omega.tobytes() == want.tobytes()
    assert refit.sweeps == max(fit.sweeps for fit in alone) > 1


@pytest.mark.parametrize("edge", [(0, -1), (1, 1), (0, 9), (0, 1.7), (0, 1, 2), (np.int64(4), 0), (True, 0), (1, False)])
def test_refit_support_rejects_an_edge_that_is_not_two_variables(edge):
    r = np.corrcoef(np.random.default_rng(15).standard_normal((4, 50)))
    with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} is not two distinct integers in 0..3")):
        glasso.refit_support(r, [(0, 1), edge])
    want = glasso.refit_support(r, [(0, 1), (1, 3)]).omega
    assert np.array_equal(glasso.refit_support(r, [(np.int64(1), 0), (3, np.int32(1))]).omega, want)


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
