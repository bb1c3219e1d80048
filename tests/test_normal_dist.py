"""Normal distribution helpers, checked against independent quadrature,
scipy's multivariate integrator, and closed-form special values."""

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import multivariate_normal

from latentcorr import bridge
from latentcorr import normal_dist as nd
from latentcorr.bridge import CLAMP, MAX_QUADRATURE_ROWS, BridgeKind

# ---------------------------------------------------------------------------
# Oracles (independent computation routes, defined before any use)
# ---------------------------------------------------------------------------


def bivariate_cdf_by_quadrature(h, k, rho):
    """P(U <= h, V <= k) by integrating the conditional normal CDF."""

    def integrand(x):
        return nd.std_pdf(x) * nd.std_cdf((k - rho * x) / np.sqrt(1.0 - rho * rho))

    lo = max(-9.0, h - 40)
    val, err = integrate.quad(integrand, lo, h, epsabs=1e-13, limit=200)
    return val


def trivariate_cdf_by_scipy(a, b, c, r):
    rho = r / np.sqrt(2.0)
    cov = np.array([[1.0, 0.0, rho], [0.0, 1.0, -rho], [rho, -rho, 1.0]])
    # 2e6 points never reach abseps=1e-9, so such a request spends all of them
    return multivariate_normal.cdf(
        np.array([a, b, c]), mean=np.zeros(3), cov=cov,
        maxpts=2_000_000, abseps=1e-7, releps=0.0,
    )


def phi3_grad_by_rows(a, b, c, r):
    """The per-row form of d/dr of the structured trivariate CDF: every row
    recomputes its r-only factors and both of its densities.  The oracle
    of nd._phi3_grid, which must equal it bit for bit."""
    a, b, c, r = (np.asarray(v, dtype=float) for v in (a, b, c, r))
    a, b, c = (np.clip(v, -nd._FAR, nd._FAR) for v in (a, b, c))
    rho = r / nd._SQRT2
    q2 = 1.0 - rho * rho
    inv_q2 = 1.0 / q2
    inv_sd = np.sqrt(q2 / ((1.0 - r) * (1.0 + r)))
    rc = rho * c
    dens_13 = np.exp(-0.5 * (a * a - 2.0 * a * rc + c * c) * inv_q2)
    dens_23 = np.exp(-0.5 * (b * b + 2.0 * b * rc + c * c) * inv_q2)
    cond_2 = ndtr((b - (rho * rho * a - rc) * inv_q2) * inv_sd)
    cond_1 = ndtr((a - (rho * rho * b + rc) * inv_q2) * inv_sd)
    norm = np.sqrt(inv_q2) / (2.0 * np.pi * nd._SQRT2)
    return norm * (dens_13 * cond_2 - dens_23 * cond_1)


def phi3_by_rows(a, b, c, r):
    """The per-row form of the structured trivariate CDF, one row per element."""
    a, b, c, r = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, c, r))
    )
    a, b, c, r = (v[:, None] for v in (a, b, c, r))
    log_gap = np.log1p(-np.abs(r))
    gap = np.exp(log_gap * nd._PHI3_U)
    weights = -np.sign(r) * log_gap * gap * nd._PHI3_W
    integral = np.sum(weights * phi3_grad_by_rows(a, b, c, np.sign(r) * (1.0 - gap)), axis=1)
    return np.clip(ndtr(a[:, 0]) * ndtr(b[:, 0]) * ndtr(c[:, 0]) + integral, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Univariate
# ---------------------------------------------------------------------------


def test_std_cdf_known_values():
    assert nd.std_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert nd.std_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert nd.std_cdf(-np.inf) == 0.0
    assert nd.std_cdf(np.inf) == 1.0


def test_std_quantile_round_trip():
    for p in (1e-12, 0.01, 0.25, 0.5, 0.9, 1 - 1e-12):
        assert nd.std_cdf(nd.std_quantile(p)) == pytest.approx(p, rel=1e-10)
    assert nd.std_quantile(0.0) == -np.inf
    assert nd.std_quantile(1.0) == np.inf


def test_std_quantile_rejects_out_of_range():
    for p in (-0.1, 1.1, np.nan):
        with pytest.raises(ValueError):
            nd.std_quantile(p)


def test_std_pdf_vanishes_at_infinity():
    assert nd.std_pdf(np.inf) == 0.0
    assert nd.std_pdf(-np.inf) == 0.0
    assert nd.std_pdf(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-15)


# ---------------------------------------------------------------------------
# Bivariate CDF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("rho", [-0.9999, -0.99, -0.7, -0.3, 0.0, 0.3, 0.7, 0.99, 0.9999])
def test_bivariate_cdf_matches_quadrature(rho):
    grid = [-2.5, -1.0, -0.3, 0.0, 0.4, 1.2, 3.0]
    for h in grid:
        for k in grid:
            want = bivariate_cdf_by_quadrature(h, k, rho)
            got = nd.bivariate_cdf(h, k, rho)
            assert got == pytest.approx(want, abs=1e-10), (h, k, rho)


def test_bivariate_cdf_zero_arguments_closed_form():
    # P(U <= 0, V <= 0) = 1/4 + arcsin(rho) / (2 pi)
    for rho in (-0.95, -0.5, 0.0, 0.5, 0.95):
        want = 0.25 + np.arcsin(rho) / (2 * np.pi)
        assert nd.bivariate_cdf(0.0, 0.0, rho) == pytest.approx(want, abs=1e-14)


def test_bivariate_cdf_symmetry_and_bounds():
    rng = np.random.default_rng(0)
    for _ in range(200):
        h, k = rng.uniform(-3, 3, 2)
        rho = rng.uniform(-0.99, 0.99)
        v = nd.bivariate_cdf(h, k, rho)
        assert v == pytest.approx(nd.bivariate_cdf(k, h, rho), abs=1e-14)
        assert 0.0 <= v <= min(nd.std_cdf(h), nd.std_cdf(k)) + 1e-14


def test_bivariate_cdf_marginalizes_at_infinity():
    for rho in (-0.8, 0.0, 0.8):
        assert nd.bivariate_cdf(np.inf, 0.7, rho) == pytest.approx(nd.std_cdf(0.7), abs=1e-14)
        assert nd.bivariate_cdf(0.7, np.inf, rho) == pytest.approx(nd.std_cdf(0.7), abs=1e-14)
        assert nd.bivariate_cdf(-np.inf, 0.7, rho) == 0.0


def test_bivariate_cdf_perfect_correlation():
    assert nd.bivariate_cdf(0.3, 1.0, 1.0) == pytest.approx(nd.std_cdf(0.3), abs=1e-14)
    # P(U <= h, -U <= k) = max(0, Phi(h) - Phi(-k))
    assert nd.bivariate_cdf(0.3, 1.0, -1.0) == pytest.approx(
        nd.std_cdf(0.3) - nd.std_cdf(-1.0), abs=1e-14
    )
    assert nd.bivariate_cdf(-1.0, 0.3, -1.0) == 0.0


def test_bivariate_cdf_monotone_in_rho():
    vals = [nd.bivariate_cdf(0.5, -0.2, rho) for rho in np.linspace(-0.99, 0.99, 25)]
    assert np.all(np.diff(vals) > 0)


# ---------------------------------------------------------------------------
# Structured trivariate CDF
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [-0.95, -0.6, -0.2, 0.2, 0.6, 0.95])
def test_trivariate_cdf_matches_scipy(r):
    rng = np.random.default_rng(1)
    for _ in range(25):
        a, b, c = rng.uniform(-2.5, 2.5, 3)
        want = trivariate_cdf_by_scipy(a, b, c, r)
        got = nd.trivariate_cdf(a, b, c, r)
        # scipy's lattice-rule integrator is the looser side (realized error
        # up to ~6e-7 vs a high-precision quadrature arbiter; this
        # implementation sits at ~1e-15 against the same arbiter)
        assert got == pytest.approx(want, abs=2e-6), (a, b, c, r)


def trivariate_cdf_by_nested_quadrature(a, b, c, r):
    """High-precision oracle: integrate the trivariate density directly.

    Integrates the conditional bivariate CDF (computed by 1-D quadrature,
    not by the implementation under test) against the first marginal.
    """
    rho = r / np.sqrt(2.0)
    q = np.sqrt(1.0 - rho * rho)

    def inner(x):
        return bivariate_cdf_by_quadrature(b, (c - rho * x) / q, -rho / q)

    val, err = integrate.quad(
        lambda x: nd.std_pdf(x) * inner(x), -9.0, a, epsabs=1e-11, limit=200
    )
    return val


@pytest.mark.parametrize(
    "a,b,c,r",
    [
        (0.5, -0.4, 0.2, 0.6),
        (-1.2, 0.8, 0.0, -0.75),
        (1.5, 1.1, -0.9, 0.3),
        (0.5, -0.4, 0.2, 0.95),
        (-1.2, 0.8, 0.7, -0.95),
        (1.5, 1.1, -0.9, 0.999),
        (0.3, -0.2, 0.4, -0.999),
    ],
)
def test_trivariate_cdf_matches_nested_quadrature(a, b, c, r):
    want = trivariate_cdf_by_nested_quadrature(a, b, c, r)
    got = nd.trivariate_cdf(a, b, c, r)
    assert got == pytest.approx(want, abs=1e-10)


def test_trivariate_cdf_at_zero_c_matches_a_dense_rule(monkeypatch):
    # the same Plackett integral with 512 Gauss-Legendre nodes is the
    # reference (numpy's leggauss itself loses accuracy well above that);
    # rows span the whole grid of bounds plus nearly coincident cutoffs,
    # and r reaches the bridges' clamp
    grid = np.linspace(-8.5, 8.5, 69)
    a, b = (v.ravel() for v in np.meshgrid(grid, grid))
    base = np.repeat(np.linspace(-4.0, 4.0, 33), 6)
    close = base + np.tile([1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1], 33)
    a, b = np.concatenate([a, base, close]), np.concatenate([b, close, base])
    edge = 1.0 - CLAMP
    rs = [1e-8, 0.01, 0.3, 0.6, 0.9, 0.99, 0.999, 0.99999, edge]

    def phi3(a, b, r):  # one task of one row per (a, b)
        return nd._phi3_grid(np.column_stack([a, b]), 0.0, np.full(a.size, r))[0][:, 0]

    got = {r: phi3(a, b, r) for r in rs + [-r for r in rs]}
    u, w = np.polynomial.legendre.leggauss(512)
    monkeypatch.setattr(nd, "_PHI3_U", 0.5 * (1.0 + u))
    monkeypatch.setattr(nd, "_PHI3_W", 0.5 * w)
    for r, value in got.items():
        want = np.concatenate([phi3(a[i : i + 256], b[i : i + 256], r)
                               for i in range(0, a.size, 256)])
        assert np.abs(value - want).max() <= 1e-12, r


def test_trivariate_cdf_infinite_bound_reductions():
    for r in (0.55, -0.999, 1.0 - CLAMP):
        rho = r / np.sqrt(2.0)
        assert nd.trivariate_cdf(np.inf, 0.4, -0.3, r) == pytest.approx(
            nd.bivariate_cdf(0.4, -0.3, -rho), abs=1e-12
        )
        assert nd.trivariate_cdf(0.4, np.inf, -0.3, r) == pytest.approx(
            nd.bivariate_cdf(0.4, -0.3, rho), abs=1e-12
        )
        assert nd.trivariate_cdf(0.4, -0.3, np.inf, r) == pytest.approx(
            nd.std_cdf(0.4) * nd.std_cdf(-0.3), abs=1e-12
        )
        assert nd.trivariate_cdf(-np.inf, 0.4, 0.3, r) == 0.0


def test_trivariate_exchange_identity():
    # Phi3(a, b, 0) + Phi3(b, a, 0) = Phi(a) Phi(b): swapping the first two
    # coordinates flips the sign of the third's correlations, and the two
    # events partition {U1 <= a, U2 <= b} by the sign of the third variate.
    rng = np.random.default_rng(2)
    for _ in range(40):
        a, b = rng.uniform(-2.5, 2.5, 2)
        r = rng.uniform(-0.95, 0.95)
        total = nd.trivariate_cdf(a, b, 0.0, r) + nd.trivariate_cdf(b, a, 0.0, r)
        assert total == pytest.approx(nd.std_cdf(a) * nd.std_cdf(b), abs=1e-10)
    # near the clamp, where the third coordinate is nearly (U1 - U2)/sqrt(2)
    for r in (1.0 - CLAMP, -1.0 + CLAMP, 0.99999, -0.99999):
        for _ in range(20):
            a, b = rng.uniform(-4.0, 4.0, 2)
            total = nd.trivariate_cdf(a, b, 0.0, r) + nd.trivariate_cdf(b, a, 0.0, r)
            assert total == pytest.approx(nd.std_cdf(a) * nd.std_cdf(b), abs=1e-14), (a, b, r)


def test_trivariate_cdf_rejects_degenerate_r():
    with pytest.raises(ValueError):
        nd.trivariate_cdf(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        nd.trivariate_cdf(0.0, 0.0, 0.0, -1.0)
    for r in (1.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="must be in"):
            nd.trivariate_cdf_grad(0.0, 0.0, r)


def test_trivariate_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    eps = 1e-6
    for _ in range(20):
        a, b = rng.uniform(-2, 2, 2)
        r = rng.uniform(-0.9, 0.9)
        grad = nd.trivariate_cdf_grad(a, b, r)
        fd = (
            nd.trivariate_cdf(a, b, 0.0, r + eps) - nd.trivariate_cdf(a, b, 0.0, r - eps)
        ) / (2 * eps)
        assert grad == pytest.approx(fd, abs=2e-8)


def test_phi3_grid_value_does_not_depend_on_the_batch():
    # rows of four pairs, each with its own r; two pairs share an r, and
    # the last pair has an infinite bound.  Each pair's rows run once as
    # one-row tasks of a batch and once as the pair's own grid.
    a = np.array([-0.8, 0.3, 1.2, -1.5, 0.1, 0.7, 2.0, 0.4])
    b = np.array([0.3, 1.2, np.inf, 0.1, 0.7, 2.0, np.inf, 0.9])
    r = np.array([0.95, 0.95, 0.95, -0.4, -0.4, 0.95, 0.95, 0.2])
    pairs = np.array([0, 0, 0, 1, 1, 2, 2, 3])
    together, grad = (v[:, 0] for v in nd._phi3_grid(np.column_stack([a, b]), 0.0, r))
    for pair in range(4):
        rows = pairs == pair
        alone = nd._phi3_grid([np.append(a[rows], b[rows][-1])], 0.0, r[rows][:1])[0][0]
        assert np.array_equal(together[rows], alone)
    assert np.array_equal(grad, [nd.trivariate_cdf_grad(x, y, s) for x, y, s in zip(a, b, r)])


def edge_grids(p, count, rng):
    """count grids D_1 <= ... <= D_{p-1}, +inf with blocks of -inf, +inf,
    coincident and signed-zero cutoffs."""
    grids = np.sort(rng.normal(0.0, 1.5, (count, p - 1)), axis=1)
    for row, kind in zip(grids, rng.integers(0, 6, count)):
        k = rng.integers(0, p - 1)
        if kind == 1:
            row[: k + 1] = -np.inf
        elif kind == 2:
            row[k:] = np.inf
        elif kind == 3:
            row[k:] = row[k]  # coincident cutoffs
        elif kind == 4:
            row[:] = rng.choice([0.0, -0.0], p - 1)
    return np.column_stack([grids, np.full(count, np.inf)])


EDGE_R = (1.0 - CLAMP, -1.0 + CLAMP, 0.0, -0.0, 1e-13, -1e-13)


@pytest.mark.parametrize("p", [2, 3, 16])
def test_phi3_grid_equals_the_row_rule_bit_for_bit(p):
    rng = np.random.default_rng(p)
    grid = edge_grids(p, 240, rng)
    r = np.where(np.arange(240) < 120, np.resize(EDGE_R, 240), rng.uniform(-0.999, 0.999, 240))
    for c in (0.0, -0.0, 0.7, -np.inf, np.inf):
        value, grad = nd._phi3_grid(grid, c, r)
        a, b, rows_r = grid[:, :-1].ravel(), grid[:, 1:].ravel(), np.repeat(r, p - 1)
        assert np.array_equal(value.ravel(), phi3_by_rows(a, b, c, rows_r)), c
        assert np.array_equal(grad.ravel(), phi3_grad_by_rows(a, b, c, rows_r)), c
        # each task alone, and the scalar functions as one task of one row
        for t in rng.choice(240, 12, replace=False):
            alone = nd._phi3_grid(grid[t : t + 1], c, r[t : t + 1])
            assert np.array_equal(alone[0][0], value[t]) and np.array_equal(alone[1][0], grad[t])
            assert nd.trivariate_cdf(grid[t, 0], grid[t, 1], c, r[t]) == value[t, 0]
            if c == 0.0:
                assert nd.trivariate_cdf_grad(grid[t, 0], grid[t, 1], r[t]) == grad[t, 0]


@pytest.mark.parametrize("max_rows", [MAX_QUADRATURE_ROWS, 7])
def test_ordinal_continuous_bridges_equal_the_row_rule_in_any_batch(max_rows, monkeypatch):
    """_Bridges sums 4 Phi3(D_l, D_l+1, 0) - 2 Phi(D_l) Phi(D_l+1) over each
    task's grid; every value and derivative equals the row rule's, summed
    by np.bincount in cutoff order, in a mixed batch, per level count and
    alone.  A cap of 7 rows puts one task per call for p > 8."""
    monkeypatch.setattr(bridge, "MAX_QUADRATURE_ROWS", max_rows)
    rng = np.random.default_rng(5)
    tasks, r = [], []
    for p in range(2, 17):
        for k, grid in enumerate(edge_grids(p, 12, rng)):
            kind, cuts = BridgeKind(p, None), (grid[:-1], None)
            if k % 2:
                kind, cuts = BridgeKind(None, p), cuts[::-1]
            tasks.append(bridge.InversionTask(0.0, kind, *cuts))
            r.append(EDGE_R[k] if k < len(EDGE_R) else rng.uniform(-0.999, 0.999))
    tasks.append(bridge.InversionTask(0.0, BridgeKind(3, 4), np.array([-0.5, 0.5]), np.array([-1.0, 0.0, 1.0])))
    r = np.array(r + [0.4])
    want = []
    for task, r_t in zip(tasks[:-1], r):
        grid = np.append(task.cutoffs_j if task.cutoffs_k is None else task.cutoffs_k, np.inf)
        a, b = grid[:-1], grid[1:]
        terms = 4.0 * phi3_by_rows(a, b, 0.0, r_t) - 2.0 * ndtr(a) * ndtr(b)
        grads = 4.0 * phi3_grad_by_rows(a, b, 0.0, np.full(a.size, r_t))
        owner = np.zeros(a.size, dtype=int)
        want.append((np.bincount(owner, terms)[0], np.bincount(owner, grads)[0]))
    want = np.array(want).T
    batch = bridge._Bridges(tasks)
    together = np.array(batch.evaluate(r, np.arange(r.size)))
    assert np.array_equal(together[:, :-1], want)
    levels = batch.levels[:-1].sum(axis=1)
    for p in range(2, 17):
        same = np.flatnonzero(levels == p)
        assert np.array_equal(np.array(batch.evaluate(r[same], same)), want[:, same])
    for t, task in enumerate(tasks[:-1]):
        alone = np.array(bridge._Bridges([task]).evaluate(r[t : t + 1], np.array([0])))
        assert np.array_equal(alone[:, 0], want[:, t])
