"""Bridge functions linking latent correlation to population Kendall
statistics, cutoff estimation, and safeguarded monotone inversion.

Pair kinds and their bridges:

* continuous-continuous: tau = (2/pi) * arcsin(r), inverted in closed form.
* ordinal(p)-continuous, any p >= 2: the telescoping sum

      F(r) = sum_{l=1}^{p-1} 4*Phi3(D_l, D_{l+1}, 0) - 2*Phi(D_l)*Phi(D_{l+1})

  with D_p = +inf, whose last term collapses to the binary-continuous
  form 4*Phi2(D, 0, r/sqrt(2)) - 2*Phi(D).
* ordinal-ordinal, any p_j, p_k >= 2: with the cutoffs padded by -inf
  and +inf, G[a, b] = Phi2(Dj_a, Dk_b, r) = P(X < a, Y < b) is the
  cumulative grid, the cell masses pi_ab are its second differences, and

      F(r) = 2 * sum_{a,b} pi_ab * (G[a, b] - (G[a, p_k] - G[a, b+1]))

  sums P(concordant) - P(discordant) over the cells; dF/dr is the same
  expression by the product rule, with phi2 in place of Phi2.  The
  binary-binary case reduces to 2*(Phi2(Dj1, Dk1, r) - Phi(Dj1)*Phi(Dk1)).

Each forward bridge is strictly increasing in r on (-1, 1), so inversion
uses Newton iterations safeguarded by bisection on a maintained bracket.
The iteration runs on a whole batch of pairs at once (invert_bridges):
every pair keeps its own bracket and iterate, and each step evaluates the
forward bridges of the pairs still unconverged in a few vector calls.  A
bracket end F(+-(1 - CLAMP)) is evaluated only for a pair whose iterates
have not shown it below or above tau, once the pair converges, bisects
toward that end or runs out of steps.

The tau-b bridge of every kind is the first-order Taylor bridge
F(r) / sqrt(u_j * u_k), where u = 1 - sum_a pi_a^2 is the probability that
two observations of a p-level side are untied and u = 1 for a continuous
side (Kendall 1945); a second-order Taylor refinement of the
binary-continuous expectation is provided for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, ndtr

from .normal_dist import (
    _phi3_grid,
    bivariate_cdf,
    bivariate_pdf,
    std_cdf,
    std_quantile,
)

__all__ = [
    "BridgeKind",
    "BridgeEval",
    "InversionResult",
    "DegenerateBridgeError",
    "estimate_cutoffs",
    "bridge_forward",
    "bridge_forward_tau_b",
    "tau_b_second_order",
    "InversionTask",
    "invert_bridge",
    "invert_bridges",
]

# Latent correlations are kept inside [-1 + CLAMP, 1 - CLAMP].
CLAMP = 1e-6

# Safeguarded Newton stops at |F(r) - tau| <= NEWTON_TOL or after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 200

# Largest number of rows handed to one vector evaluation: trivariate CDF
# rows (one per cutoff of an ordinal-continuous pair, each a fixed 64-node
# rule), or rows of the bivariate CDF grids of ordinal-ordinal pairs
# (p_j + 1 per pair); a pair is not split.  This bounds the memory of a
# forward evaluation whatever the batch size.
MAX_QUADRATURE_ROWS = 256

# Tractability ceiling for the exact second-order tau-b sum: C(n,2) <= 1e4.
SECOND_ORDER_MAX_PAIRS = 10_000

_SQRT2 = math.sqrt(2.0)


class DegenerateBridgeError(ValueError):
    """One level of an ordinal side holds all the mass: its tau-b denominator is 0."""


@dataclass(frozen=True)
class BridgeKind:
    """Pair-kind tag: levels_j / levels_k are level counts, None = continuous."""

    levels_j: int | None = None
    levels_k: int | None = None

    def __post_init__(self):
        for levels in (self.levels_j, self.levels_k):
            if levels is not None and not (isinstance(levels, (int, np.integer)) and levels >= 2):
                raise ValueError(f"ordinal level count must be None or an integer >= 2, got {levels!r}")

    @property
    def is_continuous_pair(self) -> bool:
        return self.levels_j is None and self.levels_k is None

    @property
    def tag(self) -> str:
        """Method label, e.g. 'sin', 'ordinal3_continuous', 'ordinal2_ordinal3'."""
        lj, lk = self.levels_j, self.levels_k
        if self.is_continuous_pair:
            return "sin"
        if lj is None or lk is None:
            return f"ordinal{lj or lk}_continuous"
        return f"ordinal{lj}_ordinal{lk}"


@dataclass(frozen=True)
class BridgeEval:
    value: float
    derivative: float


@dataclass(frozen=True)
class InversionResult:
    r: float
    clamped: bool
    iterations: int

    def __float__(self) -> float:
        return self.r


def estimate_cutoffs(column, p: int) -> np.ndarray:
    """Moment estimators of the p-1 latent cutoffs of an ordinal column.

    column holds codes in {0, ..., p-1}; cutoff l is the normal quantile
    of the cumulative proportion of codes <= l-1.  Empty levels yield
    coincident (possibly infinite) cutoffs; callers that need strictly
    increasing cutoffs should collapse empty levels first.
    """
    codes = np.asarray(column)
    codes = codes[~np.isnan(np.asarray(codes, dtype=float))]
    if codes.size < 1:
        raise ValueError("need at least one observation")
    if np.any((codes < 0) | (codes > p - 1)):
        raise ValueError(f"ordinal codes outside range 0..{p - 1}")
    below = np.searchsorted(np.sort(codes), np.arange(p - 1), side="right")
    return std_quantile(below / codes.size)


def _check_cutoffs(kind: BridgeKind, cutoffs_j, cutoffs_k):
    checked = []
    sides = (("cutoffs_j", kind.levels_j, cutoffs_j), ("cutoffs_k", kind.levels_k, cutoffs_k))
    for name, levels, cuts in sides:
        cuts = None if cuts is None else np.asarray(cuts, dtype=float).ravel()
        if levels is not None:
            if cuts is None or cuts.size != levels - 1:
                raise ValueError(
                    f"expected {levels - 1} cutoffs for a {levels}-level "
                    f"variable, got {None if cuts is None else cuts.size}"
                )
            if np.any(np.isnan(cuts)):
                raise ValueError(f"{name} must not be NaN, got {cuts.tolist()}")
            if np.any(cuts[1:] < cuts[:-1]):  # not np.diff: inf - inf warns
                raise ValueError("cutoffs must be nondecreasing")
        checked.append(None if levels is None else cuts)  # a continuous side has none
    return tuple(checked)


def bridge_forward(r: float, kind: BridgeKind, cutoffs_j=None, cutoffs_k=None) -> BridgeEval:
    """Population tau-a at latent correlation r, with d(tau)/dr."""
    return _forward_one(r, kind, cutoffs_j, cutoffs_k, "a")


def _tau_b_denominator(cj, ck) -> float:
    """sqrt(u_j * u_k): u = 2 * sum_a pi_a * (1 - F_a) for an ordinal side
    with level masses pi_a and cumulative masses F_a, 1 for a continuous side."""
    product = 1.0
    for cuts in (cj, ck):
        if cuts is not None:
            cdf = std_cdf(cuts)  # F_1..F_{p-1}; the last level's 1 - F_p is 0
            untied = 2.0 * float(np.sum(np.diff(cdf, prepend=0.0) * (1.0 - cdf)))
            if untied <= 0.0:
                raise DegenerateBridgeError("one level holds all the mass; tau_b bridge degenerate")
            product *= untied
    return math.sqrt(product)


def bridge_forward_tau_b(r: float, kind: BridgeKind, cutoffs_j=None, cutoffs_k=None) -> BridgeEval:
    """First-order Taylor bridge for population tau-b: bridge_forward / sqrt(u_j * u_k)."""
    return _forward_one(r, kind, cutoffs_j, cutoffs_k, "b")


def _forward_one(r, kind, cutoffs_j, cutoffs_k, variant) -> BridgeEval:
    if not -1.0 < r < 1.0:
        raise ValueError(f"latent correlation must be in (-1, 1), got {r}")
    # the forward bridge of a task does not depend on its tau
    task = InversionTask(0.0, kind, cutoffs_j, cutoffs_k, variant)
    if kind.is_continuous_pair:
        value = (2.0 / math.pi) * math.asin(r)
        deriv = (2.0 / math.pi) / math.sqrt(1.0 - r * r)
        return BridgeEval(value, deriv)
    value, deriv = _Bridges([task]).evaluate(np.array([float(r)]), np.array([0]))
    return BridgeEval(float(value[0]), float(deriv[0]))


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    """P(K = k), k = 0..n, for K ~ Binomial(n, p) with 0 < p < 1."""
    k = np.arange(n + 1)
    log_pmf = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    return np.exp(log_pmf + k * math.log(p) + (n - k) * math.log1p(-p))


def tau_b_second_order(r: float, delta_j: float, n: int) -> float:
    """Second-order Taylor approximation of E(tau_b-hat), binary-continuous.

    Uses the ratio expansion E(Y/X) ~ mY/mX + (var(X)*mY/mX - cov(Y,X))/mX^2
    with Y = sqrt(N)*tau_a-hat, X = sqrt(C + D) and N = C(n, 2), under a
    trinomial model of the concordant and discordant counts (C, D).  With
    phi = Phi(delta_j), three identities make every moment a binomial sum:
    N - ties = n0*(n - n0) with n0 ~ Binomial(n, phi) zeros on the binary
    side; p_con - p_dis = 4*Phi2(delta_j, 0; r/sqrt(2)) - 2*phi; and a pair
    is untied on the binary side with p_con + p_dis = 2*phi*(1 - phi) at
    every r, so C + D ~ Binomial(N, 2*phi*(1 - phi)) and
    E[(C - D)*sqrt(C + D)] = (p_con - p_dis)/(p_con + p_dis) * E[(C + D)^1.5].
    """
    n = int(n)
    if n < 2:
        raise ValueError("need n >= 2")
    n_pairs = n * (n - 1) // 2
    if n_pairs > SECOND_ORDER_MAX_PAIRS:
        raise ValueError(
            f"C(n,2) = {n_pairs} exceeds the tractability ceiling {SECOND_ORDER_MAX_PAIRS}"
        )
    if not -1.0 < r < 1.0:
        raise ValueError(f"latent correlation must be in (-1, 1), got {r}")
    phi = std_cdf(delta_j)
    if not 0.0 < phi < 1.0:
        raise DegenerateBridgeError("binary cutoff at +-inf")

    untied = 2.0 * phi * (1.0 - phi)
    n0 = np.arange(n + 1)
    e_t = float(np.sum(np.sqrt(n0 * (n - n0)) * _binomial_pmf(n, phi)))
    var_t = n_pairs * untied - e_t * e_t

    p_diff = 4.0 * bivariate_cdf(delta_j, 0.0, r / _SQRT2) - 2.0 * phi  # p_con - p_dis
    m = np.arange(n_pairs + 1)
    e_y_x = p_diff / untied * float(np.sum(m * np.sqrt(m) * _binomial_pmf(n_pairs, untied)))

    mu_y = math.sqrt(n_pairs) * p_diff  # sqrt(N) * E(tau_a-hat)
    cov_yx = e_y_x / math.sqrt(n_pairs) - mu_y * e_t
    return mu_y / e_t + (var_t * mu_y / e_t - cov_yx) / (e_t * e_t)


class BridgeInversionError(RuntimeError):
    """Safeguarded Newton failed to converge (should be unreachable).

    index is the position of the failing task in the batch passed to
    invert_bridges.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class InversionTask:
    """One bridge inversion: find r with F(r) = tau for the pair's bridge F.

    variant 'b' inverts the first-order tau-b bridge instead of the tau-a
    bridge.  Building a task checks its inputs, so a bad pair fails where
    it is described, not inside a batch.
    """

    tau: float
    kind: BridgeKind
    cutoffs_j: np.ndarray | None = None
    cutoffs_k: np.ndarray | None = None
    variant: str = "a"
    scale: float = field(init=False)  # tau-b denominator; 1.0 for tau-a

    def __post_init__(self):
        if self.variant not in ("a", "b"):
            raise ValueError(f"variant must be 'a' or 'b', got {self.variant!r}")
        tau = float(self.tau)
        if not -1.0 <= tau <= 1.0:
            raise ValueError(f"tau must lie in [-1, 1], got {tau}")
        cj, ck = _check_cutoffs(self.kind, self.cutoffs_j, self.cutoffs_k)
        scale = _tau_b_denominator(cj, ck) if self.variant == "b" else 1.0
        for name, value in (("tau", tau), ("cutoffs_j", cj), ("cutoffs_k", ck), ("scale", scale)):
            object.__setattr__(self, name, value)


class _Bridges:
    """Forward bridges of a batch of non-continuous tasks, evaluated together.

    Each task keeps its ordinal cutoffs as padded grids -inf, D_1, ...,
    D_{p-1}, +inf, then +inf up to the widest task.  An ordinal-ordinal
    task fills grid_j and grid_k (levels (p_j, p_k)); its bridge sums the
    cells of its bivariate CDF grid, and tasks of one grid shape are
    evaluated together.  An ordinal-continuous task puts its ordinal side
    in grid_j (levels (p, 0)); its bridge sums one trivariate term per
    cutoff l, with bounds grid_j[l + 1] and grid_j[l + 2], and tasks of
    one level count are evaluated together by one kernel over their grids
    D_1..D_{p-1}, +inf, which computes the r-only factors once per task
    and each bound's density once.  Each evaluation takes at most
    MAX_QUADRATURE_ROWS rows (bivariate grid rows or trivariate terms) but
    at least one task, and np.bincount adds each pair's terms in cutoff
    order, so a pair gets the same value alone or in any batch.
    """

    def __init__(self, tasks):
        n = len(tasks)
        self.scale = np.array([t.scale for t in tasks])
        # the cutoffs of each task's ordinal sides, j before k
        sides = [[c for c in (t.cutoffs_j, t.cutoffs_k) if c is not None] for t in tasks]
        self.levels = np.zeros((n, 2), dtype=int)
        for i, cuts in enumerate(sides):
            self.levels[i, : len(cuts)] = [c.size + 1 for c in cuts]
        self.grid_j = np.full((n, self.levels[:, 0].max(initial=0) + 1), np.inf)
        self.grid_k = np.full((n, self.levels[:, 1].max(initial=0) + 1), np.inf)
        self.grid_j[:, 0] = self.grid_k[:, 0] = -np.inf
        for i, cuts in enumerate(sides):
            for grid, c in zip((self.grid_j, self.grid_k), cuts):
                grid[i, 1 : c.size + 1] = c

    def evaluate(self, r: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bridge values and derivatives of tasks idx at r (aligned, repeats allowed)."""
        levels = self.levels[idx]
        value, deriv = np.zeros(idx.size), np.zeros(idx.size)
        for p_j, p_k in np.unique(levels, axis=0):
            same = np.flatnonzero((levels == (p_j, p_k)).all(axis=1))
            rows, kernel = (p_j + 1, self._ordinal_ordinal) if p_k else (p_j - 1, self._ordinal_continuous)
            per = max(1, MAX_QUADRATURE_ROWS // rows)
            for first in range(0, same.size, per):
                kernel(r, idx, same[first : first + per], p_j, p_k, value, deriv)
        scale = self.scale[idx]
        return value / scale, deriv / scale

    def _ordinal_continuous(self, r, idx, pos, p, _, value, deriv):
        grid = self.grid_j[idx[pos], 1 : p + 1]  # D_1, ..., D_{p-1}, +inf
        phi3, grad = _phi3_grid(grid, 0.0, r[pos])
        cdf = ndtr(grid)
        terms = 4.0 * phi3 - 2.0 * cdf[:, :-1] * cdf[:, 1:]
        # np.bincount adds each task's terms in cutoff order, as for the task alone
        owner = np.repeat(np.arange(pos.size), p - 1)
        value[pos] = np.bincount(owner, terms.ravel(), minlength=pos.size)
        deriv[pos] = np.bincount(owner, 4.0 * grad.ravel(), minlength=pos.size)

    def _ordinal_ordinal(self, r, idx, pos, p_j, p_k, value, deriv):
        dj = self.grid_j[idx[pos], : p_j + 1, None]
        dk = self.grid_k[idx[pos], None, : p_k + 1]
        r = r[pos, None, None]

        def cells(g):
            """Cell masses pi_ab and P(X < a, Y < b) - P(X < a, Y > b) of grid g."""
            mass = g[:, 1:, 1:] - g[:, :-1, 1:] - g[:, 1:, :-1] + g[:, :-1, :-1]
            net = g[:, :-1, :-1] + g[:, :-1, 1:] - g[:, :-1, -1:]
            return mass, net

        # d Phi2 / dr = phi2, and cells() is linear in g
        mass, net = cells(bivariate_cdf(dj, dk, r))
        d_mass, d_net = cells(bivariate_pdf(dj, dk, r))
        # one row per task, so each sum runs as for that task alone
        value[pos] = 2.0 * (mass * net).reshape(pos.size, -1).sum(axis=1)
        deriv[pos] = 2.0 * (d_mass * net + mass * d_net).reshape(pos.size, -1).sum(axis=1)


def _invert_sine(tau: float) -> InversionResult:
    """Closed-form inverse of the continuous bridge (2/pi) * arcsin(r)."""
    lo_tau = (2.0 / math.pi) * math.asin(-1.0 + CLAMP)
    hi_tau = (2.0 / math.pi) * math.asin(1.0 - CLAMP)
    if tau <= lo_tau:
        return InversionResult(-1.0 + CLAMP, tau < lo_tau, 0)
    if tau >= hi_tau:
        return InversionResult(1.0 - CLAMP, tau > hi_tau, 0)
    return InversionResult(math.sin(math.pi / 2.0 * tau), False, 0)


def invert_bridge(
    tau_hat: float,
    kind: BridgeKind,
    cutoffs_j=None,
    cutoffs_k=None,
    variant: str = "a",
) -> InversionResult:
    """Invert the (strictly increasing) forward bridge at tau_hat.

    The batch of one of invert_bridges: tau_hat values outside the
    achievable range [F(-1+CLAMP), F(1-CLAMP)] are clamped to the nearest
    endpoint and flagged.  variant 'b' inverts the first-order tau-b
    bridge instead of the tau-a bridge.
    """
    return invert_bridges([InversionTask(tau_hat, kind, cutoffs_j, cutoffs_k, variant)])[0]


def invert_bridges(tasks) -> list[InversionResult]:
    """Invert the forward bridge of every task, as one vector iteration.

    Continuous pairs are inverted in closed form.  Every other task runs
    safeguarded Newton with its own bracket [-1+CLAMP, 1-CLAMP], starting
    at sin(pi/2 * tau), until |F(r) - tau| <= NEWTON_TOL; each step
    evaluates F only on the tasks that have not converged.  A tau outside
    the achievable range [F(-1+CLAMP), F(1-CLAMP)] is clamped to the
    nearest endpoint and flagged.  Each result is the one the task would
    get alone.  Raises BridgeInversionError, carrying the task's index,
    when a task misses 10*NEWTON_TOL after NEWTON_MAX_ITER steps.

    F is strictly increasing, so an iterate with F(r) < tau shows the lower
    end in range and one with F(r) > tau the upper.  An end not yet shown is
    evaluated when its task converges, bisects toward it (a Newton step
    past it, or no usable derivative), or is left after the last step,
    before any task is reported unconverged.  A tau out of range there ends
    the task at that end with 0 iterations; every other iterate is the one
    it would be with both ends evaluated first.
    """
    results: list[InversionResult | None] = [None] * len(tasks)
    newton = []
    for i, task in enumerate(tasks):
        if task.kind.is_continuous_pair:
            results[i] = _invert_sine(task.tau)
        else:
            newton.append(i)
    if not newton:
        return results

    bridges = _Bridges([tasks[i] for i in newton])
    tau = np.array([tasks[i].tau for i in newton])
    m = tau.size
    ends = np.array([-1.0 + CLAMP, 1.0 - CLAMP])
    lo, hi = np.full(m, ends[0]), np.full(m, ends[1])
    # F(end) - tau at each task's lower and upper end: NaN until evaluated,
    # -inf / +inf once an iterate has shown the end in range
    f_end = np.full((2, m), np.nan)
    start = np.array([math.sin(math.pi / 2.0 * t) for t in tau])
    r = np.minimum(np.maximum(start, lo + 1e-12), hi - 1e-12)
    clamped, iterations, active = np.zeros(m, bool), np.zeros(m, int), np.ones(m, bool)

    def settle(idx):
        """Evaluate the unknown ends of tasks idx and end each task whose tau
        is out of range at its end; returns the mask of idx in range."""
        side, pos = np.nonzero(np.isnan(f_end[:, idx]))
        if pos.size:
            f_end[side, idx[pos]] = bridges.evaluate(ends[side], idx[pos])[0] - tau[idx[pos]]
        f_lo, f_hi = f_end[:, idx]
        at_lo = f_lo >= 0.0
        out = at_lo | (f_hi <= 0.0)
        r[idx[out]] = np.where(at_lo, *ends)[out]
        clamped[idx[out]] = np.where(at_lo, f_lo > 0.0, f_hi < 0.0)[out]
        iterations[idx[out]], active[idx[out]] = 0, False
        return ~out

    for it in range(1, NEWTON_MAX_ITER + 1):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        value, deriv = bridges.evaluate(r[idx], idx)
        f = value - tau[idx]
        f_end[0, idx[f < 0.0]] = -np.inf
        f_end[1, idx[f > 0.0]] = np.inf
        done = np.abs(f) <= NEWTON_TOL
        iterations[idx[done]], active[idx[done]] = it, False
        settle(idx[done])
        idx, f, deriv = idx[~done], f[~done], deriv[~done]
        above = f > 0.0
        hi[idx[above]] = r[idx[above]]
        lo[idx[~above]] = r[idx[~above]]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r_newton = r[idx] - f / deriv
        step = (deriv > 0.0) & np.isfinite(deriv) & (lo[idx] < r_newton) & (r_newton < hi[idx])
        r[idx] = np.where(step, r_newton, 0.5 * (lo[idx] + hi[idx]))
        # bisecting toward an end not yet shown in range, still the bracket's own
        settle(idx[~step & np.isnan(f_end[np.where(above, 0, 1), idx])])

    left = np.flatnonzero(active)
    left = left[settle(left)]
    if left.size:
        residual = bridges.evaluate(r[left], left)[0] - tau[left]
        for i, res in zip(left, residual):
            if not abs(res) <= 10.0 * NEWTON_TOL:
                task = tasks[newton[i]]
                raise BridgeInversionError(
                    f"no convergence after {NEWTON_MAX_ITER} iterations: kind={task.kind}, "
                    f"tau_hat={task.tau}, residual={res:.3e}",
                    newton[i],
                )
        iterations[left] = NEWTON_MAX_ITER
    for i, r_i, c_i, it_i in zip(newton, r, clamped, iterations):
        results[i] = InversionResult(float(r_i), bool(c_i), int(it_i))
    return results
