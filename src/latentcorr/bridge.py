"""Bridge functions linking latent correlation to population Kendall
statistics, cutoff estimation, and safeguarded monotone inversion.

Supported pair kinds:

* continuous-continuous: tau = (2/pi) * arcsin(r), inverted in closed form.
* ordinal(p)-continuous, any p >= 2: the telescoping sum

      F(r) = sum_{l=1}^{p-1} 4*Phi3(D_l, D_{l+1}, 0) - 2*Phi(D_l)*Phi(D_{l+1})

  with D_p = +inf, whose last term collapses to the binary-continuous
  form 4*Phi2(D, 0, r/sqrt(2)) - 2*Phi(D).
* ordinal-ordinal with at most 3 levels on each side:

      F(r) = 2*Phi2(Dj2, Dk2, r)*Phi2(-Dj1, -Dk1, r)
             - 2*[Phi(Dj2) - Phi2(Dj2, Dk1, r)] * [Phi(Dk2) - Phi2(Dj1, Dk2, r)]

  where a binary side sets its second cutoff to +inf; the binary-binary
  case reduces to 2*(Phi2(Dj1, Dk1, r) - Phi(Dj1)*Phi(Dk1)).

Each forward bridge is strictly increasing in r on (-1, 1), so inversion
uses Newton iterations safeguarded by bisection on a maintained bracket.

Tau-b variants (first-order Taylor bridges) exist only for binary-binary
and binary-continuous pairs; a second-order Taylor refinement of the
binary-continuous expectation is provided for small n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtr

from .normal_dist import (
    _phi3_batch,
    _phi3_c0_grad,
    bivariate_cdf,
    bivariate_pdf,
    std_cdf,
    std_pdf,
    std_quantile,
)

__all__ = [
    "BridgeKind",
    "BridgeEval",
    "InversionResult",
    "UnsupportedPairError",
    "DegenerateBridgeError",
    "estimate_cutoffs",
    "bridge_forward",
    "bridge_forward_tau_b",
    "tau_b_second_order",
    "invert_bridge",
]

# Latent correlations are kept inside [-1 + CLAMP, 1 - CLAMP].
CLAMP = 1e-6

# Safeguarded Newton stops at |F(r) - tau| <= NEWTON_TOL or after NEWTON_MAX_ITER steps.
NEWTON_TOL = 1e-8
NEWTON_MAX_ITER = 200

# Tractability ceiling for the exact second-order tau-b sum: C(n,2) <= 1e4.
SECOND_ORDER_MAX_PAIRS = 10_000

_SQRT2 = math.sqrt(2.0)


class UnsupportedPairError(ValueError):
    """No bridge function exists for this pair of variable kinds."""


class DegenerateBridgeError(ValueError):
    """A cutoff at +-inf makes the requested bridge degenerate."""


@dataclass(frozen=True)
class BridgeKind:
    """Pair-kind tag: levels_j / levels_k are level counts, None = continuous."""

    levels_j: int | None = None
    levels_k: int | None = None

    @classmethod
    def continuous_continuous(cls) -> "BridgeKind":
        return cls(None, None)

    @classmethod
    def ordinal_continuous(cls, p: int) -> "BridgeKind":
        if p < 2:
            raise ValueError(f"ordinal level count must be >= 2, got {p}")
        return cls(p, None)

    @classmethod
    def ordinal_ordinal(cls, p_j: int, p_k: int) -> "BridgeKind":
        if p_j < 2 or p_k < 2:
            raise ValueError(f"ordinal level counts must be >= 2, got ({p_j}, {p_k})")
        return cls(p_j, p_k)

    @property
    def is_continuous_pair(self) -> bool:
        return self.levels_j is None and self.levels_k is None

    @property
    def has_tau_b(self) -> bool:
        """Binary-binary or binary-continuous: the pairs with a tau-b bridge."""
        return not self.is_continuous_pair and {self.levels_j, self.levels_k} <= {None, 2}

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
    n = codes.size
    cum = np.array([np.sum(codes <= l - 1) / n for l in range(1, p)])
    return std_quantile(cum)


def _check_cutoffs(kind: BridgeKind, cutoffs_j, cutoffs_k):
    checked = []
    for levels, cuts in ((kind.levels_j, cutoffs_j), (kind.levels_k, cutoffs_k)):
        cuts = None if cuts is None else np.asarray(cuts, dtype=float).ravel()
        if levels is not None:
            if cuts is None or cuts.size != levels - 1:
                raise ValueError(
                    f"expected {levels - 1} cutoffs for a {levels}-level "
                    f"variable, got {None if cuts is None else cuts.size}"
                )
            if np.any(np.diff(cuts) < 0):
                raise ValueError("cutoffs must be nondecreasing")
        checked.append(cuts)
    return tuple(checked)


def _ordinal_continuous_eval(r: float, cutoffs: np.ndarray) -> tuple[float, float]:
    lower = cutoffs
    upper = np.append(cutoffs[1:], np.inf)
    phi3 = _phi3_batch(lower, upper, np.zeros_like(lower), r)
    value = float(np.sum(4.0 * phi3 - 2.0 * ndtr(lower) * ndtr(upper)))
    deriv = float(np.sum(4.0 * _phi3_c0_grad(lower, upper, r)))
    return value, deriv


def _ordinal_ordinal_eval(r: float, cj: np.ndarray, ck: np.ndarray) -> tuple[float, float]:
    dj1, dj2 = cj[0], cj[1] if cj.size > 1 else np.inf
    dk1, dk2 = ck[0], ck[1] if ck.size > 1 else np.inf
    p_hi = bivariate_cdf(dj2, dk2, r)
    p_lo = bivariate_cdf(-dj1, -dk1, r)
    m_j = std_cdf(dj2) - bivariate_cdf(dj2, dk1, r)
    m_k = std_cdf(dk2) - bivariate_cdf(dj1, dk2, r)
    value = 2.0 * p_hi * p_lo - 2.0 * m_j * m_k
    d_hi = bivariate_pdf(dj2, dk2, r)
    d_lo = bivariate_pdf(-dj1, -dk1, r)
    d_mj = bivariate_pdf(dj2, dk1, r)
    d_mk = bivariate_pdf(dj1, dk2, r)
    deriv = 2.0 * (d_hi * p_lo + p_hi * d_lo) + 2.0 * (d_mj * m_k + m_j * d_mk)
    return float(value), float(deriv)


def bridge_forward(r: float, kind: BridgeKind, cutoffs_j=None, cutoffs_k=None) -> BridgeEval:
    """Population tau-a at latent correlation r, with d(tau)/dr.

    Raises UnsupportedPairError for ordinal-ordinal pairs with more than
    3 levels on either side (no bridge is available for those).
    """
    if not -1.0 < r < 1.0:
        raise ValueError(f"latent correlation must be in (-1, 1), got {r}")
    cj, ck = _check_cutoffs(kind, cutoffs_j, cutoffs_k)
    if kind.is_continuous_pair:
        value = (2.0 / math.pi) * math.asin(r)
        deriv = (2.0 / math.pi) / math.sqrt(1.0 - r * r)
        return BridgeEval(value, deriv)
    if kind.levels_k is None:
        value, deriv = _ordinal_continuous_eval(r, cj)
        return BridgeEval(value, deriv)
    if kind.levels_j is None:
        value, deriv = _ordinal_continuous_eval(r, ck)
        return BridgeEval(value, deriv)
    if kind.levels_j > 3 or kind.levels_k > 3:
        raise UnsupportedPairError(
            f"no bridge for a {kind.levels_j}-level x {kind.levels_k}-level "
            "ordinal pair (only <= 3 levels per side are supported)"
        )
    value, deriv = _ordinal_ordinal_eval(r, cj, ck)
    return BridgeEval(value, deriv)


def _tau_b_denominator(kind: BridgeKind, cj, ck) -> float:
    """sqrt of the tie-probability product for the tau-b bridges."""
    if not kind.has_tau_b:
        raise UnsupportedPairError(
            "tau-b bridges are defined only for binary-binary and "
            f"binary-continuous pairs, got {kind.tag}"
        )
    terms = []
    for cuts in (cj, ck):
        if cuts is None:
            continue
        phi = std_cdf(cuts[0])
        untied = 2.0 * phi * (1.0 - phi)
        if untied <= 0.0:
            raise DegenerateBridgeError("binary cutoff at +-inf; tau_b bridge degenerate")
        terms.append(untied)
    return math.sqrt(math.prod(terms))


def bridge_forward_tau_b(r: float, kind: BridgeKind, cutoffs_j=None, cutoffs_k=None) -> BridgeEval:
    """First-order Taylor bridge for population tau-b (binary j required)."""
    cj, ck = _check_cutoffs(kind, cutoffs_j, cutoffs_k)
    denom = _tau_b_denominator(kind, cj, ck)
    base = bridge_forward(r, kind, cj, ck)
    return BridgeEval(base.value / denom, base.derivative / denom)


def tau_b_second_order(r: float, delta_j: float, n: int) -> float:
    """Second-order Taylor approximation of E(tau_b-hat), binary-continuous.

    Uses the ratio expansion E(Y/X) ~ mY/mX + (var(X)*mY/mX - cov(Y,X))/mX^2
    with Y = sqrt(N)*tau_a-hat and X = sqrt(C + D), N = C(n, 2).  The
    (C, D) sum runs over the multinomial support C + D <= N with terms
    below relative 1e-16 pruned via a moment window.
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

    # E(T) over the binomial count of zeros; T = sqrt(N - ties)
    n0 = np.arange(n + 1)
    ties = n0 * (n0 - 1) // 2 + (n - n0) * (n - n0 - 1) // 2
    log_pmf = (
        gammaln(n + 1)
        - gammaln(n0 + 1)
        - gammaln(n - n0 + 1)
        + n0 * math.log(phi)
        + (n - n0) * math.log1p(-phi)
    )
    e_t = float(np.sum(np.sqrt(n_pairs - ties) * np.exp(log_pmf)))
    var_t = n_pairs * (2.0 * phi - 2.0 * phi * phi) - e_t * e_t

    rho = r / _SQRT2
    p_con = 2.0 * (bivariate_cdf(delta_j, 0.0, rho) - _phi3_batch(delta_j, delta_j, 0.0, r)[0])
    p_dis = 2.0 * (bivariate_cdf(delta_j, 0.0, -rho) - _phi3_batch(delta_j, delta_j, 0.0, r)[0])
    p_rest = 1.0 - p_con - p_dis

    # windowed multinomial sum for E[(C - D) * sqrt(C + D)]
    def window(p):
        mean = n_pairs * p
        sd = math.sqrt(max(n_pairs * p * (1.0 - p), 1.0))
        lo = max(0, int(mean - 12.0 * sd))
        hi = min(n_pairs, int(mean + 12.0 * sd) + 1)
        return np.arange(lo, hi + 1)

    c_vals = window(p_con)
    d_vals = window(p_dis)
    C = c_vals[:, None].astype(float)
    D = d_vals[None, :].astype(float)
    rest = n_pairs - C - D
    valid = rest >= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mult = (
            gammaln(n_pairs + 1)
            - gammaln(C + 1)
            - gammaln(D + 1)
            - gammaln(np.where(valid, rest, 0.0) + 1)
            + C * math.log(p_con)
            + D * math.log(p_dis)
            + np.where(valid, rest, 0.0) * math.log(p_rest)
        )
    pmf = np.where(valid, np.exp(log_mult), 0.0)
    e_y_x = float(np.sum((C - D) * np.sqrt(C + D) * pmf))

    mu_y = math.sqrt(n_pairs) * (p_con - p_dis)  # sqrt(N) * E(tau_a-hat)
    cov_yx = e_y_x / math.sqrt(n_pairs) - mu_y * e_t
    return mu_y / e_t + (var_t * mu_y / e_t - cov_yx) / (e_t * e_t)


class BridgeInversionError(RuntimeError):
    """Safeguarded Newton failed to converge (should be unreachable)."""


def invert_bridge(
    tau_hat: float,
    kind: BridgeKind,
    cutoffs_j=None,
    cutoffs_k=None,
    variant: str = "a",
) -> InversionResult:
    """Invert the (strictly increasing) forward bridge at tau_hat.

    tau_hat values outside the achievable range [F(-1+CLAMP), F(1-CLAMP)]
    are clamped to the nearest endpoint and flagged.  variant 'b' inverts
    the first-order tau-b bridge instead of the tau-a bridge.
    """
    if variant not in ("a", "b"):
        raise ValueError(f"variant must be 'a' or 'b', got {variant!r}")
    tau_hat = float(tau_hat)
    if not -1.0 <= tau_hat <= 1.0:
        raise ValueError(f"tau must lie in [-1, 1], got {tau_hat}")
    forward = bridge_forward if variant == "a" else bridge_forward_tau_b
    cj, ck = _check_cutoffs(kind, cutoffs_j, cutoffs_k)

    if kind.is_continuous_pair and variant == "a":
        lo_tau = (2.0 / math.pi) * math.asin(-1.0 + CLAMP)
        hi_tau = (2.0 / math.pi) * math.asin(1.0 - CLAMP)
        if tau_hat <= lo_tau:
            return InversionResult(-1.0 + CLAMP, tau_hat < lo_tau, 0)
        if tau_hat >= hi_tau:
            return InversionResult(1.0 - CLAMP, tau_hat > hi_tau, 0)
        return InversionResult(math.sin(math.pi / 2.0 * tau_hat), False, 0)

    lo, hi = -1.0 + CLAMP, 1.0 - CLAMP
    f_lo = forward(lo, kind, cj, ck).value - tau_hat
    f_hi = forward(hi, kind, cj, ck).value - tau_hat
    if f_lo >= 0.0:
        return InversionResult(lo, f_lo > 0.0, 0)
    if f_hi <= 0.0:
        return InversionResult(hi, f_hi < 0.0, 0)

    r = math.sin(math.pi / 2.0 * max(-1.0, min(1.0, tau_hat)))
    r = min(max(r, lo + 1e-12), hi - 1e-12)
    iterations = 0
    for iterations in range(1, NEWTON_MAX_ITER + 1):
        ev = forward(r, kind, cj, ck)
        f = ev.value - tau_hat
        if abs(f) <= NEWTON_TOL:
            return InversionResult(r, False, iterations)
        if f > 0.0:
            hi = r
        else:
            lo = r
        step_ok = ev.derivative > 0.0 and math.isfinite(ev.derivative)
        r_newton = r - f / ev.derivative if step_ok else None
        if r_newton is not None and lo < r_newton < hi:
            r = r_newton
        else:
            r = 0.5 * (lo + hi)
    ev = forward(r, kind, cj, ck)
    if abs(ev.value - tau_hat) <= 10.0 * NEWTON_TOL:
        return InversionResult(r, False, iterations)
    raise BridgeInversionError(
        f"no convergence after {NEWTON_MAX_ITER} iterations: kind={kind}, tau_hat={tau_hat}, "
        f"residual={ev.value - tau_hat:.3e}"
    )
