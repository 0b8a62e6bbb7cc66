"""Renyi-DP accounting for Poisson-subsampled Gaussian releases.

Implements the standard integer-order upper bound on the RDP of the
subsampled Gaussian mechanism,

    RDP(lambda) = log( sum_{k=0}^{lambda} C(lambda,k) (1-q)^(lambda-k) q^k
                       exp(k(k-1) / (2 sigma^2)) ) / (lambda - 1),

evaluated in log space for a prefix of the orders at once: the terms of
every order sit on one (order, k) grid whose log-binomial coefficients are
built at import and whose sigma-free terms are built for the rows a prefix
reads and cached for the last few q, and one masked log-sum-exp per row
gives the curve, so the first n orders cost n rows and have the bits of the
full curve's first n entries. Curves are composed additively over release
events and converted to (eps, delta) by minimizing

    eps(lambda) = RDP_total(lambda) + log((lambda - 1) / lambda)
                  - (log(delta) + log(lambda)) / (lambda - 1)

over the integer order grid 2..256, clamped at 0. This is the conversion of
Balle et al. 2020, "Hypothesis testing interpretations and Renyi
differential privacy", Thm 21 (also Canonne, Kamath & Steinke 2020). It is
a sound bound and, at every order, tighter than the classic
RDP + log(1/delta) / (lambda - 1).

At integer orders the binomial sum is the exact Renyi divergence of the
subsampled Gaussian (Mironov, Talwar & Zhang 2019), and a Renyi divergence
is nondecreasing in its order (van Erven & Harremoes 2014). A ledger
therefore evaluates a prefix of the orders and bounds every order past it
from below by the RDP at the prefix's last order plus the smallest
conversion term among the later orders; it grows the prefix only while
that floor could undercut the prefix's minimum. Calibration inverts the
composition by bisecting a single noise scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, CalibrationInfeasible, ContractViolation

__all__ = [
    "CALIBRATION_MAX_ITER",
    "CALIBRATION_REL_TOL",
    "DEFAULT_ORDERS",
    "PrivacyLedger",
    "ReleaseEvent",
    "calibrate_sigma",
    "effective_sigma",
    "rdp_subsampled_gaussian",
    "release_sigma",
    "schedule_ledger",
]

DEFAULT_ORDERS: tuple[int, ...] = tuple(range(2, 257))
_ORDERS_ARR = np.array(DEFAULT_ORDERS, dtype=np.float64)

# calibration stops once eps is within this share of the target, and gives
# up after this many evaluations
CALIBRATION_REL_TOL = 1e-3
CALIBRATION_MAX_ITER = 200

ROLE_FIRST = "first"
ROLE_GDR = "gdr"
ROLE_DPSGD = "dpsgd"
_ROLES = (ROLE_FIRST, ROLE_GDR, ROLE_DPSGD)

# The binomial sums of every order on one (order, k) grid: row i holds the
# terms of order DEFAULT_ORDERS[i], column k = 0..256. Entries with k > order
# (_ABOVE) lie outside the sum; their finite placeholders are masked per call.
_K = np.arange(257.0)
_KK1 = _K * (_K - 1.0)
_NK = _ORDERS_ARR[:, None] - _K
_ABOVE = _NK < 0
_LOG_FACT = np.array([math.lgamma(i + 1) for i in range(257)])
_LOG_BINOM = (
    _LOG_FACT[_ORDERS_ARR.astype(np.intp), None]
    - _LOG_FACT
    - _LOG_FACT[np.maximum(_NK, 0.0).astype(np.intp)]
)


@functools.lru_cache(maxsize=8)
def _sigma_free_terms(q: float, count: int = len(DEFAULT_ORDERS)) -> np.ndarray:
    """The sigma-free part of the first ``count`` rows of the (order, k)
    grid at 0 < q < 1, read-only: a calibration evaluates many sigmas at the
    same few q and prefixes. Elementwise, so each row has the bits of the
    full grid's row, and a ledger that doubles its prefix builds the longer
    prefix then."""
    terms = _LOG_BINOM[:count] + _K * math.log(q) + _NK[:count] * math.log1p(-q)
    terms.setflags(write=False)
    return terms


def _validate_q(q: float) -> None:
    if not 0.0 <= q <= 1.0:
        raise ContractViolation(f"sampling ratio must be in [0, 1], got {q!r}")


def _validate_sigma(sigma: float) -> None:
    if not math.isfinite(sigma) or sigma <= 0:
        raise ContractViolation(f"noise multiplier must be positive, got {sigma!r}")


def _validate_role(role: str) -> None:
    if role not in _ROLES:
        raise ContractViolation(f"unknown schedule role {role!r}")


def rdp_subsampled_gaussian(q: float, sigma: float, order: int) -> float:
    """RDP of one Poisson-subsampled Gaussian release at an integer order >= 2."""
    _validate_q(q)
    _validate_sigma(sigma)
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ContractViolation(f"order must be an integer, got {order!r}")
    if order < 2:
        raise ContractViolation(f"order must be >= 2, got {order}")
    if order > 256:
        raise ContractViolation(f"order {order} beyond the supported grid (max 256)")
    return float(_rdp_vector(q, sigma, order - 1)[order - 2])


def _rdp_vector(q: float, sigma: float, count: int = len(DEFAULT_ORDERS)) -> np.ndarray:
    """RDP at the first ``count`` orders of DEFAULT_ORDERS; q and sigma
    already validated.

    One masked log-sum-exp over the first ``count`` rows of the (order, k)
    grid. Each order is its own row, so the result is bit for bit the first
    ``count`` entries of the full curve. An order whose largest term
    overflows (a tiny sigma) has RDP inf.
    """
    if q == 0.0:
        return np.zeros(count)
    orders = _ORDERS_ARR[:count]
    two_var = 2.0 * sigma * sigma
    # for a tiny sigma, k(k-1) / (2 sigma^2) overflows to inf (or is 0/0 once
    # 2 sigma^2 underflows); the orders it reaches get RDP inf below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if q == 1.0:
            return orders / two_var
        gauss = _KK1 / two_var
    log_terms = _sigma_free_terms(q, count) + gauss
    np.copyto(log_terms, -np.inf, where=_ABOVE[:count])
    peak = log_terms.max(axis=1)
    overflowed = ~np.isfinite(peak)
    log_terms[overflowed] = 0.0
    peak[overflowed] = 0.0
    log_terms -= peak[:, None]
    log_total = peak + np.log(np.sum(np.exp(log_terms, out=log_terms), axis=1))
    # the sum is >= 1 analytically; clamp rounding residue
    rdp = np.maximum(log_total / (orders - 1.0), 0.0)
    rdp[overflowed] = np.inf
    return rdp


def effective_sigma(sigma_perp: float, sigma_alpha: float) -> float:
    """Multiplier of the single Gaussian mechanism equivalent to jointly
    releasing two unit-sensitivity blocks with independent noise:
    1/sigma_eff^2 = 1/sigma_perp^2 + 1/sigma_alpha^2."""
    _validate_sigma(sigma_perp)
    _validate_sigma(sigma_alpha)
    if sigma_perp == sigma_alpha:
        # keep the symmetric case bit-exact
        return sigma_perp / math.sqrt(2.0)
    return 1.0 / math.sqrt(1.0 / (sigma_perp * sigma_perp) + 1.0 / (sigma_alpha * sigma_alpha))


def release_sigma(role: str, sigma_g: float, sigma_perp: float, sigma_alpha: float) -> float:
    """Multiplier a release of schedule ``role`` is accounted at: ``sigma_g``
    for "first" and "dpsgd" releases, effective_sigma(sigma_perp, sigma_alpha)
    for "gdr" releases, and 0.0 (no privacy) when either gdr channel is silent.
    Any other role raises ContractViolation."""
    _validate_role(role)
    if role != ROLE_GDR:
        return sigma_g
    if sigma_perp <= 0 or sigma_alpha <= 0:
        return 0.0
    return effective_sigma(sigma_perp, sigma_alpha)


@dataclass(frozen=True)
class ReleaseEvent:
    """``steps`` identical subsampled-Gaussian releases at ratio ``q`` and
    effective multiplier ``sigma_eff``."""

    q: float
    sigma_eff: float
    steps: int = 1

    def __post_init__(self):
        _validate_q(self.q)
        _validate_sigma(self.sigma_eff)
        if isinstance(self.steps, bool) or not isinstance(self.steps, (int, np.integer)):
            raise ContractViolation(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ContractViolation(f"steps must be >= 1, got {self.steps}")


# the delta-free parts of the conversion, at every order of DEFAULT_ORDERS
_LOG1P_NEG_INV = np.log1p(-1.0 / _ORDERS_ARR)
_LOG_ORDERS = np.log(_ORDERS_ARR)


def _eps_from_rdp(rdp: np.ndarray, delta: float) -> np.ndarray:
    """(eps, delta)-DP bound implied at each of the first ``rdp.size`` orders
    of DEFAULT_ORDERS by the RDP curve ``rdp``.

    Balle et al. 2020, Thm 21. A negative value is clamped to 0, since
    (eps < 0, delta)-DP implies (0, delta)-DP. Elementwise, so a prefix of
    the orders gets the bits of the full grid's prefix.
    """
    n = rdp.size
    eps = rdp + _LOG1P_NEG_INV[:n] - (math.log(delta) + _LOG_ORDERS[:n]) / (_ORDERS_ARR[:n] - 1.0)
    return np.maximum(eps, 0.0)


@functools.lru_cache(maxsize=4)
def _conversion_floor(delta: float) -> np.ndarray:
    """Entry i is the smallest unclamped conversion term
    log1p(-1/lambda) - (log(delta) + log(lambda)) / (lambda - 1) over the
    orders of DEFAULT_ORDERS from index i on. Read-only, computed once per
    delta."""
    terms = _LOG1P_NEG_INV - (math.log(delta) + _LOG_ORDERS) / (_ORDERS_ARR - 1.0)
    floor = np.minimum.accumulate(terms[::-1])[::-1]
    floor.setflags(write=False)
    return floor


# A ledger evaluates the first _PREFIX_ORDERS orders and doubles that prefix
# while an order past it could hold the minimum. The floor of the unevaluated
# orders must clear the prefix minimum by _FLOOR_MARGIN times the size of the
# terms: the accumulated RDP, the conversion terms (at most 1 + |log delta|)
# and one per step, since a computed curve may fall with the order by a few
# ulp of 1 (the log-sum-exp's rounding residue where the RDP is below it).
_PREFIX_ORDERS = 16
_FLOOR_MARGIN = 1e-9


class PrivacyLedger:
    """Ordered record of release events with accumulated RDP per order.

    Append mutates under exclusive access and also returns the ledger for
    chaining. Accumulated RDP is additive over events, so the query result
    is the same for any append order up to rounding; its bits follow the
    append order. Orders are :data:`DEFAULT_ORDERS`.

    The ledger keeps its accumulated RDP, and one per-step curve per
    (q, sigma), on a prefix of the orders. :meth:`epsilon` grows the prefix
    only while an order past it could hold the minimum, and
    :meth:`rdp_values` grows it to every order; a grown prefix is
    accumulated afresh from the events, in append order. Queries return the
    same results whatever the prefix, while these caches grow.
    """

    def __init__(self, delta: float):
        if not 0.0 < delta < 1.0:
            raise ContractViolation(f"delta must be in (0, 1), got {delta!r}")
        self.delta = float(delta)
        self.orders = DEFAULT_ORDERS
        self.events: list[ReleaseEvent] = []
        self._rdp = np.zeros(_PREFIX_ORDERS)
        self._steps = 0
        self._curves: dict[tuple[float, float], np.ndarray] = {}

    def _per_step(self, event: ReleaseEvent) -> np.ndarray:
        """The event's per-step curve on the current prefix."""
        key = (event.q, event.sigma_eff)
        curve = self._curves.get(key)
        if curve is None or curve.size < self._rdp.size:
            curve = _rdp_vector(event.q, event.sigma_eff, self._rdp.size)
            self._curves[key] = curve
        return curve

    def append(self, event: ReleaseEvent) -> "PrivacyLedger":
        # steps times a finite curve may overflow to inf, the sound answer
        with np.errstate(over="ignore"):
            self._rdp += event.steps * self._per_step(event)
        self._steps += event.steps
        self.events.append(event)
        return self

    def _grow(self, count: int) -> None:
        """Evaluate the first ``count`` orders: every event again, in append
        order, from zero."""
        self._rdp = np.zeros(count)
        with np.errstate(over="ignore"):  # as in append
            for event in self.events:
                self._rdp += event.steps * self._per_step(event)

    def rdp_values(self) -> np.ndarray:
        if self._rdp.size < len(self.orders):
            self._grow(len(self.orders))
        return self._rdp.copy()

    def epsilon(self) -> tuple[float, int]:
        """(eps, minimizing order) at the ledger's delta."""
        if not self.events:
            raise ContractViolation("cannot convert an empty ledger")
        floor = _conversion_floor(self.delta)
        while True:
            eps = _eps_from_rdp(self._rdp, self.delta)
            idx = int(np.argmin(eps))
            count, last = self._rdp.size, float(self._rdp[-1])
            # every later order has RDP >= last, so eps >= last + floor[count]
            scale = last + 1.0 - math.log(self.delta) + self._steps
            if (
                count == len(self.orders)
                or last == math.inf
                or last + floor[count] - _FLOOR_MARGIN * scale > eps[idx]
            ):
                return float(eps[idx]), self.orders[idx]
            self._grow(min(2 * count, len(self.orders)))


def schedule_ledger(
    schedule: list[tuple[float, int, str]],
    delta: float,
    sigma_perp: float,
    sigma_alpha: float,
    ratio_g: float,
) -> PrivacyLedger:
    """Ledger of a release schedule of (q, steps, role) entries, each
    accounted at :func:`release_sigma` with sigma_g = ratio_g * sigma_perp."""
    ledger = PrivacyLedger(delta)
    for q, steps, role in schedule:
        sigma = release_sigma(role, ratio_g * sigma_perp, sigma_perp, sigma_alpha)
        ledger.append(ReleaseEvent(q, sigma, steps))
    return ledger


def calibrate_sigma(
    eps_target: float,
    delta: float,
    schedule: list[tuple[float, int, str]],
    sigma_alpha: float,
    ratio_g: float = 1.0,
) -> tuple[float, float]:
    """Find (sigma_perp, sigma_g) whose eps at delta lies in
    [eps_target - tol, eps_target], tol = CALIBRATION_REL_TOL * eps_target.

    One scale s is bisected with sigma_perp = s and sigma_g = ratio_g * s,
    accounted by :func:`schedule_ledger`. sigma_alpha is fixed by the caller.

    Raises CalibrationInfeasible when the target lies below what the fixed
    sigma_alpha (or the order grid) can ever reach, CalibrationError when
    bracketing/bisection does not converge within CALIBRATION_MAX_ITER
    evaluations.
    """
    if not math.isfinite(eps_target) or eps_target <= 0:
        raise ContractViolation(f"eps target must be positive, got {eps_target!r}")
    if not 0.0 < delta < 1.0:
        raise ContractViolation(f"delta must be in (0, 1), got {delta!r}")
    if not schedule:
        raise ContractViolation("schedule must be non-empty")
    _validate_sigma(sigma_alpha)
    if not math.isfinite(ratio_g) or ratio_g <= 0:
        raise ContractViolation(f"ratio_g must be positive, got {ratio_g!r}")
    for q, steps, role in schedule:
        _validate_q(q)
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 1:
            raise ContractViolation(f"schedule steps must be integers >= 1, got {steps!r}")
        _validate_role(role)

    # the conversion of a vanishing RDP curve: what an unbounded scale approaches
    grid_floor = max(float(_conversion_floor(delta)[0]), 0.0)
    if eps_target <= grid_floor:
        raise CalibrationInfeasible(
            f"eps target {eps_target:g} is at or below the conversion floor "
            f"{grid_floor:.6g} of the order grid (max order {max(DEFAULT_ORDERS)})",
            grid_floor,
        )
    gdr_entries = [(q, steps) for q, steps, role in schedule if role == ROLE_GDR]
    if gdr_entries:
        floor_ledger = PrivacyLedger(delta)
        for q, steps in gdr_entries:
            floor_ledger.append(ReleaseEvent(q, sigma_alpha, steps))
        floor_eps = floor_ledger.epsilon()[0]
        if floor_eps >= eps_target:
            raise CalibrationInfeasible(
                f"eps target {eps_target:g} is unattainable: the alpha channel alone "
                f"(sigma_alpha={sigma_alpha:g}) already spends eps={floor_eps:.6g}",
                floor_eps,
            )

    tol = CALIBRATION_REL_TOL * eps_target
    # lo: the largest scale seen whose eps is above the target; hi: the
    # smallest seen below it. Double lo until the target is bracketed (or
    # halve hi), then bisect. A scale is returned only if its eps is at most
    # the target and within tol of it, and only at scale 1 or once the target
    # is met or bracketed, never on a scale passed while halving toward it.
    lo = hi = None
    scale = 1.0
    for i in range(CALIBRATION_MAX_ITER):
        e = schedule_ledger(schedule, delta, scale, sigma_alpha, ratio_g).epsilon()[0]
        if e > eps_target:
            lo = scale
        elif e < eps_target:
            hi = scale
        may_stop = i == 0 or e == eps_target or (lo is not None and hi is not None)
        if may_stop and eps_target - tol <= e <= eps_target:
            return scale, ratio_g * scale
        if hi is None:
            scale = 2.0 * lo
        elif lo is None:
            scale = 0.5 * hi
        else:
            scale = 0.5 * (lo + hi)
    raise CalibrationError(
        f"calibration did not converge within {CALIBRATION_MAX_ITER} iterations"
    )
