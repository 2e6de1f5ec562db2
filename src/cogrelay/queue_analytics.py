"""Steady-state queue analytics for the primary user and the relay buffer.

Both queues are finite birth-death chains embedded at slot boundaries.
The primary queue sees Bernoulli arrivals and departs with the success
probability the relay layer provides; the relay buffer fills from
overheard primary packets and drains according to the access policy.
The two chains are coupled through the primary departure rate, which
``evaluate_policy`` resolves by scanning the coupled map for every
self-consistent rate and refining each with Brent's method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from .link_model import LinkBudget, SystemConfig, link_budget

__all__ = [
    "AccessPolicy",
    "RelaySteadyState",
    "PolicyEvaluation",
    "pu_busy_probability",
    "pu_blocking_probability",
    "min_departure_rate",
    "relay_departure_probs",
    "relay_steady_state",
    "pu_departure_from_relay",
    "evaluate_policy",
]

_GAMMA_UNIT_TOL = 1e-9  # treat the birth-death ratio as exactly 1 below this
_FLOOR_SLACK = 1e-9  # an equilibrium this far below the floor still meets it
_SCAN_UNIT = np.linspace(0.0, 1.0, 129)  # uniform part of the scan grid
_SCAN_MID = 64  # _SCAN_UNIT[_SCAN_MID] is exactly 0.5


@dataclass(frozen=True)
class AccessPolicy:
    """Relay transmission-sharing probabilities, indexed by buffer level.

    ``probs[n]`` is the probability the secondary shares its second
    phase (relay plus own packet) when the buffer holds ``n`` packets.
    The empty state has nothing to relay, so ``probs[0]`` must be 1 by
    convention: the full second phase goes to the secondary's own
    packet.
    """

    probs: Tuple[float, ...]

    def __init__(self, probs: Sequence[float]):
        probs = tuple(float(p) for p in probs)
        if len(probs) < 2:
            raise ValueError("probs: need at least levels 0 and 1")
        if probs[0] != 1.0:
            raise ValueError(f"probs: level-0 entry must be exactly 1.0, got {probs[0]}")
        for n, p in enumerate(probs):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probs: entry {n} out of [0, 1], got {p}")
        object.__setattr__(self, "probs", probs)

    @property
    def capacity(self) -> int:
        return len(self.probs) - 1


def _pu_point_mass(lam: float, mu: float, n_p: int) -> Optional[int]:
    """The level holding all the primary queue's mass, if one does.

    Slot order is service then arrival, which makes the one-step
    probabilities P(0 -> 1) = lam, P(n -> n-1) = mu * (1 - lam) and
    P(n -> n+1) = (1 - mu) * lam for interior n.  The chain degenerates
    in three cases: lam = 0 pins the queue empty; mu = 0 with lam > 0
    absorbs at full; lam = 1 with mu < 1 also absorbs at full, while
    lam = mu = 1 alternates through level 1 every slot.  Returns None
    for the generic chain.
    """
    if lam == 0.0:
        return 0
    if mu == 0.0 or (lam == 1.0 and mu < 1.0):
        return n_p
    if lam == 1.0:
        return 1
    return None


def _pu_scalars(lam: float, mu: float, n_p: int):
    """(busy, full) of the primary chain, O(1) and overflow safe."""
    level = _pu_point_mass(lam, mu, n_p)
    if level is not None:
        return float(level > 0), float(level == n_p)
    gamma = lam * (1.0 - mu) / ((1.0 - lam) * mu)
    rho1 = lam / ((1.0 - lam) * mu)
    if abs(gamma - 1.0) < _GAMMA_UNIT_TOL:
        total = 1.0 + rho1 * n_p
        return 1.0 - 1.0 / total, rho1 / total
    if gamma < 1.0:
        total = 1.0 + rho1 * (1.0 - gamma ** n_p) / (1.0 - gamma)
        return 1.0 - 1.0 / total, rho1 * gamma ** (n_p - 1) / total
    # gamma > 1: divide the whole sum by gamma**(n_p - 1) so that the
    # dominant term is O(1) even for huge capacities.
    inv = 1.0 / gamma
    log_top = (n_p - 1) * math.log(gamma)
    lead = math.exp(-log_top) if log_top < 700.0 else 0.0
    denom = lead + rho1 * (1.0 - inv ** n_p) / (1.0 - inv)
    return 1.0 - lead / denom, rho1 / denom


def pu_busy_probability(arrival_rate: float, departure_rate: float,
                        capacity: int) -> float:
    """P(queue nonempty at a slot start)."""
    return _pu_scalars(arrival_rate, departure_rate, capacity)[0]


def pu_blocking_probability(arrival_rate: float, departure_rate: float,
                            capacity: int) -> float:
    """P(queue full at a slot start), the arrival-loss probability."""
    return _pu_scalars(arrival_rate, departure_rate, capacity)[1]


@lru_cache(maxsize=16384)
def min_departure_rate(arrival_rate: float, capacity: int,
                       loss_threshold: float) -> Optional[float]:
    """Smallest departure rate keeping the blocking below the threshold.

    Blocking decreases continuously in the departure rate, so a plain
    bisection on (0, 1] suffices.  Returns 0.0 when there is nothing
    to clear (no arrivals), and None when even a unit departure rate
    cannot push the blocking under ``loss_threshold``.
    """
    lam = arrival_rate
    if lam == 0.0:
        return 0.0
    if _pu_scalars(lam, 1.0, capacity)[1] > loss_threshold:
        return None
    lo, hi = 1e-9, 1.0
    if _pu_scalars(lam, lo, capacity)[1] <= loss_threshold:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # floats collapsed, done
            break
        if _pu_scalars(lam, mid, capacity)[1] > loss_threshold:
            lo = mid
        else:
            hi = mid
    return hi


def relay_departure_probs(policy: AccessPolicy, budget: LinkBudget) -> Tuple[float, ...]:
    """Per-level relay departure probabilities for occupied levels.

    Entry ``n - 1`` applies to buffer level ``n``: with probability
    ``probs[n]`` the phase is shared (success ``theta_sd_shared``),
    otherwise the relay gets the whole phase (success ``theta_sd``).
    """
    full, shared = budget.theta_sd, budget.theta_sd_shared
    return tuple(full - p * (full - shared) for p in policy.probs[1:])


@dataclass(frozen=True)
class RelaySteadyState:
    """Stationary law of the relay buffer at the end of the receiving phase."""

    occupancy: Tuple[float, ...]
    departure_probs: Tuple[float, ...]
    arrival_prob: float


def relay_steady_state(arrival_prob: float,
                       departure_probs: Sequence[float]) -> RelaySteadyState:
    """Birth-death solve of the relay buffer.

    The buffer gains at most one packet per slot (an overheard primary
    packet, probability ``arrival_prob``) and loses at most one (a
    successful relay transmission).  The detailed-balance ratio between
    adjacent levels gives a product form.  If some occupied level has a
    zero departure probability while arrivals continue, everything
    below that level drains away: the product form is restarted at the
    highest such level and only the segment above it keeps mass.
    """
    q = arrival_prob
    r = tuple(float(x) for x in departure_probs)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"arrival_prob: must lie in [0, 1], got {q}")
    for n, x in enumerate(r):
        if not 0.0 <= x <= 1.0:
            raise ValueError(f"departure_probs: entry {n} out of [0, 1], got {x}")
    vals = [1.0]
    for n in range(1, len(r) + 1):
        up = q if n == 1 else q * (1.0 - r[n - 2])
        down = (1.0 - q) * r[n - 1]
        if down == 0.0:
            if up == 0.0:
                # level n is unreachable and nothing above it can fill:
                # chain is truncated here
                vals.extend([0.0] * (len(r) + 1 - n))
                break
            # absorbing boundary: all mass ends at or above level n
            vals = [0.0] * len(vals) + [1.0]
            continue
        nxt = vals[-1] * up / down
        if nxt > 1e280:  # rescale before the product form overflows
            vals = [v / nxt for v in vals]
            nxt = 1.0
        vals.append(nxt)
    total = math.fsum(vals)
    occ = tuple(v / total for v in vals)
    return RelaySteadyState(occupancy=occ, departure_probs=r, arrival_prob=q)


def pu_departure_from_relay(budget: LinkBudget, relay: RelaySteadyState) -> float:
    """Primary departure probability given the relay's stationary state.

    A primary packet leaves either directly (receiving-phase success to
    the destination) or by capture at the secondary, which only counts
    as a departure if the relay buffer can eventually forward it: a
    full buffer that also fails to transmit this slot refuses the
    packet.
    """
    direct = budget.theta_pd
    capture = budget.capture
    pi_full = relay.occupancy[-1]
    r_full = relay.departure_probs[-1]
    return direct + capture * (1.0 - pi_full * (1.0 - r_full))


@dataclass(frozen=True)
class PolicyEvaluation:
    """Coupled steady state of one policy.

    ``equilibria`` lists every self-consistent primary departure rate
    found, in increasing order.  ``mu_p``, ``mu_s``, ``relay_state``,
    ``pu_busy`` and ``pu_full`` describe the one of them that
    ``evaluate_policy`` reports (the nearest to the middle of the rate
    interval, on the side the map points to); the last two are the
    primary queue's busy and full (arrival-loss) probabilities there.
    ``floor_margin`` is the lowest equilibrium minus the protection
    floor, less a 1e-9 slack, and -inf when no rate meets the loss
    threshold.  ``feasible`` is ``floor_margin >= 0``: every
    equilibrium meets the floor.
    """

    mu_p: float
    mu_s: float
    relay_state: RelaySteadyState
    pu_busy: float
    pu_full: float
    feasible: bool
    equilibria: Tuple[float, ...]
    floor_margin: float


def _brent(f, a, b, fa, fb, xtol=1e-12, rtol=4 * np.finfo(float).eps):
    """Root of ``f`` in [a, b], where f(a) and f(b) differ in sign.

    Brent's method (Brent 1973, ch. 4): inverse quadratic or secant
    steps while they shrink the bracket fast enough, bisection
    otherwise, so the bracket never grows and convergence is certain.
    """
    pre, cur, f_pre, f_cur = a, b, fa, fb
    blk, f_blk, s_pre, s_cur = a, fa, 0.0, 0.0
    for _ in range(200):
        if f_pre * f_cur < 0.0:
            blk, f_blk = pre, f_pre
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + rtol * abs(cur))
        s_bis = 0.5 * (blk - cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return cur
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if pre == blk:  # secant
                s_try = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:  # inverse quadratic interpolation
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                s_try = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (
                    d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
                s_pre, s_cur = s_cur, s_try
            else:
                s_pre = s_cur = s_bis
        else:
            s_pre = s_cur = s_bis
        pre, f_pre = cur, f_cur
        cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(cur)
    return cur


def _implied_rates(mu, lam, n_p, budget, r, implied_rate):
    """The fixed-point map at every rate in the array ``mu`` at once.

    Vectorized restatement of ``implied_rate`` for the generic case.
    The primary busy probability is 1 / (1 + 1 / (rho1 * S)) with the
    geometric sum S = expm1(n_p log gamma) / (gamma - 1), which needs
    no overflow guard.  The relay's full-buffer mass is 1 / sum_j d_j
    y**j with y = (1 - q) / q and d_j the product, over the top j
    levels n, of r_n / (1 - r_(n-1)).  Wherever an edge case makes
    this form undefined (mu = 0, lam = 1, gamma = 1, or a departure
    probability of 0 or 1 meeting q in {0, 1}), the entry is
    recomputed by the scalar map, which owns those conventions.
    """
    capture = budget.capture
    rr = np.asarray(r)
    below = np.concatenate(([0.0], rr[:-1]))
    with np.errstate(all="ignore"):
        gamma = lam * (1.0 - mu) / ((1.0 - lam) * mu)
        rho1 = lam / ((1.0 - lam) * mu)
        geo = np.expm1(n_p * np.log(gamma)) / (gamma - 1.0)
        q = capture / (1.0 + 1.0 / (rho1 * geo))
        d = np.cumprod(np.concatenate(([1.0], (rr / (1.0 - below))[::-1])))
        y = (1.0 - q) / q
        pi_full = 1.0 / ((y[:, None] ** np.arange(len(d))) @ d)
        rates = budget.theta_pd + capture * (1.0 - pi_full * (1.0 - rr[-1]))
    for i in np.flatnonzero(~np.isfinite(rates)):
        rates[i] = implied_rate(float(mu[i]))
    return rates


def _equilibria(lam, n_p, budget, r, floor, implied_rate):
    """Every root of g(mu) = implied_rate(mu) - mu, and the reported one.

    The map's values stay inside [theta_pd, theta_pd + capture], so
    that interval holds every equilibrium.  A vectorized scan over a
    uniform grid, with the protection floor and mu = lam added as grid
    points (at huge primary buffers the busy probability jumps across
    mu = lam), brackets the sign changes, and Brent's method refines
    each bracket.  Roots closer together than one scan cell are not
    told apart.  Returns (sorted roots, reported root).

    The reported root is the one a process started at the middle of
    the interval reaches, moving the way g points: since the map is
    nondecreasing, that is the smallest root above the middle when
    g(mid) > 0, the largest root below it when g(mid) < 0, and the
    middle itself when g(mid) = 0.
    """
    lo = budget.theta_pd
    hi = lo + budget.capture
    if hi <= lo:
        return (lo,), lo
    grid = lo + (hi - lo) * _SCAN_UNIT
    mid = float(grid[_SCAN_MID])
    grid = np.append(grid, [x for x in (floor, lam)
                            if x is not None and lo < x < hi])
    sign = np.sign(_implied_rates(grid, lam, n_p, budget, r, implied_rate)
                   - grid)
    toward = sign[_SCAN_MID]
    order = np.argsort(grid, kind="stable")
    grid, sign = grid[order], sign[order]
    # the map cannot leave the interval, so g(lo) >= 0 >= g(hi); keep
    # rounding at the ends from hiding a root there
    sign[0], sign[-1] = max(sign[0], 0.0), min(sign[-1], 0.0)

    def g(mu):
        return implied_rate(mu) - mu

    roots = [float(x) for x in grid[sign == 0.0]]
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0):
        a, b = float(grid[i]), float(grid[i + 1])
        fa, fb = g(a), g(b)
        if fa * fb < 0.0:
            roots.append(_brent(g, a, b, fa, fb))
        else:  # the scalar map puts the sign change on a grid point
            roots.append(a if abs(fa) <= abs(fb) else b)
    roots = tuple(sorted(set(roots)))
    if toward > 0.0:
        return roots, min(x for x in roots if x >= mid)
    if toward < 0.0:
        return roots, max(x for x in roots if x <= mid)
    return roots, mid


def evaluate_policy(config: SystemConfig,
                    policy: AccessPolicy) -> PolicyEvaluation:
    """Resolve the coupled primary/relay rates for a fixed policy.

    The primary departure rate and the relay buffer law determine each
    other: given mu_p, the primary busy probability fixes the relay
    arrival rate, the relay solve yields the buffer law, and the
    refusal correction yields the implied rate T(mu_p).  T is
    nondecreasing and maps [theta_pd, theta_pd + capture] into itself,
    so it has at least one fixed point there, but it can have several:
    a fuller relay refuses more captures, which slows the primary,
    which keeps the relay fuller.

    Every fixed point is bracketed by a scan of T(mu) - mu and refined
    by Brent's method; all of them are returned in ``equilibria``.
    The reported state sits at the one reached from the middle of the
    interval by moving the way T points (see ``_equilibria``).  Which
    one the system settles in depends on where it starts, so
    ``feasible`` requires every equilibrium to meet the protection
    floor.
    """
    if policy.capacity != config.relay_queue_capacity:
        raise ValueError(
            f"probs: policy covers levels 0..{policy.capacity} but "
            f"relay_queue_capacity is {config.relay_queue_capacity}")
    b = link_budget(config)
    lam = config.pu_arrival_rate
    n_p = config.pu_queue_capacity
    r = relay_departure_probs(policy, b)
    capture = b.capture

    def relay_at(mu):
        q = pu_busy_probability(lam, mu, n_p) * capture
        return relay_steady_state(q, r)

    def implied_rate(mu):
        return pu_departure_from_relay(b, relay_at(mu))

    floor = min_departure_rate(lam, n_p, config.loss_threshold)
    equilibria, mu = _equilibria(lam, n_p, b, r, floor, implied_rate)
    busy, full = _pu_scalars(lam, mu, n_p)
    relay = relay_steady_state(busy * capture, r)
    shared = sum(pi_n * p_n for pi_n, p_n
                 in zip(relay.occupancy[1:], policy.probs[1:]))
    mu_s = b.theta_sr * relay.occupancy[0] + b.theta_sr_shared * shared
    margin = (-math.inf if floor is None
              else equilibria[0] - (floor - _FLOOR_SLACK))
    return PolicyEvaluation(mu_p=mu, mu_s=mu_s, relay_state=relay,
                            pu_busy=busy, pu_full=full,
                            feasible=margin >= 0.0, equilibria=equilibria,
                            floor_margin=margin)
