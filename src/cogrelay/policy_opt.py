"""Access-policy searches: the exact LP sweep and two restricted searches.

The exact search fixes a target primary departure rate, at which the
relay balance equations become linear in the pair (occupancy, shared
occupancy), solves the resulting LP for each of 200 targets, and
keeps the best vertex whose policy re-evaluates to a feasible
equilibrium at the LP's own score.  The grid's LPs share everything
but two rate-dependent terms, so they are solved as one family: the
last optimal basis is tested on a whole block of grid rates at once,
and where it stops being optimal one certified dual simplex pivot
moves it to the next basis, so a search usually pays for one or two
cold solves.  The restricted searches use a single constant sharing
probability (a scan of it up to its feasibility edge, refined there)
or a threshold rule (enumeration up to the first infeasible
threshold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import lp_core
from .link_model import SystemConfig, link_budget
from .queue_analytics import (AccessPolicy, PolicyEvaluation, _brent,
                              evaluate_policy, min_departure_rate,
                              pu_busy_probability)

__all__ = [
    "OptimizationResult",
    "SweepPoint",
    "feasible_mu_p_range",
    "attainable_mu_p_range",
    "build_lp",
    "optimal_policy",
    "cpt_policy",
    "st_policy",
]

_PAD = 1e-9  # widens the attainable window past fixed-point tolerance noise
_GRID_POINTS = 200  # target rates of the exact search, window ends included
_BLOCK = 16  # grid rates whose LP rows are built and tested together
_SCORE_TOL = 1e-6  # LP score vs. re-evaluated throughput, to accept a vertex
_CPT_STEPS = 64  # the CPT scan scores p = k / _CPT_STEPS
_EDGE_TOL = 1e-12  # bracket width left around a CPT feasibility edge


class SweepPoint(NamedTuple):
    mu_p: float
    objective: float
    status: str
    share_prob: float = math.nan  # the p a CPT point scored


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of one policy search.

    ``status`` is "ok" when a policy was found whose independent
    fixed-point evaluation (``evaluation``) is feasible at every one of
    its equilibria; for the exact search it also reproduces the
    search's own score ``objective`` within 1e-6.  "pu_infeasible"
    means no target departure rate can protect the primary (the regime
    where secondary throughput is zero by necessity); "unverified"
    means the exact search found LP vertices but none passed that
    check.  Only "ok" carries a policy.  ``diagnostics`` records every
    candidate the search looked at.
    """

    method: str
    status: str
    policy: Optional[AccessPolicy]
    evaluation: Optional[PolicyEvaluation]
    swept_mu_p: float
    objective: float
    diagnostics: Tuple[SweepPoint, ...]

    @property
    def mu_s(self) -> float:
        return self.evaluation.mu_s if self.evaluation is not None else 0.0


def _infeasible(method, diagnostics=()):
    return OptimizationResult(method=method, status="pu_infeasible",
                              policy=None, evaluation=None,
                              swept_mu_p=math.nan, objective=0.0,
                              diagnostics=tuple(diagnostics))


def feasible_mu_p_range(config: SystemConfig):
    """Closed-form interval of admissible target departure rates.

    The upper end is the departure rate with the relay always able to
    accept; the lower end is the larger of the protection floor and the
    rate when a saturated relay only ever transmits in shared slots.
    Returns (lo, hi), or None when the interval is empty (including
    the case where no departure rate meets the loss threshold).
    """
    b = link_budget(config)
    floor = min_departure_rate(config.pu_arrival_rate,
                               config.pu_queue_capacity,
                               config.loss_threshold)
    if floor is None:
        return None
    capture = b.capture
    lo = max(floor, b.theta_pd + capture * b.theta_sd_shared)
    hi = b.theta_pd + capture
    if lo > hi:
        return None
    return (lo, hi)


def attainable_mu_p_range(config: SystemConfig):
    """Sub-interval of the closed-form range a stationary policy can hit.

    The closed-form interval treats the relay occupancy as free, but
    under any fixed policy the occupancy is itself determined by the
    departure rate, so only rates between the always-share and
    never-share fixed points are realizable.  At light primary load
    that window is extremely narrow (both extremes leave the relay
    nearly empty), and a grid over the full closed-form interval would
    step straight over it.  The sweep therefore runs over the
    intersection of the two intervals; by continuity in the policy,
    every interior point of the window is realizable, hence feasible
    for the target-rate LP.  Returns (lo, hi) or None when empty.

    The ends are the *reported* equilibria (``evaluate_policy(...).mu_p``)
    of the always-share and never-share policies.  The bounds that hold
    for every policy are the least fixed point of always-share and the
    greatest fixed point of never-share; where either policy has
    several equilibria the window can be narrower than those bounds.
    On all 132 bundled sweep cells both policies have one equilibrium,
    so the two agree there.
    """
    rng = feasible_mu_p_range(config)
    if rng is None:
        return None
    n_s = config.relay_queue_capacity
    always = evaluate_policy(config, _uniform_policy(1.0, n_s))
    never = evaluate_policy(config, _step_policy(0, n_s))
    lo = max(rng[0], always.mu_p - _PAD)
    hi = min(rng[1], never.mu_p + _PAD)
    if lo > hi:
        return None
    return (lo, hi)


def build_lp(config: SystemConfig, mu_p: float) -> lp_core.LpProblem:
    """Relay-occupancy LP at one pinned primary departure rate.

    Variables are [occupancy pi_0..pi_N, shared mass a_0..a_N] where
    a_n = pi_n * p_n.  The balance equations between adjacent buffer
    levels, the normalization, the pinned-rate consistency row and the
    sharing-budget rows are all affine in (pi, a), and the objective
    (secondary throughput) is linear, so the best policy at this rate
    is an LP vertex.  The search builds the same rows for a block of
    rates at once (``_pinned_rate_rows``); this is the block of one.
    """
    b = link_budget(config)
    a_eq, b_eq = _pinned_rate_rows(config, b, [mu_p])
    objective, ineq, bounds = _rate_free_parts(config, b)
    return lp_core.LpProblem(objective, (a_eq[0], b_eq[0]), ineq, bounds)


def _rate_free_parts(config, budget):
    """Objective, sharing-budget rows and bounds: the same at every rate."""
    m = config.relay_queue_capacity + 1
    objective = np.zeros(2 * m)
    objective[m] = budget.theta_sr
    objective[m + 1:] = budget.theta_sr_shared
    levels = np.arange(1, m)
    a_ub = np.zeros((m, 2 * m))
    a_ub[0, m:] = 1.0  # shared mass is a probability
    a_ub[levels, m + levels] = 1.0
    a_ub[levels, levels] = -1.0  # cannot share more often than the level occurs
    b_ub = np.zeros(m)
    b_ub[0] = 1.0
    return objective, (a_ub, b_ub), ((0.0, 1.0),) * (2 * m)


def _pinned_rate_rows(config, budget, mu):
    """Equality rows and right-hand sides, stacked over the rates ``mu``.

    Only the capture probability into the relay, q = busy(mu) * capture,
    and the consistency row's right-hand side depend on the rate.
    """
    n_s = config.relay_queue_capacity
    m = n_s + 1
    b = budget
    capture = b.capture
    if capture <= 0.0:
        raise ValueError("mu_p: no relay path exists (capture probability is 0)")
    mu = np.asarray(mu, dtype=float)
    q = np.array([pu_busy_probability(config.pu_arrival_rate, rate,
                                      config.pu_queue_capacity)
                  for rate in mu.tolist()]) * capture
    sd, shared_gap = b.theta_sd, b.theta_sd - b.theta_sd_shared

    a_eq = np.zeros((mu.size, n_s + 3, 2 * m))
    a_eq[:, 0, :m] = 1.0  # occupancy sums to one
    a_eq[:, 1, m] = 1.0
    a_eq[:, 1, 0] = -1.0  # empty buffer always leaves the phase unshared
    # balance across the n/n+1 cut is row 2 + n
    cuts = np.arange(n_s)
    a_eq[:, 2 + cuts, cuts + 1] = (sd * (1.0 - q))[:, None]
    a_eq[:, 2 + cuts, m + cuts + 1] = (-shared_gap * (1.0 - q))[:, None]
    a_eq[:, 2, 0] = -q
    inner = cuts[1:]
    a_eq[:, 2 + inner, inner] = (-q * (1.0 - sd))[:, None]
    a_eq[:, 2 + inner, m + inner] = (-q * shared_gap)[:, None]
    # consistency with the pinned rate: the refused fraction at a full
    # buffer must equal what the rate implies
    a_eq[:, n_s + 2, n_s] = 1.0 - sd
    a_eq[:, n_s + 2, m + n_s] = shared_gap
    b_eq = np.zeros((mu.size, n_s + 3))
    b_eq[:, 0] = 1.0
    b_eq[:, n_s + 2] = 1.0 - (mu - b.theta_pd) / capture
    return a_eq, b_eq


def optimal_policy(config: SystemConfig) -> OptimizationResult:
    """Grid sweep of the pinned-rate LP; best verified objective wins.

    The grid is ``_GRID_POINTS`` rates spread uniformly over the
    attainable target-rate window, endpoints included.  The grid's LPs
    differ only in their rate-dependent rows, which are built
    ``_BLOCK`` rates at a time, and are solved in ascending rate order
    by ``lp_core.solve_family``: the last optimal basis is tested on
    the rest of the block at once, a point where it stops being
    optimal takes one dual simplex pivot from it when the new basis is
    certified as the unique optimum there, and only the first point
    and the points without that certificate pay for a cold simplex
    solve.  A point whose solve is numerically degenerate is dropped
    as "unstable".  Each LP vertex is converted back to sharing
    probabilities (p_n = a_n / pi_n, with p_n = 0 where the level is
    unreachable) and re-evaluated through the fixed point.  The LP
    only certifies that its target rate is one equilibrium of the
    policy; the policy can have others below the floor, or settle
    elsewhere.  So candidates are tried in descending objective order
    (ties toward the smaller rate) and the first whose evaluation is
    feasible and reproduces the LP score within ``_SCORE_TOL`` is
    returned.  When none does the status is "unverified" and no policy
    is returned.

    With a capture probability of 0 the relay never fills, every
    policy scores the same and there is no LP to build; the never-share
    policy (the threshold search's tie-break) is evaluated instead.
    """
    b = link_budget(config)
    window = attainable_mu_p_range(config)
    if window is None:
        return _infeasible("lp")
    if b.capture <= 0.0:
        policy = _step_policy(0, config.relay_queue_capacity)
        evaluation = evaluate_policy(config, policy)
        if not evaluation.feasible:
            return _infeasible("lp")
        return OptimizationResult(method="lp", status="ok", policy=policy,
                                  evaluation=evaluation,
                                  swept_mu_p=evaluation.mu_p,
                                  objective=evaluation.mu_s, diagnostics=())
    grid = np.linspace(window[0], window[1], _GRID_POINTS)
    blocks = (_pinned_rate_rows(config, b, grid[i:i + _BLOCK])
              for i in range(0, grid.size, _BLOCK))
    lp_objective, ineq_constraints, bounds = _rate_free_parts(config, b)
    diagnostics = []
    candidates = []
    for mu_p, sol in zip(grid.tolist(), lp_core.solve_family(
            lp_objective, blocks, ineq_constraints, bounds)):
        if isinstance(sol, RuntimeError):
            # numerically degenerate grid point (window edges can sit a
            # hair outside exact feasibility); drop it, keep sweeping
            diagnostics.append(SweepPoint(mu_p, -math.inf, "unstable"))
            continue
        obj = sol.objective_value if sol.status == "optimal" else -math.inf
        diagnostics.append(SweepPoint(mu_p, obj, sol.status))
        if sol.status == "optimal":
            candidates.append((mu_p, obj, sol.values))
    if not candidates:
        return _infeasible("lp", diagnostics)
    m = config.relay_queue_capacity + 1
    # stable sort: equal objectives keep their ascending-rate order
    for mu_p, objective, values in sorted(candidates, key=lambda c: -c[1]):
        pi, a = values[:m], values[m:]
        probs = [1.0]
        for n in range(1, m):
            if pi[n] > 1e-14:
                probs.append(min(1.0, max(0.0, a[n] / pi[n])))
            else:
                probs.append(0.0)
        policy = AccessPolicy(probs)
        evaluation = evaluate_policy(config, policy)
        if (evaluation.feasible
                and abs(evaluation.mu_s - objective) <= _SCORE_TOL):
            return OptimizationResult(method="lp", status="ok", policy=policy,
                                      evaluation=evaluation, swept_mu_p=mu_p,
                                      objective=objective,
                                      diagnostics=tuple(diagnostics))
    return OptimizationResult(method="lp", status="unverified", policy=None,
                              evaluation=None, swept_mu_p=math.nan,
                              objective=0.0, diagnostics=tuple(diagnostics))


def _uniform_policy(p: float, n_s: int) -> AccessPolicy:
    return AccessPolicy((1.0,) + (float(p),) * n_s)


def _step_policy(n_th: int, n_s: int) -> AccessPolicy:
    return AccessPolicy((1.0,) + tuple(1.0 if n <= n_th else 0.0
                                       for n in range(1, n_s + 1)))


def cpt_policy(config: SystemConfig) -> OptimizationResult:
    """Best constant sharing probability: a scan of p and its edge.

    Feasibility holds on a prefix of p.  Sharing swaps the relay's
    success probability theta_sd for theta_sd_shared <= theta_sd, so
    more sharing lowers the relay departure probability r_n at every
    level.  That raises every ratio pi_n / pi_{n-1} of the relay chain
    and the refused mass pi_N (1 - r_N), so the implied rate T(mu)
    falls at every mu.  T is nondecreasing in mu, and the least fixed
    point of a nondecreasing map falls with the map (Tarski), so the
    lowest equilibrium, which decides feasibility, falls as p grows.

    So the scan scores p = k / 64 up to the first infeasible point.
    Brent's method, then bisection, narrows the edge between it and the
    scan point below to ``_EDGE_TOL`` and keeps its feasible end; when
    p = 0 is infeasible, so is every p.  At the defaults all 65 scan
    points are feasible and there is no edge.
    The best point scored wins, ties going to the smaller p.  An
    optimum between scan points away from the edge (no bundled sweep
    cell has one) is not refined: it is returned within half a scan
    step (1/128 in p), as the best scan point.  ``diagnostics`` lists
    every scored p in order, with status "scan" or "edge".  An empty
    target window holds no equilibrium, so then nothing is scored.
    """
    if feasible_mu_p_range(config) is None:
        return _infeasible("cpt")
    n_s = config.relay_queue_capacity
    scored = {}  # p -> (score, evaluation, status)

    def score(p, status):
        if p not in scored:
            ev = evaluate_policy(config, _uniform_policy(p, n_s))
            scored[p] = (ev.mu_s if ev.feasible else -math.inf, ev, status)
        return scored[p][0]

    def edge(ok, bad):
        # the lowest equilibrium can jump down where a new one appears,
        # so the bracket, not a root, locates the edge; both of its ends
        # are scored, and the feasible one is the candidate
        bracket = [ok, bad]

        def margin(p):  # positive exactly where p is feasible
            score(p, "edge")
            gap = scored[p][1].floor_margin
            bracket[gap < 0.0] = p
            return max(gap, 1e-18) if gap >= 0.0 else gap

        _brent(margin, ok, bad, margin(ok), margin(bad), xtol=_EDGE_TOL)
        while abs(bracket[1] - bracket[0]) > _EDGE_TOL:
            margin(0.5 * (bracket[0] + bracket[1]))

    grid = [k / _CPT_STEPS for k in range(_CPT_STEPS + 1)]
    for k, p in enumerate(grid):
        if score(p, "scan") == -math.inf:
            if k > 0:
                edge(grid[k - 1], p)
            break
    diagnostics = tuple(SweepPoint(ev.mu_p, val, status, p)
                        for p, (val, ev, status) in sorted(scored.items()))
    best = max(diagnostics, key=lambda d: (d.objective, -d.share_prob))
    if best.objective == -math.inf:
        return _infeasible("cpt", diagnostics)
    ev = scored[best.share_prob][1]
    return OptimizationResult(method="cpt", status="ok",
                              policy=_uniform_policy(best.share_prob, n_s),
                              evaluation=ev, swept_mu_p=ev.mu_p,
                              objective=best.objective,
                              diagnostics=diagnostics)


def st_policy(config: SystemConfig) -> OptimizationResult:
    """Best threshold rule: share at buffer levels up to the threshold.

    Enumerates thresholds 0..capacity; threshold 0 never shares at any
    occupied level, threshold = capacity is the all-ones policy.  Ties
    go to the smaller threshold.  A higher threshold shares at one more
    level, where the relay's success probability drops from theta_sd to
    theta_sd_shared <= theta_sd.  As in ``cpt_policy``, that lowers the
    implied rate T(mu) at every mu and with it the lowest equilibrium,
    so feasibility holds on a prefix of thresholds and the enumeration
    stops at the first infeasible one.
    """
    n_s = config.relay_queue_capacity
    diagnostics = []
    best = None
    for n_th in range(0, n_s + 1):
        policy = _step_policy(n_th, n_s)
        ev = evaluate_policy(config, policy)
        val = ev.mu_s if ev.feasible else -math.inf
        diagnostics.append(SweepPoint(ev.mu_p, val, f"threshold_{n_th}"))
        if not ev.feasible:
            break
        if best is None or val > best[1]:
            best = (n_th, val, policy, ev)
    if best is None:
        return _infeasible("st", diagnostics)
    n_th, val, policy, ev = best
    return OptimizationResult(method="st", status="ok", policy=policy,
                              evaluation=ev, swept_mu_p=ev.mu_p,
                              objective=val, diagnostics=tuple(diagnostics))
