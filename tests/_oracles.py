"""Independent oracles used by the test suite.

Everything here is built from first principles (explicit transition
matrices, exhaustive enumeration, vectorized restatements) so that
agreement with the package is evidence rather than tautology.
"""

import dataclasses
import itertools
import math

import numpy as np

from cogrelay import evaluate_policy, link_budget, lp_core
from cogrelay.mc_sim import _BLOCK, SimStats
from cogrelay.policy_opt import (_SCORE_TOL, OptimizationResult, SweepPoint,
                                 _infeasible, _step_policy, _uniform_policy,
                                 attainable_mu_p_range, feasible_mu_p_range)
from cogrelay.queue_analytics import (AccessPolicy, _brent, min_departure_rate,
                                     pu_busy_probability)


def stationary(P):
    """Stationary row vector of a stochastic matrix via a linear solve."""
    n = P.shape[0]
    A = np.vstack([P.T - np.eye(n), np.ones((1, n))])
    b = np.zeros(n + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    return sol


def pu_transition_matrix(lam, mu, n_p):
    """One-slot primary queue kernel: service first, then arrival.

    From level m > 0 the head packet departs with probability mu; an
    arrival then lands with probability lam and is dropped only if the
    queue is still full.
    """
    P = np.zeros((n_p + 1, n_p + 1))
    for m in range(n_p + 1):
        for s in ((0, 1.0 - mu), (1, mu)) if m > 0 else ((0, 1.0),):
            after = m - s[0]
            for a, pa in ((0, 1.0 - lam), (1, lam)):
                P[m, min(after + a, n_p)] += s[1] * pa
    return P


def relay_transition_matrix(q, r):
    """One-slot relay buffer kernel at the end-of-capture epoch.

    q is the capture probability, r[k] the departure probability at
    level k + 1.  Within a slot the relaying phase drains first, then
    the next capture lands, refused only if the buffer is still full.
    """
    n_s = len(r)
    P = np.zeros((n_s + 1, n_s + 1))
    P[0, 0] = 1.0 - q
    if n_s:
        P[0, 1] = q
    for k in range(1, n_s + 1):
        dep = r[k - 1]
        P[k, k - 1] += dep * (1.0 - q)
        P[k, k] += dep * q
        if k < n_s:
            P[k, k] += (1.0 - dep) * (1.0 - q)
            P[k, k + 1] += (1.0 - dep) * q
        else:
            P[k, k] += 1.0 - dep
    return P


def joint_transition_matrices(lam, n_p, theta_pd, theta_ps, r):
    """Phase kernels of the (primary level, relay level) pair.

    State m * (n_s + 1) + k holds primary level m and relay level k; r[k]
    is the relay departure probability at level k + 1.  Events follow
    the simulator's slot order.  ``receive`` is the receiving phase: the
    head primary packet (if any) reaches the destination w.p. theta_pd;
    otherwise the secondary captures it w.p. theta_ps, refused when the
    relay is full.  ``drain`` is the rest of the slot: the relay sends
    its head packet w.p. r[k - 1], then a primary arrival lands w.p.
    lam, dropped at a full queue.  The one-slot kernel is
    ``receive @ drain``; the simulator's relay histogram is taken
    between the two.
    """
    n_s = len(r)
    size = (n_p + 1) * (n_s + 1)
    receive = np.zeros((size, size))
    for m in range(n_p + 1):
        for k in range(n_s + 1):
            i = m * (n_s + 1) + k
            if m == 0:
                receive[i, i] = 1.0
                continue
            receive[i, i - (n_s + 1)] += theta_pd
            captured = (1.0 - theta_pd) * theta_ps
            if k < n_s:
                receive[i, i - (n_s + 1) + 1] += captured
            else:
                receive[i, i] += captured
            receive[i, i] += (1.0 - theta_pd) * (1.0 - theta_ps)
    arrive = np.zeros((n_p + 1, n_p + 1))
    for m in range(n_p + 1):
        arrive[m, min(m + 1, n_p)] += lam
        arrive[m, m] += 1.0 - lam
    send = np.eye(n_s + 1)
    for k in range(1, n_s + 1):
        send[k, k] -= r[k - 1]
        send[k, k - 1] += r[k - 1]
    return receive, np.kron(arrive, send)


def joint_relay_occupancy(lam, n_p, theta_pd, theta_ps, r):
    """Exact stationary relay law at the end of the receiving phase.

    Stationary law of the one-slot joint kernel (one balance row traded
    for the normalization, then a dense solve), pushed through the
    receiving phase and summed over the primary level.
    """
    receive, drain = joint_transition_matrices(lam, n_p, theta_pd,
                                               theta_ps, r)
    kernel = receive @ drain
    A = kernel.T - np.eye(len(kernel))
    A[-1] = 1.0
    b = np.zeros(len(kernel))
    b[-1] = 1.0
    start = np.linalg.solve(A, b)
    return (start @ receive).reshape(n_p + 1, len(r) + 1).sum(axis=0)


def brute_force_lp(objective, a_eq, b_eq, a_in, b_in, lo, up, tol=1e-7):
    """Best objective over every basic solution of a bounded LP.

    Returns (best_value, feasible_found).  Slack variables are added
    for the inequalities; bases are enumerated exhaustively with the
    nonbasic variables pinned to their finite bounds, so this is only
    usable for small instances.
    """
    objective = np.asarray(objective, dtype=float)
    n = len(objective)
    a_eq = np.asarray(a_eq, dtype=float).reshape(len(b_eq), n)
    a_in = np.asarray(a_in, dtype=float).reshape(len(b_in), n)
    m_in = len(b_in)
    big_a = np.zeros((len(b_eq) + m_in, n + m_in))
    big_a[:len(b_eq), :n] = a_eq
    big_a[len(b_eq):, :n] = a_in
    big_a[len(b_eq):, n:] = np.eye(m_in)
    rhs = np.concatenate([np.asarray(b_eq, dtype=float),
                          np.asarray(b_in, dtype=float)])
    lo_f = np.concatenate([np.asarray(lo, dtype=float), np.zeros(m_in)])
    up_f = np.concatenate([np.asarray(up, dtype=float),
                           np.full(m_in, np.inf)])
    c_f = np.concatenate([objective, np.zeros(m_in)])
    N, M = n + m_in, len(rhs)
    if M == 0:
        x = np.where(c_f > 0, up_f, lo_f)
        return float(c_f @ x), True

    best = -np.inf
    found = False
    for basis in itertools.combinations(range(N), M):
        B = big_a[:, basis]
        if abs(np.linalg.det(B)) < 1e-12:
            continue
        nonbasic = [j for j in range(N) if j not in basis]
        choices = [[lo_f[j]] + ([up_f[j]] if np.isfinite(up_f[j]) else [])
                   for j in nonbasic]
        for vals in itertools.product(*choices):
            xn = np.array(vals)
            xb = np.linalg.solve(B, rhs - big_a[:, nonbasic] @ xn)
            if (np.any(xb < lo_f[list(basis)] - tol)
                    or np.any(xb > up_f[list(basis)] + tol)):
                continue
            found = True
            v = float(c_f[list(basis)] @ xb + c_f[nonbasic] @ xn)
            if v > best:
                best = v
    return best, found


class GridEvaluator:
    """Vectorized fixed-point evaluation over many access policies.

    Restates the coupled primary/relay iteration with numpy arrays so
    that an exhaustive policy grid is affordable.  Valid only while
    every departure probability stays positive and the capture rate
    stays below one, which holds at the baseline link budget; the
    caller is expected to cross-check a sample against the package
    evaluator (the acceptance suite does).
    """

    def __init__(self, budget, lam, n_p, floor):
        self.b = budget
        self.lam = lam
        self.n_p = n_p
        self.floor = floor
        self.capture = budget.theta_ps * (1.0 - budget.theta_pd)

    def _busy(self, mu):
        lam, n_p = self.lam, self.n_p
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            g = lam * (1.0 - mu) / ((1.0 - lam) * mu)
            rho1 = lam / ((1.0 - lam) * mu)
            near1 = np.abs(g - 1.0) < 1e-9
            gn = g ** n_p
            tail = np.where(near1, rho1 * n_p,
                            rho1 * (gn - 1.0) / np.where(near1, 1.0, g - 1.0))
        return 1.0 - 1.0 / (1.0 + tail)

    def evaluate(self, P, iterations=2000):
        """P has shape (M, n_s): access probabilities for levels >= 1.

        Returns (mu_s, mu_p, feasible) arrays of length M.
        """
        b = self.b
        r = b.theta_sd - P * (b.theta_sd - b.theta_sd_shared)
        mu = np.full(P.shape[0], b.theta_pd + 0.5 * self.capture)
        pi = None
        for _ in range(iterations):
            q = self._busy(mu) * self.capture
            up = np.empty_like(r)
            up[:, 0] = q
            if r.shape[1] > 1:
                up[:, 1:] = q[:, None] * (1.0 - r[:, :-1])
            ratio = up / ((1.0 - q)[:, None] * r)
            upper = np.cumprod(ratio, axis=1)
            tot = 1.0 + upper.sum(axis=1)
            pi = np.concatenate(
                [np.ones((P.shape[0], 1)), upper], axis=1) / tot[:, None]
            mu_next = b.theta_pd + self.capture * (
                1.0 - pi[:, -1] * (1.0 - r[:, -1]))
            if np.abs(mu_next - mu).max() <= 1e-10:
                mu = mu_next
                break
            mu = mu + 0.5 * (mu_next - mu)
        mu_s = b.theta_sr * pi[:, 0] + b.theta_sr_shared * (pi[:, 1:] * P).sum(axis=1)
        return mu_s, mu, mu >= self.floor - 1e-9


def slot_by_slot_simulate(config, policy, n_slots, seed, warmup_slots=10_000,
                          budget=None):
    """``cogrelay.simulate`` restated as one Python branch per event.

    Same signature, draw layout (blocks of ``_BLOCK`` slots, six
    uniforms per slot in the order pd, ps, share, relay, own, arrival)
    and ``SimStats``, so the package's table-driven simulator must
    agree with it field for field.
    """
    if n_slots < 1:
        raise ValueError(f"n_slots: must be >= 1, got {n_slots}")
    if warmup_slots < 0:
        raise ValueError(f"warmup_slots: must be >= 0, got {warmup_slots}")
    if policy.capacity != config.relay_queue_capacity:
        raise ValueError(
            f"probs: policy covers levels 0..{policy.capacity} but "
            f"relay_queue_capacity is {config.relay_queue_capacity}")
    b = budget if budget is not None else link_budget(config)
    th_pd, th_ps = b.theta_pd, b.theta_ps
    th_sd, th_sdb = b.theta_sd, b.theta_sd_shared
    th_sr, th_srb = b.theta_sr, b.theta_sr_shared
    lam = config.pu_arrival_rate
    n_p, n_s = config.pu_queue_capacity, config.relay_queue_capacity
    probs = policy.probs

    rng = np.random.Generator(np.random.Philox(seed))
    m = 0  # primary queue level
    k = 0  # relay buffer level
    w_hist = [0] * (n_p + 1)
    pi_hist = [0] * (n_s + 1)
    arrivals = drops = delivered = departures = busy = 0

    total = warmup_slots + n_slots
    done = 0
    while done < total:
        block = rng.random((min(_BLOCK, total - done), 6)).tolist()
        for u_pd, u_ps, u_share, u_relay, u_own, u_arr in block:
            counting = done >= warmup_slots
            if counting:
                w_hist[m] += 1
            departed = False
            if m > 0:
                if counting:
                    busy += 1
                if u_pd < th_pd:
                    m -= 1
                    departed = True
                elif u_ps < th_ps and k < n_s:
                    m -= 1
                    k += 1
                    departed = True
            if counting:
                pi_hist[k] += 1
                if departed:
                    departures += 1
            if k > 0:
                if u_share < probs[k]:
                    if u_relay < th_sdb:
                        k -= 1
                    if u_own < th_srb and counting:
                        delivered += 1
                elif u_relay < th_sd:
                    k -= 1
            elif u_own < th_sr and counting:
                delivered += 1
            if u_arr < lam:
                if counting:
                    arrivals += 1
                if m < n_p:
                    m += 1
                elif counting:
                    drops += 1
            done += 1

    while w_hist[-1] == 0:  # the histogram ends at the highest level seen
        w_hist.pop()
    return SimStats(
        slots=n_slots,
        pu_arrivals=arrivals,
        pu_drops=drops,
        su_packets_delivered=delivered,
        pu_queue_histogram=tuple(w_hist),
        relay_queue_histogram=tuple(pi_hist),
        measured_mu_p=departures / busy if busy else 0.0,
        measured_mu_s=delivered / n_slots,
        measured_block_fraction=drops / arrivals if arrivals else 0.0,
        rng_seed=seed,
        final_pu_queue=m,
        final_relay_queue=k,
    )


def golden_and_scan_cpt(config):
    """The constant-probability search as first written, kept as a reference.

    Golden section on [0, 1] plus a 1001-point scan of p, about a
    thousand evaluations per search; the package's CPT search must
    never score below it.  What follows is its original description.

    Each candidate p is scored through the self-consistent fixed
    point.  The score is expected to be unimodal in p, so a
    golden-section search does the heavy lifting; a 0.001-step grid
    scan runs alongside as a safety net and wins whenever it finds a
    better point.  Every equilibrium of any policy lies inside the
    closed-form target window, so when that window is empty no policy
    is feasible and nothing is scored.
    """
    if feasible_mu_p_range(config) is None:
        return _infeasible("cpt")
    n_s = config.relay_queue_capacity

    cache = {}

    def score(p):
        key = round(p, 12)
        if key not in cache:
            ev = evaluate_policy(config, _uniform_policy(p, n_s))
            cache[key] = (ev.mu_s if ev.feasible else -math.inf, ev)
        return cache[key][0]

    # golden-section bracket shrink on [0, 1]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, 1.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = score(x1), score(x2)
    for _ in range(60):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = score(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = score(x2)
    golden_p = x1 if f1 >= f2 else x2

    best_p, best_val = golden_p, score(golden_p)
    for k in range(1001):
        p = k / 1000.0
        v = score(p)
        if v > best_val:
            best_p, best_val = p, v
    if not math.isfinite(best_val):
        return _infeasible("cpt")
    _, evaluation = cache[round(best_p, 12)]
    diagnostics = tuple(SweepPoint(cache[round(k / 1000.0, 12)][1].mu_p,
                                   cache[round(k / 1000.0, 12)][0],
                                   "scored")
                        for k in range(0, 1001, 50))
    return OptimizationResult(method="cpt", status="ok",
                              policy=_uniform_policy(best_p, n_s),
                              evaluation=evaluation,
                              swept_mu_p=evaluation.mu_p,
                              objective=best_val,
                              diagnostics=diagnostics)


_CPT_STEPS = 64  # the CPT scan scores p = k / _CPT_STEPS
_EDGE_TOL = 1e-12  # bracket width left around a CPT feasibility edge
_PEAK_TOL = 1e-7  # golden-section bracket width left around the CPT peak
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def scan_edge_golden_cpt(config):
    """CPT with a golden section at its best scan point, kept as a reference.

    The package's ``cpt_policy`` dropped the golden section at the best
    scan point, which never supplied the winning point on any bundled
    cell; it must return the same status, policy, score and
    evaluation as this search.  What follows is its original
    description.

    Best constant sharing probability, in about 100 evaluations.

    A 65-point scan of p (k / 64) is refined twice: Brent's method
    narrows every feasibility edge between scan points to ``_EDGE_TOL``
    and keeps its feasible end, and a golden section narrows the best
    scan point's two neighbouring steps, clipped to the feasible side,
    to ``_PEAK_TOL``.  The best point scored wins, ties going to the
    smaller p.  ``diagnostics`` lists every scored p in order, with
    status "scan", "edge" or "peak".  An empty target window holds no
    equilibrium, so then nothing is scored.
    """
    if feasible_mu_p_range(config) is None:
        return _infeasible("cpt")
    n_s = config.relay_queue_capacity
    # the window is nonempty, so the floor exists; evaluate_policy calls
    # a policy feasible when its lowest equilibrium is >= floor - 1e-9
    level = min_departure_rate(config.pu_arrival_rate,
                               config.pu_queue_capacity,
                               config.loss_threshold) - 1e-9
    scored = {}  # p -> (score, evaluation, status)

    def score(p, status):
        if p not in scored:
            ev = evaluate_policy(config, _uniform_policy(p, n_s))
            scored[p] = (ev.mu_s if ev.feasible else -math.inf, ev, status)
        return scored[p][0]

    def edge(ok, bad):
        # the lowest equilibrium can jump down where a new one appears,
        # so the point kept is the feasible end of the final bracket
        bracket = [ok, bad]

        def margin(p):  # positive exactly where p is feasible
            feasible = score(p, "edge") > -math.inf
            bracket[not feasible] = p
            gap = scored[p][1].equilibria[0] - level
            return max(gap, 1e-18) if feasible else gap

        _brent(margin, ok, bad, margin(ok), margin(bad), xtol=_EDGE_TOL)
        while abs(bracket[1] - bracket[0]) > _EDGE_TOL:
            margin(0.5 * (bracket[0] + bracket[1]))
        return bracket[0]

    grid = [k / _CPT_STEPS for k in range(_CPT_STEPS + 1)]
    ok = [score(p, "scan") > -math.inf for p in grid]
    ends = {k: edge(grid[k], grid[k + 1]) if ok[k]
            else edge(grid[k + 1], grid[k])
            for k in range(_CPT_STEPS) if ok[k] != ok[k + 1]}
    i = max(range(_CPT_STEPS + 1), key=lambda k: (scored[grid[k]][0], -k))
    if ok[i]:
        lo = ends.get(i - 1, grid[max(i - 1, 0)])
        hi = ends.get(i, grid[min(i + 1, _CPT_STEPS)])
        x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
        while hi - lo > _PEAK_TOL:
            if score(x1, "peak") >= score(x2, "peak"):
                hi, x2, x1 = x2, x1, x2 - _INV_PHI * (x2 - lo)
            else:
                lo, x1, x2 = x1, x2, x1 + _INV_PHI * (hi - x1)
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


def row_by_row_lp(config, budget, mu_p):
    """The pinned-rate LP as first written, one row at a time.

    The package builds these rows for a block of rates at once; every
    entry must agree bit for bit.  What follows is its original
    description.

    Relay-occupancy LP at one pinned primary departure rate.

    Variables are [occupancy pi_0..pi_N, shared mass a_0..a_N] where
    a_n = pi_n * p_n.  The balance equations between adjacent buffer
    levels, the normalization, the pinned-rate consistency row and the
    sharing-budget rows are all affine in (pi, a), and the objective
    (secondary throughput) is linear, so the best policy at this rate
    is an LP vertex.
    """
    n_s = config.relay_queue_capacity
    m = n_s + 1
    b = budget
    capture = b.theta_ps * (1.0 - b.theta_pd)
    if capture <= 0.0:
        raise ValueError("mu_p: no relay path exists (capture probability is 0)")
    busy = pu_busy_probability(config.pu_arrival_rate, mu_p,
                               config.pu_queue_capacity)
    q = busy * capture
    sd, shared_gap = b.theta_sd, b.theta_sd - b.theta_sd_shared

    objective = np.zeros(2 * m)
    objective[m] = b.theta_sr
    objective[m + 1:] = b.theta_sr_shared

    a_eq = []
    b_eq = []
    row = np.zeros(2 * m)
    row[:m] = 1.0
    a_eq.append(row)
    b_eq.append(1.0)  # occupancy sums to one
    row = np.zeros(2 * m)
    row[m] = 1.0
    row[0] = -1.0
    a_eq.append(row)
    b_eq.append(0.0)  # empty buffer always leaves the phase unshared
    # balance across the 0/1 cut
    row = np.zeros(2 * m)
    row[1] = sd * (1.0 - q)
    row[0] = -q
    row[m + 1] = -shared_gap * (1.0 - q)
    a_eq.append(row)
    b_eq.append(0.0)
    # balance across the n/n+1 cuts for interior levels
    for n in range(1, n_s):
        row = np.zeros(2 * m)
        row[n + 1] = sd * (1.0 - q)
        row[n] = -q * (1.0 - sd)
        row[m + n + 1] = -shared_gap * (1.0 - q)
        row[m + n] = -q * shared_gap
        a_eq.append(row)
        b_eq.append(0.0)
    # consistency with the pinned rate: the refused fraction at a full
    # buffer must equal what the rate implies
    row = np.zeros(2 * m)
    row[n_s] = 1.0 - sd
    row[m + n_s] = shared_gap
    a_eq.append(row)
    b_eq.append(1.0 - (mu_p - b.theta_pd) / capture)

    a_ub = []
    b_ub = []
    row = np.zeros(2 * m)
    row[m:] = 1.0
    a_ub.append(row)
    b_ub.append(1.0)  # shared mass is a probability
    for n in range(1, m):
        row = np.zeros(2 * m)
        row[m + n] = 1.0
        row[n] = -1.0
        a_ub.append(row)
        b_ub.append(0.0)  # cannot share more often than the level occurs

    return lp_core.LpProblem(
        objective=objective,
        eq_constraints=(np.array(a_eq), np.array(b_eq)),
        ineq_constraints=(np.array(a_ub), np.array(b_ub)),
        bounds=((0.0, 1.0),) * (2 * m),
    )


def carried_basis_solution(problem, basis):
    """The solution ``basis`` gives ``problem`` without a pivot, or None.

    ``basis`` is the ``LpSolution.basis`` of an earlier problem of the
    same shape.  It solves ``problem`` when a phase two started from it
    would stop at once: the basis matrix is regular, the basic values
    lie within their bounds to 1e-8, no column may enter (reduced costs
    to 1e-9) and the rows hold within 1e-6.  One problem at a time, by
    the arithmetic of ``lp_core``'s simplex, for the family solve's
    stacked test to be checked against.
    """
    rows, real_status = basis
    state = _basis_state(problem, rows, real_status)
    if state is None:
        return None
    _, lo, up, x_basic, reduced, n_real = state
    if not (np.all(x_basic >= lo[rows] - 1e-8)
            and np.all(x_basic <= up[rows] + 1e-8)):
        return None
    at_up = real_status == lp_core._AT_UP
    if np.any(((real_status == lp_core._AT_LO) & (reduced < -1e-9))
              | (at_up & (reduced > 1e-9))):
        return None
    x = lo.copy()
    x[:n_real][at_up] = up[:n_real][at_up]
    x[~np.isfinite(x)] = 0.0
    x[rows] = x_basic
    values = x[:problem.n_vars].copy()
    if max(lp_core._residuals(problem, values)) > 1e-6:
        return None
    return lp_core.LpSolution(status="optimal", values=values,
                              objective_value=float(problem.objective @ values),
                              basis=basis)


def one_pivot_solution(problem, basis, margin=1e-7):
    """The solution that one pivot from ``basis`` gives ``problem``, or None.

    ``basis`` is the ``LpSolution.basis`` of an earlier problem of the
    same shape, which ``carried_basis_solution`` refused at ``problem``.
    One problem at a time, textbook steps written out per row, for the
    family solve's repair to be checked against:
    - basic values out of bounds by more than 1e-8 and no column
      eligible: a dual pivot.  The smallest basic index out of bounds
      leaves at the bound it crossed; among the nonbasic real columns
      whose move off their bound pushes it back, the one with the
      smallest |reduced cost / pivot entry| enters, ties within 1e-12
      to the smallest index;
    - anything else, or a basis holding an artificial: None.
    The new basis counts only when ``carried_basis_solution`` accepts it
    and every basic value and nonbasic real reduced cost lies at least
    ``margin`` from its bound or from zero.  The solution then reports
    ``pivots`` (0, 1).
    """
    rows, real_status = basis
    state = _basis_state(problem, rows, real_status)
    if state is None:
        return None
    a, lo, up, x_basic, reduced, n_real = state
    if np.any(rows >= n_real):
        return None
    at_lo = real_status == lp_core._AT_LO
    at_up = real_status == lp_core._AT_UP
    enter = (at_lo & (reduced < -1e-9)) | (at_up & (reduced > 1e-9))
    low = x_basic < lo[rows] - 1e-8
    high = x_basic > up[rows] + 1e-8
    if enter.any() or not (low | high).any():
        return None
    i = min(np.flatnonzero(low | high), key=lambda r: rows[r])
    unit = np.zeros(rows.size)
    unit[i] = 1.0
    alpha = np.linalg.solve(a[:, rows].T, unit) @ a[:, :n_real]
    ratios = {}
    for j in range(n_real):
        if real_status[j] == lp_core._BASIC:
            continue
        # basic value i moves by push per unit step of column j off
        # its bound; a reduced cost a hair on the wrong side counts 0
        direction = 1.0 if at_lo[j] else -1.0
        push = -alpha[j] * direction
        if (push > 1e-9) if low[i] else (push < -1e-9):
            ratios[j] = max(direction * reduced[j], 0.0) / abs(alpha[j])
    if not ratios:
        return None
    least = min(ratios.values())
    q = min(j for j, r in ratios.items() if r <= least + 1e-12)
    new_rows, new_status = rows.copy(), real_status.copy()
    new_status[rows[i]] = lp_core._AT_LO if low[i] else lp_core._AT_UP
    new_rows[i] = q
    new_status[q] = lp_core._BASIC
    new_basis = (new_rows, new_status)
    solution = carried_basis_solution(problem, new_basis)
    if solution is None:
        return None
    _, lo, up, x_basic, reduced, _ = _basis_state(problem, new_rows, new_status)
    gaps = list(x_basic - lo[new_rows]) + list(up[new_rows] - x_basic)
    gaps += [reduced[j] if new_status[j] == lp_core._AT_LO else -reduced[j]
             for j in range(n_real) if new_status[j] != lp_core._BASIC]
    if min(gaps) < margin:
        return None
    return dataclasses.replace(solution, pivots=(0, 1))


def _basis_state(problem, rows, real_status):
    """Rows, column bounds, basic values and real reduced costs of a basis.

    None when the basis matrix is singular.
    """
    a_eq, b_eq = problem.eq_constraints
    a_ub, b_ub = problem.ineq_constraints
    a, b, lo, up, status, n_real = lp_core._standard_form(
        a_eq, b_eq, a_ub, b_ub, problem.bounds)
    status[:n_real] = real_status
    up[n_real:] = 0.0
    xv = np.where(status == lp_core._AT_UP, up, lo)
    xv[rows] = 0.0
    cost = np.zeros(up.size)
    cost[:problem.n_vars] = -problem.objective
    try:
        x_basic = np.linalg.solve(a[:, rows], b - a @ xv)
        y = np.linalg.solve(a[:, rows].T, cost[rows])
    except np.linalg.LinAlgError:
        return None
    return a, lo, up, x_basic, (cost - y @ a)[:n_real], n_real


def warm_started_lp_grid(config):
    """The exact search as it was before the family solve, kept as a reference.

    One grid point at a time, on the LP built row by row
    (``row_by_row_lp``): a point keeps the last optimal basis when that
    basis solves it without a pivot (``carried_basis_solution``), and
    otherwise gets a cold ``lp_core.solve``.  The package's
    ``optimal_policy`` must return a result identical to it,
    diagnostics included.  What follows is its original description.

    Grid sweep of the pinned-rate LP; best verified objective wins.

    The grid is uniform over the attainable target-rate window,
    endpoints included.  Each LP vertex is converted back to sharing
    probabilities (p_n = a_n / pi_n, with p_n = 0 where the level is
    unreachable) and re-evaluated through the fixed point.  The LP
    only certifies that its target rate is one equilibrium of the
    policy; the policy can have others below the floor, or settle
    elsewhere.  So candidates are tried in descending objective order
    (ties toward the smaller rate, so serial and parallel sweeps agree)
    and the first whose evaluation is feasible and reproduces the LP
    score within ``_SCORE_TOL`` is returned.  When none does the status
    is "unverified" and no policy is returned.

    With a capture probability of 0 the relay never fills, every
    policy scores the same and there is no LP to build; the never-share
    policy (the threshold search's tie-break) is evaluated instead.
    """
    b = link_budget(config)
    window = attainable_mu_p_range(config)
    if window is None:
        return _infeasible("lp")
    if b.theta_ps * (1.0 - b.theta_pd) <= 0.0:
        policy = _step_policy(0, config.relay_queue_capacity)
        evaluation = evaluate_policy(config, policy)
        if not evaluation.feasible:
            return _infeasible("lp")
        return OptimizationResult(method="lp", status="ok", policy=policy,
                                  evaluation=evaluation,
                                  swept_mu_p=evaluation.mu_p,
                                  objective=evaluation.mu_s, diagnostics=())
    diagnostics = []
    candidates = []
    basis = None  # last optimal basis; neighbouring rates may keep it
    for mu_p in np.linspace(window[0], window[1], 200):
        problem = row_by_row_lp(config, b, float(mu_p))
        sol = None if basis is None else carried_basis_solution(problem, basis)
        try:
            sol = sol or lp_core.solve(problem)
        except RuntimeError:
            # numerically degenerate grid point (window edges can sit a
            # hair outside exact feasibility); drop it, keep sweeping
            diagnostics.append(SweepPoint(float(mu_p), -math.inf, "unstable"))
            continue
        basis = sol.basis if sol.basis is not None else basis
        obj = sol.objective_value if sol.status == "optimal" else -math.inf
        diagnostics.append(SweepPoint(float(mu_p), obj, sol.status))
        if sol.status == "optimal":
            candidates.append((float(mu_p), obj, sol.values))
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
