"""Slot-level Monte Carlo simulation of the two-phase relay protocol.

Independent of the analytic layer: the only shared inputs are the
link budget and the policy.  Used as the empirical oracle for the
stationary distributions and throughputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .link_model import LinkBudget, SystemConfig, link_budget
from .queue_analytics import AccessPolicy, evaluate_policy

__all__ = ["SimStats", "simulate", "compare"]

_BLOCK = 1 << 16


@dataclass(frozen=True)
class SimStats:
    """Counts from one simulation run, post warm-up.

    ``slots`` is the number of counted slots; both histograms sum to
    it.  ``relay_queue_histogram`` has one entry per relay level;
    ``pu_queue_histogram`` runs from primary level 0 to the highest
    level visited, so its length is at most the slots run plus one,
    whatever the capacity.  ``measured_mu_p`` is departures per busy
    slot, ``measured_mu_s`` deliveries per slot,
    ``measured_block_fraction`` drops per arrival.  Final queue levels
    make conservation checks exact when run without warm-up.
    """

    slots: int
    pu_arrivals: int
    pu_drops: int
    su_packets_delivered: int
    pu_queue_histogram: Tuple[int, ...]
    relay_queue_histogram: Tuple[int, ...]
    measured_mu_p: float
    measured_mu_s: float
    measured_block_fraction: float
    rng_seed: int
    final_pu_queue: int
    final_relay_queue: int


def simulate(config: SystemConfig, policy: AccessPolicy, n_slots: int,
             seed: int, warmup_slots: int = 10_000,
             budget: Optional[LinkBudget] = None) -> SimStats:
    """Run the per-slot protocol for warmup_slots + n_slots slots.

    Slot layout, with exactly six uniform draws per slot in fixed
    order (pd, ps, share, relay, own, arrival) so the stream position
    never depends on which branches fire:

      1. receiving phase: head primary packet (if any) reaches the
         destination w.p. theta_pd; otherwise the secondary captures
         it w.p. theta_ps, admitted only if its buffer had room at the
         start of the phase.  Either way the packet leaves the primary
         queue on success.
      2. the relay buffer level is recorded (end of receiving phase).
      3. relaying phase: empty buffer means the secondary sends its
         own packet with the full phase; otherwise the phase is
         time-shared w.p. probs[level] (relay and own packet both get
         their shared-duration success probabilities) or devoted to
         the relayed packet alone.
      4. a primary arrival lands w.p. the arrival rate, service first,
         dropped only if the queue is still full.

    The RNG is counter-based (Philox) keyed by ``seed`` alone, drawn
    in blocks of ``_BLOCK`` slots; identical inputs give identical
    stats bit for bit.

    Each block's uniforms are classified with numpy into one integer
    outcome code per slot, packing the bits u_pd < theta_pd,
    u_ps < theta_ps, u_relay < theta_sd_shared, u_relay < theta_sd and
    u_arr < lambda_p above the rank of u_share among the policy's
    distinct levels (level n shares iff that rank is at most the index
    of probs[n]).  Two tables, built once per call and indexed by code
    and relay level, give the next relay level and the primary queue's
    change with the primary queue busy, and the next relay level and
    primary level with it empty.  The Python loop only walks (primary
    level, relay level) through these tables; every count is then
    recovered from the recorded trajectory with numpy, block by block.

    ``budget`` overrides ``link_budget(config)``, so that tests can set
    link probabilities directly (theta_pd = 1, theta_ps = 0, ...).
    """
    if n_slots < 1:
        raise ValueError(f"n_slots: must be >= 1, got {n_slots}")
    if warmup_slots < 0:
        raise ValueError(f"warmup_slots: must be >= 0, got {warmup_slots}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed: must be a non-negative integer, got {seed!r}")
    if policy.capacity != config.relay_queue_capacity:
        raise ValueError(
            f"probs: policy covers levels 0..{policy.capacity} but "
            f"relay_queue_capacity is {config.relay_queue_capacity}")
    b = budget if budget is not None else link_budget(config)
    lam = config.pu_arrival_rate
    n_p, n_s = config.pu_queue_capacity, config.relay_queue_capacity
    n_k = n_s + 1
    probs = np.array(policy.probs)
    levels = np.unique(probs[1:])
    q = np.searchsorted(levels, probs)  # level n shares iff q[n] >= rank

    # code bits from the lowest: pd, ps, relay < theta_sd_shared,
    # relay < theta_sd, arrival; the share rank sits above them
    c_code, level = np.meshgrid(np.arange(32 * (len(levels) + 1)),
                                np.arange(n_k), indexing="ij")
    c_pd, c_ps, c_rb, c_rf, c_arr = (c_code >> i & 1 for i in range(5))
    c_rank = c_code >> 5

    def relay_phase(k):
        sent = np.where(q[k] >= c_rank, c_rb, c_rf)
        return np.where(k > 0, k - sent, 0)

    pairs = [(k, d) for k in range(n_k) for d in (-1, 0, 1)]

    def table(next_k, d):
        # row code * n_k + level; the rows share the 3 * n_k tuples in
        # pairs, so a table with many codes allocates no tuples
        return list(map(pairs.__getitem__,
                        (3 * next_k + d + 1).ravel().tolist()))

    c_cap = (1 - c_pd) * c_ps * (level < n_s)
    # (next relay level, primary level change) with the primary busy,
    busy_table = table(relay_phase(level + c_cap), c_arr - (c_pd | c_cap))
    # and (next relay level, next primary level) with it empty
    empty_table = table(relay_phase(level), c_arr)

    rng = np.random.Generator(np.random.Philox(seed))
    m = 0  # primary queue level
    k = 0  # relay buffer level
    w_hist = np.zeros(0, np.int64)
    pi_hist = np.zeros(n_k, np.int64)
    arrivals = drops = delivered = departures = busy = 0

    total = warmup_slots + n_slots
    done = 0
    while done < total:
        u = rng.random((min(_BLOCK, total - done), 6))
        pd = u[:, 0] < b.theta_pd
        ps = u[:, 1] < b.theta_ps
        rank = np.searchsorted(levels, u[:, 2], side="right")
        arr = u[:, 5] < lam
        code = (rank * 32 + arr * 16 + (u[:, 3] < b.theta_sd) * 8
                + (u[:, 3] < b.theta_sd_shared) * 4 + ps * 2 + pd)
        states = []  # m * n_k + k at the start of each slot
        record = states.append
        for c in (code * n_k).tolist():
            record(m * n_k + k)
            if m:
                k, step = busy_table[c + k]
                m += step
                if m > n_p:
                    m = n_p
            else:
                k, m = empty_table[c + k]

        start = max(warmup_slots - done, 0)
        done += len(u)
        if start >= len(u):
            continue
        m_start, k_start = np.divmod(
            np.fromiter(states[start:], np.int64, len(u) - start), n_k)
        pd, ps, rank, arr = pd[start:], ps[start:], rank[start:], arr[start:]
        u_own = u[start:, 4]
        serving = m_start > 0
        capture = serving & ~pd & ps & (k_start < n_s)
        departed = serving & (pd | capture)
        k_mid = k_start + capture
        share = (k_mid > 0) & (q[k_mid] >= rank)
        busy += int(np.count_nonzero(serving))
        departures += int(np.count_nonzero(departed))
        delivered += int(np.count_nonzero(
            (k_mid == 0) & (u_own < b.theta_sr)
            | share & (u_own < b.theta_sr_shared)))
        arrivals += int(np.count_nonzero(arr))
        drops += int(np.count_nonzero(arr & (m_start - departed == n_p)))
        lo = int(m_start.min())
        seen = np.bincount(m_start - lo)
        top = lo + len(seen)
        if top > len(w_hist):  # grows with the levels visited, not n_p
            w_hist = np.pad(w_hist, (0, top - len(w_hist)))
        w_hist[lo:top] += seen
        pi_hist += np.bincount(k_mid, minlength=n_k)

    return SimStats(
        slots=n_slots,
        pu_arrivals=arrivals,
        pu_drops=drops,
        su_packets_delivered=delivered,
        pu_queue_histogram=tuple(w_hist.tolist()),
        relay_queue_histogram=tuple(pi_hist.tolist()),
        measured_mu_p=departures / busy if busy else 0.0,
        measured_mu_s=delivered / n_slots,
        measured_block_fraction=drops / arrivals if arrivals else 0.0,
        rng_seed=seed,
        final_pu_queue=m,
        final_relay_queue=k,
    )


def compare(config: SystemConfig, policy: AccessPolicy, n_slots: int,
            seeds, warmup_slots: int = 10_000) -> dict:
    """Analytic-versus-empirical gap report over one or more seeds.

    For each seed: total variation between the empirical and analytic
    relay occupancy, plus gaps on the full-queue probability and both
    throughputs.  Half-widths are three-sigma binomial errors at the
    analytic rates (and the generic 3/sqrt(n) scale for the TV
    distance); ``within`` flags whether every gap sits inside its
    half-width.  The gaps are taken at the reported equilibrium
    ``analytic["mu_p"]``; ``analytic["equilibria"]`` lists every
    self-consistent primary departure rate of the policy.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds: need at least one")
    ev = evaluate_policy(config, policy)
    pi = ev.relay_state.occupancy
    n_p = config.pu_queue_capacity

    def halfwidth(p, n):
        return 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n) if n else math.inf

    per_seed = []
    for seed in seeds:
        stats = simulate(config, policy, n_slots, seed,
                         warmup_slots=warmup_slots)
        emp_pi = [c / stats.slots for c in stats.relay_queue_histogram]
        tv = 0.5 * sum(abs(e - a) for e, a in zip(emp_pi, pi))
        hist = stats.pu_queue_histogram
        emp_full = (hist[n_p] if n_p < len(hist) else 0) / stats.slots
        busy = stats.slots - hist[0]
        gaps = {
            "seed": seed,
            "tv_relay": tv,
            "hw_tv": 3.0 / math.sqrt(stats.slots),
            "gap_full": abs(emp_full - ev.pu_full),
            "hw_full": halfwidth(ev.pu_full, stats.slots),
            "gap_mu_p": abs(stats.measured_mu_p - ev.mu_p),
            "hw_mu_p": halfwidth(ev.mu_p, busy),
            "gap_mu_s": abs(stats.measured_mu_s - ev.mu_s),
            "hw_mu_s": halfwidth(ev.mu_s, stats.slots),
            "measured_mu_p": stats.measured_mu_p,
            "measured_mu_s": stats.measured_mu_s,
        }
        gaps["within"] = (gaps["tv_relay"] <= gaps["hw_tv"]
                          and gaps["gap_full"] <= gaps["hw_full"]
                          and gaps["gap_mu_p"] <= gaps["hw_mu_p"]
                          and gaps["gap_mu_s"] <= gaps["hw_mu_s"])
        per_seed.append(gaps)

    return {
        "analytic": {"mu_p": ev.mu_p, "mu_s": ev.mu_s,
                     "full": ev.pu_full,
                     "relay_occupancy": list(pi),
                     "equilibria": list(ev.equilibria)},
        "per_seed": per_seed,
        "max_tv_relay": max(g["tv_relay"] for g in per_seed),
        "max_gap_mu_p": max(g["gap_mu_p"] for g in per_seed),
        "max_gap_mu_s": max(g["gap_mu_s"] for g in per_seed),
        "all_within": all(g["within"] for g in per_seed),
    }
