"""Independent model solves that the benchmark checks the program against.

Nothing here imports ``cogrelay``.  The link probabilities are the
Rayleigh outage formula restated; the relay buffer and the joint
(primary level, relay level) chain are solved from explicit transition
matrices; the primary queue, which can hold 10**6 packets, is solved
by the cut balance of its explicit birth and death entries, summed in
log space.  Every chain starts empty, so where a chain has transient
levels its law is the one reached from the empty state.
"""

from __future__ import annotations

import math

import numpy as np

THETA_NAMES = ("theta_pd", "theta_ps", "theta_sd", "theta_sd_shared",
               "theta_sr", "theta_sr_shared")


def link_thetas(cfg) -> dict:
    """Slot success probability of every link mode, from the config fields.

    Under Rayleigh fading a packet of b bit-seconds per Hz crosses a
    link within airtime t when the SNR clears 2**(b / t) - 1; zero
    airtime carries nothing and a zero-length packet always arrives.
    """
    def theta(power, distance, gain, airtime):
        if airtime <= 0.0:
            return 0.0
        if cfg.bits_per_bandwidth == 0.0:
            return 1.0
        rate = cfg.bits_per_bandwidth / airtime
        if rate > 1000.0:
            return 0.0
        mean_snr = (power * gain * distance ** -cfg.path_loss_exponent
                    / cfg.noise_power)
        return math.exp(-(2.0 ** rate - 1.0) / mean_snr)

    recv = cfg.beta * cfg.slot_duration
    second = (1.0 - cfg.beta) * cfg.slot_duration
    return dict(zip(THETA_NAMES, (
        theta(cfg.pu_power, cfg.distance_pd, cfg.gain_pd, recv),
        theta(cfg.pu_power, cfg.distance_ps, cfg.gain_ps, recv),
        theta(cfg.su_power, cfg.distance_sd, cfg.gain_sd, second),
        theta(cfg.su_power, cfg.distance_sd, cfg.gain_sd,
              cfg.alpha * second),
        theta(cfg.su_power, cfg.distance_sr, cfg.gain_sr, second),
        theta(cfg.su_power, cfg.distance_sr, cfg.gain_sr,
              (1.0 - cfg.alpha) * second),
    )))


def reachable_from_empty(kernel):
    """Mask of the states a chain started in state 0 can ever visit."""
    seen = np.zeros(kernel.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.array([0])
    while frontier.size:
        nxt = np.flatnonzero((kernel[frontier] > 0.0).any(axis=0) & ~seen)
        seen[nxt] = True
        frontier = nxt
    return seen


def stationary_from_empty(kernel):
    """Stationary law of a stochastic matrix for a chain started in state 0.

    Only the states reachable from state 0 can carry mass; on that
    closed set one balance row is traded for the normalization.  Raises
    ``numpy.linalg.LinAlgError`` when the reachable set holds more than
    one closed class, where the long-run law depends on the path.
    """
    idx = np.flatnonzero(reachable_from_empty(kernel))
    a = kernel[np.ix_(idx, idx)].T - np.eye(idx.size)
    a[-1] = 1.0
    rhs = np.zeros(idx.size)
    rhs[-1] = 1.0
    law = np.zeros(kernel.shape[0])
    law[idx] = np.linalg.solve(a, rhs)
    return law


def pu_transition_matrix(lam, mu, n_p):
    """Primary queue kernel for one slot: service first, then arrival."""
    kernel = np.zeros((n_p + 1, n_p + 1))
    for m in range(n_p + 1):
        services = ((m, 1.0),) if m == 0 else ((m, 1.0 - mu), (m - 1, mu))
        for after, p_service in services:
            kernel[m, min(after + 1, n_p)] += p_service * lam
            kernel[m, after] += p_service * (1.0 - lam)
    return kernel


def _log_geometric_sum(log_ratio, count):
    """log of sum_{j < count} exp(j * log_ratio), for count >= 1."""
    if log_ratio == 0.0:
        return math.log(count)
    if log_ratio < 0.0:
        return (math.log(-math.expm1(count * log_ratio))
                - math.log(-math.expm1(log_ratio)))
    return ((count - 1) * log_ratio
            + math.log(-math.expm1(-count * log_ratio))
            - math.log(-math.expm1(-log_ratio)))


def pu_empty_full(lam, mu, n_p):
    """(P(empty), P(full)) of the primary queue at a slot start.

    The kernel of ``pu_transition_matrix`` is birth-death: up 0 -> 1 with
    lam, up n -> n+1 with lam (1 - mu), down n -> n-1 with mu (1 - lam).
    Cut balance makes the law geometric above level 1, which is summed
    in log space so that 10**6 levels cost O(1).  Without any way down,
    the queue climbs from empty until it cannot climb further.
    """
    if lam == 0.0:
        return 1.0, 0.0
    down = mu * (1.0 - lam)
    up = lam * (1.0 - mu)
    if down == 0.0:
        top = n_p if up > 0.0 else 1
        return 0.0, (1.0 if top == n_p else 0.0)
    first = math.log(lam / down)  # log(pi_1 / pi_0)
    if up == 0.0:  # nothing climbs past level 1
        p1 = lam / down
        return 1.0 / (1.0 + p1), (p1 / (1.0 + p1) if n_p == 1 else 0.0)
    log_ratio = math.log(up / down)
    log_rest = first + _log_geometric_sum(log_ratio, n_p)  # log(sum_{n>=1} pi_n / pi_0)
    log_norm = np.logaddexp(0.0, log_rest)
    empty = math.exp(-log_norm)
    full = math.exp(first + (n_p - 1) * log_ratio - log_norm)
    return empty, full


def pu_busy(lam, mus, n_p):
    """P(primary busy) at each rate of the array ``mus``.

    The generic case of ``pu_empty_full`` on arrays; every rate where
    that case does not apply goes through ``pu_empty_full`` itself.
    """
    down = mus * (1.0 - lam)
    up = lam * (1.0 - mus)
    generic = (lam > 0.0) & (down > 0.0) & (up > 0.0) & (up != down)
    with np.errstate(all="ignore"):
        first = np.log(lam / down)
        ratio = np.log(up / down)
        geometric = np.where(
            ratio < 0.0,
            np.log(-np.expm1(n_p * ratio)) - np.log(-np.expm1(ratio)),
            (n_p - 1) * ratio + np.log(-np.expm1(-n_p * ratio))
            - np.log(-np.expm1(-ratio)))
        busy = -np.expm1(-np.logaddexp(0.0, first + geometric))
    for i in np.flatnonzero(~generic):
        busy[i] = 1.0 - pu_empty_full(lam, float(mus[i]), n_p)[0]
    return busy


def relay_departures(thetas, probs):
    """Relay success probability at each occupied level 1..N."""
    p = np.asarray(probs[1:], dtype=float)
    return p * thetas["theta_sd_shared"] + (1.0 - p) * thetas["theta_sd"]


def own_deliveries(thetas, probs):
    """Secondary success probability at each relay level 0..N.

    An empty buffer leaves the whole phase to the secondary's own
    packet; at level n it gets its share only when the phase is shared.
    """
    return np.concatenate(([thetas["theta_sr"]], np.asarray(
        probs[1:], dtype=float) * thetas["theta_sr_shared"]))


def relay_transition_matrix(q, r):
    """Relay buffer kernel between two ends of the receiving phase.

    The relaying phase sends the head packet w.p. r[k - 1] at level k;
    then the next receiving phase captures a primary packet w.p. q,
    refused when the buffer is still full.
    """
    n_s = len(r)
    kernel = np.zeros((n_s + 1, n_s + 1))
    for k in range(n_s + 1):
        sends = ((k, 1.0),) if k == 0 else ((k, 1.0 - r[k - 1]),
                                            (k - 1, r[k - 1]))
        for after, p_send in sends:
            kernel[k, min(after + 1, n_s)] += p_send * q
            kernel[k, after] += p_send * (1.0 - q)
    return kernel


class DecoupledModel:
    """The paper's decoupled model of one policy, solved from explicit kernels.

    The relay sees captures w.p. q = P(primary busy at mu) * theta_ps *
    (1 - theta_pd), and a capture is refused when the buffer is full and
    its send fails.  The relay kernel is affine in q, so it is kept as
    the kernels at q = 0 and q = 1.  Which levels the empty buffer can
    reach differs between q = 0, 0 < q < 1 and q = 1, so each case keeps
    its own reachable set.
    """

    def __init__(self, cfg, thetas, probs):
        self.cfg = cfg
        self.theta_pd = thetas["theta_pd"]
        self.capture = thetas["theta_ps"] * (1.0 - thetas["theta_pd"])
        self.r = relay_departures(thetas, probs)
        self.own = own_deliveries(thetas, probs)
        idle = relay_transition_matrix(0.0, self.r)
        slope = relay_transition_matrix(1.0, self.r) - idle
        self.cases = []  # (reachable levels, their transposed kernels)
        for q in (0.0, 0.5, 1.0):
            reach = np.flatnonzero(reachable_from_empty(
                relay_transition_matrix(q, self.r)))
            sub = np.ix_(reach, reach)
            self.cases.append((reach, idle[sub].T - np.eye(reach.size),
                               slope[sub].T))

    def relay_laws(self, qs):
        """Relay law (end of the receiving phase) for each q, one row each."""
        laws = np.zeros((qs.size, self.r.size + 1))
        masks = (qs == 0.0, (qs > 0.0) & (qs < 1.0), qs == 1.0)
        for mask, (reach, idle_t, slope_t) in zip(masks, self.cases):
            rows = np.flatnonzero(mask)
            if rows.size == 0:
                continue
            a = idle_t + qs[rows, None, None] * slope_t
            a[:, -1, :] = 1.0
            rhs = np.zeros((rows.size, reach.size, 1))
            rhs[:, -1, 0] = 1.0
            laws[rows[:, None], reach] = np.linalg.solve(a, rhs)[..., 0]
        return laws

    def states(self, mus):
        """(relay laws, implied primary rates, secondary throughputs) at mus."""
        mus = np.atleast_1d(np.asarray(mus, dtype=float))
        busy = pu_busy(self.cfg.pu_arrival_rate, mus,
                       self.cfg.pu_queue_capacity)
        laws = self.relay_laws(busy * self.capture)
        implied = self.theta_pd + self.capture * (
            1.0 - laws[:, -1] * (1.0 - self.r[-1]))
        return laws, implied, laws @ self.own

    def equilibria(self, grid=257, steps=20):
        """Every self-consistent primary rate, with its throughput.

        The implied rate maps [theta_pd, theta_pd + capture] into itself,
        so every fixed point lies there.  A uniform scan brackets each
        sign change of implied(mu) - mu, and all brackets shrink together
        by the Illinois variant of regula falsi, which keeps each root
        bracketed.  Returns (mu, mu_s) pairs in increasing mu.
        """
        lo, hi = self.theta_pd, self.theta_pd + self.capture
        if hi <= lo:
            return [(lo, float(self.states(lo)[2][0]))]
        mus = np.linspace(lo, hi, grid)
        gaps = self.states(mus)[1] - mus
        # the map cannot leave the interval: a gap of the wrong sign at
        # an end is rounding, and that end is a fixed point
        gaps[0], gaps[-1] = max(gaps[0], 0.0), min(gaps[-1], 0.0)
        cross = np.flatnonzero(gaps[:-1] * gaps[1:] < 0.0)
        a, b = mus[cross], mus[cross + 1]
        fa, fb = gaps[cross], gaps[cross + 1]
        for _ in range(steps if cross.size else 0):
            c = b - fb * (b - a) / (fb - fa)
            c = np.where(np.isfinite(c) & (c > np.minimum(a, b))
                         & (c < np.maximum(a, b)), c, 0.5 * (a + b))
            fc = self.states(c)[1] - c
            flip = fc * fb < 0.0
            a, fa = np.where(flip, b, a), np.where(flip, fb, 0.5 * fa)
            b, fb = c, fc
            if np.all((fb == 0.0) | (np.abs(b - a) <= 1e-14)):
                break
        refined = np.where(np.abs(fa) < np.abs(fb), a, b)
        roots = np.sort(np.concatenate((mus[gaps == 0.0], refined)))
        return list(zip(roots.tolist(), self.states(roots)[2].tolist()))


def blocking(cfg, mu):
    """Primary blocking (full queue at a slot start) at departure rate mu."""
    return pu_empty_full(cfg.pu_arrival_rate, mu, cfg.pu_queue_capacity)[1]


def joint_kernels(cfg, thetas, probs):
    """Receiving-phase and rest-of-slot kernels of (primary, relay) levels.

    State m * (N + 1) + k holds primary level m and relay level k.  The
    order is the simulator's: the head primary packet reaches the
    destination w.p. theta_pd, else is captured w.p. theta_ps if the
    relay has room; the relay then sends its head packet w.p. r[k - 1];
    finally an arrival lands w.p. lam, dropped at a full queue.
    """
    lam, n_p = cfg.pu_arrival_rate, cfg.pu_queue_capacity
    n_s = cfg.relay_queue_capacity
    th_pd, th_ps = thetas["theta_pd"], thetas["theta_ps"]
    width = n_s + 1
    size = (n_p + 1) * width
    receive = np.zeros((size, size))
    for m in range(n_p + 1):
        for k in range(width):
            i = m * width + k
            if m == 0:
                receive[i, i] = 1.0
                continue
            receive[i, i - width] += th_pd
            if k < n_s:
                receive[i, i - width + 1] += (1.0 - th_pd) * th_ps
                receive[i, i] += (1.0 - th_pd) * (1.0 - th_ps)
            else:
                receive[i, i] += 1.0 - th_pd
    r = relay_departures(thetas, probs)
    send = np.eye(width)
    for k in range(1, width):
        send[k, k] -= r[k - 1]
        send[k, k - 1] += r[k - 1]
    arrive = np.zeros((n_p + 1, n_p + 1))
    for m in range(n_p + 1):
        arrive[m, min(m + 1, n_p)] += lam
        arrive[m, m] += 1.0 - lam
    return receive, np.kron(arrive, send)


def joint_figures(cfg, thetas, probs):
    """Exact long-run figures of the joint chain, as the simulator counts them.

    Returns the relay occupancy after the receiving phase (where the
    simulator takes its histogram), the secondary throughput, and the
    primary blocking per arrival (the queue still full after service).
    """
    receive, rest = joint_kernels(cfg, thetas, probs)
    start = stationary_from_empty(receive @ rest)
    after = (start @ receive).reshape(cfg.pu_queue_capacity + 1,
                                      cfg.relay_queue_capacity + 1)
    relay = after.sum(axis=0)
    return {"relay_occupancy": relay,
            "mu_s": float(relay @ own_deliveries(thetas, probs)),
            "blocking": float(after[-1].sum())}
