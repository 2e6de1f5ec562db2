"""Checks of the program's outputs against ``oracles``, run after the timing.

Each check returns a list of problems, empty when the output is right.
A policy with several equilibria is scored by its worst one, and a
policy counts as feasible for the method properties only when every
equilibrium keeps the blocking ``MARGIN`` under the loss threshold, so
that a policy sitting exactly on the threshold decides nothing.
"""

from __future__ import annotations

import math

import numpy as np

import oracles

RATE_TOL = 1e-7  # program vs. oracle on a rate or a throughput
BLOCKING_TOL = 1e-6  # slack on the loss threshold for a returned policy
MARGIN = 1e-6  # how far under the threshold a rival policy must sit
PROPERTY_TOL = 1e-6  # how much a search may lose to a rival policy
Z_BOUND = 8.0  # batch-means deviations allowed in a simulation check


class StepPolicies:
    """Independent evaluation of every step policy of one config, on demand.

    Step policy t shares at buffer levels 1..t; t = 0 is the uniform
    policy p = 0 and t = N the uniform policy p = 1.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.thetas = oracles.link_thetas(cfg)
        self._rows = None

    @staticmethod
    def probs(t, n_s):
        return (1.0,) + tuple(1.0 if n <= t else 0.0 for n in range(1, n_s + 1))

    def rows(self):
        """(worst mu_s, worst blocking) of each step policy, by threshold."""
        if self._rows is None:
            n_s = self.cfg.relay_queue_capacity
            self._rows = []
            for t in range(n_s + 1):
                eqs = oracles.DecoupledModel(
                    self.cfg, self.thetas, self.probs(t, n_s)).equilibria()
                self._rows.append((min(s for _, s in eqs),
                                   max(oracles.blocking(self.cfg, mu)
                                       for mu, _ in eqs)))
        return self._rows

    def feasible_values(self, thresholds=None):
        limit = self.cfg.loss_threshold - MARGIN
        rows = self.rows()
        picks = range(len(rows)) if thresholds is None else thresholds
        return {t: rows[t][0] for t in picks if rows[t][1] <= limit}


def check_returned_policy(cfg, result):
    """The relay chain of an "ok" policy, re-solved at the reported rate."""
    problems = []
    ev = result.evaluation
    thetas = oracles.link_thetas(cfg)
    model = oracles.DecoupledModel(cfg, thetas, result.policy.probs)
    _, implied, mu_s = model.states(ev.mu_p)
    if not abs(implied[0] - ev.mu_p) <= RATE_TOL:
        problems.append(f"implied rate {implied[0]!r} != reported mu_p "
                        f"{ev.mu_p!r}")
    if not abs(mu_s[0] - result.mu_s) <= RATE_TOL:
        problems.append(f"recomputed mu_s {mu_s[0]!r} != reported "
                        f"{result.mu_s!r}")
    for mu in ev.equilibria:
        block = oracles.blocking(cfg, mu)
        if not block <= cfg.loss_threshold + BLOCKING_TOL:
            problems.append(f"blocking {block!r} at equilibrium {mu!r} "
                            f"exceeds {cfg.loss_threshold}")
    return problems


def _beaten_by(value, rivals, what):
    return [f"{what} {t} reaches mu_s {v!r} > {value!r}"
            for t, v in rivals.items() if v > value + PROPERTY_TOL]


def check_exact(cfg, result, steps):
    """An exact search result: its policy, and no feasible step policy wins."""
    if result.status == "ok":
        return (check_returned_policy(cfg, result)
                + _beaten_by(result.mu_s, steps.feasible_values(),
                             "step policy"))
    if result.status == "pu_infeasible":
        return [f"pu_infeasible, yet step policy {t} is feasible"
                for t in steps.feasible_values()]
    return [f"status {result.status!r}"]


def check_cpt(cfg, result, steps):
    """A CPT result is no worse than the uniform policies p = 0 and p = 1."""
    ends = steps.feasible_values((0, cfg.relay_queue_capacity))
    if result.status == "ok":
        probs = result.policy.probs
        problems = check_returned_policy(cfg, result)
        if len(set(probs[1:])) != 1:
            problems.append(f"policy {probs!r} is not uniform")
        return problems + _beaten_by(result.mu_s, ends,
                                     "uniform policy with threshold")
    if result.status == "pu_infeasible":
        return [f"pu_infeasible, yet the uniform policy with threshold {t} "
                "is feasible" for t in ends]
    return [f"status {result.status!r}"]


def check_st(cfg, result, steps):
    """An ST result is the best of the step policies, evaluated independently."""
    if result.status == "ok":
        n_s = cfg.relay_queue_capacity
        probs = result.policy.probs
        threshold = sum(1 for p in probs[1:] if p == 1.0)
        problems = check_returned_policy(cfg, result)
        if probs != StepPolicies.probs(threshold, n_s):
            problems.append(f"policy {probs!r} is not a step policy")
        return problems + _beaten_by(result.mu_s, steps.feasible_values(),
                                     "step policy")
    if result.status == "pu_infeasible":
        return [f"pu_infeasible, yet step policy {t} is feasible"
                for t in steps.feasible_values()]
    return [f"status {result.status!r}"]


def check_simulation(cfg, probs, batches, n_slots):
    """Simulated figures against the exact law of the joint chain.

    ``batches`` are the statistics of independent runs of ``n_slots``
    counted slots each.  Each figure's mean over the batches must lie
    within ``Z_BOUND`` standard errors of the exact value.  The standard
    error is the batch-means one, or the binomial one at the exact value
    over the whole run where that is larger: a rare event that no batch
    happened to see gives a batch-means error of zero.
    """
    problems = []
    for b, stats in enumerate(batches):
        for name in ("relay_queue_histogram", "pu_queue_histogram"):
            total = sum(getattr(stats, name))
            if total != n_slots:
                problems.append(f"batch {b}: {name} sums to {total}, "
                                f"not {n_slots}")
    exact = oracles.joint_figures(cfg, oracles.link_thetas(cfg), probs)
    slots = n_slots * len(batches)
    occupancy = np.array([s.relay_queue_histogram for s in batches]) / n_slots
    figures = [("mu_s", [s.measured_mu_s for s in batches], exact["mu_s"],
                slots),
               ("blocking", [s.measured_block_fraction for s in batches],
                exact["blocking"], sum(s.pu_arrivals for s in batches))]
    figures += [(f"relay level {k}", occupancy[:, k], p, slots)
                for k, p in enumerate(exact["relay_occupancy"])]
    for name, values, expected, count in figures:
        values = np.asarray(values, dtype=float)
        batch_se = float(values.std(ddof=1)) / math.sqrt(len(values))
        binomial_se = (math.sqrt(max(expected * (1.0 - expected), 0.0) / count)
                       if count else 0.0)
        tol = Z_BOUND * max(batch_se, binomial_se) + 1e-12  # rounding
        if not abs(float(values.mean()) - expected) <= tol:
            problems.append(f"{name}: simulated {float(values.mean())!r}, "
                            f"exact {float(expected)!r}, allowed gap {tol!r}")
    return problems
