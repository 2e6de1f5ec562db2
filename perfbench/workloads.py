"""Seeded inputs of the benchmark's three workloads.

Every config comes from the axes of the bundled sweep specs in
``configs/``, read through the program's own ``load_spec`` and
``apply_sweep_value``.  A spec's sweep values are the cells of its axis.
A continuous value (lambda_p, beta, alpha, r_ps) is drawn uniformly
within a quarter of the local grid step around its cell; a value on the
edge of its domain (0 or 1) and an integer value (n_p, n_s) is used as
it is, since those edges and sizes are what the cells are there for.

A run is a sequence of rounds, and round k is drawn from the stream
seeded by (seed, k) alone, so every run attempts whole rounds of the
same make-up whatever its seed and length.
"""

from __future__ import annotations

import glob
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from cogrelay import experiments_cli, mc_sim, policy_opt
from cogrelay.queue_analytics import AccessPolicy

JITTER = 0.25  # share of the local grid step a continuous value may move
CONTINUOUS = ("lambda_p", "beta", "alpha", "r_ps")
DOMAIN_EDGES = {"lambda_p": (0.0, 1.0), "beta": (0.0, 1.0),
                "alpha": (0.0, 1.0)}

# Seeded draws avoid the interval where fault F2 (below) makes the
# exact search raise: it fails at scattered alpha in [0.0378, 0.0428]
# on the time-share base, and a seed-dependent failure would change the
# failed share from run to run.  F2 itself is in every round.
FAULT_ZONES = {("time_share", "alpha"): (0.035, 0.046)}

RESTRICTED_SHARE = 6  # a restricted round takes every sixth cell
SIM_BATCHES = 20  # independent simulations per simulated policy
SIM_SLOTS = 50_000  # counted slots per batch
SIM_WARMUP = 5_000
SIM_MAX_PU_BUFFER = 12  # the exact joint chain stays small

WORKLOADS = ("exact_search", "restricted_search", "sim_validation")


@dataclass(frozen=True)
class Cell:
    spec: str
    base: object
    variable: str
    value: float
    low: float
    high: float


@dataclass(frozen=True)
class Op:
    """One timed call: a policy search, or the batches of one simulation."""

    kind: str  # "lp", "cpt", "st" or "sim"
    label: str
    config: object
    policy: Optional[AccessPolicy] = None
    seeds: Tuple[int, ...] = ()
    min_mu_s: Optional[float] = None  # what a mended known fault must reach


def load_cells(root):
    cells = []
    for path in sorted(glob.glob(os.path.join(root, "configs", "*.spec"))):
        spec, errors = experiments_cli.load_spec(path)
        if errors:
            raise ValueError(f"{path}: {'; '.join(errors)}")
        name = os.path.basename(path)[len("sweep_"):-len(".spec")]
        values = spec.sweep_values
        for i, value in enumerate(values):
            low = high = value
            if (spec.sweep_variable in CONTINUOUS
                    and value not in DOMAIN_EDGES.get(spec.sweep_variable,
                                                      ())):
                step = min(abs(value - values[j]) for j in (i - 1, i + 1)
                           if 0 <= j < len(values))
                low, high = value - JITTER * step, value + JITTER * step
            cells.append(Cell(name, spec.base, spec.sweep_variable, value,
                              low, high))
    if len(cells) == 0:
        raise ValueError(f"no sweep specs under {root}/configs")
    return cells


def draw(cell, rng):
    """A config of ``cell``, with its value drawn as the module says."""
    zone = FAULT_ZONES.get((cell.spec, cell.variable))
    value = cell.value
    while True:
        if cell.high > cell.low:
            value = float(rng.uniform(cell.low, cell.high))
        if zone is None or not zone[0] <= value <= zone[1]:
            break
    cfg = experiments_cli.apply_sweep_value(cell.base, cell.variable, value)
    return f"{cell.spec}:{cell.variable}={value:.6g}", cfg


def fault_ops(root, cells):
    """The two configs on which the exact search fails at this version.

    F1: a zero-length packet crosses every link, so the right answer is
    "ok" with mu_s = 1; the search raises from ``build_lp`` instead.
    F2: alpha = 0.041 on the time-share base, where a cold phase one of
    the simplex meets a singular basis; CPT and ST both reach
    mu_s = 0.1539937 there.
    """
    f1, errors = experiments_cli.validate_config(
        os.path.join(root, "configs", "defaults.cfg"),
        {"bits_per_bandwidth": "0"})
    if errors:
        raise ValueError("; ".join(errors))
    base = next(c.base for c in cells if c.spec == "time_share")
    f2 = experiments_cli.apply_sweep_value(base, "alpha", 0.041)
    return [Op("lp", "F1:bits_per_bandwidth=0", f1, min_mu_s=1.0 - 1e-9),
            Op("lp", "F2:time_share:alpha=0.041", f2,
               min_mu_s=0.1539937 - 1e-6)]


class Workload:
    """Rounds of operations for one workload and seed."""

    def __init__(self, name, root, seed):
        if name not in WORKLOADS:
            raise ValueError(f"workload: unknown {name!r}, expected one of "
                             f"{', '.join(WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.cells = load_cells(root)
        self.faults = fault_ops(root, self.cells)

    def round(self, k):
        rng = np.random.default_rng([self.seed, k])
        return getattr(self, "_" + self.name)(k, rng)

    def _exact_search(self, k, rng):
        ops = [Op("lp", *draw(cell, rng)) for cell in self.cells]
        ops += self.faults
        return [ops[i] for i in rng.permutation(len(ops))]

    def _restricted_search(self, k, rng):
        # the same cells in round k of every run, so that the seed moves
        # the values and not the make-up: CPT's cost grows with n_s
        # (0.35 s at n_s = 1, 1.2 s at n_s = 19), so a seeded choice of
        # cells would move a run's cost with the seed
        picked = [cell for i, cell in enumerate(self.cells)
                  if i % RESTRICTED_SHARE == k % RESTRICTED_SHARE]
        ops = []
        for i in rng.permutation(len(picked)):
            label, cfg = draw(picked[i], rng)
            ops += [Op("cpt", label, cfg), Op("st", label, cfg)]
        return ops

    def _sim_validation(self, k, rng):
        ops = []
        for kind in ("uniform", "step", "levels"):
            label, cfg = draw(self.cells[rng.integers(len(self.cells))], rng)
            n_p = int(rng.integers(1, SIM_MAX_PU_BUFFER + 1))
            cfg = experiments_cli.apply_sweep_value(cfg, "n_p", n_p)
            n_s = cfg.relay_queue_capacity
            if kind == "uniform":
                levels = (float(rng.uniform()),) * n_s
            elif kind == "step":
                t = int(rng.integers(n_s + 1))
                levels = (1.0,) * t + (0.0,) * (n_s - t)
            else:
                levels = tuple(rng.uniform(size=n_s).tolist())
            seeds = tuple(int(s) for s in rng.integers(2 ** 31,
                                                       size=SIM_BATCHES))
            ops.append(Op("sim", f"{label}:n_p={n_p}:{kind}", cfg,
                          policy=AccessPolicy((1.0,) + levels), seeds=seeds))
        return ops



def call(op):
    """The op's public call into the program; its result is what is checked."""
    if op.kind == "lp":
        return policy_opt.optimal_policy(op.config)
    if op.kind == "cpt":
        return policy_opt.cpt_policy(op.config)
    if op.kind == "st":
        return policy_opt.st_policy(op.config)
    return [mc_sim.simulate(op.config, op.policy, SIM_SLOTS, seed,
                            warmup_slots=SIM_WARMUP)
            for seed in op.seeds]
