"""Spans around the program's public functions, and the per-layer metrics.

``Tracer.install`` replaces each traced function at every name under
which one of the program's modules holds it (``policy_opt.lp_core.solve``,
``policy_opt.evaluate_policy``, ``experiments_cli.optimal_policy``, ...)
with a wrapper that records a span: its name, start, end, the span open
around it, and the operation (one search or simulation) it belongs to.
Spans stay in memory until ``write``.  A span's self time is its
duration minus the time of the spans directly under it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

from cogrelay import (experiments_cli, link_model, lp_core, mc_sim,
                      policy_opt, queue_analytics)

MODULES = (link_model, queue_analytics, lp_core, policy_opt, mc_sim,
           experiments_cli)
SEARCHES = ("policy_opt.optimal_policy", "policy_opt.cpt_policy",
            "policy_opt.st_policy")
_SIMULATE_ARGS = inspect.signature(mc_sim.simulate)


def _solve_note(args, kwargs, result):
    return [result.status, int(args[0].n_vars)]


def _evaluate_note(args, kwargs, result):
    return len(result.equilibria)


def _search_note(args, kwargs, result):
    return sum(1 for point in result.diagnostics if point.status == "unstable")


def _simulate_note(args, kwargs, result):
    bound = _SIMULATE_ARGS.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["n_slots"] + bound.arguments["warmup_slots"]


# home module, function, what a span of it records from the call
TRACED = (
    (link_model, "link_budget", None),
    (queue_analytics, "min_departure_rate", None),
    (queue_analytics, "evaluate_policy", _evaluate_note),
    (lp_core, "solve", _solve_note),
    (policy_opt, "build_lp", None),
    (policy_opt, "attainable_mu_p_range", None),
    (policy_opt, "optimal_policy", _search_note),
    (policy_opt, "cpt_policy", None),
    (policy_opt, "st_policy", None),
    (mc_sim, "simulate", _simulate_note),
    (experiments_cli, "load_spec", None),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [id, parent, op, name, start, end, note]
        self.op = None
        self._open = [None]
        self._next_id = 0

    def _wrap(self, name, fn, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1]
            self._open.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append([span_id, parent, self.op, name, start, end,
                                   None if note is None or result is None
                                   else note(args, kwargs, result)])
        return traced

    def install(self):
        """Replace every traced function wherever a module holds it."""
        for home, attr, note in TRACED:
            original = getattr(home, attr)
            name = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, original, note)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path):
        keys = ("id", "parent", "op", "name", "start", "end", "note")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self):
        """Every per-layer metric, as {name: (value, unit)}.

        A layer with no spans in this workload reports zeros.
        """
        spans = {s[0]: s for s in self.spans}
        child_time = defaultdict(float)
        by_name = defaultdict(list)
        for s in self.spans:
            child_time[s[1]] += s[5] - s[4]
            by_name[s[3]].append(s)

        def search_of(span):
            parent = spans.get(span[1])
            while parent is not None and parent[3] not in SEARCHES:
                parent = spans.get(parent[1])
            return None if parent is None else parent[3]

        def parent_name(span):
            return spans[span[1]][3] if span[1] in spans else None

        out = {}

        def per(name, count, unit="count"):
            n = len(by_name[name])
            return (count / n if n else 0.0, unit)

        def timing(name, self_time=False):
            group = by_name[name]
            out[f"{name}.calls"] = (len(group), "count")
            out[f"{name}.us_per_call"] = per(
                name, 1e6 * sum(s[5] - s[4] for s in group), "us")
            if self_time:
                out[f"{name}.self_s"] = (float(sum(
                    s[5] - s[4] - child_time[s[0]] for s in group)), "s")

        solve, lp = "lp_core.solve", "policy_opt.optimal_policy"
        ev = "queue_analytics.evaluate_policy"
        timing(solve, self_time=True)
        out[f"{solve}.optimal_per_call"] = per(
            solve, sum(1 for s in by_name[solve]
                       if s[6] is not None and s[6][0] == "optimal"), "ratio")
        timing("policy_opt.build_lp", self_time=True)
        timing(lp, self_time=True)
        out[f"{lp}.lp_solves_per_search"] = per(
            lp, sum(1 for s in by_name[solve] if search_of(s) == lp))
        out[f"{lp}.unstable_points_per_search"] = per(
            lp, sum(s[6] or 0 for s in by_name[lp]))
        out[f"{lp}.vertices_tried_per_search"] = per(
            lp, sum(1 for s in by_name[ev] if parent_name(s) == lp))
        timing(ev, self_time=True)
        out[f"{ev}.equilibria_per_call"] = per(
            ev, sum(s[6] or 0 for s in by_name[ev]))
        for search in SEARCHES[1:]:
            timing(search, self_time=True)
            out[f"{search}.evaluations_per_search"] = per(
                search, sum(1 for s in by_name[ev] if search_of(s) == search))
        timing("queue_analytics.min_departure_rate")
        timing("policy_opt.attainable_mu_p_range")
        sim = by_name["mc_sim.simulate"]
        slots = sum(s[6] or 0 for s in sim)
        out["mc_sim.simulate.calls"] = (len(sim), "count")
        out["mc_sim.simulate.ns_per_slot"] = (
            1e9 * sum(s[5] - s[4] for s in sim) / slots if slots else 0.0,
            "ns")
        timing("link_model.link_budget")
        timing("experiments_cli.load_spec")
        return out
