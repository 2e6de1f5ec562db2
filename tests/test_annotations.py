import dataclasses
import importlib
import importlib.util
import inspect
import typing
from pathlib import Path

import pytest

from cogrelay import (AccessPolicy, SystemConfig, evaluate_policy,
                      link_budget, lp_core, optimal_policy, simulate)
from cogrelay.policy_opt import build_lp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

MODULES = ("link_model", "queue_analytics", "lp_core", "policy_opt",
           "mc_sim", "experiments_cli")


@pytest.mark.parametrize("name", MODULES)
def test_public_annotations_resolve(name):
    # the modules defer their annotations, so a name that one of them
    # never imports fails only when something asks for the hints
    module = importlib.import_module(f"cogrelay.{name}")
    public = [obj for attr, obj in vars(module).items()
              if not attr.startswith("_")
              and (inspect.isfunction(inspect.unwrap(obj))
                   or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert public
    for obj in public:
        typing.get_type_hints(obj)


def test_no_public_function_takes_a_budget_beside_its_config():
    # the link budget is a function of the config, so a budget passed
    # beside one could only disagree with it; simulate keeps its budget
    # so that tests can set link probabilities directly
    both = []
    for name in MODULES:
        module = importlib.import_module(f"cogrelay.{name}")
        for attr, obj in vars(module).items():
            if (not attr.startswith("_")
                    and inspect.isfunction(inspect.unwrap(obj))
                    and obj.__module__ == module.__name__):
                params = inspect.signature(obj).parameters
                if "config" in params and "budget" in params:
                    both.append(f"{name}.{attr}")
    assert both == ["mc_sim.simulate"]


def test_link_budget_is_memoized_per_config():
    cfg = SystemConfig()
    assert link_budget(cfg) is link_budget(dataclasses.replace(cfg))


def test_benchmark_tracer_finds_what_it_wraps():
    # the benchmark's traced mode wraps functions by (module, name) and
    # reads fields of their results; load it without installing it
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for home, name, _ in tracer.TRACED:
        assert callable(getattr(home, name)), f"{home.__name__}.{name}"
    cfg = SystemConfig(relay_queue_capacity=3)
    result = optimal_policy(cfg)
    assert result.status == "ok"
    assert tracer._search_note((cfg,), {}, result) == sum(
        1 for point in result.diagnostics if point.status == "unstable")
    ev = evaluate_policy(cfg, result.policy)
    assert tracer._evaluate_note((cfg, result.policy), {}, ev) == len(
        ev.equilibria)
    problem = build_lp(cfg, ev.mu_p)
    solution = lp_core.solve(problem)
    assert tracer._solve_note((problem,), {}, solution) == [
        solution.status, problem.n_vars]
    policy = AccessPolicy((1.0, 0.5, 0.5, 0.5))
    stats = simulate(cfg, policy, 10, seed=1, warmup_slots=5)
    assert tracer._simulate_note((cfg, policy, 10, 1), {"warmup_slots": 5},
                                 stats) == 15
