import dataclasses
import importlib
import inspect
import typing

import pytest

from cogrelay import SystemConfig, link_budget

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
