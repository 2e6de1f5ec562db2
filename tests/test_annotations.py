import importlib
import inspect
import typing

import pytest

MODULES = ("link_model", "queue_analytics", "lp_core", "policy_opt",
           "mc_sim", "experiments_cli")


@pytest.mark.parametrize("name", MODULES)
def test_public_annotations_resolve(name):
    # the modules defer their annotations, so a name that one of them
    # never imports fails only when something asks for the hints
    module = importlib.import_module(f"cogrelay.{name}")
    public = [obj for attr, obj in vars(module).items()
              if not attr.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    assert public
    for obj in public:
        typing.get_type_hints(obj)
