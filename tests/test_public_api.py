import importlib
import inspect
import pkgutil

import langscape

# entry points the benchmark's tracer looks up by name in `__all__`
_TRACED = (("langscape.samplers", "run_ilo_baseline"),
           ("langscape.generator", "empirical_loss_grad"),
           ("langscape.harness.experiment", "run_experiment"))


def _modules():
    for info in pkgutil.walk_packages(langscape.__path__, "langscape."):
        if info.name != "langscape.__main__":     # importing it runs the CLI
            yield importlib.import_module(info.name)


def test_every_exported_name_resolves():
    modules = list(_modules())
    assert {m.__name__ for m in modules} >= {name for name, _ in _TRACED}
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_traced_entry_points_are_public_functions():
    for modname, name in _TRACED:
        mod = importlib.import_module(modname)
        assert name in mod.__all__
        assert inspect.isfunction(getattr(mod, name))
