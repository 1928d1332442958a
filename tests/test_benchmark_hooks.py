"""The benchmark's traced runs patch dmmobench's entry points by name.

`perfbench/spans.py` wraps attributes of the package's modules and
classes and puts the originals back afterwards.  A refactor that drops
or renames one of those attributes makes `install` fail here, instead of
only in a traced benchmark run.
"""

import inspect
import sys
from pathlib import Path

import dmmobench
import dmmobench.cli  # noqa: F401  (the tracer patches the CLI's imports)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def _namespaces():
    """Every module and class dict of the package, plus BASIC_FUNCTIONS."""
    modules = [module for name, module in sys.modules.items()
               if name.startswith("dmmobench.") and module is not None]
    owners = list(modules)
    for module in modules:
        owners += [cls for _, cls in inspect.getmembers(
                       module, inspect.isclass)
                   if cls.__module__ == module.__name__]
    return [(owner, dict(vars(owner))) for owner in owners] + [
        (dmmobench.composition.BASIC_FUNCTIONS,
         dict(dmmobench.composition.BASIC_FUNCTIONS))]


def _changed(before):
    out = []
    for owner, saved in before:
        now = owner if isinstance(owner, dict) else vars(owner)
        if now.keys() != saved.keys():
            out.append((owner, "keys"))
        out += [(owner, key) for key, value in saved.items()
                if now.get(key) is not value]
    return out


def test_tracer_installs_and_restores_every_hook():
    before = _namespaces()
    tracer = spans.Tracer()
    try:
        tracer.install(dmmobench)
        assert _changed(before), "install patched nothing"
    finally:
        tracer.restore()
    assert _changed(before) == []
