"""The repo benchmark's span tracer must find every method it wraps.

``perfbench/tracer.py`` wraps the methods named in its ``TRACED`` table,
looking each one up in its owner class's own ``__dict__``.  A refactor
that renames one of them, or moves it to a base class, would break
``perfbench/run.py --trace 1`` without failing anything else.  This
test reads the table without importing the benchmark package (no
bytecode is written there) and resolves every entry the same way.
"""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TRACED"]


def test_every_traced_entry_resolves_like_tracer_install():
    traced = _traced()
    assert traced
    for module_name, owner_name, attr, _, _ in traced:
        module = importlib.import_module(module_name)
        if owner_name is None:
            target = getattr(module, attr, None)
        else:
            owner = getattr(module, owner_name, None)
            assert owner is not None, f"{module_name}.{owner_name} is gone"
            target = owner.__dict__.get(attr)
        assert callable(target), (
            f"{owner_name or module_name}.{attr} is not defined where "
            "perfbench/tracer.py looks for it"
        )
