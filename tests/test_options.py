"""The run options object: one frozen ``TuneOptions``, read through
``current()`` and scoped with ``use()``."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro
from repro.faults import FaultPlan
from repro.options import TuneOptions, current, use

SRC = Path(repro.__file__).parent

#: (module, function) pairs allowed a ``global`` statement
GLOBALS_ALLOWED = {
    ("options.py", "use"),
    ("primitives/registry.py", "default_registry"),
}


def test_exactly_the_six_knobs():
    assert [f.name for f in dataclasses.fields(TuneOptions)] == [
        "prune", "validate", "sanitize", "eval_store", "faults", "dump_ir",
    ]


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        current().prune = False


def test_use_installs_a_copy_and_restores():
    before = current()
    with use(prune=False) as inside:
        assert current() is inside
        assert inside.prune is False
        assert inside.sanitize == before.sanitize  # the rest carried over
        with use(validate="all"):
            assert (current().prune, current().validate) == (False, "all")
        assert current() is inside
    assert current() is before


def test_use_restores_on_exception():
    before = current()
    with pytest.raises(KeyError):
        with use(prune=False, faults=FaultPlan(crash=0.5)):
            raise KeyError("boom")
    assert current() is before


def test_unknown_option_rejected():
    before = current()
    with pytest.raises(TypeError):
        with use(workers=2):
            pass
    assert current() is before


def test_no_global_statements_outside_options():
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Global):
                    found.add((rel, func.name))
    assert found <= GLOBALS_ALLOWED, sorted(found - GLOBALS_ALLOWED)
