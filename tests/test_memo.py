"""The memo registry (`swapsim._memo`): every function memo of `src/` is
made by `memo` and listed in `MEMOS`, and no memo hands out an array that
a caller could write into, also inside a returned tuple or dict.  A write
into a memoised table would change every later run of the process."""

import ast
import importlib
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import swapsim
from swapsim._memo import MEMOS

SRC = Path(__file__).resolve().parent.parent / "src" / "swapsim"

for _name in swapsim._SUBMODULES:
    importlib.import_module(f"swapsim.{_name}")

# registered memo -> the argument tuples of the calls whose arrays are checked
ARRAY_MEMOS = {
    "swapsim.qcore.pauli_operators": [(1,), (2,)],
    "swapsim.tomography._pooled_stokes_map": [(1,), (2,)],
    "swapsim.biphoton._bell_vectors": [()],
    "swapsim.experiments._fringe_effect": [("T", True), ("B", False)],
    "swapsim.experiments._hom_pair": [("TV_BH",), ("source",)],
    "swapsim.experiments._tomo_2q_projectors": [()],
    "swapsim.experiments._mzi_povms": [()],
    "swapsim.experiments._process_inputs": [()],
    "swapsim.experiments._chi_ideal": [(1, "raw"), (1, "relabeled"), (2, "raw"),
                                       (2, "relabeled")],
}
# registered memos whose values hold no array of their own (a parsed
# netlist, a compiled chip and a fiber link freeze theirs when built)
OTHER_MEMOS = {
    "swapsim.netlist._token_re", "swapsim.netlist.parse", "swapsim.netlist.compile_chip",
    "swapsim.config._typed_fields", "swapsim.config._decode", "swapsim.cli._command_parser",
    "swapsim.cli._measured_chip", "swapsim.biphoton.fiber_link",
}
# the one per-object cache, which its class freezes
PER_OBJECT = {("qcore.py", "QuantumChannel.superoperator")}


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, Mapping):
        for item in value.values():
            yield from _arrays(item)


def test_every_memo_is_listed_here():
    assert set(MEMOS) == set(ARRAY_MEMOS) | OTHER_MEMOS


@pytest.mark.parametrize("name, args", [
    pytest.param(name, args, id=f"{name.split('.', 1)[1]}{args}")
    for name, calls in ARRAY_MEMOS.items() for args in calls])
def test_no_memo_returns_a_writeable_array(name, args):
    value = MEMOS[name](*args)
    arrays = list(_arrays(value))
    assert arrays
    for a in arrays:
        before = a.copy()
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] += 0.1
        assert np.array_equal(a, before)
    if isinstance(value, Mapping):
        with pytest.raises(TypeError):
            value[next(iter(value))] = None
    assert MEMOS[name](*args) is value


def _memo_uses(node, scope=""):
    """The scope (dotted definition name, "" for module level) of every
    name of a `functools` memo under `node`: `cache`, `lru_cache` or
    `cached_property`, as a name, an attribute or an import."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _memo_uses(child, f"{scope}.{child.name}".lstrip("."))
            continue
        if isinstance(child, ast.ImportFrom) and child.module == "functools":
            names = [alias.name for alias in child.names]
        else:
            names = [getattr(child, "attr", None) or getattr(child, "id", None)]
        if {"cache", "lru_cache", "cached_property"} & set(names):
            yield scope
        yield from _memo_uses(child, scope)


def test_no_memo_outside_the_registry():
    uses = {(path.name, scope) for path in sorted(SRC.glob("*.py"))
            for scope in _memo_uses(ast.parse(path.read_text(encoding="utf-8")))}
    assert uses - PER_OBJECT == {("_memo.py", "memo.decorate")}
