"""The memo registry (`swapsim._memo`): every function memo of `src/` is
made by `memo` and listed in `MEMOS`, and no memo hands out an array that
a caller could write into, also inside a returned tuple or dict.  A write
into a memoised table would change every later run of the process.

Each runner's exact half is a memo keyed on the chip declaration and the
config fields it reads, so a warm re-run with another seed or trial count
computes no exact value and compiles no chip, and gives the payload of a
process that has computed nothing yet; a netlist file rewritten at the
same path is a new declaration."""

import ast
import importlib
from collections.abc import Mapping
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import swapsim
from swapsim import experiments as ex
from swapsim._memo import MEMOS, memo
from swapsim.biphoton import BellLabel
from swapsim.config import ChipConfig, ExperimentConfig

SRC = Path(__file__).resolve().parent.parent / "src" / "swapsim"
NETLIST = SRC.parent.parent / "demos" / "data" / "swap_measured.pnl"

for _name in swapsim._SUBMODULES:
    importlib.import_module(f"swapsim.{_name}")

PHASES = tuple(np.linspace(0.0, 2.0 * np.pi, 17).tolist())
# each runner's exact half -> its arguments for the chip declaration `decl`
EXACT_HALVES = {
    "swapsim.experiments._fringe_exact": lambda decl: (decl, "T", True, PHASES),
    "swapsim.experiments._hom_overlap": lambda decl: (decl, "TV_BH", "auto"),
    "swapsim.experiments._bell_exact": lambda decl: (decl, decl, 0.0, 0.96, tuple(BellLabel)),
    "swapsim.experiments._state_tomo_exact": lambda decl: (decl, "T", "D"),
    "swapsim.experiments._process_tomo_exact": lambda decl: (decl,),
    "swapsim.experiments._process_tomo_2q_exact": lambda decl: (decl,),
    "swapsim.experiments._sweep_exact": lambda decl: (decl, (("facet_xtalk", 0.1),), True),
}
DECL = ExperimentConfig.measured_chip().chip_decl(0)

# registered memo -> the argument tuples of the calls whose arrays are checked
ARRAY_MEMOS = {
    "swapsim.qcore.pauli_operators": [(1,), (2,)],
    "swapsim.tomography._pooled_stokes_map": [(1,), (2,)],
    "swapsim.biphoton._bell_vectors": [()],
    **{name: [args(DECL)] for name, args in EXACT_HALVES.items()
       if name != "swapsim.experiments._hom_overlap"},
}
# registered memos whose values hold no array of their own (a parsed
# netlist holds none, a compiled chip freezes its own when built, an
# exchange overlap is a float)
OTHER_MEMOS = {
    "swapsim.netlist._token_re", "swapsim.netlist.parse", "swapsim.netlist.compile_chip",
    "swapsim.config._typed_fields", "swapsim.config._decode", "swapsim.cli._command_parser",
    "swapsim.cli._measured_chip", "swapsim.experiments._hom_overlap",
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


def test_a_dict_inside_a_returned_tuple_is_read_only():
    @memo()
    def table():
        return {"a": 1}, np.zeros(2)

    name = f"{table.__module__}.{table.__qualname__}"
    try:
        mapping, array = table()
        with pytest.raises(TypeError):
            mapping["a"] = 2
        assert not array.flags.writeable
        assert table()[0]["a"] == 1
    finally:
        del MEMOS[name]


def _clear_memos():
    for cached in MEMOS.values():
        cached.cache_clear()


# op -> (its runner, the registered name of its exact half, an exact field)
OPS = {
    "truth-table": (ex.run_truth_table, None, "fidelity_exact"),
    "fringe": (ex.run_fringe_scan, "_fringe_exact", "visibility_exact"),
    "hom": (ex.run_hom_scan, "_hom_overlap", "overlap_exact"),
    "bell": (ex.run_bell_distribution, "_bell_exact", "fidelity_exact_avg"),
    "tomo-state": (ex.run_state_tomography, "_state_tomo_exact", "fidelity_exact"),
    "tomo-process": (ex.run_process_tomography, "_process_tomo_exact", "process_fidelity_avg"),
    "tomo-process-2q": (ex.run_process_tomography_2q, "_process_tomo_2q_exact",
                        "process_fidelity"),
    "sweep": (ex.run_error_budget, "_sweep_exact", "grid"),
}
SOURCES = {"config": ExperimentConfig.measured_chip(),
           "netlist": ExperimentConfig(chips=(ChipConfig(netlist_path=str(NETLIST)),))}


def test_every_exact_half_is_listed_here():
    assert {f"swapsim.experiments.{half}" for _, half, _ in OPS.values() if half} \
        == set(EXACT_HALVES)


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("op", sorted(OPS))
def test_a_warm_rerun_redoes_only_sampling(op, source):
    # another seed and trial count: no exact half misses and no chip is
    # compiled, and the payload is that of a process with empty memos
    run, half, _ = OPS[op]
    run(replace(SOURCES[source], n_trials=3, rng_seed=11))
    exact = [MEMOS[name] for name in EXACT_HALVES] + [MEMOS["swapsim.netlist.compile_chip"]]
    misses = [cached.cache_info().misses for cached in exact]
    hits = half and MEMOS[f"swapsim.experiments.{half}"].cache_info().hits
    cfg = replace(SOURCES[source], n_trials=2, rng_seed=12)
    warm = run(cfg).canonical_payload()
    assert [cached.cache_info().misses for cached in exact] == misses
    if half:
        assert MEMOS[f"swapsim.experiments.{half}"].cache_info().hits > hits
    _clear_memos()
    assert run(cfg).canonical_payload() == warm


@pytest.mark.parametrize("op", sorted(OPS))
def test_a_netlist_file_rewritten_at_its_path_moves_the_exact_fields(op, tmp_path):
    run, _, field = OPS[op]
    pnl = tmp_path / "chip.pnl"
    text = NETLIST.read_text(encoding="utf-8")
    pnl.write_text(text)
    cfg = ExperimentConfig(chips=(ChipConfig(netlist_path=str(pnl)),), n_trials=1)
    before = run(cfg)
    pnl.write_text(text.replace("extinction=18dB", "extinction=30dB"))
    after = run(cfg)
    assert after.payload[field] != before.payload[field]
    _clear_memos()
    assert run(cfg).canonical_payload() == after.canonical_payload()


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
