"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys

import pytest

import checks
import layers
import run

run.ensure_swapsim()

from swapsim import qcore  # noqa: E402  (needs the path set up above)

SPEC = run.load_spec()
REFERENCE = checks.load_reference()
# cli.report_bytes is left out: report.json carries a wall-clock timestamp
COUNT_METRICS = [*layers.CALL_COUNTS, *layers.CONVERGED_RATIOS, *layers.PER_DISTINCT]


def _report(workload: str, op: str, seed: int = 3):
    wl = run.WORKLOADS[workload]
    index = [o for o, _, _ in run.OPS].index(op)
    out = run.WORK / f"selftest-{workload}-{op}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    result = run.run_warm(run.op_argv(wl, index, seed, 1, out))
    assert result.rc == 0, result.error
    doc = json.loads((out / "report.json").read_text())
    shutil.rmtree(out)
    return doc


# -- BENCHMARK.json ----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m for _, m, _ in run.OPS} <= {m["name"] for m in SPEC["end_to_end"]}


# -- layer map ---------------------------------------------------------------

def test_every_layer_map_name_resolves():
    assert layers.unresolved_names() == []


def test_layer_map_fails_soft():
    bogus = {("swapsim.qcore", "no_such_function"): ("qcore", None),
             ("swapsim.no_such_module", "f"): ("qcore", None),
             ("swapsim.qcore", "DensityMatrix.no_such_method"): ("qcore", None)}
    layer_map = {**layers.LAYER_MAP, **bogus}
    assert layers.unresolved_names(layer_map) == list(bogus)
    original = qcore.apply_channel
    tracer = layers.Tracer(layer_map)
    tracer.install()
    try:
        assert qcore.apply_channel is not original
        from swapsim.cli import dispatch

        assert dispatch(["check", run.NETLIST]) == 0
    finally:
        tracer.uninstall()
    assert qcore.apply_channel is original
    assert tracer.missing == list(bogus)
    metrics = layers.layer_metrics(tracer.table(), [0])
    assert metrics["netlist.parses"] == 1


# -- counts repeat exactly ---------------------------------------------------

@pytest.mark.parametrize("workload", ["exact-netlist", "mc-defaults"])
def test_counts_repeat_for_the_same_seed(workload):
    first = run.run(workload, seed=7, seconds=0, trace=True)
    second = run.run(workload, seed=7, seconds=0, trace=True)
    for out in (first, second):
        assert out["line"]["correct"], out["results"]["failures"]
        assert out["line"]["metrics"]["trace.missing_names"]["value"] == 0
    counts = [{k: out["line"]["metrics"][k]["value"] for k in COUNT_METRICS}
              for out in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["experiments.draws"] > 0


def test_self_times_add_up_to_the_root_spans():
    tracer = layers.Tracer()
    tracer.install()
    try:
        doc_argv = run.op_argv(run.WORKLOADS["exact-netlist"], 0, 2, 1,
                               run.WORK / "selftest-self")
        assert run.run_warm(doc_argv).rc == 0
    finally:
        tracer.uninstall()
    shutil.rmtree(run.WORK / "selftest-self")
    table = tracer.table()
    roots = table[table[:, 2] == -1]
    assert len(roots) == 1
    total = float(layers.self_times_ns(table).sum())
    assert total == pytest.approx(float(roots[0, 5] - roots[0, 4]))


# -- speed probes ------------------------------------------------------------

def test_speed_probe_runs_no_swapsim_code():
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert run.speed_probe(rounds=20) > 0
    finally:
        tracer.uninstall()
    assert len(tracer.table()) == 0


def test_scaling_divides_by_the_mean_probe():
    assert run.at_ref_speed(1.0, run.PROBE_REF_S, run.PROBE_REF_S) == 1.0
    assert run.at_ref_speed(1.0, 0.01, 0.03, ref=0.04) == pytest.approx(2.0)


# -- output check ------------------------------------------------------------

def test_check_accepts_the_seed_outputs():
    for workload in ("exact-netlist", "mc-defaults"):
        wl = run.WORKLOADS[workload]
        source = "netlist" if wl.source[0] == "--netlist" else "config"
        for op in ("truth-table", "tomo-process", "fringe"):
            doc = _report(workload, op)
            assert checks.check_payload(op, source, doc, REFERENCE, wl.trials) == []


def test_check_fails_on_a_wrong_reference():
    doc = _report("exact-netlist", "truth-table")
    wrong = copy.deepcopy(REFERENCE)
    wrong["netlist"]["truth-table"]["fidelity_exact"] *= 1 + 1e-6
    problems = checks.check_payload("truth-table", "netlist", doc, wrong, 1)
    assert problems and "fidelity_exact" in problems[0]

    wrong = copy.deepcopy(REFERENCE)
    wrong["netlist"]["truth-table"]["exact_probabilities"][2][1] += 1e-9
    assert checks.check_payload("truth-table", "netlist", doc, wrong, 1)

    wrong = copy.deepcopy(REFERENCE)
    wrong["tools"]["fmt"] = wrong["tools"]["fmt"].replace("18dB", "19dB")
    result = run.run_warm(["fmt", run.NETLIST])
    assert checks.check_tool_output("fmt", result.stdout, REFERENCE) == []
    assert checks.check_tool_output("fmt", result.stdout, wrong)


def test_fit_fields_get_the_looser_tolerance():
    doc = _report("exact-netlist", "fringe")
    near = copy.deepcopy(REFERENCE)
    near["netlist"]["fringe"]["visibility_exact_fit"] += 1e-7
    assert checks.check_payload("fringe", "netlist", doc, near, 1) == []
    far = copy.deepcopy(REFERENCE)
    far["netlist"]["fringe"]["visibility_exact_fit"] += 1e-4
    assert checks.check_payload("fringe", "netlist", doc, far, 1)


def test_check_fails_outside_an_acceptance_bracket():
    doc = _report("exact-netlist", "truth-table")
    doc["payload"]["fidelity_mc_mean"] = 0.9
    doc["payload_sha256"] = checks.digest(None, json.dumps(
        doc["payload"], sort_keys=True, separators=(",", ":")))
    problems = checks.check_payload("truth-table", "netlist", doc, REFERENCE, 1)
    assert problems == ["fidelity_mc_mean=0.9 outside [0.95, 0.995] "
                        "(acceptance criterion 02)"]


def test_repeat_digest_depends_only_on_the_seed():
    a, b = _report("exact-netlist", "hom", 3), _report("exact-netlist", "hom", 3)
    c = _report("exact-netlist", "hom", 4)
    assert checks.digest(a, "") == checks.digest(b, "") != checks.digest(c, "")


# -- the benchmark refuses to run without the program ------------------------

def test_fails_without_the_sources():
    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in run.child_env().items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "exact-netlist", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env,
                          capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode == 2
    assert proc.stdout == ""
