"""Output checks for every op the benchmark times.

Three checks, none of which pins a Monte Carlo payload hash:

* exact fields (noiseless values that do not depend on the seed or the
  trial count) must match `reference.json`, captured at the seed commit;
  fields that come out of a numerical fit get a looser tolerance than the
  closed-form ones;
* Monte Carlo means must lie inside the brackets of the acceptance suite
  (`tests/test_acceptance.py`), and every fidelity inside [0, 1];
* an op re-run with the same seed must give the same `payload_sha256`
  (the caller compares `digest()` of the two runs).

Regenerate the reference, from the repository root, with

    PYTHONPATH=src python3 perfbench/checks.py --capture
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

CONFIG = "demos/data/config_measured.json"
NETLIST = "demos/data/swap_measured.pnl"
SOURCES = {"config": ("--config", CONFIG), "netlist": ("--netlist", NETLIST)}

CLOSED_FORM_TOL = (1e-9, 1e-12)   # (relative, absolute)
FIT_TOL = (1e-5, 1e-6)

# op -> exact payload fields, each marked as closed form or fit derived
EXACT_FIELDS = {
    "truth-table": {"fidelity_exact": "closed", "exact_probabilities": "closed",
                    "column_survival": "closed"},
    "fringe": {"visibility_exact": "closed", "exact_probabilities": "closed",
               "visibility_exact_fit": "fit", "phase_offset_exact_fit": "fit"},
    "hom": {"overlap_exact": "closed", "visibility_raw_exact": "closed",
            "exact_probabilities": "closed"},
    "bell": {"fidelity_exact_by_label": "closed", "fidelity_exact_avg": "closed",
             "second_chip_truth_table_fidelity": "closed"},
    "tomo-state": {"fidelity_exact": "closed", "setting_probabilities": "closed",
                   "reconstructed_real": "closed", "reconstructed_imag": "closed"},
    "tomo-process": {"per_spatial_input": "closed", "process_fidelity_avg": "closed",
                     "process_purity_avg": "closed"},
    "tomo-process-2q": {"process_fidelity": "closed", "process_purity": "closed"},
    "sweep": {"grid": "closed"},
}

# op -> (payload field, low, high, acceptance criterion).  Fields ending in
# "_by_label" or "per_spatial_input" apply the bracket to every entry.
BRACKETS = {
    "truth-table": [("fidelity_mc_mean", 0.95, 0.995, "02")],
    "fringe": [("visibility_subtracted_mean", 0.99, math.inf, "06(b)")],
    "hom": [("visibility_subtracted_mean", 0.93, 0.99, "07(c)"),
            ("visibility_subtracted_exact", 0.93, 0.99, "07(c)")],
    # criterion 08 brackets the exact average; the Monte Carlo means of the
    # 2-qubit linear-inversion estimator sit near 0.79 at these counts
    "bell": [("fidelity_exact_avg", 0.88, 0.95, "08")],
    "tomo-process": [("per_spatial_input.process_fidelity", 0.92, 0.99, "05"),
                     ("per_spatial_input.process_purity", 0.88, 0.97, "05")],
}

# process chi matrices are not reference-checked: only fidelity and purity
_SKIP_KEYS = {"chi_real", "chi_imag"}


def _close(got, want, tol) -> bool:
    rel, abs_ = tol
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isfinite(got) and abs(got - want) <= abs_ + rel * abs(want))


def _compare(got, want, tol, path, problems) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict):
            problems.append(f"{path}: expected an object")
            return
        for k, v in want.items():
            if k in _SKIP_KEYS:
                continue
            if k not in got:
                problems.append(f"{path}.{k}: missing")
            else:
                _compare(got[k], v, tol, f"{path}.{k}", problems)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            problems.append(f"{path}: expected a list of {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, tol, f"{path}[{i}]", problems)
    elif isinstance(want, float):
        if not _close(got, want, tol):
            problems.append(f"{path}: {got!r} != reference {want!r}")
    elif got != want:
        problems.append(f"{path}: {got!r} != reference {want!r}")


def exact_fields(op: str, payload: dict) -> dict:
    return {k: payload[k] for k in EXACT_FIELDS[op] if k in payload}


def _values(payload: dict, field: str) -> list:
    head, _, tail = field.partition(".")
    value = payload.get(head)
    if tail:
        return [v.get(tail) for v in value.values()] if isinstance(value, dict) else [None]
    if isinstance(value, dict):
        return list(value.values())
    return [value]


def _fidelities(payload: dict):
    for key, value in payload.items():
        if "fidelity" not in key:
            continue
        if isinstance(value, dict):
            yield from ((f"{key}.{k}", v) for k, v in value.items())
        elif isinstance(value, (int, float)):
            yield key, value


def check_payload(op: str, source: str, doc: dict, reference: dict,
                  trials: int) -> list:
    """Problems with one experiment report document (empty list: correct)."""
    problems = []
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        return ["report has no payload"]
    try:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                               allow_nan=False)
    except ValueError:
        return ["payload holds a non-finite number"]
    if doc.get("payload_sha256") != hashlib.sha256(canonical.encode()).hexdigest():
        problems.append("payload_sha256 does not match the payload")
    if "n_trials" in payload and payload["n_trials"] != trials:
        problems.append(f"n_trials {payload['n_trials']} != {trials}")
    want = reference[source][op]
    for field, kind in EXACT_FIELDS[op].items():
        tol = FIT_TOL if kind == "fit" else CLOSED_FORM_TOL
        if field not in payload:
            problems.append(f"{field}: missing")
        else:
            _compare(payload[field], want[field], tol, field, problems)
    for field, lo, hi, crit in BRACKETS.get(op, ()):
        for v in _values(payload, field):
            if not isinstance(v, (int, float)) or not lo <= v <= hi:
                problems.append(f"{field}={v!r} outside [{lo}, {hi}] "
                                f"(acceptance criterion {crit})")
    for key, v in _fidelities(payload):
        if not 0.0 <= v <= 1.0:
            problems.append(f"{key}={v!r} outside [0, 1]")
    return problems


def check_tool_output(op: str, stdout: str, reference: dict) -> list:
    want = reference["tools"][op]
    return [] if stdout == want else [f"{op} output differs from the reference"]


def digest(doc: dict | None, stdout: str) -> str:
    """What must repeat exactly when an op is re-run with the same seed."""
    if doc is not None:
        return str(doc.get("payload_sha256"))
    return hashlib.sha256(stdout.encode()).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# capture
# ---------------------------------------------------------------------------

EXPERIMENTS = {
    "truth-table": ["truth-table"], "fringe": ["fringe"], "hom": ["hom"],
    "bell": ["bell"], "tomo-state": ["tomo-state"], "tomo-process": ["tomo-process"],
    "tomo-process-2q": ["tomo-process", "--two-qubit"], "sweep": ["sweep"],
}


def _dispatch(argv) -> tuple:
    from swapsim.cli import dispatch

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = dispatch(argv)
    if rc != 0:
        raise SystemExit(f"capture: {' '.join(argv)} exited {rc}")
    return buf.getvalue()


def capture() -> dict:
    """Exact fields of every op, run at two seeds and trial counts.

    The two runs must agree exactly, which shows the captured fields depend
    on neither the seed nor the trial count.
    """
    ref = {"tools": {}}
    tmp = Path(tempfile.mkdtemp(prefix="capture-", dir=HERE))
    try:
        for source, flags in SOURCES.items():
            ref[source] = {}
            for op, cmd in EXPERIMENTS.items():
                seen = []
                for seed, trials in ((1, 1), (2, 2)):
                    out = tmp / f"{source}-{op}-{seed}"
                    _dispatch([*cmd, *flags, "--seed", str(seed), "--trials",
                               str(trials), "--out", str(out)])
                    doc = json.loads((out / "report.json").read_text())
                    seen.append(exact_fields(op, doc["payload"]))
                if seen[0] != seen[1]:
                    raise SystemExit(f"capture: {op} exact fields depend on the seed")
                ref[source][op] = seen[0]
        for tool in ("check", "fmt"):
            ref["tools"][tool] = _dispatch([tool, NETLIST])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return ref


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        raise SystemExit("usage: PYTHONPATH=src python3 perfbench/checks.py --capture")
    REFERENCE.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {REFERENCE}")
