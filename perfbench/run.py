"""swapsim benchmark: wall time of every subcommand on two workloads.

Run from the repository root (the script finds `src/` itself):

    python3 perfbench/run.py --workload mc-defaults --seed 1 --seconds 40 --trace 0

Every workload is a closed loop with one client: one process, no threads.
A pass runs the ten subcommand ops of `OPS` once through
`swapsim.cli.dispatch`, each with a `--seed` derived from the workload seed
and the pass number.  The workloads differ in the chip source and the trial
count (see `WORKLOADS` and perfbench/README.md).  Set-up time is measured
on fresh processes.  Every timing is scaled to a fixed machine speed by a
speed probe run next to it (see `speed_probe`).

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json;
with `--trace 1` it runs untraced passes for half the time and traced ones
for the other half, and reports the per-layer metrics (perfbench/layers.py)
plus the tracing overhead.  Every op's output is checked (perfbench/checks.py).

Stdout ends with the results block (machine, versions, sample counts) and,
as the last line, one JSON object: {correct, attempted, failed, metrics}.
Exit status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"

CONFIG, NETLIST = checks.CONFIG, checks.NETLIST

SETUP_RUNS = 6        # fresh processes timed for setup_s, split over the CPUs
IMPORT_RUNS = 3       # fresh `-X importtime` processes per traced run
CHILD_TIMEOUT_S = 120
PROBE_ROUNDS = 400    # rounds of work in one speed probe
PROBE_REF_S = 0.020   # a probe's time on a quiet core of the reference machine
START_PROBE_REF_S = 0.700   # the same for a start probe


@dataclass(frozen=True)
class Workload:
    source: tuple   # chip source flags given to every experiment op
    trials: int


WORKLOADS = {
    "mc-defaults": Workload(("--config", CONFIG), 100),
    "exact-netlist": Workload(("--netlist", NETLIST), 1),
}

# (op, end-to-end metric, argv).  Experiment ops also get the workload's
# source flags, --trials, --seed and --out.
OPS = (
    ("truth-table", "truth_table_ms", ("truth-table",)),
    ("fringe", "fringe_ms", ("fringe",)),
    ("hom", "hom_ms", ("hom",)),
    ("bell", "bell_ms", ("bell",)),
    ("tomo-state", "tomo_state_ms", ("tomo-state",)),
    ("tomo-process", "tomo_process_ms", ("tomo-process",)),
    ("tomo-process-2q", "tomo_process_2q_ms", ("tomo-process", "--two-qubit")),
    ("sweep", "sweep_ms", ("sweep",)),
    ("check", "netlist_tools_ms", ("check", NETLIST)),
    ("fmt", "netlist_tools_ms", ("fmt", NETLIST)),
)
TOOLS = ("check", "fmt")

# A fresh process from start to ready: import, config load, first chip build.
SETUP_CODE = """\
import sys
from dataclasses import replace
import swapsim.cli
from swapsim.config import ChipConfig, ExperimentConfig, load_config
flag, path = sys.argv[1:3]
if flag == "--netlist":
    cfg = ExperimentConfig.measured_chip()
    cfg = replace(cfg, chips=(ChipConfig(netlist_path=path),) * len(cfg.chips))
else:
    cfg = load_config(path)
cfg.chip(0)
"""


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def ensure_swapsim():
    """Import swapsim from this checkout's src/, never from elsewhere."""
    if not (SRC / "swapsim" / "__init__.py").is_file():
        raise BenchError(f"no swapsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import swapsim

    if Path(swapsim.__file__).resolve().parent != SRC / "swapsim":
        raise BenchError(f"swapsim imported from {swapsim.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _version(dist: str):
    from importlib.metadata import PackageNotFoundError, version

    try:
        return version(dist)
    except PackageNotFoundError:
        return None


def machine_info() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "swapsim").rglob("*.py")):
        src_hash.update(path.relative_to(SRC).as_posix().encode())
        src_hash.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def speed_probe(rounds: int = PROBE_ROUNDS) -> float:
    """Seconds taken by a fixed piece of work that does not touch swapsim.

    The machine is shared, and other tenants slow its cores by up to half
    for seconds to minutes.  The probe has the shape of swapsim's hot loops
    (hashing, seeded PCG64 draws, small numpy arrays, LAPACK on 4x4) so that
    such a slow-down stretches it by about as much as it stretches an op.
    A timing divided by the probes on both sides of it, times PROBE_REF_S,
    is that timing at the reference speed.  The code under test never runs
    inside the probe, so a change to swapsim cannot move it.
    """
    import numpy as np

    m = np.eye(2) + 0.1
    t0 = time.perf_counter()
    for j in range(rounds):
        key = int.from_bytes(hashlib.sha256(str(j).encode()).digest()[:8], "big")
        gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([j, key])))
        gen.poisson(50.0)
        np.linalg.eigvalsh(np.kron(m, m))
    return time.perf_counter() - t0


def start_probe() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and
    scipy.optimize and nothing of swapsim.

    Set-up is process start, shared-library loading and bytecode
    unmarshalling, which a loaded machine slows less than it slows
    `speed_probe` (set-up time grows as the probe time to the power 0.33
    here, but in proportion to this probe's time), so set-up is scaled by
    this probe instead.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import numpy, scipy.optimize"],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"start probe failed: {proc.stderr.strip()[-500:]}")
    return time.perf_counter() - t0


def at_ref_speed(seconds: float, before: float, after: float,
                 ref: float = PROBE_REF_S) -> float:
    """`seconds` scaled to the speed at which the probes around it take `ref`."""
    return seconds * ref * 2.0 / (before + after)


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

def op_seed(seed: int, pass_no: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{pass_no}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def op_argv(wl: Workload, index: int, seed: int, pass_no: int, out: Path) -> list:
    op, _, argv = OPS[index]
    if op in TOOLS:
        return list(argv)
    return [*argv, *wl.source, "--trials", str(wl.trials),
            "--seed", str(op_seed(seed, pass_no, index)), "--out", str(out)]


@dataclass
class OpResult:
    seconds: float
    rc: int
    stdout: str
    error: str = ""
    digest: str | None = None   # what a same-seed re-run must reproduce


def run_warm(argv) -> OpResult:
    from swapsim.cli import dispatch

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = dispatch(argv)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpResult(time.perf_counter() - t0, -1, out.getvalue(),
                        f"{type(exc).__name__}: {exc}")
    return OpResult(time.perf_counter() - t0, rc, out.getvalue(), err.getvalue())


def check_op(op: str, wl: Workload, result: OpResult, out: Path,
             reference: dict) -> tuple:
    """(problems, digest) of one finished op."""
    if result.rc != 0:
        return [f"exit code {result.rc}: {result.error.strip()[-300:]}"], None
    if op in TOOLS:
        return (checks.check_tool_output(op, result.stdout, reference),
                checks.digest(None, result.stdout))
    try:
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"no readable report.json: {exc}"], None
    source = "netlist" if wl.source[0] == "--netlist" else "config"
    return (checks.check_payload(op, source, doc, reference, wl.trials),
            checks.digest(doc, ""))


def report_bytes(out: Path, stdout: str) -> int:
    files = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
        if out.is_dir() else 0
    return files + len(stdout.encode())


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------

class Runner:
    """Runs passes of one workload and keeps every sample and failure."""

    def __init__(self, name: str, seed: int, reference: dict, work: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.reference = reference
        self.work = work
        self.attempted = 0
        self.failures: list = []
        self.samples: dict = {}       # metric -> [seconds at the reference speed]
        self.wall: dict = {}          # metric -> [wall seconds]
        self.probes: list = []        # speed probe seconds
        self.tracer = None            # set while passes run traced
        self.report_bytes = 0         # written by the ops of pass 1
        self.cpus = sorted(os.sched_getaffinity(0))

    def run_op(self, index: int, pass_no: int, out: Path, op_id: int) -> OpResult:
        op = OPS[index][0]
        shutil.rmtree(out, ignore_errors=True)
        if self.tracer is not None:
            self.tracer.op = op_id
        result = run_warm(op_argv(self.wl, index, self.seed, pass_no, out))
        self.attempted += 1
        problems, result.digest = check_op(op, self.wl, result, out, self.reference)
        if problems:
            self.failures.append(f"pass {pass_no} {op}: {'; '.join(problems)}")
        return result

    def run_pass(self, pass_no: int, record: bool, deadline: float = math.inf):
        """One pass through OPS; returns its timed wall seconds.

        Returns None if `deadline` passes before the last op starts.  A
        speed probe runs before the first op and after each op.  After a
        whole pass one op (rotating with the pass number) runs again,
        untimed, with the same seed and must give the same digest.
        """
        total = scaled = 0.0
        digests = {}
        samples, wall = [], []
        # Passes take turns on the CPUs this process may use.  Another
        # tenant can slow one core by half for minutes, and the scheduler
        # keeps a lone process on its core; taking turns mixes the cores in
        # every run in the same proportion.  The probes run on the same core
        # as the ops they bracket.
        os.sched_setaffinity(0, {self.cpus[pass_no % len(self.cpus)]})
        probes = [speed_probe()]
        for index, (op, metric, _) in enumerate(OPS):
            if time.perf_counter() >= deadline:
                return None
            out = self.work / f"op{index}"
            result = self.run_op(index, pass_no, out, pass_no * 100 + index)
            probes.append(speed_probe())
            at_ref = at_ref_speed(result.seconds, probes[-2], probes[-1])
            total += result.seconds
            scaled += at_ref
            digests[index] = result.digest
            samples.append((metric, at_ref))
            wall.append((metric, result.seconds))
            if record and pass_no == 1:
                self.report_bytes += report_bytes(out, result.stdout)
        if record:   # whole passes only, so every metric has as many samples
            for metric, value in samples:
                self.samples.setdefault(metric, []).append(value)
            for metric, value in wall:
                self.wall.setdefault(metric, []).append(value)
            self.samples.setdefault("pass_s", []).append(scaled)
            self.wall.setdefault("pass_s", []).append(total)
            self.probes.extend(probes)
        index = pass_no % len(OPS)
        again = self.run_op(index, pass_no, self.work / "repeat", pass_no * 100 + 99)
        if digests[index] is not None and again.digest != digests[index]:
            self.failures.append(f"pass {pass_no} {OPS[index][0]}: re-run with the "
                                 "same seed gave a different output")
        return total

    def run_for(self, seconds: float, record: bool = True) -> list:
        """Passes until `seconds` have elapsed; the first always completes
        and the last may stop part way.  Returns the whole passes' wall
        times."""
        deadline = time.perf_counter() + seconds
        times, pass_no = [], 1
        while True:
            took = self.run_pass(pass_no, record, deadline if times else math.inf)
            if took is None:
                return times
            times.append(took)
            pass_no += 1


# ---------------------------------------------------------------------------
# set-up and import time
# ---------------------------------------------------------------------------

def measure_setup(wl: Workload, cpus: list, runs: int = SETUP_RUNS) -> tuple:
    """Times of fresh processes from start to ready, at the reference speed
    and on the wall.  The runs are split evenly over `cpus`, so that every
    run mixes the cores in the same proportion.  On each core start probes
    and set-up processes alternate, beginning and ending with a probe."""
    scaled, wall = [], []
    for n, cpu in enumerate(cpus):
        os.sched_setaffinity(0, {cpu})   # children inherit it
        before = start_probe()
        for _ in range(runs // len(cpus) + (n < runs % len(cpus))):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *wl.source],
                                  cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
            wall.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
            after = start_probe()
            scaled.append(at_ref_speed(wall[-1], before, after, START_PROBE_REF_S))
            before = after
    os.sched_setaffinity(0, cpus)
    return scaled, wall


def import_times(runs: int = IMPORT_RUNS) -> dict:
    """Median import split of `import swapsim.cli` over fresh processes (ms)."""
    per_run = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import swapsim.cli"], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
        split = {"import.total_ms": 0.0, "import.scipy_ms": 0.0,
                 "import.numpy_ms": 0.0, "import.swapsim_self_ms": 0.0}
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            ms, top = int(self_us) / 1000.0, name.strip().split(".")[0]
            split["import.total_ms"] += ms
            key = {"scipy": "import.scipy_ms", "numpy": "import.numpy_ms",
                   "swapsim": "import.swapsim_self_ms"}.get(top)
            if key:
                split[key] += ms
        per_run.append(split)
    return {k: statistics.median(r[k] for r in per_run) for k in per_run[0]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def timing(values, wall, unit: float = 1.0) -> dict:
    """A timing metric: the median of the run's samples at the reference
    speed.

    The machine is shared, and another tenant can slow a core by up to half
    for minutes.  That moved the median wall time of a 50 s run by 15-40 %
    against the next run, and its fastest sample by up to 30 %.  Scaled by
    the speed probes next to it, the median moves by under 10 %.  The wall
    median and fastest sample, and the highest percentile that has at least
    ten samples beyond it, are kept for reference.
    """
    out = {"value": statistics.median(values) * unit, "samples": len(values),
           "wall_median": statistics.median(wall) * unit,
           "wall_min": min(wall) * unit}
    for pct in (99, 90, 75, 50):
        if len(values) * (100 - pct) >= 1000:
            out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1] * unit
            break
    return out


def end_to_end(runner: Runner, seconds: float) -> tuple:
    setup, setup_wall = measure_setup(runner.wl, runner.cpus)
    runner.run_pass(0, record=False)   # untimed warm-up
    runner.run_for(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": timing(setup, setup_wall),
               "peak_rss_mb": {"value": rss_mb, "samples": 1}}
    for metric, values in runner.samples.items():
        unit = 1.0 if metric == "pass_s" else 1000.0
        metrics[metric] = timing(values, runner.wall[metric], unit)
    probes = sorted(runner.probes)
    return metrics, {"speed_probe_ms": {
        "median": statistics.median(probes) * 1000.0, "min": probes[0] * 1000.0,
        "max": probes[-1] * 1000.0, "samples": len(probes),
        "reference": PROBE_REF_S * 1000.0}}


def per_layer(runner: Runner, seconds: float) -> tuple:
    import numpy as np   # only after main() has set the BLAS threads

    import layers

    imports = import_times()
    runner.run_pass(0, record=False)   # untimed warm-up
    plain = runner.run_for(seconds / 2.0, record=False)
    tracer = layers.Tracer()
    tracer.install()
    runner.tracer = tracer
    try:
        traced = runner.run_for(seconds / 2.0)
    finally:
        tracer.uninstall()
        runner.tracer = None
    table, missing = tracer.table(), tracer.missing
    np.savez_compressed(WORK / f"{runner.name}.spans.npz", spans=table,
                        names=np.array([f"{m}:{q}" for m, q in layers.LAYER_MAP]))

    n = len(traced)
    per_pass = [layers.layer_metrics(table, range(p * 100, p * 100 + len(OPS)))
                for p in range(1, n + 1)]
    first = per_pass[0]
    metrics = {}
    for key, value in first.items():
        if key.endswith("_ms"):   # times: median over traced passes
            metrics[key] = {"value": statistics.median(m[key] for m in per_pass),
                            "samples": n}
        else:                     # counts and ratios: the first traced pass
            metrics[key] = {"value": value, "samples": 1}
    metrics["cli.report_bytes"] = {"value": runner.report_bytes, "samples": 1}
    for key, value in imports.items():
        metrics[key] = {"value": value, "samples": IMPORT_RUNS}
    untraced = statistics.median(plain)
    layer_sum = statistics.median(
        sum(v for k, v in m.items() if k.endswith("_ms")) for m in per_pass) / 1000.0
    metrics["trace.overhead_ratio"] = {"value": statistics.median(traced) / untraced,
                                       "samples": n}
    metrics["trace.accounted_ratio"] = {"value": layer_sum / untraced, "samples": n}
    metrics["trace.missing_names"] = {"value": len(missing), "samples": 1}
    return metrics, {"missing_names": [list(k) for k in missing],
                     "untraced_pass_s": untraced}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = load_spec()
    ensure_swapsim()
    reference = checks.load_reference()
    work = WORK / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(workload, seed, reference, work)
    try:
        if trace:
            measured, extra = per_layer(runner, seconds)
            declared = spec["per_layer"]
        else:
            measured, extra = end_to_end(runner, seconds)
            declared = spec["end_to_end"]
    finally:
        os.sched_setaffinity(0, runner.cpus)
        shutil.rmtree(work, ignore_errors=True)
    metrics, block = {}, {}
    for entry in declared:
        m = measured[entry["name"]]
        metrics[entry["name"]] = {"value": m["value"], "unit": entry["unit"]}
        block[entry["name"]] = {**m, "unit": entry["unit"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    failed = len(runner.failures)
    results = {
        "workload": workload, "why": why.get(workload), "seed": seed,
        "seconds": seconds, "trace": int(trace), "machine": machine_info(),
        "attempted": runner.attempted, "failed": failed,
        "failed_ratio": failed / runner.attempted,
        "metrics": block, **extra, "failures": runner.failures[:20],
    }
    line = {"correct": failed == 0, "attempted": runner.attempted,
            "failed": failed, "metrics": metrics}
    return {"results": results, "line": line}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # one client, no threads: numpy's BLAS runs single-threaded here and in
    # every child, so its idle threads do not compete for the two cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"results": out["results"]}, indent=2, sort_keys=True))
    print(json.dumps(out["line"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
