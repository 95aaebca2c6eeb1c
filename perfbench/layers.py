"""Outside-in per-layer trace of swapsim.

The trace wraps public functions and methods of the swapsim modules from
outside the package: each entry of `LAYER_MAP` names a (module, public
name) pair and the layer its time is charged to.  A module-level function
is replaced in every swapsim module that holds it, so names that
`experiments`, `cli` and `config` imported from other modules are traced
too; a method is replaced on its class.

Each call records one span: (op id, span id, parent span id, name index,
start ns, end ns, tag).  Spans stay in memory until the run ends.  A
layer's self time is the duration of its spans minus the time of their
direct child spans, so the self times of all layers add up to the root
spans (one `cli.dispatch` per op).

The map fails soft: a name that does not resolve at some commit is listed
in `Tracer.missing` and reported as a layer with zero calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter_ns

import numpy as np

NO_TAG = -1


def _converged(args, kwargs, result):
    return int(bool(getattr(result, "converged", False)))


def _chip_key(args, kwargs, result):
    # (chip config value, base directory) identifies the chip a build makes
    base = args[1] if len(args) > 1 else kwargs.get("base_dir")
    return ("chip", args[0], base)


def _text_key(args, kwargs, result):
    return ("text", args[0] if args else kwargs.get("text"))


# (module, public name) -> (layer, tag function or None).  A tag function
# returns an int (fit converged or not) or a hashable key that the tracer
# interns (which chip was built, which text was parsed).  Trivial helpers
# (ket2, dagger, er_to_leakage, ...) are left out: a span would cost more
# than the call, and their time stays with the caller's layer.
LAYER_MAP = {
    ("swapsim.cli", "dispatch"): ("cli", None),

    ("swapsim.config", "load_config"): ("config", None),
    ("swapsim.config", "dump_config"): ("config", None),
    ("swapsim.config", "config_digest"): ("config", None),
    ("swapsim.config", "ChipConfig.build"): ("config", _chip_key),
    ("swapsim.config", "ExperimentConfig.chip"): ("config", None),

    ("swapsim.netlist", "parse"): ("netlist", _text_key),
    ("swapsim.netlist", "format_netlist"): ("netlist", None),
    ("swapsim.netlist", "compile_netlist"): ("netlist", None),
    ("swapsim.netlist", "compile_chip"): ("netlist", None),
    ("swapsim.netlist", "compile_all"): ("netlist", None),

    ("swapsim.experiments", "poisson_counts"): ("experiments.sampling", None),
    ("swapsim.experiments", "derive_seed"): ("experiments.sampling", None),
    ("swapsim.experiments", "run_truth_table"): ("experiments", None),
    ("swapsim.experiments", "run_fringe_scan"): ("experiments", None),
    ("swapsim.experiments", "run_hom_scan"): ("experiments", None),
    ("swapsim.experiments", "run_bell_distribution"): ("experiments", None),
    ("swapsim.experiments", "run_state_tomography"): ("experiments", None),
    ("swapsim.experiments", "run_process_tomography"): ("experiments", None),
    ("swapsim.experiments", "run_process_tomography_2q"): ("experiments", None),
    ("swapsim.experiments", "run_error_budget"): ("experiments", None),
    ("swapsim.experiments", "exact_truth_table"): ("experiments", None),
    ("swapsim.experiments", "truth_table_fidelity_exact"): ("experiments", None),

    ("swapsim.tomography", "MeasurementSetting.projector"): ("tomography", None),
    ("swapsim.tomography", "TruthTable.column_normalized"): ("tomography", None),
    ("swapsim.tomography", "ideal_truth_table"): ("tomography", None),
    ("swapsim.tomography", "truth_table_fidelity"): ("tomography", None),
    ("swapsim.tomography", "state_tomo_1q"): ("tomography", None),
    ("swapsim.tomography", "state_tomo_2q"): ("tomography", None),
    ("swapsim.tomography", "process_tomo"): ("tomography", None),
    ("swapsim.tomography", "chi_from_unitary"): ("tomography", None),
    ("swapsim.tomography", "process_fidelity"): ("tomography", None),
    ("swapsim.tomography", "process_purity"): ("tomography", None),
    ("swapsim.tomography", "fringe_fit"): ("tomography", _converged),

    ("swapsim.biphoton", "assemble_joint"): ("biphoton", None),
    ("swapsim.biphoton", "prepare_bell"): ("biphoton", None),
    ("swapsim.biphoton", "apply_local"): ("biphoton", None),
    ("swapsim.biphoton", "apply_chip_both"): ("biphoton", None),
    ("swapsim.biphoton", "conditional_polarization"): ("biphoton", None),
    ("swapsim.biphoton", "interference_overlap"): ("biphoton", None),
    ("swapsim.biphoton", "spectral_overlap"): ("biphoton", None),
    ("swapsim.biphoton", "hom_coincidence"): ("biphoton", None),
    ("swapsim.biphoton", "hom_visibility"): ("biphoton", _converged),
    ("swapsim.biphoton", "fiber_link"): ("biphoton", None),

    ("swapsim.devices", "ChipModel.apply"): ("devices", None),
    ("swapsim.devices", "ChipModel.channel"): ("devices", None),
    ("swapsim.devices", "build_swap_chip"): ("devices", None),
    ("swapsim.devices", "pcnot_channel"): ("devices", None),
    ("swapsim.devices", "mcnot_channel"): ("devices", None),
    ("swapsim.devices", "facet_channel"): ("devices", None),
    ("swapsim.devices", "mzi_projector"): ("devices", None),
    ("swapsim.devices", "polarizer"): ("devices", None),
    ("swapsim.devices", "waveplate_jones"): ("devices", None),
    ("swapsim.devices", "phase_v"): ("devices", None),
    ("swapsim.devices", "logical_frame"): ("devices", None),
    ("swapsim.devices", "swap_unitary"): ("devices", None),

    ("swapsim.qcore", "DensityMatrix.__init__"): ("qcore", None),
    ("swapsim.qcore", "QuantumChannel.__init__"): ("qcore", None),
    ("swapsim.qcore", "ProcessMatrix.__init__"): ("qcore", None),
    ("swapsim.qcore", "PauliBasis.__init__"): ("qcore", None),
    ("swapsim.qcore", "apply_channel"): ("qcore", None),
    ("swapsim.qcore", "compose_channels"): ("qcore", None),
    ("swapsim.qcore", "heralded_normalize"): ("qcore", None),
    ("swapsim.qcore", "uhlmann_fidelity"): ("qcore", None),
    ("swapsim.qcore", "project_to_physical"): ("qcore", None),
    ("swapsim.qcore", "partial_trace"): ("qcore", None),
    ("swapsim.qcore", "permute_subsystems"): ("qcore", None),
    ("swapsim.qcore", "pauli_coefficients"): ("qcore", None),
    ("swapsim.qcore", "tensor"): ("qcore", None),
}

# layer -> per-layer metric of its self time
SELF_TIMES = {
    "cli": "cli.self_ms",
    "config": "config.self_ms",
    "netlist": "netlist.self_ms",
    "experiments": "experiments.self_ms",
    "experiments.sampling": "experiments.sampling_ms",
    "tomography": "tomography.self_ms",
    "biphoton": "biphoton.self_ms",
    "devices": "devices.self_ms",
    "qcore": "qcore.self_ms",
}

# per-layer metric -> (module, public name) whose calls it counts
CALL_COUNTS = {
    "experiments.draws": ("swapsim.experiments", "poisson_counts"),
    "experiments.seed_derivations": ("swapsim.experiments", "derive_seed"),
    "tomography.fringe_fits": ("swapsim.tomography", "fringe_fit"),
    "tomography.state_tomo_2q_calls": ("swapsim.tomography", "state_tomo_2q"),
    "biphoton.hom_fits": ("swapsim.biphoton", "hom_visibility"),
    "qcore.density_matrix_constructions": ("swapsim.qcore", "DensityMatrix.__init__"),
    "qcore.apply_channel_calls": ("swapsim.qcore", "apply_channel"),
    "devices.chip_applies": ("swapsim.devices", "ChipModel.apply"),
    "config.chip_builds": ("swapsim.config", "ChipConfig.build"),
    "netlist.parses": ("swapsim.netlist", "parse"),
}

# per-layer metric -> (module, public name) whose tags give converged / calls
CONVERGED_RATIOS = {
    "tomography.fringe_fit_converged_ratio": ("swapsim.tomography", "fringe_fit"),
    "biphoton.hom_fit_converged_ratio": ("swapsim.biphoton", "hom_visibility"),
}

# per-layer metric -> (module, public name) whose calls are divided by the
# number of distinct tag keys seen within each op
PER_DISTINCT = {
    "config.builds_per_distinct_chip": ("swapsim.config", "ChipConfig.build"),
    "netlist.parses_per_distinct_file": ("swapsim.netlist", "parse"),
}

_COLUMNS = 7  # op, span, parent, name, start ns, end ns, tag


def _swapsim_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "swapsim" or name.startswith("swapsim."))]


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, raw object) for a map entry, or None if missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(raw):
        return None
    return owner, attr, raw


def unresolved_names(layer_map=LAYER_MAP) -> list:
    """Map entries that do not resolve to a callable at this commit."""
    return [key for key in layer_map if _resolve(*key) is None]


class Tracer:
    """Span recorder for the functions named in a layer map."""

    def __init__(self, layer_map=LAYER_MAP):
        self.names = list(layer_map)
        self._tag_fns = [layer_map[k][1] for k in self.names]
        self.spans = array("q")
        self.keys: dict = {}
        self.missing: list = []
        self.op = 0
        self._stack = [-1]
        self._next_id = 0
        self._undo: list = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = _swapsim_modules()
        for index, key in enumerate(self.names):
            found = _resolve(*key)
            if found is None:
                self.missing.append(key)
                continue
            owner, attr, raw = found
            wrapper = self._wrap(raw, index)
            if isinstance(owner, type):
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is raw:
                        self._undo.append((mod, name, raw))
                        setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def _wrap(self, fn, index):
        tag_fn = self._tag_fns[index]
        stack = self._stack
        spans = self.spans
        keys = self.keys

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = perf_counter_ns()
                stack.pop()
                spans.extend((self.op, sid, parent, index, t0, t1, NO_TAG))
                raise
            t1 = perf_counter_ns()
            stack.pop()
            tag = NO_TAG
            if tag_fn is not None:
                tag = tag_fn(args, kwargs, result)
                if not isinstance(tag, int):
                    tag = keys.setdefault(tag, len(keys))
            spans.extend((self.op, sid, parent, index, t0, t1, tag))
            return result

        return traced

    # -- export ------------------------------------------------------------

    def table(self) -> np.ndarray:
        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _COLUMNS).copy()


def self_times_ns(table: np.ndarray) -> np.ndarray:
    """Self time of each span: its duration minus its direct children's."""
    if not len(table):
        return np.zeros(0)
    ids, parents = table[:, 1], table[:, 2]
    dur = (table[:, 5] - table[:, 4]).astype(float)
    row_of = np.full(int(ids.max()) + 1, -1)
    row_of[ids] = np.arange(len(ids))
    has_parent = parents >= 0
    child = np.bincount(row_of[parents[has_parent]], weights=dur[has_parent],
                        minlength=len(ids))
    return dur - child


def layer_metrics(table: np.ndarray, ops) -> dict:
    """Per-layer self times (ms) and call counts for the spans of `ops`."""
    names = list(LAYER_MAP)
    layer_of = np.array([LAYER_MAP[k][0] for k in names])
    table = table[np.isin(table[:, 0], list(ops))]
    self_ns = self_times_ns(table)
    name_idx = table[:, 3]
    out = {}
    for layer, metric in SELF_TIMES.items():
        out[metric] = float(self_ns[layer_of[name_idx] == layer].sum()) / 1e6
    for metric, key in CALL_COUNTS.items():
        out[metric] = int(np.sum(name_idx == names.index(key)))
    for metric, key in CONVERGED_RATIOS.items():
        tags = table[name_idx == names.index(key), 6]
        out[metric] = float(np.mean(tags == 1)) if len(tags) else 0.0
    for metric, key in PER_DISTINCT.items():
        rows = table[name_idx == names.index(key)]
        distinct = sum(len(set(rows[rows[:, 0] == op, 6].tolist()))
                       for op in set(rows[:, 0].tolist()))
        out[metric] = len(rows) / distinct if distinct else 0.0
    return out
