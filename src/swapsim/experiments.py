"""End-to-end reproductions of the chip experiments with shot-noise Monte Carlo.

Each runner propagates exact density matrices through the configured chips,
derives per-setting detection probabilities, draws Poissonian counts with
deterministic per-draw seeds, runs the matching estimator and wraps the
results in a `Report`.  The exact (infinite-count) value of every estimate
is always computed alongside the Monte Carlo one, so the noiseless pipeline
doubles as the oracle for the sampled one.

Determinism contract: a fixed (config, seed) pair reproduces every count
and every estimate bit-exactly.  Counts are drawn from PCG64 generators
seeded through `numpy.random.SeedSequence(master, *path)` where `path`
identifies the experiment, trial and setting; aggregation never depends on
iteration order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import biphoton as bp
from . import tomography as tm
from .config import ExperimentConfig, config_digest
from .devices import (
    BS_5050,
    ChipModel,
    MZISetting,
    logical_frame,
    mzi_projector,
    phase_v,
    swap_unitary,
)
from .qcore import (
    PAULI_X,
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    dagger,
    heralded_normalize,
    ket2,
    partial_trace,
    uhlmann_fidelity,
)

__all__ = [
    "Report",
    "poisson_counts",
    "derive_seed",
    "run_truth_table",
    "run_fringe_scan",
    "run_hom_scan",
    "run_bell_distribution",
    "run_state_tomography",
    "run_process_tomography",
    "run_error_budget",
    "exact_truth_table",
    "truth_table_fidelity_exact",
]


# ---------------------------------------------------------------------------
# randomness
# ---------------------------------------------------------------------------

def derive_seed(master_seed: int, *path) -> np.random.SeedSequence:
    """Deterministic per-draw seed from the master seed and a derivation path."""
    parts = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for p in path:
        if isinstance(p, str):
            parts.append(int.from_bytes(hashlib.sha256(p.encode()).digest()[:8], "big"))
        else:
            parts.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    return np.random.SeedSequence(parts)


def poisson_counts(rate_hz: float, time_s: float, seed) -> int:
    """One Poisson draw with mean rate*time from a seeded PCG64 generator.

    The generator algorithm is pinned (PCG64), so identical seeds give
    identical counts on every platform.
    """
    if rate_hz < 0 or time_s < 0:
        raise ValueError("rate and time must be nonnegative")
    mean = rate_hz * time_s
    if mean == 0:
        return 0
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    gen = np.random.Generator(np.random.PCG64(seed))
    return int(gen.poisson(mean))


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Report:
    """Experiment result: deterministic payload plus provenance."""

    kind: str
    payload: dict
    config_hash: str
    seed: int
    tables: dict = field(default_factory=dict)  # name -> list of rows (CSV-able)

    def canonical_payload(self) -> str:
        """Byte-stable JSON of the deterministic payload."""
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    def payload_sha256(self) -> str:
        return hashlib.sha256(self.canonical_payload().encode("utf-8")).hexdigest()


def _mk_report(kind: str, cfg: ExperimentConfig, payload: dict, tables=None) -> Report:
    return Report(kind, payload, config_digest(cfg), cfg.rng_seed, tables or {})


def _mean_stderr(values) -> tuple:
    """Monte Carlo mean and spread (sample standard deviation, 0 for one trial)."""
    a = np.asarray(values, dtype=float)
    return float(a.mean()), float(a.std(ddof=1)) if len(a) > 1 else 0.0


def _rho4(channel_label: str, pol_vec: np.ndarray) -> DensityMatrix:
    v = np.kron(ket2(channel_label), pol_vec)
    return DensityMatrix(4, np.outer(v, v.conj()))


# ---------------------------------------------------------------------------
# truth table
# ---------------------------------------------------------------------------

_BASIS_LABELS = ("TH", "TV", "BH", "BV")


def exact_truth_table(chip: ChipModel) -> np.ndarray:
    """Unnormalized detection probabilities: column j = input basis state j,
    row i = probability of output basis state i (column sums < 1 are loss)."""
    probs = np.zeros((4, 4))
    for j in range(4):
        v = np.zeros(4, dtype=complex)
        v[j] = 1.0
        out = chip.apply(DensityMatrix(4, np.outer(v, v.conj())))
        probs[:, j] = np.diag(out.entries).real
    return probs


def truth_table_fidelity_exact(chip: ChipModel, frame: str = "raw") -> float:
    probs = exact_truth_table(chip)
    table = tm.TruthTable(probs).column_normalized()
    return tm.truth_table_fidelity(table, tm.ideal_truth_table(frame))


def run_truth_table(cfg: ExperimentConfig) -> Report:
    """Measure the chip truth table: 16 settings, Poisson counts, bootstrap.

    Time splits equally over the 16 (input, output) settings.  The known
    accidental-background expectation is subtracted from each count before
    column normalization.
    """
    chip = cfg.chip(0)
    probs = exact_truth_table(chip)
    f_exact = truth_table_fidelity_exact(chip, cfg.logical_frame)
    ideal = tm.ideal_truth_table(cfg.logical_frame)

    t_setting = cfg.integration_time_s / 16.0
    bg_counts = cfg.background_rate_hz * t_setting
    fids = []
    first_counts = None
    for trial in range(cfg.n_trials):
        counts = np.zeros((4, 4))
        for j in range(4):
            for i in range(4):
                seed = derive_seed(cfg.rng_seed, "truth-table", trial, i, j)
                counts[i, j] = poisson_counts(
                    cfg.pair_rate_hz * probs[i, j] + cfg.background_rate_hz,
                    t_setting, seed)
        net = np.maximum(counts - bg_counts, 0.0)
        sums = net.sum(axis=0)
        # a column with no surviving counts carries no information: uniform
        net[:, sums == 0] = 0.25
        table = tm.TruthTable(net / net.sum(axis=0))
        fids.append(tm.truth_table_fidelity(table, ideal))
        if trial == 0:
            first_counts = counts
    f_mean, f_err = _mean_stderr(fids)
    payload = {
        "frame": cfg.logical_frame,
        "fidelity_exact": f_exact,
        "fidelity_mc_mean": f_mean,
        "fidelity_mc_stderr": f_err,
        "total_counts_mean": float(first_counts.sum()),
        "exact_probabilities": probs.tolist(),
        "first_trial_counts": first_counts.astype(int).tolist(),
        "column_survival": probs.sum(axis=0).tolist(),
        "n_trials": cfg.n_trials,
    }
    rows = [["input", "output", "probability", "counts_trial0"]]
    for j in range(4):
        for i in range(4):
            rows.append([_BASIS_LABELS[j], _BASIS_LABELS[i],
                         repr(float(probs[i, j])), int(first_counts[i, j])])
    return _mk_report("truth-table", cfg, payload, {"truth_table": rows})


# ---------------------------------------------------------------------------
# fringe scan
# ---------------------------------------------------------------------------

def _fringe_probability(chip: ChipModel, phi: float, port: str,
                        use_polarizer: bool) -> float:
    pol_in = phase_v(phi) @ ket2("D")
    rho = _rho4(port, pol_in)
    out = chip.apply(rho)
    bs = np.kron(BS_5050, np.eye(2))
    out = apply_channel(QuantumChannel(4, 4, (bs,)), out)
    if use_polarizer:
        # analyzer aligned with the ideal output polarization: the swapped
        # qubit leaves in V for T-port input and in H for B-port input
        sel_pol = np.diag([0.0, 1.0]) if port == "T" else np.diag([1.0, 0.0])
    else:
        sel_pol = np.eye(2)
    # monitor the combiner output named like the input port (the leaked
    # amplitudes enter the two outputs with different quadratures; this one
    # carries the high-contrast fringe)
    sel_sp = np.diag([1.0, 0.0]) if port == "T" else np.diag([0.0, 1.0])
    sel = np.kron(sel_sp, sel_pol).astype(complex)
    out = apply_channel(QuantumChannel(4, 4, (sel,)), out)
    return out.trace


def run_fringe_scan(cfg: ExperimentConfig, phases=None) -> Report:
    """Self-interference fringe of |D> sent through one chip port.

    The two output channels are combined on a 50:50 splitter and one output
    is monitored (through a V polarizer by default, matching the ideal
    output polarization).  Counts accumulate `fringe_time_per_point_s` per
    phase point on top of the accidental background.
    """
    if phases is None:
        phases = np.linspace(0.0, 2.0 * np.pi, 17)
    phases = np.asarray(list(phases), dtype=float)
    if len(phases) < 5:
        raise ValueError("need at least 5 phase points")
    chip = cfg.chip(0)
    exact = np.array([
        _fringe_probability(chip, p, cfg.fringe_port, cfg.fringe_output_polarizer)
        for p in phases
    ])
    exact_v = float((exact.max() - exact.min()) / (exact.max() + exact.min()))
    fit_exact = tm.fringe_fit(list(zip(phases, exact * 1e6)))  # noiseless, scaled

    t_point = cfg.fringe_time_per_point_s
    bg = cfg.background_rate_hz * t_point
    v_raw, v_sub, deltas = [], [], []
    first = None
    for trial in range(cfg.n_trials):
        counts = [
            poisson_counts(cfg.pair_rate_hz * exact[k] + cfg.background_rate_hz,
                           t_point, derive_seed(cfg.rng_seed, "fringe", trial, k))
            for k in range(len(phases))
        ]
        fit = tm.fringe_fit(list(zip(phases, counts)), background=bg)
        v_raw.append(fit.visibility_raw)
        v_sub.append(fit.visibility_subtracted)
        deltas.append(fit.phase_offset)
        if trial == 0:
            first = (counts, fit)
    (raw_mean, raw_err), (sub_mean, sub_err) = map(_mean_stderr, (v_raw, v_sub))
    payload = {
        "port": cfg.fringe_port,
        "output_polarizer": cfg.fringe_output_polarizer,
        "visibility_exact": exact_v,
        "visibility_exact_fit": fit_exact.visibility,
        "phase_offset_exact_fit": fit_exact.phase_offset,
        "visibility_raw_mean": raw_mean,
        "visibility_raw_stderr": raw_err,
        "visibility_subtracted_mean": sub_mean,
        "visibility_subtracted_stderr": sub_err,
        "first_trial_visibility_stderr": first[1].visibility_stderr,
        "phases_rad": phases.tolist(),
        "exact_probabilities": exact.tolist(),
        "first_trial_counts": [int(c) for c in first[0]],
        "n_trials": cfg.n_trials,
    }
    rows = [["phase_rad", "probability", "counts_trial0"]]
    for k, p in enumerate(phases):
        rows.append([repr(float(p)), repr(float(exact[k])), int(first[0][k])])
    return _mk_report("fringe", cfg, payload, {"fringe_scan": rows})


# ---------------------------------------------------------------------------
# HOM scan
# ---------------------------------------------------------------------------

_HOM_INPUTS = {
    "TV_BH": (("T", "V"), ("B", "H")),
    "TH_BV": (("T", "H"), ("B", "V")),
    "source": (("T", "V"), ("B", "H")),
}


def _fpc_unitary(state: bp.BiphotonState, mode: str) -> np.ndarray:
    """Polarization controller on the idler arm.

    "ideal" flips H<->V (right for the orthogonally-polarized ideal
    outputs); "auto" aligns the idler's dominant polarization eigenvector
    with the signal's, mirroring how the controller is tuned in the lab.
    """
    if mode == "none":
        return np.eye(2, dtype=complex)
    if mode == "ideal":
        return PAULI_X.copy()
    rho, _ = heralded_normalize(state.joint)
    rho_s = partial_trace(rho, [2, 2, 2, 2], [1]).entries
    rho_i = partial_trace(rho, [2, 2, 2, 2], [3]).entries
    _, vs = np.linalg.eigh(rho_s)
    _, vi = np.linalg.eigh(rho_i)
    s_dom, i_dom = vs[:, -1], vi[:, -1]
    s_perp = np.array([-s_dom[1].conj(), s_dom[0].conj()])
    i_perp = np.array([-i_dom[1].conj(), i_dom[0].conj()])
    return np.outer(s_dom, i_dom.conj()) + np.outer(s_perp, i_perp.conj())


def _hom_state(cfg: ExperimentConfig) -> bp.BiphotonState:
    (ms, ps), (mi, pi) = _HOM_INPUTS[cfg.hom_input]
    joint = bp.assemble_joint([(ms, ps), (mi, pi)])
    state = bp.BiphotonState(
        joint, cfg.source.coherence_time_ps,
        (cfg.source.lambda_pump_nm, cfg.source.lambda_signal_nm,
         bp.idler_wavelength(cfg.source.lambda_pump_nm, cfg.source.lambda_signal_nm)),
        cfg.source.dip_shape)
    if cfg.hom_input != "source":
        state = bp.apply_chip_both(state, cfg.chip(0).channel())
    rho, _ = heralded_normalize(state.joint)
    state = bp.BiphotonState(rho, state.coherence_time_ps, state.wavelengths_nm,
                             state.overlap_shape)
    fpc = _fpc_unitary(state, cfg.fpc_mode)
    lift = np.kron(np.eye(4), np.kron(np.eye(2), fpc)).astype(complex)
    rho = apply_channel(QuantumChannel(16, 16, (lift,)), state.joint)
    return bp.BiphotonState(rho, state.coherence_time_ps, state.wavelengths_nm,
                            state.overlap_shape)


def run_hom_scan(cfg: ExperimentConfig, delays_ps=None) -> Report:
    """Hong-Ou-Mandel dip scan after the SWAP operation (or source-only)."""
    if delays_ps is None:
        delays_ps = np.linspace(-12.0, 12.0, 49)
    delays = np.asarray(list(delays_ps), dtype=float)
    state = _hom_state(cfg)
    overlap = bp.interference_overlap(state.joint)
    exact_p = np.array([bp.hom_coincidence(state, t) for t in delays])

    t_point = cfg.integration_time_s / len(delays)
    bg = cfg.background_rate_hz * t_point
    v_raw, v_sub, tc_fit = [], [], []
    first = None
    for trial in range(cfg.n_trials):
        counts = [
            poisson_counts(cfg.pair_rate_hz * exact_p[k] + cfg.background_rate_hz,
                           t_point, derive_seed(cfg.rng_seed, "hom", trial, k))
            for k in range(len(delays))
        ]
        fit = bp.hom_visibility(list(zip(delays, counts)), background=bg)
        v_raw.append(fit.visibility_raw)
        v_sub.append(fit.visibility_subtracted)
        tc_fit.append(fit.coherence_time_ps)
        if trial == 0:
            first = (counts, fit)
    (raw_mean, raw_err), (sub_mean, sub_err), (tc_mean, tc_err) = map(
        _mean_stderr, (v_raw, v_sub, tc_fit))
    bg_rel = cfg.background_rate_hz / cfg.pair_rate_hz
    payload = {
        "input": cfg.hom_input,
        "fpc_mode": cfg.fpc_mode,
        "overlap_exact": overlap,
        "visibility_subtracted_exact": overlap,
        "visibility_raw_exact": (overlap / 2.0) / (0.5 + bg_rel),
        "coherence_time_configured_ps": cfg.source.coherence_time_ps,
        "dip_fwhm_ps": 2.0 * np.sqrt(2.0 * np.log(2.0)) * cfg.source.coherence_time_ps,
        "visibility_raw_mean": raw_mean,
        "visibility_raw_stderr": raw_err,
        "visibility_subtracted_mean": sub_mean,
        "visibility_subtracted_stderr": sub_err,
        "coherence_time_fit_mean_ps": tc_mean,
        "coherence_time_fit_stderr_ps": tc_err,
        "delays_ps": delays.tolist(),
        "exact_probabilities": exact_p.tolist(),
        "first_trial_counts": [int(c) for c in first[0]],
        "n_trials": cfg.n_trials,
    }
    rows = [["delay_ps", "probability", "counts_trial0"]]
    for k, d in enumerate(delays):
        rows.append([repr(float(d)), repr(float(exact_p[k])), int(first[0][k])])
    return _mk_report("hom", cfg, payload, {"hom_scan": rows})


# ---------------------------------------------------------------------------
# Bell distribution between two chips
# ---------------------------------------------------------------------------

def _bell_final_polarization(cfg: ExperimentConfig, label: bp.BellLabel,
                             channels: tuple | None = None):
    """Propagate a Bell pair through chip1, fiber link, chip2.

    `channels` holds the composed channels of chips 0 and 1; they are
    built from `cfg` when omitted.  Returns the conditioned two-qubit
    polarization state in the (T_S, B_I) coincidence sector plus that
    sector's probability.
    """
    state = bp.prepare_bell(label, cfg.source.bell_visibility,
                            cfg.source.coherence_time_ps)
    chip1, chip2 = channels or (cfg.chip(0).channel(), cfg.chip(1).channel())
    state = bp.apply_chip_both(state, chip1)
    forward, compensation = bp.fiber_link(cfg.fiber_seed, cfg.fiber_residual_rad)
    for ch in (forward, compensation):
        state = bp.apply_chip_both(state, ch)
    state = bp.apply_chip_both(state, chip2)
    rho, survival = heralded_normalize(state.joint)
    blk, sector_p = bp.conditional_polarization(rho, (0, 1))
    rho_pol = DensityMatrix(4, 0.5 * (blk + dagger(blk)))
    return rho_pol, sector_p * survival


def _tomo_2q_probabilities(rho_pol: DensityMatrix) -> dict:
    probs = {}
    for l1 in tm.POLARIZATION_LABELS:
        for l2 in tm.POLARIZATION_LABELS:
            proj = np.kron(
                tm.MeasurementSetting("polarization", l1).projector(),
                tm.MeasurementSetting("polarization", l2).projector())
            probs[(l1, l2)] = float(np.trace(proj @ rho_pol.entries).real)
    return probs


def _bell_label(cfg: ExperimentConfig, label: bp.BellLabel, channels: tuple,
                chip2_f: float) -> tuple:
    """(payload, density-matrix table) of one Bell state's distribution."""
    rho_pol, success_p = _bell_final_polarization(cfg, label, channels)
    ideal_vec = bp.bell_state_vector(label)
    ideal = DensityMatrix(4, np.outer(ideal_vec, ideal_vec.conj()))
    f_exact = uhlmann_fidelity(rho_pol, ideal)

    probs = _tomo_2q_probabilities(rho_pol)
    t_setting = cfg.integration_time_s / 36.0
    bg_counts = cfg.background_rate_hz * t_setting
    fids = []
    for trial in range(cfg.n_trials):
        counts = {}
        for k, (pair, p) in enumerate(sorted(probs.items())):
            raw = poisson_counts(
                cfg.pair_rate_hz * p * success_p + cfg.background_rate_hz,
                t_setting, derive_seed(cfg.rng_seed, "bell", label.value, trial, k))
            counts[pair] = max(raw - bg_counts, 0.0)
        rho_hat = tm.state_tomo_2q(counts)
        fids.append(uhlmann_fidelity(rho_hat, ideal))
    f_mean, f_err = _mean_stderr(fids)
    payload = {
        "bell_label": label.value,
        "source_visibility": cfg.source.bell_visibility,
        "fidelity_exact": f_exact,
        "fidelity_mc_mean": f_mean,
        "fidelity_mc_stderr": f_err,
        "coincidence_probability": success_p,
        "second_chip_truth_table_fidelity": chip2_f,
        "density_matrix_real": rho_pol.entries.real.tolist(),
        "density_matrix_imag": rho_pol.entries.imag.tolist(),
        "n_trials": cfg.n_trials,
    }
    rows = [["row", "col", "real", "imag"]]
    basis = ("HH", "HV", "VH", "VV")
    for i in range(4):
        for j in range(4):
            rows.append([basis[i], basis[j],
                         repr(float(rho_pol.entries[i, j].real)),
                         repr(float(rho_pol.entries[i, j].imag))])
    return payload, rows


def run_bell_distribution(cfg: ExperimentConfig, label: bp.BellLabel | None = None) -> Report:
    """Chip-to-chip Bell distribution with two-qubit polarization tomography.

    One label gives that state's full report; `None` runs all four and
    reports the per-label fidelities and their average.  Chips 0 and 1 are
    built once per call.
    """
    chip2 = cfg.chip(1)
    channels = (cfg.chip(0).channel(), chip2.channel())
    chip2_f = truth_table_fidelity_exact(chip2, cfg.logical_frame)
    if label is not None:
        payload, rows = _bell_label(cfg, label, channels, chip2_f)
        return _mk_report("bell", cfg, payload, {"density_matrix": rows})
    labels = list(bp.BellLabel)
    runs = [_bell_label(cfg, l, channels, chip2_f) for l in labels]
    payload = {
        "bell_labels": [l.value for l in labels],
        "fidelity_exact_by_label": {
            l.value: p["fidelity_exact"] for l, (p, _) in zip(labels, runs)},
        "fidelity_exact_avg": float(np.mean([p["fidelity_exact"] for p, _ in runs])),
        "fidelity_mc_mean_by_label": {
            l.value: p["fidelity_mc_mean"] for l, (p, _) in zip(labels, runs)},
        "second_chip_truth_table_fidelity": chip2_f,
    }
    tables = {f"density_matrix_{l.value.replace('+', 'p').replace('-', 'm')}": rows
              for l, (_, rows) in zip(labels, runs)}
    return _mk_report("bell", cfg, payload, tables)


# ---------------------------------------------------------------------------
# state / process tomography experiments
# ---------------------------------------------------------------------------

_MZI_BY_LABEL = {
    "0": MZISetting.T, "1": MZISetting.B, "+": MZISetting.PLUS,
    "-": MZISetting.MINUS, "i": MZISetting.PLUS_I, "-i": MZISetting.MINUS_I,
}

def _momentum_probabilities(rho2: DensityMatrix, mzi_extinction_db=None) -> dict:
    """Detection probability behind the MZI for each of the six settings."""
    ext = math.inf if mzi_extinction_db is None else mzi_extinction_db
    out = {}
    for lbl, setting in _MZI_BY_LABEL.items():
        ch = mzi_projector(setting, ext)
        out[lbl] = apply_channel(ch, rho2).trace
    return out


def _output_momentum_state(chip: ChipModel, spatial_label: str,
                           pol_vec: np.ndarray, frame: str) -> DensityMatrix:
    sp = ket2(spatial_label if spatial_label != "+i" else "i")
    v = np.kron(sp, pol_vec)
    out = chip.apply(DensityMatrix(4, np.outer(v, v.conj())))
    out, _ = heralded_normalize(out)
    red = partial_trace(out, [2, 2], [0])
    return logical_frame(red, frame)


def run_state_tomography(cfg: ExperimentConfig, spatial_input: str = "T",
                         pol_label: str = "D") -> Report:
    """Single-qubit tomography of the output spatial-momentum qubit.

    In the relabeled frame the fidelity target is the input polarization
    state itself; in the raw frame it is that state with the bit flipped
    (the ideal chip maps pol value p to momentum value NOT p).  The two
    frames give identical fidelities, only the reported state differs.
    """
    chip = cfg.chip(0)
    pol = ket2(pol_label)
    red = _output_momentum_state(chip, spatial_input, pol, cfg.logical_frame)
    probs = _momentum_probabilities(red)
    target_vec = pol if cfg.logical_frame == "relabeled" else PAULI_X @ pol
    target = DensityMatrix(2, np.outer(target_vec, target_vec.conj()))
    rho_exact = tm.state_tomo_1q(probs)
    f_exact = uhlmann_fidelity(rho_exact, target)

    t_setting = cfg.integration_time_s / 6.0
    fids = []
    records = []
    for trial in range(cfg.n_trials):
        counts = {}
        for k, lbl in enumerate(tm.MOMENTUM_LABELS):
            seedseq = derive_seed(cfg.rng_seed, "tomo-state", spatial_input,
                                  pol_label, trial, k)
            counts[lbl] = poisson_counts(
                cfg.pair_rate_hz * probs[lbl] + cfg.background_rate_hz,
                t_setting, seedseq)
            if trial == 0:
                records.append(tm.CountRecord(lbl, "", counts[lbl],
                                              t_setting, cfg.rng_seed))
        rho_hat = tm.state_tomo_1q(counts)
        fids.append(uhlmann_fidelity(rho_hat, target))
    f_mean, f_err = _mean_stderr(fids)
    payload = {
        "spatial_input": spatial_input,
        "polarization_input": pol_label,
        "frame": cfg.logical_frame,
        "fidelity_exact": f_exact,
        "fidelity_mc_mean": f_mean,
        "fidelity_mc_stderr": f_err,
        "setting_probabilities": {k: float(v) for k, v in sorted(probs.items())},
        "reconstructed_real": rho_exact.entries.real.tolist(),
        "reconstructed_imag": rho_exact.entries.imag.tolist(),
        "n_trials": cfg.n_trials,
    }
    rows = [tm.CSV_HEADER] + [
        [r.setting_label_q1, r.setting_label_q2, r.counts,
         repr(r.integration_time_s), r.seed] for r in records]
    return _mk_report("tomo-state", cfg, payload, {"count_records": rows})


_PROCESS_INPUT_POLS = (("H", "H"), ("V", "V"), ("+", "D"), ("+i", "R"))


def run_process_tomography(cfg: ExperimentConfig) -> Report:
    """Single-qubit chi-matrix tomography for the four spatial input modes.

    The polarization qubit is prepared in |0>, |1>, |+>, |+i>; the output
    spatial-momentum qubit is reconstructed (exactly, i.e. infinite counts)
    and the process compared against the frame's ideal: the identity in the
    relabeled frame, a bit flip in the raw frame (the fidelity and purity
    values agree between frames, only chi itself is conjugated).
    """
    chip = cfg.chip(0)
    ideal_u = np.eye(2, dtype=complex) if cfg.logical_frame == "relabeled" else PAULI_X
    chi_ideal = tm.chi_from_unitary(ideal_u)
    per_input = {}
    for spatial in ("T", "B", "+", "+i"):
        ins, outs = [], []
        for _, pol_lbl in _PROCESS_INPUT_POLS:
            pol = ket2(pol_lbl)
            red = _output_momentum_state(chip, spatial, pol, cfg.logical_frame)
            probs = _momentum_probabilities(red)
            outs.append(tm.state_tomo_1q(probs))
            ins.append(DensityMatrix(2, np.outer(pol, pol.conj())))
        chi = tm.process_tomo(ins, outs, 1)
        per_input[spatial] = {
            "process_fidelity": tm.process_fidelity(chi, chi_ideal),
            "process_purity": tm.process_purity(chi),
            "chi_real": chi.chi.real.tolist(),
            "chi_imag": chi.chi.imag.tolist(),
        }
    f_avg = float(np.mean([v["process_fidelity"] for v in per_input.values()]))
    p_avg = float(np.mean([v["process_purity"] for v in per_input.values()]))
    payload = {
        "frame": cfg.logical_frame,
        "inputs": [lbl for lbl, _ in _PROCESS_INPUT_POLS],
        "per_spatial_input": per_input,
        "process_fidelity_avg": f_avg,
        "process_purity_avg": p_avg,
    }
    rows = [["spatial_input", "process_fidelity", "process_purity"]]
    for k, v in per_input.items():
        rows.append([k, repr(v["process_fidelity"]), repr(v["process_purity"])])
    return _mk_report("tomo-process", cfg, payload, {"process_summary": rows})


def run_process_tomography_2q(cfg: ExperimentConfig) -> Report:
    """Two-qubit chi matrix of the full chip over 16 separable inputs."""
    chip = cfg.chip(0)
    pol_states = {"H": ket2("H"), "V": ket2("V"), "D": ket2("D"), "R": ket2("R")}
    mom_states = {"0": ket2("0"), "1": ket2("1"), "+": ket2("+"), "i": ket2("i")}
    ins, outs = [], []
    for sm in mom_states.values():
        for pol in pol_states.values():
            v = np.kron(sm, pol)
            rho_in = DensityMatrix(4, np.outer(v, v.conj()))
            out = chip.apply(rho_in)
            out, _ = heralded_normalize(out)
            out = logical_frame(out, cfg.logical_frame)
            ins.append(rho_in)
            outs.append(out)
    chi = tm.process_tomo(ins, outs, 2)
    ideal_u = swap_unitary()
    if cfg.logical_frame == "raw":
        ideal_u = np.kron(PAULI_X, PAULI_X) @ ideal_u
    chi_ideal = tm.chi_from_unitary(ideal_u)
    payload = {
        "frame": cfg.logical_frame,
        "process_fidelity": tm.process_fidelity(chi, chi_ideal),
        "process_purity": tm.process_purity(chi),
        "chi_real": chi.chi.real.tolist(),
        "chi_imag": chi.chi.imag.tolist(),
    }
    return _mk_report("tomo-process-2q", cfg, payload)


# ---------------------------------------------------------------------------
# error budget
# ---------------------------------------------------------------------------

# sweep axis -> the ChipConfig field it varies
_SWEEP_AXES = {
    "pcnot_extinction_db": "pcnot_extinction_db",
    "mcnot_extinction_db": "mcnot_extinction_db",
    "loss_imbalance_db": "pcnot_loss_imbalance_db",
    "mcnot_loss_db_t": "mcnot_loss_db_t",
    "facet_xtalk": "facet_xtalk",
    "rotation_error_rad": "mcnot_rotation_error_rad",
}


def _process_fidelity_T(chip: ChipModel) -> float:
    chi_ideal = tm.chi_from_unitary(np.eye(2, dtype=complex))
    ins, outs = [], []
    for _, pol_lbl in _PROCESS_INPUT_POLS:
        pol = ket2(pol_lbl)
        red = _output_momentum_state(chip, "T", pol, "relabeled")
        outs.append(red)
        ins.append(DensityMatrix(2, np.outer(pol, pol.conj())))
    chi = tm.process_tomo(ins, outs, 1)
    return tm.process_fidelity(chi, chi_ideal)


def run_error_budget(cfg: ExperimentConfig, sweep: dict) -> Report:
    """Noiseless sensitivity table over imperfection-parameter grids.

    For each axis the chip is rebuilt from the baseline configuration with
    only that parameter changed; truth-table fidelity (configured frame)
    and the T-input process fidelity are tabulated.
    """
    if not sweep:
        raise ValueError("sweep grid is empty")
    base = cfg.chips[0]
    rows = [["axis", "value", "truth_table_fidelity", "process_fidelity_T"]]
    results = []
    for axis, values in sorted(sweep.items()):
        if axis not in _SWEEP_AXES:
            raise ValueError(f"unknown sweep axis {axis!r}; "
                             f"known: {sorted(_SWEEP_AXES)}")
        for v in values:
            chip = replace(base, **{_SWEEP_AXES[axis]: float(v)}).build()
            f_tt = truth_table_fidelity_exact(chip, cfg.logical_frame)
            f_chi = _process_fidelity_T(chip)
            results.append({"axis": axis, "value": float(v),
                            "truth_table_fidelity": f_tt,
                            "process_fidelity_T": f_chi})
            rows.append([axis, repr(float(v)), repr(f_tt), repr(f_chi)])
    payload = {"frame": cfg.logical_frame, "baseline": asdict(base), "grid": results}
    return _mk_report("sweep", cfg, payload, {"sweep": rows})
