"""End-to-end reproductions of the chip experiments with shot-noise Monte Carlo.

Every runner reads its exact quantities off each chip's 16x16
superoperator S (`ChipModel.superoperator`): the truth table is S's every
fifth row and column, the fringe is vec(M^T) S vec(rho(phi)) for the
detector operator M, and a run's pure inputs cross the chip as S vec(rho)
in one product, validated once (`_exact_outputs`); the sweep does all this
for the stacked S of its whole grid at once.  The Bell link, the product
of both chips' S and that of the fiber's residual rotation, takes the
joint states of all Bell labels as one stack through
`biphoton.apply_chip_both_stack`, also validated once; the HOM pair is its
one-state case.  The five sampling runners
(truth-table, fringe, hom, bell, tomo-state) share one Monte Carlo
skeleton (`_monte_carlo`), the only caller of `sample_counts`: from the
per-setting detection probabilities it draws the Poissonian counts of all
trials of each run at once, calls the runner's stacked estimator once on
all of them (the linear pure-target fidelity of `tomo-state` and, over
all labels together, of `bell`; truth-table fidelity; the fringe and HOM
fits, so each fit runs once per run, not once per trial), and aggregates
every named estimate into the same payload fields: `*_mean`, `*_stderr`,
trial 0's counts as drawn (`first_trial_counts`; `tomo-state` and a
single `bell` label name their settings in `first_trial_settings`),
`n_trials` and a `diagnostics` block, which counts the fits that did not
converge and the fidelity means clamped to [0, 1].  A runner keeps only
its exact physics and its exact fields.  The payload is the whole result:
no runner builds a data table beside it.  The exact (infinite-count)
value of every estimate is always computed alongside the Monte Carlo one,
so the noiseless pipeline doubles as the oracle for the sampled one.  Only
`hom` and `bell` import `biphoton`.  Each constant table (settings,
inputs, ideal processes), the fringe detector of a port and polarizer and
the HOM input pair are read-only memos of the registry `swapsim._memo`,
built on first use, so a fresh process pays for what its
command runs and a warm one does not pay again.

Determinism contract: a fixed (config, seed) pair reproduces every count
and every estimate bit-exactly.  Each run draws from one PCG64 generator
seeded through `numpy.random.SeedSequence(master, *path)`, where `path`
names the run (the experiment, plus the Bell label or the tomography
input); trial 0 comes first in the stream, so it does not depend on
`n_trials`.
"""

from __future__ import annotations

import hashlib
import json
from itertools import product
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import netlist as nl
from . import tomography as tm
from ._memo import memo
from .config import (
    ConfigError,
    ExperimentConfig,
    check_value,
    edit_chip_field,
)
from .devices import (
    BS_5050,
    ChipModel,
    ideal_swap_unitary,
    logical_frame_stack,
    mzi_projector,
    swap_unitary,
)
from .qcore import (
    PAULI_X,
    dagger,
    heralded_normalize_stack,
    ket2,
    ket4,
    pure_fidelity_stack,
)

if TYPE_CHECKING:
    from .biphoton import BellLabel

__all__ = [
    "Report",
    "sample_counts",
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
    """Deterministic seed from the master seed and a derivation path."""
    parts = [int(master_seed) & 0xFFFFFFFFFFFFFFFF]
    for p in path:
        if isinstance(p, str):
            parts.append(int.from_bytes(hashlib.sha256(p.encode()).digest()[:8], "big"))
        else:
            parts.append(int(p) & 0xFFFFFFFFFFFFFFFF)
    return np.random.SeedSequence(parts)


# the most int64 counts one array can hold: numpy indexes its bytes with intp
_MAX_COUNTS = np.iinfo(np.intp).max // 8
# the largest Poisson mean numpy draws from (its POISSON_LAM_MAX)
_MAX_POISSON_MEAN = np.iinfo("l").max - 10.0 * np.sqrt(np.iinfo("l").max)


def sample_counts(cfg: ExperimentConfig, path: tuple, probs, time_s: float) -> np.ndarray:
    """Poisson counts of every trial of one run, shape (n_trials, *probs.shape).

    Setting k has mean (pair_rate * probs[k] + background_rate) * time_s.
    One PCG64 generator, seeded from (cfg.rng_seed, *path), draws all
    trials in one call; the algorithm is pinned, so identical inputs give
    identical counts on every platform.  A trial count whose array cannot
    be drawn (more bytes than numpy can index, or than the machine can
    allocate) is a `ConfigError` naming `n_trials`; a mean above the
    largest numpy draws from is one naming the rates and the time.
    """
    lam = (cfg.pair_rate_hz * np.asarray(probs, dtype=float)
           + cfg.background_rate_hz) * time_s
    if not np.all(lam >= 0):
        raise ValueError("Poisson means must be nonnegative")
    # numpy's own refusals are ValueErrors that name no field
    if (top := float(np.max(lam, initial=0.0))) > _MAX_POISSON_MEAN:
        raise ConfigError(
            f"pair_rate_hz ({cfg.pair_rate_hz:g}) and background_rate_hz "
            f"({cfg.background_rate_hz:g}) are too large for {time_s:g} s per setting: "
            f"a mean of {top:.3g} counts exceeds the largest that can be drawn, "
            f"{_MAX_POISSON_MEAN:.3g}")
    too_many = f"n_trials (--trials) is too large: cannot draw {cfg.n_trials} trials"
    if cfg.n_trials * lam.size > _MAX_COUNTS:
        raise ConfigError(f"{too_many} of {lam.size} counts")
    gen = np.random.Generator(np.random.PCG64(derive_seed(cfg.rng_seed, *path)))
    try:
        return gen.poisson(lam, size=(cfg.n_trials, *lam.shape))
    except MemoryError as exc:
        raise ConfigError(f"{too_many}: {exc}") from exc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report(NamedTuple):
    """Experiment result: the experiment's name and its deterministic payload."""

    kind: str
    payload: dict

    def canonical_payload(self) -> str:
        """Byte-stable JSON of the deterministic payload (sorted keys, no
        whitespace, no NaN): the text that `report.json` carries verbatim
        and whose UTF-8 bytes `payload_sha256` hashes."""
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)


def _monte_carlo(cfg: ExperimentConfig, paths, probs, time_s: float, estimate) -> list:
    """The Monte Carlo payload fields of each run of `paths`, in order.

    Run r draws all its trials' counts from its own path `paths[r]`, with
    the exact probabilities `probs[r]` and `time_s` per setting.
    `estimate(counts, bg_counts)` is called once, on the (R, n_trials, ...)
    counts of all runs and the background counts per setting, and returns
    per run a pair (trials, fields): named per-trial estimates and plain
    payload fields.  Each name becomes `<name>_mean` and `<name>_stderr`
    (a name holding `{}` is the template of both).  The `*_stderr` value
    is the per-trial spread (ddof=1; 0 for one trial), not the error of
    the mean, which is smaller by sqrt(n_trials).  A fidelity estimator may
    leave [0, 1]: the mean of a name starting with "fidelity" is clamped,
    its spread is not, and `diagnostics.fidelity_means_clamped` counts the
    clamps.  Every run also gets trial 0's counts as drawn
    (`first_trial_counts`), `n_trials` and `diagnostics`, the estimator's
    own merged in.
    """
    counts = np.stack([sample_counts(cfg, path, p, time_s) for path, p in zip(paths, probs)])
    runs = []
    for run_counts, (trials, fields) in zip(counts, estimate(
            counts, cfg.background_rate_hz * time_s)):
        diagnostics = fields.pop("diagnostics", {})
        for name, values in trials.items():
            mean = float(values.mean())
            spread = float(values.std(ddof=1)) if len(values) > 1 else 0.0
            if name.startswith("fidelity"):
                clamped = min(max(mean, 0.0), 1.0)
                diagnostics["fidelity_means_clamped"] = (
                    diagnostics.get("fidelity_means_clamped", 0) + int(clamped != mean))
                mean = clamped
            key = name if "{}" in name else name + "_{}"
            fields[key.format("mean")], fields[key.format("stderr")] = mean, spread
        runs.append({**fields, "first_trial_counts": run_counts[0].tolist(),
                     "n_trials": cfg.n_trials, "diagnostics": diagnostics})
    return runs


# ---------------------------------------------------------------------------
# truth table
# ---------------------------------------------------------------------------

def _truth_tables(s: np.ndarray) -> np.ndarray:
    """Unnormalized detection probabilities of the chip(s) with
    superoperator `s` (..., 16, 16): entry [i, j], output i of input j, is
    sum_k |K_k[i, j]|^2 = S[(i, i), (j, j)] (column sums < 1 are loss),
    clipped at 0, where the stage products can round an exact 0 to -1e-17."""
    return np.maximum(s[..., ::5, ::5].real, 0.0)


def _table_fidelities(s: np.ndarray) -> np.ndarray:
    """Truth-table fidelity of the chip(s) with superoperator `s`.  It is
    the same in both logical frames: the relabeled frame applies X (x) X to
    each output, which reads output i as 3 - i, and compares with the ideal
    table relabeled alike, so it sums the same entries."""
    return tm.truth_table_fidelity_stack(tm.column_normalize_stack(_truth_tables(s)),
                                         tm.ideal_truth_table())


def exact_truth_table(chip: ChipModel) -> np.ndarray:
    return _truth_tables(chip.superoperator)


def truth_table_fidelity_exact(chip: ChipModel) -> float:
    return float(_table_fidelities(chip.superoperator))


def _counts_fidelity(counts: np.ndarray, bg_counts: float) -> np.ndarray:
    """Truth-table fidelity of each trial's background-subtracted counts,
    `counts` of shape (n_trials, 4, 4), the same in both frames
    (`_table_fidelities`)."""
    net = np.maximum(counts - bg_counts, 0.0)
    # a column with no surviving counts carries no information: uniform
    trial, col = np.nonzero(net.sum(axis=1) == 0)
    net[trial, :, col] = 0.25
    return tm.truth_table_fidelity_stack(net / net.sum(axis=1, keepdims=True),
                                         tm.ideal_truth_table())


def run_truth_table(cfg: ExperimentConfig) -> Report:
    """Measure the chip truth table: 16 settings, Poisson counts per trial.

    Time splits equally over the 16 (input, output) settings.  The known
    accidental-background expectation is subtracted from each count before
    column normalization.
    """
    chip = cfg.chip(0)
    probs = exact_truth_table(chip)

    def estimate(counts, bg_counts):
        return [({"fidelity_mc": _counts_fidelity(counts[0], bg_counts)},
                 {"total_counts_mean": float(counts[0].sum(axis=(1, 2)).mean())})]

    [mc] = _monte_carlo(cfg, [("truth-table",)], probs[None], cfg.integration_time_s / 16.0,
                        estimate)
    payload = {
        "frame": cfg.logical_frame,
        "fidelity_exact": truth_table_fidelity_exact(chip),
        "exact_probabilities": probs.tolist(),
        "column_survival": probs.sum(axis=0).tolist(),
        **mc,
    }
    return Report("truth-table", payload)


# ---------------------------------------------------------------------------
# fringe scan
# ---------------------------------------------------------------------------

@memo()
def _fringe_effect(port: str, use_polarizer: bool) -> np.ndarray:
    """vec(M^T) for the detector operator M = D^dag D of the 50:50 combiner
    and the output D monitored for input `port`, behind the output
    polarizer or not."""
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
    detect = np.kron(sel_sp, sel_pol) @ np.kron(BS_5050, np.eye(2))
    return (dagger(detect) @ detect).T.reshape(16)


def _fringe_probabilities(chip: ChipModel, phases: np.ndarray, port: str,
                          use_polarizer: bool) -> np.ndarray:
    """Detection probability Tr(M chip(rho(phi))) = vec(M^T) . S . vec(rho(phi))
    at each phase, for the input rho(phi) of v(phi) = |port> (x)
    phase_v(phi)|D>: the chip's superoperator S, then the detector operator
    M of `_fringe_effect`."""
    pol = ket2("D") * np.stack([np.ones(len(phases)), np.exp(1j * phases)], axis=1)
    v = (ket2(port)[None, :, None] * pol[:, None, :]).reshape(-1, 4)
    effect = _fringe_effect(port, use_polarizer) @ chip.superoperator
    return np.maximum((_vec_states(v) @ effect).real, 0.0)  # as in `_truth_tables`


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
        raise ConfigError(f"a fringe scan needs at least 5 phase points, got {len(phases)}")
    exact = _fringe_probabilities(cfg.chip(0), phases, cfg.fringe_port,
                                  cfg.fringe_output_polarizer)
    exact_v = float((exact.max() - exact.min()) / (exact.max() + exact.min()))
    fit_exact = tm.fringe_fit_stack(phases, exact[None] * 1e6)  # noiseless, scaled

    def estimate(counts, bg_counts):
        fits = tm.fringe_fit_stack(phases, counts[0], background=bg_counts)
        # no amplitude to fit (`_fit_cosine`): the payload holds no NaN
        if np.isnan(fits.visibility_stderr[0]):
            raise ConfigError(f"cannot fit the fringe of trial 0 ({int(counts[0, 0].sum())} "
                              "counts): use a longer fringe_time_per_point_s")
        return [({"visibility_raw": fits.visibility_raw,
                  "visibility_subtracted": fits.visibility_subtracted},
                 {"first_trial_visibility_stderr": float(fits.visibility_stderr[0]),
                  "diagnostics": {"fits_not_converged": int(np.count_nonzero(~fits.converged))}})]

    [mc] = _monte_carlo(cfg, [("fringe",)], exact[None], cfg.fringe_time_per_point_s, estimate)
    payload = {
        "port": cfg.fringe_port,
        "output_polarizer": cfg.fringe_output_polarizer,
        "visibility_exact": exact_v,
        "visibility_exact_fit": float(fit_exact.visibility_raw[0]),
        "phase_offset_exact_fit": float(fit_exact.phase_offset[0]),
        "phases_rad": phases.tolist(),
        "exact_probabilities": exact.tolist(),
        **mc,
    }
    return Report("fringe", payload)


# ---------------------------------------------------------------------------
# HOM scan
# ---------------------------------------------------------------------------

_HOM_INPUTS = {
    "TV_BH": (("T", "V"), ("B", "H")),
    "TH_BV": (("T", "H"), ("B", "V")),
    "source": (("T", "V"), ("B", "H")),
}


def _fpc_unitary(rho: np.ndarray, mode: str) -> np.ndarray:
    """Polarization controller on the idler arm, for the heralded joint
    state `rho` (16, 16).

    "ideal" flips H<->V (right for the orthogonally-polarized ideal
    outputs); "auto" aligns the idler's dominant polarization eigenvector
    with the signal's, mirroring how the controller is tuned in the lab.
    """
    if mode == "none":
        return np.eye(2, dtype=complex)
    if mode == "ideal":
        return PAULI_X.copy()
    t = rho.reshape((2,) * 8)  # (m_s, p_s, m_i, p_i) for the row, then the column
    _, vs = np.linalg.eigh(np.einsum("apbcaqbc->pq", t))  # the signal's polarization
    _, vi = np.linalg.eigh(np.einsum("abcpabcq->pq", t))  # the idler's
    s_dom, i_dom = vs[:, -1], vi[:, -1]
    s_perp = np.array([-s_dom[1].conj(), s_dom[0].conj()])
    i_perp = np.array([-i_dom[1].conj(), i_dom[0].conj()])
    return np.outer(s_dom, i_dom.conj()) + np.outer(s_perp, i_perp.conj())


@memo()
def _hom_pair(hom_input: str) -> np.ndarray:
    """The (1, 16, 16) joint state of the input pair `hom_input`."""
    (ms, ps), (mi, pi) = _HOM_INPUTS[hom_input]
    v = np.kron(ket4(ms, ps), ket4(mi, pi))
    return np.outer(v, v.conj())[None]


def _hom_joint(cfg: ExperimentConfig) -> np.ndarray:
    """The (16, 16) joint state of the HOM pair at the combiner: the input
    pair (`_hom_pair`) through chip 0 (unless it is the bare source),
    heralded and validated once, then the idler's polarization controller."""
    from . import biphoton as bp

    joint = _hom_pair(cfg.hom_input)
    if cfg.hom_input != "source":
        joint = bp.apply_chip_both_stack(joint, cfg.chip(0).superoperator)
    rho = heralded_normalize_stack(joint)[0][0]
    u = np.kron(np.eye(8), _fpc_unitary(rho, cfg.fpc_mode))  # on p_i only
    return u @ rho @ dagger(u)


def run_hom_scan(cfg: ExperimentConfig, delays_ps=None) -> Report:
    """Hong-Ou-Mandel dip scan after the SWAP operation (or source-only)."""
    from . import biphoton as bp

    if delays_ps is None:
        delays_ps = np.linspace(-12.0, 12.0, 49)
    delays = np.asarray(list(delays_ps), dtype=float)
    if len(delays) < 4:
        raise ConfigError(f"a HOM scan needs at least 4 delay points, got {len(delays)}")
    overlap = bp.exchange_overlap(_hom_joint(cfg))
    if overlap == 0.0:
        raise ConfigError("no two-photon dip to fit: the photons' exchange overlap is 0")
    exact_p = bp.hom_dip(overlap, delays, cfg.source.coherence_time_ps)

    def estimate(counts, bg_counts):
        try:
            fits = bp.hom_fit_stack(delays, counts[0], background=bg_counts)
        except ValueError as exc:
            raise ConfigError(f"cannot fit the HOM dip ({exc}): use fewer delay points "
                              "(--points) or a longer integration_time_s") from exc
        return [({"visibility_raw": fits.visibility_raw,
                  "visibility_subtracted": fits.visibility_subtracted,
                  "coherence_time_fit_{}_ps": fits.coherence_time_ps},
                 {"diagnostics": {"fits_not_converged": int(np.count_nonzero(~fits.converged))}})]

    [mc] = _monte_carlo(cfg, [("hom",)], exact_p[None], cfg.integration_time_s / len(delays),
                        estimate)
    bg_rel = cfg.background_rate_hz / cfg.pair_rate_hz
    payload = {
        "input": cfg.hom_input,
        "fpc_mode": cfg.fpc_mode,
        "overlap_exact": overlap,
        "visibility_subtracted_exact": overlap,
        "visibility_raw_exact": (overlap / 2.0) / (0.5 + bg_rel),
        "coherence_time_configured_ps": cfg.source.coherence_time_ps,
        "dip_fwhm_ps": 2.0 * np.sqrt(2.0 * np.log(2.0)) * cfg.source.coherence_time_ps,
        "delays_ps": delays.tolist(),
        "exact_probabilities": exact_p.tolist(),
        **mc,
    }
    return Report("hom", payload)


# ---------------------------------------------------------------------------
# Bell distribution between two chips
# ---------------------------------------------------------------------------

def _bell_link(cfg: ExperimentConfig, chip1: ChipModel, chip2: ChipModel) -> np.ndarray:
    """The 16x16 superoperator of chip 1, the fiber link and chip 2 in
    cascade (chip 1 acts first).  The compensated fiber is the rotation R by
    `fiber_residual_rad` of the polarization of both ports: its
    superoperator is R (x) R, R being real.  A polarization controller
    inverts the fiber's own rotation exactly, so only the residual is left."""
    c, s = np.cos(cfg.fiber_residual_rad), np.sin(cfg.fiber_residual_rad)
    r = np.kron(np.eye(2), [[c, -s], [s, c]])
    return chip2.superoperator @ np.kron(r, r) @ chip1.superoperator


def _bell_polarization_stack(cfg: ExperimentConfig, labels, link: np.ndarray) -> tuple:
    """Propagate the Bell pairs of `labels`, both photons, through the
    link's superoperator as one stack, validated once at the boundary
    (`heralded_normalize_stack`, which raises on a vacuum output).

    Returns the (L, 4, 4) conditioned two-qubit polarization states in the
    (T_S, B_I) coincidence sector and the (L,) probabilities of heralding
    into that sector.
    """
    from . import biphoton as bp

    joints = bp.werner_joint_stack(labels, cfg.source.bell_visibility)
    rho, survival = heralded_normalize_stack(bp.apply_chip_both_stack(joints, link))
    blk, sector_p = bp.sector_block_stack(rho, (0, 1))
    return 0.5 * (blk + dagger(blk)), sector_p * survival


# The 36 two-qubit polarization settings in sorted (label_q1, label_q2)
# order, the order in which their counts are drawn, and the column of each
# grid-order (label order, q1 major) setting within them.
_TOMO_2Q_PAIRS = sorted(product(tm.POLARIZATION_LABELS, repeat=2))
_TOMO_2Q_GRID_COLUMNS = [_TOMO_2Q_PAIRS.index(p)
                         for p in product(tm.POLARIZATION_LABELS, repeat=2)]


@memo()
def _tomo_2q_projectors() -> np.ndarray:
    """The (36, 4, 4) projectors of the settings of `_TOMO_2Q_PAIRS`."""
    pol = {l: np.outer(ket2(l), ket2(l).conj()) for l in tm.POLARIZATION_LABELS}
    return np.array([np.kron(pol[l1], pol[l2]) for l1, l2 in _TOMO_2Q_PAIRS])


def _tomo_2q_probabilities(rho_pols: np.ndarray) -> np.ndarray:
    """Probability of each setting of `_TOMO_2Q_PAIRS` for each state of
    `rho_pols` (L, 4, 4): shape (L, 36), clipped at 0 as in `_truth_tables`."""
    return np.maximum(np.einsum("sab,lba->ls", _tomo_2q_projectors(), rho_pols).real, 0.0)


def _bell_runs(cfg: ExperimentConfig, labels, link: np.ndarray, chip2_f: float) -> list:
    """The payload of each Bell state of `labels`.

    All labels go through the link as one stack.  Each label's counts are
    drawn from its own run path ("bell", label), in `_TOMO_2Q_PAIRS`
    order, which `first_trial_settings` names ("q1,q2").  The exact
    fidelity is <psi|rho|psi> of the exact state (`pure_fidelity_stack`);
    the Monte Carlo one is that of the linear estimate of each trial's
    background-subtracted, unclipped counts, for all labels in one
    `tm.linear_fidelity_stack` call.
    """
    from .biphoton import bell_state_vector

    rho_pol, success_p = _bell_polarization_stack(cfg, labels, link)
    targets = np.array([bell_state_vector(label) for label in labels])
    f_exact = pure_fidelity_stack(rho_pol, targets)

    def estimate(counts, bg_counts):
        f_mc = tm.linear_fidelity_stack(counts[..., _TOMO_2Q_GRID_COLUMNS] - bg_counts, targets)
        return [({"fidelity_mc": f}, {}) for f in f_mc]

    probs = _tomo_2q_probabilities(rho_pol) * success_p[:, None]
    mc_runs = _monte_carlo(cfg, [("bell", label.value) for label in labels], probs,
                           cfg.integration_time_s / 36.0, estimate)
    return [{"bell_label": label.value,
             "source_visibility": cfg.source.bell_visibility,
             "fidelity_exact": float(f),
             "coincidence_probability": float(p),
             "second_chip_truth_table_fidelity": chip2_f,
             "first_trial_settings": [f"{q1},{q2}" for q1, q2 in _TOMO_2Q_PAIRS],
             "density_matrix_real": rho.real.tolist(),
             "density_matrix_imag": rho.imag.tolist(),
             **mc}
            for label, f, p, rho, mc in zip(labels, f_exact, success_p, rho_pol, mc_runs)]


def run_bell_distribution(cfg: ExperimentConfig, label: BellLabel | None = None) -> Report:
    """Chip-to-chip Bell distribution with two-qubit polarization tomography.

    One label gives that state's full report; `None` runs all four and
    reports each label's fidelities and density matrix by label, and the
    exact fidelities' average.  Chips 0 and 1 are
    built, and multiplied with the fiber link, once per call, and the labels
    run as one stack (`_bell_runs`).
    """
    from .biphoton import BellLabel

    chip2 = cfg.chip(1)
    link = _bell_link(cfg, cfg.chip(0), chip2)
    chip2_f = truth_table_fidelity_exact(chip2)
    if label is not None:
        [payload] = _bell_runs(cfg, [label], link, chip2_f)
        return Report("bell", payload)
    runs = _bell_runs(cfg, list(BellLabel), link, chip2_f)
    payload = {
        "bell_labels": [run["bell_label"] for run in runs],
        **{f"{key}_by_label": {run["bell_label"]: run[key] for run in runs}
           for key in ("fidelity_exact", "fidelity_mc_mean", "fidelity_mc_stderr",
                       "density_matrix_real", "density_matrix_imag")},
        "fidelity_exact_avg": float(np.mean([run["fidelity_exact"] for run in runs])),
        "second_chip_truth_table_fidelity": chip2_f,
        "n_trials": cfg.n_trials,
        "diagnostics": {"fidelity_means_clamped": sum(
            run["diagnostics"]["fidelity_means_clamped"] for run in runs)},
    }
    return Report("bell", payload)


# ---------------------------------------------------------------------------
# state / process tomography experiments
# ---------------------------------------------------------------------------

def _spatial_ket(label: str) -> np.ndarray:
    """Spatial input state by name: T, B, + or +i (the +y Bloch state)."""
    return ket2("i" if label == "+i" else label)


def _vec_states(vecs: np.ndarray) -> np.ndarray:
    """Row-major vecs (J, 16) of the pure states |v><v| of `vecs` (J, 4)."""
    return (vecs[:, :, None] * vecs.conj()[:, None, :]).reshape(len(vecs), 16)


def _exact_outputs(s: np.ndarray, vecs: np.ndarray, frame: str,
                   trace_polarization: bool = False) -> np.ndarray:
    """Heralded outputs S vec(rho) of the pure inputs `vecs` (J, 4), in
    `frame`, of the chip(s) with superoperator `s` (..., 16, 16), in one
    product.  They are validated once, as a stack, and renormalized
    (`heralded_normalize_stack`, which raises on a vacuum output).  Returns
    (..., J, 4, 4) states, or with `trace_polarization` the (..., J, 2, 2)
    spatial-momentum states.
    """
    out = (_vec_states(vecs) @ np.swapaxes(s, -1, -2)).reshape(*s.shape[:-2], len(vecs), 4, 4)
    out, _ = heralded_normalize_stack(out)
    if trace_polarization:
        out = np.trace(out.reshape(*out.shape[:-2], 2, 2, 2, 2), axis1=-3, axis2=-1)
    return logical_frame_stack(out, frame)


@memo()
def _mzi_povms() -> np.ndarray:
    """The POVM element sum_k K^dag K of the MZI projector of each momentum
    setting, in `tm.MOMENTUM_LABELS` order: shape (6, 2, 2)."""
    return np.array([sum(dagger(k) @ k for k in mzi_projector(lbl).kraus)
                     for lbl in tm.MOMENTUM_LABELS])


def _mzi_probabilities(rho2: np.ndarray) -> np.ndarray:
    """Detection probability behind the MZI of each momentum setting, for
    each state of `rho2` (J, 2, 2): shape (J, 6), settings in label order,
    clipped at 0 as in `_truth_tables`."""
    return np.maximum(np.einsum("jab,sba->js", rho2, _mzi_povms()).real, 0.0)


def run_state_tomography(cfg: ExperimentConfig, spatial_input: str = "T",
                         pol_label: str = "D") -> Report:
    """Single-qubit tomography of the output spatial-momentum qubit.

    The reported state and the exact fidelity are those of the heralded
    momentum state itself (`_exact_outputs`); the counts of the six MZI
    settings are drawn from its detection probabilities, in
    `tm.MOMENTUM_LABELS` order (`first_trial_settings`).  In the relabeled
    frame the fidelity target is the input polarization state itself; in
    the raw frame it is that state with the bit flipped (the ideal chip
    maps pol value p to momentum value NOT p).  The two frames give
    identical fidelities, only the reported state differs.  The Monte
    Carlo fidelity is that of the linear estimate of each trial's
    background-subtracted, unclipped counts (`tm.linear_fidelity_stack`).
    """
    pol = ket2(pol_label)
    vec = np.kron(_spatial_ket(spatial_input), pol)
    red = _exact_outputs(cfg.chip(0).superoperator, vec[None], cfg.logical_frame,
                         trace_polarization=True)
    rho_exact = red[0]
    setting_p = _mzi_probabilities(red)
    target = pol if cfg.logical_frame == "relabeled" else PAULI_X @ pol

    def estimate(counts, bg_counts):
        return [({"fidelity_mc": tm.linear_fidelity_stack(counts - bg_counts, target[None])[0]},
                 {})]

    [mc] = _monte_carlo(cfg, [("tomo-state", spatial_input, pol_label)], setting_p,
                        cfg.integration_time_s / 6.0, estimate)
    payload = {
        "spatial_input": spatial_input,
        "polarization_input": pol_label,
        "frame": cfg.logical_frame,
        "fidelity_exact": float(pure_fidelity_stack(rho_exact, target)),
        "setting_probabilities": {k: float(v) for k, v in
                                  sorted(zip(tm.MOMENTUM_LABELS, setting_p[0]))},
        "reconstructed_real": rho_exact.real.tolist(),
        "reconstructed_imag": rho_exact.imag.tolist(),
        "first_trial_settings": list(tm.MOMENTUM_LABELS),
        **mc,
    }
    return Report("tomo-state", payload)


_PROCESS_INPUT_POLS = (("H", "H"), ("V", "V"), ("+", "D"), ("+i", "R"))
_PROCESS_SPATIAL_INPUTS = ("T", "B", "+", "+i")


@memo()
def _process_inputs() -> tuple:
    """(vecs, inputs_1q, inputs_2q): the 16 separable chip inputs
    |spatial> (x) |pol> as (16, 4) kets, spatial major (rows 4s to 4s + 3
    are the polarization inputs of spatial input s); the four polarization
    inputs as the density matrices of one-qubit process tomography; and
    all 16 as those of two-qubit process tomography."""
    pol_kets = np.array([ket2(pol) for _, pol in _PROCESS_INPUT_POLS])
    vecs = np.kron(np.array([_spatial_ket(sp) for sp in _PROCESS_SPATIAL_INPUTS]), pol_kets)
    return (vecs, np.einsum("ja,jb->jab", pol_kets, pol_kets.conj()),
            np.einsum("ja,jb->jab", vecs, vecs.conj()))


@memo()
def _chi_ideal(n: int, frame: str) -> np.ndarray:
    """The chi matrix of the ideal process of `frame`: on the momentum
    qubit (n = 1) the identity (relabeled) or a bit flip (raw); on both
    qubits (n = 2) SWAP (relabeled) or (X (x) X) SWAP (raw)."""
    if n == 1:
        u = np.eye(2, dtype=complex) if frame == "relabeled" else PAULI_X
    else:
        u = swap_unitary() if frame == "relabeled" else ideal_swap_unitary()
    return tm.chi_from_unitary(u)


def _momentum_chis(s: np.ndarray, vecs: np.ndarray, frame: str) -> np.ndarray:
    """The one-qubit chi matrices, polarization in and momentum out, of the
    chip(s) with superoperator `s` (..., 16, 16): the heralded momentum
    outputs in `frame` of the inputs `vecs`, whose every four rows are the
    polarization inputs of one spatial input, through one
    `process_tomo_stack` solve; shape (G, 4, 4), one chi per four rows per
    chip."""
    red = _exact_outputs(s, vecs, frame, trace_polarization=True)
    return tm.process_tomo_stack(_process_inputs()[1], red.reshape(-1, 4, 2, 2), 1)


def run_process_tomography(cfg: ExperimentConfig) -> Report:
    """Single-qubit chi-matrix tomography for the four spatial input modes.

    The polarization qubit is prepared in |0>, |1>, |+>, |+i>; the chi
    matrix of each spatial input is solved from the heralded output
    spatial-momentum states themselves (infinite counts) and compared
    against the frame's ideal: the identity in the relabeled frame, a bit
    flip in the raw frame (the fidelity and purity values agree between
    frames, only chi itself is conjugated).  All 16 inputs are propagated
    in one `_exact_outputs` call, and the four chi matrices come from one
    `process_tomo_stack` call (`_momentum_chis`).
    """
    chis = _momentum_chis(cfg.chip(0).superoperator, _process_inputs()[0], cfg.logical_frame)
    fids = tm.process_fidelity_stack(chis, _chi_ideal(1, cfg.logical_frame))
    purities = tm.process_purity_stack(chis)
    per_input = {
        spatial: {"process_fidelity": float(f), "process_purity": float(p),
                  "chi_real": chi.real.tolist(), "chi_imag": chi.imag.tolist()}
        for spatial, chi, f, p in zip(_PROCESS_SPATIAL_INPUTS, chis, fids, purities)}
    f_avg = float(np.mean([v["process_fidelity"] for v in per_input.values()]))
    p_avg = float(np.mean([v["process_purity"] for v in per_input.values()]))
    payload = {
        "frame": cfg.logical_frame,
        "inputs": [lbl for lbl, _ in _PROCESS_INPUT_POLS],
        "per_spatial_input": per_input,
        "process_fidelity_avg": f_avg,
        "process_purity_avg": p_avg,
    }
    return Report("tomo-process", payload)


def run_process_tomography_2q(cfg: ExperimentConfig) -> Report:
    """Two-qubit chi matrix of the full chip over 16 separable inputs."""
    vecs, _, inputs_2q = _process_inputs()
    outs = _exact_outputs(cfg.chip(0).superoperator, vecs, cfg.logical_frame)
    chi = tm.process_tomo_stack(inputs_2q, outs[None], 2)[0]
    chi_ideal = _chi_ideal(2, cfg.logical_frame)
    payload = {
        "frame": cfg.logical_frame,
        "process_fidelity": float(tm.process_fidelity_stack(chi, chi_ideal)),
        "process_purity": float(tm.process_purity_stack(chi)),
        "chi_real": chi.real.tolist(),
        "chi_imag": chi.imag.tolist(),
    }
    return Report("tomo-process-2q", payload)


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

# short names of two sweep axes
_SWEEP_ALIASES = {"er": "pcnot_extinction_db", "imbalance": "loss_imbalance_db"}

# the grid of a sweep that names no axis
_DEFAULT_SWEEP = {
    "pcnot_extinction_db": [18.0, 25.0, 30.0, 35.0],
    "mcnot_extinction_db": [20.0, 25.0, 30.0, 35.0],
    "loss_imbalance_db": [0.0, 0.3, 0.6, 0.9],
    "mcnot_loss_db_t": [0.0, 0.5, 1.0, 2.0],
    "facet_xtalk": [0.0, 0.05, 0.1],
}


def run_error_budget(cfg: ExperimentConfig, sweep: dict | None = None) -> Report:
    """Noiseless sensitivity table over imperfection-parameter grids.

    `sweep` maps each axis (a `_SWEEP_AXES` name or a `_SWEEP_ALIASES` short
    name) to its values; None runs the default grid.  Every axis and every
    value is checked before any chip is read or compiled (ConfigError on an
    empty grid, an unknown axis, an axis without values or a value outside
    its parameter's range, `check_value`).  The baseline is lowered
    once (`ChipConfig.to_netlist`).  Each point of a config baseline is that
    declaration with the axis's field replaced (`edit_chip_field`, equal to
    lowering the replaced config), so it compiles to the cached model of the
    replaced config.  A netlist baseline is not edited yet: it sets none of
    the inline parameters an axis varies, so its chip is read and compiled
    once, each of its points is that chip, and its rows are flat.
    Truth-table fidelity (the same in both frames) and the process
    fidelity of the T-input momentum qubit with the identity (relabeled
    frame) are tabulated: the G chips' superoperators are stacked, and all
    truth tables, T-input outputs (validated once) and chi matrices (one
    `process_tomo_stack` solve, `_momentum_chis`) are read off that stack.
    The payload's `baseline` is the baseline chip's canonical netlist text.
    """
    if sweep is None:
        sweep = _DEFAULT_SWEEP
    sweep = {_SWEEP_ALIASES.get(axis, axis): values for axis, values in sweep.items()}
    if not sweep:
        raise ConfigError("sweep grid is empty")
    for axis in sorted(sweep):
        if axis not in _SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {axis!r}; known: {sorted(_SWEEP_AXES)} "
                              f"and the short names {sorted(_SWEEP_ALIASES)}")
        if len(sweep[axis]) == 0:
            raise ConfigError(f"sweep axis {axis!r} has no values")
    points = [(axis, float(v)) for axis, values in sorted(sweep.items()) for v in values]
    for axis, v in points:
        check_value(_SWEEP_AXES[axis], "float", v)
    base = cfg.chips[0]
    decl = base.to_netlist()
    if base.netlist_path is not None:
        s = np.repeat(nl.compile_chip(decl).superoperator[None], len(points), axis=0)
    else:
        s = np.array([nl.compile_chip(edit_chip_field(decl, _SWEEP_AXES[axis], v))
                      .superoperator for axis, v in points])
    f_tt = _table_fidelities(s)
    chis = _momentum_chis(s, _process_inputs()[0][:4], "relabeled")
    f_chi = tm.process_fidelity_stack(chis, _chi_ideal(1, "relabeled"))
    results = [{"axis": axis, "value": v, "truth_table_fidelity": float(tt),
                "process_fidelity_T": float(chi)}
               for (axis, v), tt, chi in zip(points, f_tt, f_chi)]
    baseline = nl.format_netlist(nl.NetlistAst((decl,)))
    payload = {"frame": cfg.logical_frame, "baseline": baseline, "grid": results}
    return Report("sweep", payload)
