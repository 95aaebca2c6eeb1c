"""The chip's superoperator exact path against stage-by-stage propagation.

A chip is its 16x16 superoperator S, the product of its stages'
superoperators, and every runner reads its exact quantities off S.  The
oracle here propagates through each stage's Kraus operators in turn
(`apply_channel` for states, `stagewise_op` for any operator), or through
the stages' Kraus operators composed (`compose_channels`), on random
grammar-valid chips that mix depolarizing stages (several Kraus operators;
two of them, so the composed Kraus set is reduced through the Choi matrix)
with trace-decreasing polarizers and losses.  The tomography
runners' batched propagation of all their inputs (`_exact_outputs`,
`_mzi_probabilities`) is checked against the per-state chain of validated
values it replaced, the two-photon stack kernel (`apply_chip_both_stack`,
each photon through S) against each photon's Kraus operators lifted to the
16-dim space and applied with `apply_channel`, the stacked process
tomography against single calls and the Choi matrix of S, and the batched
error-budget grid against a per-point build and tomography.  `tomo-state`
must report the per-state chain's output state and its overlap with the
target, and a sweep row at the baseline must equal `tomo-process`'s
T-input fidelity.  Relabeling the raw outputs by X (x) X and comparing
with the relabeled ideal must give every exact fidelity a report gives.
"""

import re
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import apply_channel, assemble_joint, compose_channels, density, partial_trace
from swapsim import biphoton as bp
from swapsim import config as cfgmod
from swapsim import devices as dv
from swapsim import experiments as ex
from swapsim import netlist as nl
from swapsim import qcore as qc
from swapsim import tomography as tm
from swapsim.config import ChipConfig, ConfigError, ExperimentConfig

# derandomized: tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
TOL = 1e-12


def _num(lo, hi):
    return st.floats(lo, hi).map(lambda x: f"{x:.6g}")


ANGLE = _num(-3.2, 3.2).map(lambda x: x + "rad")
DB = _num(0.0, 3.0).map(lambda x: x + "dB")
EXTINCTION = _num(3.0, 40.0).map(lambda x: x + "dB")
ONE_PORT = st.sampled_from(["T", "B"])
ANY_PORTS = st.sampled_from(["T", "B", "T, B", "B, T"])
TWO_PORTS = st.sampled_from(["T, B", "B, T"])


def _stmt(kind, ports, **params):
    """Statement text `kind {name} (ports) p=v ...;` with the name left open."""
    names = list(params)
    return st.tuples(ports, *params.values()).map(
        lambda t: f"{kind} {{name}} ({t[0]}) "
        + " ".join(f"{n}={v}" for n, v in zip(names, t[1:])) + ";")


DEPOL_STMT = st.one_of(
    _stmt("pcnot", TWO_PORTS, extinction=EXTINCTION, imbalance=DB, loss=DB,
          depol=_num(0.01, 0.5)),
    _stmt("mcnot", ONE_PORT, extinction=EXTINCTION, loss=DB, loss_other=DB,
          rotation_error=_num(-0.3, 0.3).map(lambda x: x + "rad"),
          depol=_num(0.01, 0.5)),
)
LOSSY_STMT = st.one_of(_stmt("polarizer", ANY_PORTS, angle=ANGLE),
                       _stmt("loss", ANY_PORTS, loss=DB))
ANY_STMT = st.one_of(
    DEPOL_STMT, LOSSY_STMT,
    _stmt("pcnot", TWO_PORTS, extinction=EXTINCTION, imbalance=DB),
    _stmt("mcnot", ONE_PORT, extinction=EXTINCTION, loss=DB),
    _stmt("hwp", ANY_PORTS, angle=ANGLE),
    _stmt("qwp", ANY_PORTS, angle=ANGLE),
    _stmt("phase_v", ANY_PORTS, phase=ANGLE),
    _stmt("bs5050", TWO_PORTS),
    _stmt("mzi", TWO_PORTS, phase=ANGLE, input_phase=ANGLE),
    _stmt("fiber", ANY_PORTS, loss=DB, phase=ANGLE),
    _stmt("facet", st.just("T, B"), loss_h=DB, loss_v=DB, xtalk=_num(-0.3, 0.3)),
)


def _declare(stmts) -> nl.ChipDecl:
    body = "\n".join("  " + s.format(name=f"s{i}") for i, s in enumerate(stmts))
    return nl.select_chip(nl.parse(f"chip c {{\n  ports T, B;\n{body}\n}}\n"))


def _compile(stmts) -> dv.ChipModel:
    return nl.compile_chip(_declare(stmts))


# two depolarizing stages, one polarizer or loss, up to four more of any kind
CHIP_DECLS = st.tuples(st.lists(DEPOL_STMT, min_size=2, max_size=2), LOSSY_STMT,
                       st.lists(ANY_STMT, max_size=4)).flatmap(
    lambda t: st.permutations([*t[0], t[1], *t[2]])).map(_declare)
CHIPS = CHIP_DECLS.map(nl.compile_chip)


def density_matrices(dim):
    """Random mixed states of trace in [0.1, 1] (trace < 1 is prior loss)."""
    def build(seed, trace):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return density(trace * rho / np.trace(rho).real)
    return st.builds(build, st.integers(0, 2**32 - 1), st.floats(0.1, 1.0))


def stagewise(chip: dv.ChipModel, rho: np.ndarray) -> np.ndarray:
    """The oracle: one `apply_channel` per stage, first stage first."""
    for stage in chip.stages:
        rho = apply_channel(stage, rho)
    return rho


@PROPERTY
@given(CHIPS, density_matrices(4))
def test_apply_equals_stagewise(chip, rho):
    assert len(compose_channels(*chip.stages).kraus) > 1
    out = (chip.superoperator @ rho.reshape(16)).reshape(4, 4)
    np.testing.assert_allclose(out, stagewise(chip, rho), rtol=0, atol=TOL)
    assert np.trace(out).real <= np.trace(rho).real + TOL


@PROPERTY
@given(CHIPS)
def test_exact_truth_table_equals_columnwise(chip):
    expect = np.zeros((4, 4))
    for j in range(4):
        v = np.eye(4, dtype=complex)[j]
        expect[:, j] = np.diag(stagewise(chip, density(np.outer(v, v)))).real
    np.testing.assert_allclose(ex.exact_truth_table(chip), expect, rtol=0, atol=TOL)


# every kind that names two ports, each parameter drawn over its range
TWO_PORT_PARAMS = {
    "pcnot": dict(extinction_h=EXTINCTION, extinction_v=EXTINCTION, imbalance=DB, loss=DB,
                  depol=_num(0.0, 0.5)),
    "hwp": dict(angle=ANGLE),
    "qwp": dict(angle=ANGLE),
    "phase_v": dict(phase=ANGLE),
    "polarizer": dict(angle=ANGLE),
    "bs5050": {},
    "mzi": dict(phase=ANGLE, input_phase=ANGLE),
    "fiber": dict(loss=DB, phase=ANGLE),
    "facet": dict(loss_h=DB, loss_v=DB, xtalk=_num(-0.3, 0.3)),
    "loss": dict(loss=DB),
}
# the exchange T <-> B of the two spatial ports, polarization kept
PORT_SWAP = np.eye(4)[[2, 3, 0, 1]]


def test_two_port_params_cover_every_two_port_kind():
    assert set(TWO_PORT_PARAMS) == {k for k, (ports, _) in nl.COMPONENTS.items() if 2 in ports}


@pytest.mark.parametrize("kind", sorted(TWO_PORT_PARAMS))
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_reversed_ports_conjugate_by_the_port_swap(kind, data):
    # a statement on (B, T) is its (T, B) twin seen with the ports
    # exchanged: S' = (P (x) P) S (P (x) P), P real and its own inverse
    stmt = data.draw(_stmt(kind, st.just("{ports}"), **TWO_PORT_PARAMS[kind]))
    forward, backward = (_compile([stmt.format(name="{name}", ports=ports)]).superoperator
                         for ports in ("T, B", "B, T"))
    pp = np.kron(PORT_SWAP, PORT_SWAP)
    np.testing.assert_allclose(backward, pp @ forward @ pp, rtol=0, atol=TOL)


def _fringe_oracle(chip, phi, port, use_polarizer) -> float:
    """One phase: stagewise chip, 50:50 combiner and monitored output as
    channels on the density matrix."""
    v = np.kron(qc.ket2(port), dv.phase_v(phi) @ qc.ket2("D"))
    out = stagewise(chip, density(np.outer(v, v.conj())))
    bs = np.kron(dv.BS_5050, np.eye(2))
    out = apply_channel(qc.QuantumChannel(4, 4, (bs,)), out)
    sel_pol = np.eye(2)
    if use_polarizer:
        sel_pol = np.diag([0.0, 1.0]) if port == "T" else np.diag([1.0, 0.0])
    sel_sp = np.diag([1.0, 0.0]) if port == "T" else np.diag([0.0, 1.0])
    sel = np.kron(sel_sp, sel_pol).astype(complex)
    return np.trace(apply_channel(qc.QuantumChannel(4, 4, (sel,)), out)).real


@PROPERTY
@given(CHIPS, st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=8))
def test_fringe_probabilities_equal_per_phase(chip, phases):
    phases = np.array(phases)
    for port in ("T", "B"):
        for use_polarizer in (True, False):
            got = ex._fringe_probabilities(chip, phases, port, use_polarizer)
            expect = [_fringe_oracle(chip, p, port, use_polarizer) for p in phases]
            np.testing.assert_allclose(got, expect, rtol=0, atol=TOL)
            assert np.all((got >= 0.0) & (got <= 1.0 + TOL))


@PROPERTY
@given(CHIPS, st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=20),
       st.sampled_from(["T", "B"]), st.booleans())
def test_fringe_inputs_equal_the_per_phase_kron_bit_for_bit(chip, phases, port, use_polarizer):
    # the input kets are built as one broadcast; the oracle is the per-phase
    # |port> (x) phase_v(phi)|D>, and the probabilities computed from it
    phases = np.array(phases)
    oracle = np.array([np.kron(qc.ket2(port), dv.phase_v(p) @ qc.ket2("D")) for p in phases])
    vec_states, seen = ex._vec_states, []
    with mock.patch.object(ex, "_vec_states", lambda v: seen.append(v) or vec_states(v)):
        got = ex._fringe_probabilities(chip, phases, port, use_polarizer)
    with mock.patch.object(ex, "_vec_states", lambda v: vec_states(oracle)):
        expect = ex._fringe_probabilities(chip, phases, port, use_polarizer)
    [states] = seen
    assert states.dtype == oracle.dtype and states.tobytes() == oracle.tobytes()
    assert got.tobytes() == expect.tobytes()


_EYE4 = np.eye(4, dtype=complex)
_LIFTS = {"signal": lambda k: np.kron(k, _EYE4), "idler": lambda k: np.kron(_EYE4, k)}


def lifted(rho: np.ndarray, ch: qc.QuantumChannel, which: str) -> np.ndarray:
    """The oracle: one photon through `ch`, its Kraus operators lifted to
    the 16-dim space by a Kronecker product with the identity."""
    kraus = tuple(_LIFTS[which](k) for k in ch.kraus)
    return apply_channel(qc.QuantumChannel(16, 16, kraus), rho)


def lifted_both(rho: np.ndarray, ch: qc.QuantumChannel) -> np.ndarray:
    return lifted(lifted(rho, ch, "signal"), ch, "idler")


@PROPERTY
@given(CHIPS, CHIPS, st.sampled_from(list(bp.BellLabel)), st.floats(0.0, 1.0),
       st.floats(-0.5, 0.5))
def test_bell_link_equals_sequential(chip1, chip2, label, visibility, residual):
    cfg = ExperimentConfig(fiber_residual_rad=residual)
    joint = bp.werner_joint_stack([label], visibility)
    got = bp.apply_chip_both_stack(joint, ex._bell_link(residual, chip1, chip2))[0]
    # both photons through chip 1, the fiber's residual rotation and chip 2:
    # six 16-dim applications
    rho = density(joint[0])
    for ch in link_channels(cfg, chip1, chip2):
        rho = lifted_both(rho, ch)
    np.testing.assert_allclose(got, rho, rtol=0, atol=TOL)
    assert np.trace(got).real <= 1.0 + TOL


def link_channels(cfg, chip1, chip2) -> tuple:
    """The Bell link stage by stage: chip 1, the compensated fiber (the
    rotation by `fiber_residual_rad` of the polarization on both spatial
    channels), chip 2."""
    c, s = np.cos(cfg.fiber_residual_rad), np.sin(cfg.fiber_residual_rad)
    fiber = qc.QuantumChannel(4, 4, (np.kron(np.eye(2), [[c, -s], [s, c]]),))
    return compose_channels(*chip1.stages), fiber, compose_channels(*chip2.stages)


def werner_oracle(label, visibility) -> np.ndarray:
    """The Werner joint state built by Kronecker products and a subsystem
    permutation (`assemble_joint`)."""
    bell = bp.bell_state_vector(label)
    pol = visibility * np.outer(bell, bell.conj()) + (1.0 - visibility) * np.eye(4) / 4.0
    return assemble_joint(["T", "B"], pol)


def bell_polarization_oracle(joint, channels):
    """One label: lifted Kraus propagation through each of `channels` in
    turn, heralding, the (T_S, B_I) block and its probability, each through
    validated values."""
    rho = density(joint)
    for ch in channels:
        rho = lifted_both(rho, ch)
    rho, survival = herald(rho)
    t = rho.reshape((2,) * 8)
    blk = t[0, :, 1, :, 0, :, 1, :].reshape(4, 4)
    w = float(np.trace(blk).real)
    blk = blk / w if w > 1e-15 else blk
    return 0.5 * (blk + blk.conj().T), (w if w > 1e-15 else 0.0) * survival


@PROPERTY
@given(CHIPS, CHIPS, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       st.floats(-0.5, 0.5))
def test_two_photon_stack_equals_lifted_kraus(chip1, chip2, visibilities, residual):
    # all four labels, each at its own visibility, as one stack
    labels = list(bp.BellLabel)
    joints = np.array([bp.werner_joint_stack([l], v)[0] for l, v in zip(labels, visibilities)])
    for joint, label, v in zip(joints, labels, visibilities):
        np.testing.assert_array_equal(joint, werner_oracle(label, v))
    np.testing.assert_array_equal(bp.werner_joint_stack(labels, visibilities[0]),
                                  [werner_oracle(l, visibilities[0]) for l in labels])
    cfg = ExperimentConfig(fiber_residual_rad=residual)
    link = ex._bell_link(residual, chip1, chip2)
    stages = link_channels(cfg, chip1, chip2)
    assert len(stages[0].kraus) > 1  # depolarizing: several Kraus operators
    for s, channels in ((chip1.superoperator, stages[:1]), (link, stages)):
        got = bp.apply_chip_both_stack(joints, s)
        for g, joint in zip(got, joints):
            want = density(joint)
            for ch in channels:
                want = lifted_both(want, ch)
            np.testing.assert_allclose(g, want, rtol=0, atol=TOL)

    # the runner's stack at the config's visibility: propagation,
    # validation, heralding and the sector block
    try:
        want = [bell_polarization_oracle(werner_oracle(l, visibilities[0]), stages)
                for l in labels]
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            ex._bell_polarization_stack(visibilities[0], labels, link)
        return
    blocks, probs = ex._bell_polarization_stack(visibilities[0], labels, link)
    for blk, p, (want_blk, want_p) in zip(blocks, probs, want):
        # heralding and the block's normalisation divide the rounding of the
        # link output by the sector probability
        np.testing.assert_allclose(blk, want_blk, rtol=0, atol=TOL / max(want_p, TOL))
        assert p == pytest.approx(want_p, rel=0, abs=TOL)


@PROPERTY
@given(CHIPS, density_matrices(16))
def test_apply_local_equals_lifted_kraus(chip, rho):
    # the chip as a local map on each photon of an arbitrary (entangled,
    # lossy) joint state, not only a Werner pair
    got = bp.apply_chip_both_stack(rho[None], chip.superoperator)[0]
    want = lifted_both(rho, compose_channels(*chip.stages))
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)


# the 16 separable inputs of two-qubit process tomography, momentum major
SEPARABLE = np.array([np.kron(qc.ket2(m), qc.ket2(p))
                      for m in ("0", "1", "+", "i") for p in ("H", "V", "D", "R")])


def herald(rho):
    """`heralded_normalize_stack` of one state: (rho / tr, tr), the state
    validated as a density matrix."""
    out, survival = qc.heralded_normalize_stack(rho[None])
    return density(out[0]), float(survival[0])


def output_state_oracle(chip, vec, trace_polarization):
    """One input at a time: stagewise chip, heralding and partial trace,
    each a validated density matrix; returns (state, survival)."""
    out = stagewise(chip, density(np.outer(vec, vec.conj())))
    out, survival = herald(out)
    if trace_polarization:
        out = partial_trace(out, [2, 2], [0])
    return density(out), survival


def momentum_probabilities_oracle(rho2):
    """One `apply_channel` of the MZI projector per momentum setting."""
    return [np.trace(apply_channel(dv.mzi_projector(lbl), rho2)).real
            for lbl in ("0", "1", "+", "-", "i", "-i")]


@PROPERTY
@given(CHIPS, st.booleans())
def test_exact_outputs_equal_per_state_chain(chip, trace_polarization):
    try:
        want = [output_state_oracle(chip, v, trace_polarization) for v in SEPARABLE]
    except ValueError as exc:
        assert str(exc).startswith("vacuum state")
        with pytest.raises(ValueError, match="^vacuum state"):
            ex._exact_outputs(chip.superoperator, SEPARABLE, trace_polarization)
        return
    got = ex._exact_outputs(chip.superoperator, SEPARABLE, trace_polarization)
    assert got.shape == ((16, 2, 2) if trace_polarization else (16, 4, 4))
    for g, (w, survival) in zip(got, want):
        # heralding divides the rounding of the chip output by the survival
        np.testing.assert_allclose(g, w, rtol=0, atol=TOL / survival)
        if trace_polarization:
            np.testing.assert_allclose(ex._mzi_probabilities(g[None])[0],
                                       momentum_probabilities_oracle(w),
                                       rtol=0, atol=TOL / survival)


# the 24 inputs of `tomo-state`: each spatial input with each polarization
STATE_TOMO_INPUTS = [(sp, pol) for sp in ("T", "B", "+", "+i")
                     for pol in ("H", "V", "D", "A", "R", "L")]


@settings(max_examples=20, deadline=None, derandomize=True)
@given(CHIP_DECLS)
def test_state_tomography_reports_the_exact_output_state(decl):
    # the reported state is the heralded momentum state of the per-state
    # chain, and the exact fidelity its overlap with the target: the input
    # polarization, bit-flipped
    cfg = ExperimentConfig(n_trials=1)
    chip = nl.compile_chip(decl)
    for spatial, pol in STATE_TOMO_INPUTS:
        vec = np.kron(qc.ket2("i" if spatial == "+i" else spatial), qc.ket2(pol))
        with mock.patch.object(ExperimentConfig, "chip_decl", lambda self, index=0: decl):
            try:
                want, survival = output_state_oracle(chip, vec, True)
            except ValueError as exc:
                assert str(exc).startswith("vacuum state")
                with pytest.raises(ValueError, match="^vacuum state"):
                    ex.run_state_tomography(cfg, spatial, pol)
                continue
            payload = ex.run_state_tomography(cfg, spatial, pol).payload
        got = np.array(payload["reconstructed_real"]) + 1j * np.array(
            payload["reconstructed_imag"])
        # heralding divides the rounding of the chip output by the survival
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL / survival)
        psi = qc.PAULI_X @ qc.ket2(pol)
        assert payload["fidelity_exact"] == pytest.approx(
            (psi.conj() @ want @ psi).real, rel=0, abs=TOL / survival)


def test_exact_outputs_of_a_dark_chip_raise_the_vacuum_error():
    # crossed polarizers on both ports pass no photon
    dark = nl.compile_netlist(nl.parse(
        "chip dark {\n  ports T, B;\n  polarizer p0 (T, B) angle=0rad;\n"
        "  polarizer p1 (T, B) angle=90deg;\n}\n"))
    for trace_polarization in (False, True):
        with pytest.raises(ValueError, match="^vacuum state: trace is zero"):
            ex._exact_outputs(dark.superoperator, SEPARABLE, trace_polarization)


# ---------------------------------------------------------------------------
# the chip's superoperator against its stages' Kraus operators
# ---------------------------------------------------------------------------

BASIS_OPS = np.eye(16, dtype=complex).reshape(16, 4, 4)  # E_ij = |i><j|, row-major


def stagewise_op(chip: dv.ChipModel, x: np.ndarray) -> np.ndarray:
    """Any operator x (not only a state) through each stage's Kraus
    operators in turn, first stage first."""
    for stage in chip.stages:
        x = sum(k @ x @ k.conj().T for k in stage.kraus)
    return x


@PROPERTY
@given(CHIPS)
def test_superoperator_equals_stagewise_kraus_on_every_basis_operator(chip):
    s = chip.superoperator
    assert s.shape == (16, 16) and not s.flags.writeable
    for e in BASIS_OPS:
        got = (s @ e.reshape(16)).reshape(4, 4)
        np.testing.assert_allclose(got, stagewise_op(chip, e), rtol=0, atol=TOL)
    # the runners' truth table and fringe read probabilities off S: never
    # negative, though S's products round
    assert np.all(ex.exact_truth_table(chip) >= 0.0)


# polarizers crossed at a random angle, with only polarization-blind stages
# between them, pass no light: every probability is exactly 0, and S's
# products round it to either side of 0
SPATIAL_STMT = st.one_of(_stmt("mzi", TWO_PORTS, phase=ANGLE, input_phase=ANGLE),
                         _stmt("bs5050", TWO_PORTS), _stmt("loss", ANY_PORTS, loss=DB))
DARK_CHIPS = st.tuples(st.lists(ANY_STMT, max_size=2), st.floats(-3.2, 3.2),
                       st.lists(SPATIAL_STMT, min_size=1, max_size=3)).map(
    lambda t: _compile([*t[0], f"polarizer {{name}} (T, B) angle={t[1]!r}rad;", *t[2],
                        f"polarizer {{name}} (T, B) angle={t[1] + np.pi / 2!r}rad;"]))


@PROPERTY
@given(DARK_CHIPS, st.lists(st.floats(0.0, 2.0 * np.pi), min_size=1, max_size=8))
def test_probabilities_of_a_dark_chip_are_zero_not_negative(chip, phases):
    # they are Poisson means: a negative one fails the draw
    table = ex.exact_truth_table(chip)
    assert np.all(table >= 0.0) and table.max() <= TOL
    for port in ("T", "B"):
        got = ex._fringe_probabilities(chip, np.array(phases), port, False)
        assert np.all(got >= 0.0) and got.max() <= TOL


@PROPERTY
@given(CHIPS)
def test_lazy_kraus_channel_is_the_superoperator_map(chip):
    # the oracle's Kraus composition of the stages is the map S holds
    kraus = np.array(compose_channels(*chip.stages).kraus)
    assert len(kraus) > 1  # two depolarizing stages
    np.testing.assert_allclose(np.einsum("kac,kbd->abcd", kraus, kraus.conj()).reshape(16, 16),
                               chip.superoperator, rtol=0, atol=TOL)
    # the effect sum K^dag K that the trace-nonincreasing check reads off S
    effect = sum(k.conj().T @ k for k in kraus)
    np.testing.assert_allclose(chip.superoperator[::5].sum(axis=0).reshape(4, 4),
                               effect.conj(), rtol=0, atol=TOL)


def choi_chi(s: np.ndarray) -> np.ndarray:
    """The two-qubit chi matrix of the map with superoperator `s`, read off
    its Choi matrix J = sum_ij |i><j| (x) eps(|i><j|) (Choi, Linear Algebra
    Appl. 10, 285, 1975): chi_mn = <<E_m|J|E_n>> / d^2 with |E>> the
    column-stacked vec of the Pauli operator E, normalized to trace 1."""
    j = sum(np.kron(e, (s @ e.reshape(16)).reshape(4, 4)) for e in BASIS_OPS)
    vecs = [e.T.reshape(16) for e in qc.pauli_operators(2)]
    chi = np.array([[np.vdot(vm, j @ vn) for vn in vecs] for vm in vecs]) / 16.0
    return chi / np.trace(chi).real


@PROPERTY
@given(st.lists(CHIPS, min_size=1, max_size=3))
def test_stacked_process_tomo_equals_single_calls_and_the_choi_matrix(chips):
    # the linear (unheralded) outputs of the 16 separable inputs, per chip
    rhos = np.einsum("ja,jb->jab", SEPARABLE, SEPARABLE.conj())
    outs = np.array([[(c.superoperator @ r.reshape(16)).reshape(4, 4) for r in rhos]
                     for c in chips])
    stacked = tm.process_tomo_stack(rhos, outs, 2)
    assert stacked.shape == (len(chips), 16, 16)
    for chi, out, chip in zip(stacked, outs, chips):
        np.testing.assert_allclose(chi, tm.process_tomo_stack(rhos, out[None], 2)[0],
                                   rtol=0, atol=TOL)
        np.testing.assert_allclose(chi, choi_chi(chip.superoperator), rtol=0, atol=TOL)


SWEEP_VALUES = {
    "pcnot_extinction_db": st.floats(3.0, 40.0),
    "mcnot_extinction_db": st.floats(3.0, 40.0),
    "loss_imbalance_db": st.floats(0.0, 3.0),
    "mcnot_loss_db_t": st.floats(0.0, 3.0),
    "facet_xtalk": st.floats(-0.3, 0.3),
    "rotation_error_rad": st.floats(-0.3, 0.3),
}
SWEEPS = st.dictionaries(st.sampled_from(sorted(SWEEP_VALUES)), st.just(None),
                         min_size=1, max_size=3).flatmap(
    lambda axes: st.fixed_dictionaries(
        {a: st.lists(SWEEP_VALUES[a], min_size=1, max_size=3) for a in axes}))
BASELINES = st.builds(
    lambda er_p, er_m, imb, loss, facet, depol: ChipConfig(
        pcnot_extinction_db=er_p, mcnot_extinction_db=er_m, pcnot_loss_imbalance_db=imb,
        mcnot_loss_db_t=loss, facet_loss_db_h=facet, facet_loss_db_v=facet,
        depol_prob=depol),
    st.floats(3.0, 40.0), st.floats(3.0, 40.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0),
    st.floats(0.0, 3.0), st.sampled_from([0.0, 0.02, 0.3]))


@PROPERTY
@given(BASELINES, SWEEPS)
def test_error_budget_equals_per_point_oracle(base, sweep):
    cfg = ExperimentConfig(chips=(base,))
    grid = ex.run_error_budget(cfg, sweep).payload["grid"]
    points = [(a, float(v)) for a, values in sorted(sweep.items()) for v in values]
    assert [(g["axis"], g["value"]) for g in grid] == points
    ideal = tm.chi_from_unitary(qc.PAULI_X)
    vecs, inputs_1q, _ = ex._process_inputs()
    for g, (axis, v) in zip(grid, points):
        chip = replace(base, **{ex._SWEEP_AXES[axis]: v}).build()
        assert g["truth_table_fidelity"] == pytest.approx(
            ex.truth_table_fidelity_exact(chip), rel=0, abs=TOL)
        # T-input momentum qubit against a bit flip: the per-state chain
        red = [output_state_oracle(chip, vec, True)[0]
               for vec in vecs[:4]]
        chi = tm.process_tomo_stack(inputs_1q, np.array(red)[None], 1)[0]
        assert g["process_fidelity_T"] == pytest.approx(tm.process_fidelity_stack(chi, ideal),
                                                        rel=0, abs=TOL)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(BASELINES, st.sampled_from(sorted(SWEEP_VALUES)))
def test_sweep_row_at_the_baseline_equals_process_tomography(base, axis):
    # one quantity, two runners: the T-input process fidelity of the chip
    # that `tomo-process` reports and that a sweep tabulates at the
    # baseline's own value of an axis
    cfg = ExperimentConfig(chips=(base,))
    value = getattr(base, ex._SWEEP_AXES[axis])
    [row] = ex.run_error_budget(cfg, {axis: [value]}).payload["grid"]
    per_input = ex.run_process_tomography(cfg).payload["per_spatial_input"]
    assert row["process_fidelity_T"] == pytest.approx(per_input["T"]["process_fidelity"],
                                                      rel=0, abs=1e-14)


def _watch_chip_work(monkeypatch) -> list:
    """Record every `ChipConfig.to_netlist`, `ChipConfig.build` and
    `nl.compile_chip` call, by name."""
    calls = []
    for owner, name in ((ChipConfig, "to_netlist"), (ChipConfig, "build"), (nl, "compile_chip")):
        f = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=f, _n=name: calls.append(_n) or _f(*a))
    return calls


def test_unknown_sweep_axis_raises_before_any_chip_is_built(monkeypatch):
    built = _watch_chip_work(monkeypatch)
    cfg = ExperimentConfig.measured_chip(n_trials=1)
    # the known axis sorts first, so a per-axis loop would build its chips
    with pytest.raises(ConfigError, match="^unknown sweep axis 'zz_axis'; known: "):
        ex.run_error_budget(cfg, {"pcnot_extinction_db": [18.0, 35.0], "zz_axis": [1.0]})
    assert built == []


NETLIST = str(Path(__file__).resolve().parent.parent / "demos" / "data" / "swap_measured.pnl")
SOURCES = {"config": ExperimentConfig.measured_chip(n_trials=1),
           "netlist": ExperimentConfig(chips=(ChipConfig(netlist_path=NETLIST),), n_trials=1)}


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("sweep, message", [
    ({"er": [18.0, -5.0]}, "pcnot_extinction_db must be > 0 dB, got -5.0"),
    ({"facet_xtalk": [0.0], "imbalance": [0.3, float("nan")]},
     "pcnot_loss_imbalance_db must be a finite number, got nan"),
    ({"mcnot_loss_db_t": [1.0, -0.5, -1.0]},
     "mcnot_loss_db_t must be finite and >= 0 dB, got -0.5"),
], ids=["extinction", "nan", "first-of-two"])
def test_out_of_range_sweep_value_raises_before_any_chip_is_read(monkeypatch, source, sweep,
                                                                 message):
    # both chip sources check every grid value with the config's own rule
    # before the baseline is lowered, read or compiled
    calls = _watch_chip_work(monkeypatch)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        ex.run_error_budget(SOURCES[source], sweep)
    assert calls == []


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_sweep_lowers_its_baseline_once(monkeypatch, source):
    # one baseline lowering per run: a netlist file is read once, and its
    # chip is compiled once for the whole grid; a config chip's points are
    # lowerings of its edited fields, one compile each
    calls = _watch_chip_work(monkeypatch)
    grid = ex.run_error_budget(SOURCES[source]).payload["grid"]
    assert calls.count("to_netlist") == 1 and calls.count("build") == 0
    assert calls.count("compile_chip") == (1 if source == "netlist" else len(grid))


def test_a_warm_config_sweep_lowers_its_chip_once_and_hashes_no_float(monkeypatch):
    # each point edits the lowered baseline (`edit_chip_field`) rather than
    # lowering the chip again, and a compile-cache hit keys on the
    # declaration alone, so no point writes its values out as float.hex
    cfg = SOURCES["config"]
    ex.run_error_budget(cfg)  # the first run compiles the grid's chips
    lower, lowered = cfgmod.lower_chip_fields, []
    monkeypatch.setattr(cfgmod, "lower_chip_fields",
                        lambda values: lowered.append(values) or lower(values))
    hexes = []

    def profile(frame, event, arg):
        if (event == "c_call" and getattr(arg, "__name__", None) == "hex"
                and type(getattr(arg, "__self__", None)) is float):
            hexes.append(arg)

    sys.setprofile(profile)
    try:
        ex.run_error_budget(cfg)
    finally:
        sys.setprofile(None)
    assert (len(lowered), len(hexes)) == (1, 0)


_UNIT_VALUES = {"extinction": st.floats(0.5, 60.0), "loss": st.floats(0.0, 10.0),
                "angle": st.floats(-3.0, 3.0), "probability": st.floats(0.0, 1.0),
                "amplitude": st.floats(-1.0, 1.0)}


@st.composite
def chip_param_edits(draw):
    """(baseline, inline parameter, value): any inline parameter, a value of
    its unit class, zero of either sign, the baseline's own value, or one
    outside the range."""
    base = draw(BASELINES)
    name = draw(st.sampled_from(sorted(cfgmod._CHIP_PARAMS)))
    kinds, param = cfgmod._CHIP_PARAMS[name]
    unit_class = nl.COMPONENTS[kinds[0]][1][param]
    own = getattr(base, name)
    value = draw(_UNIT_VALUES[unit_class] | st.sampled_from(
        [0.0, -0.0, -1.5, 2.0, own if own is not None else 0.0]))
    return base, name, value


@PROPERTY
@given(chip_param_edits())
def test_chip_param_edit_equals_lowering_the_replaced_config(edit):
    # a sweep point of a config baseline is the lowered baseline with one
    # field edited: the declaration of the config with that field replaced
    # (and of lowering its fields), so the same cached chip; a value the
    # config rejects is rejected with the same message by the sweep's
    # up-front check
    base, name, value = edit
    try:
        replaced = replace(base, **{name: value})
    except ConfigError as exc:
        with pytest.raises(ConfigError, match=f"^{re.escape(str(exc))}$"):
            cfgmod.check_value(name, "float", value)
        return
    cfgmod.check_value(name, "float", value)
    want = replaced.to_netlist()
    assert cfgmod.lower_chip_fields({**vars(base), name: value}) == want
    edited = cfgmod.edit_chip_field(base.to_netlist(), name, value)
    assert edited == want
    assert nl.compile_chip(edited) is replaced.build()


# ---------------------------------------------------------------------------
# the relabeled view of a report gives the fidelities the report gives
# ---------------------------------------------------------------------------

XX = np.kron(qc.PAULI_X, qc.PAULI_X)


def _value_or_error(f):
    """f(), or the message of the ValueError it raises."""
    try:
        return f()
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(CHIP_DECLS)
def test_exact_fidelities_are_frame_invariant(decl):
    # the relabeled view of the raw outputs, one line of numpy (X (x) X on
    # every output, X on the momentum qubit alone), compared with the
    # relabeled ideal (the pure SWAP, the identity), gives every fidelity
    # the raw reports give
    cfg = ExperimentConfig(n_trials=1)
    chip = nl.compile_chip(decl)
    vecs, inputs_1q, inputs_2q = ex._process_inputs()

    def reported():
        with mock.patch.object(ExperimentConfig, "chip_decl", lambda self, index=0: decl):
            per_input = ex.run_process_tomography(cfg).payload["per_spatial_input"]
            two_qubit = ex.run_process_tomography_2q(cfg).payload["process_fidelity"]
            # the exact state fidelities alone: no counts are drawn
            with mock.patch.object(ex, "_monte_carlo", lambda *args: [{}]):
                states = [ex.run_state_tomography(cfg, spatial, pol).payload["fidelity_exact"]
                          for spatial in ("T", "B", "+", "+i") for pol in ("H", "D", "R")]
        return [v["process_fidelity"] for v in per_input.values()] + [two_qubit] + states

    def relabeled():
        red = qc.PAULI_X @ ex._exact_outputs(chip.superoperator, vecs, True) @ qc.PAULI_X
        chis = tm.process_tomo_stack(inputs_1q, red.reshape(-1, 4, 2, 2), 1)
        per_input = tm.process_fidelity_stack(chis, tm.chi_from_unitary(np.eye(2)))
        outs = XX @ ex._exact_outputs(chip.superoperator, vecs) @ XX
        chi = tm.process_tomo_stack(inputs_2q, outs[None], 2)[0]
        two_qubit = tm.process_fidelity_stack(chi, tm.chi_from_unitary(dv.swap_unitary()))
        states = []
        for spatial in ("T", "B", "+", "+i"):
            for pol in ("H", "D", "R"):
                vec = np.kron(qc.ket2("i" if spatial == "+i" else spatial), qc.ket2(pol))
                rho = qc.PAULI_X @ ex._exact_outputs(chip.superoperator, vec[None], True)[0] \
                    @ qc.PAULI_X
                psi = qc.ket2(pol)
                states.append((psi.conj() @ rho @ psi).real)
        return [*per_input, float(two_qubit), *states]

    raw, rel = _value_or_error(reported), _value_or_error(relabeled)
    if isinstance(raw, str) or isinstance(rel, str):
        assert raw == rel
    else:
        np.testing.assert_allclose(rel, raw, rtol=0, atol=TOL)


@PROPERTY
@given(CHIPS)
def test_truth_table_fidelity_is_frame_invariant(chip):
    # reading output i as 3 - i (X (x) X on every output) and comparing
    # with the relabeled ideal, the pure SWAP's table, gives the reported
    # truth-table fidelity
    try:
        tables = tm.column_normalize_stack(ex.exact_truth_table(chip))
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            ex.truth_table_fidelity_exact(chip)
        return
    relabeled = tm.truth_table_fidelity_stack(tables[::-1], tm.ideal_truth_table()[::-1])
    assert float(relabeled) == pytest.approx(ex.truth_table_fidelity_exact(chip), rel=0, abs=TOL)


@PROPERTY
@given(BASELINES, st.sampled_from(sorted(SWEEP_VALUES)).flatmap(
    lambda axis: st.tuples(st.just(axis), SWEEP_VALUES[axis])))
def test_error_budget_row_is_frame_invariant(base, point):
    # a sweep row's fidelities, read in the relabeled view of the point's
    # chip against the relabeled ideals; a sweep varies a ChipConfig's
    # inline parameters, so the baselines are configs rather than netlists
    axis, value = point
    vecs, inputs_1q, _ = ex._process_inputs()

    def reported():
        [row] = ex.run_error_budget(ExperimentConfig(chips=(base,)),
                                    {axis: [value]}).payload["grid"]
        return [row["truth_table_fidelity"], row["process_fidelity_T"]]

    def relabeled():
        chip = replace(base, **{ex._SWEEP_AXES[axis]: value}).build()
        tables = tm.column_normalize_stack(ex.exact_truth_table(chip))
        table = tm.truth_table_fidelity_stack(tables[::-1], tm.ideal_truth_table()[::-1])
        red = qc.PAULI_X @ ex._exact_outputs(chip.superoperator, vecs[:4], True) @ qc.PAULI_X
        chi = tm.process_tomo_stack(inputs_1q, red[None], 1)[0]
        return [float(table), float(tm.process_fidelity_stack(chi, tm.chi_from_unitary(np.eye(2))))]

    raw, rel = _value_or_error(reported), _value_or_error(relabeled)
    if isinstance(raw, str) or isinstance(rel, str):
        assert raw == rel
    else:
        np.testing.assert_allclose(rel, raw, rtol=0, atol=TOL)
