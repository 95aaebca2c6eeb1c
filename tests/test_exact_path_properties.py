"""The composed-channel exact path against stage-by-stage propagation.

A chip is composed once into one channel and every runner reads its exact
quantities off that channel.  The oracle here propagates through each
stage in turn with `apply_channel`, on random grammar-valid chips that mix
depolarizing stages (several Kraus operators; two of them, so the composed
set is reduced through the Choi matrix) with trace-decreasing polarizers
and losses.  The tomography runners' batched propagation of all their
inputs (`_exact_outputs`, `_mzi_probabilities`) is checked against the
per-state chain of validated values it replaced, and the two-photon stack
kernel (`apply_chip_both_stack`, each photon through its superoperator)
against each photon's Kraus operators lifted to the 16-dim space and
applied with `apply_channel`.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import biphoton as bp
from swapsim import devices as dv
from swapsim import experiments as ex
from swapsim import netlist as nl
from swapsim import qcore as qc
from swapsim.config import ExperimentConfig, SourceConfig

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


def _compile(stmts) -> dv.ChipModel:
    body = "\n".join("  " + s.format(name=f"s{i}") for i, s in enumerate(stmts))
    return nl.compile_netlist(nl.parse(f"chip c {{\n  ports T, B;\n{body}\n}}\n"))


# two depolarizing stages, one polarizer or loss, up to four more of any kind
CHIPS = st.tuples(st.lists(DEPOL_STMT, min_size=2, max_size=2), LOSSY_STMT,
                  st.lists(ANY_STMT, max_size=4)).flatmap(
    lambda t: st.permutations([*t[0], t[1], *t[2]])).map(_compile)


def density_matrices(dim):
    """Random mixed states of trace in [0.1, 1] (trace < 1 is prior loss)."""
    def build(seed, trace):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = g @ g.conj().T
        return qc.DensityMatrix(dim, trace * rho / np.trace(rho).real)
    return st.builds(build, st.integers(0, 2**32 - 1), st.floats(0.1, 1.0))


def stagewise(chip: dv.ChipModel, rho: qc.DensityMatrix) -> qc.DensityMatrix:
    """The oracle: one `apply_channel` per stage, first stage first."""
    for stage in chip.stages:
        rho = qc.apply_channel(stage, rho)
    return rho


@PROPERTY
@given(CHIPS, density_matrices(4))
def test_apply_equals_stagewise(chip, rho):
    assert len(chip.channel().kraus) > 1
    out = chip.apply(rho)
    np.testing.assert_allclose(out.entries, stagewise(chip, rho).entries, rtol=0, atol=TOL)
    assert out.trace <= rho.trace + TOL


@PROPERTY
@given(CHIPS)
def test_exact_truth_table_equals_columnwise(chip):
    expect = np.zeros((4, 4))
    for j in range(4):
        v = np.eye(4, dtype=complex)[j]
        expect[:, j] = np.diag(stagewise(chip, qc.DensityMatrix(4, np.outer(v, v))).entries).real
    np.testing.assert_allclose(ex.exact_truth_table(chip), expect, rtol=0, atol=TOL)


def _fringe_oracle(chip, phi, port, use_polarizer) -> float:
    """One phase: stagewise chip, 50:50 combiner and monitored output as
    channels on the density matrix."""
    v = np.kron(qc.ket2(port), dv.phase_v(phi) @ qc.ket2("D"))
    out = stagewise(chip, qc.DensityMatrix(4, np.outer(v, v.conj())))
    bs = np.kron(dv.BS_5050, np.eye(2))
    out = qc.apply_channel(qc.QuantumChannel(4, 4, (bs,)), out)
    sel_pol = np.eye(2)
    if use_polarizer:
        sel_pol = np.diag([0.0, 1.0]) if port == "T" else np.diag([1.0, 0.0])
    sel_sp = np.diag([1.0, 0.0]) if port == "T" else np.diag([0.0, 1.0])
    sel = np.kron(sel_sp, sel_pol).astype(complex)
    return qc.apply_channel(qc.QuantumChannel(4, 4, (sel,)), out).trace


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


_EYE4 = np.eye(4, dtype=complex)
_LIFTS = {bp.SIGNAL: lambda k: np.kron(k, _EYE4), bp.IDLER: lambda k: np.kron(_EYE4, k)}


def lifted(rho: qc.DensityMatrix, ch: qc.QuantumChannel, which: str) -> qc.DensityMatrix:
    """The oracle: one photon through `ch`, its Kraus operators lifted to
    the 16-dim space by a Kronecker product with the identity."""
    kraus = tuple(_LIFTS[which](k) for k in ch.kraus)
    return qc.apply_channel(qc.QuantumChannel(16, 16, kraus), rho)


def lifted_both(rho: qc.DensityMatrix, ch: qc.QuantumChannel) -> qc.DensityMatrix:
    return lifted(lifted(rho, ch, bp.SIGNAL), ch, bp.IDLER)


@PROPERTY
@given(CHIPS, CHIPS, st.sampled_from(list(bp.BellLabel)), st.floats(0.0, 1.0),
       st.integers(0, 2**16), st.floats(-0.5, 0.5))
def test_bell_link_equals_sequential(chip1, chip2, label, visibility, seed, residual):
    cfg = ExperimentConfig(fiber_seed=seed, fiber_residual_rad=residual)
    state = bp.prepare_bell(label, visibility)
    got = bp.apply_chip_both(state, ex._bell_link(cfg, chip1, chip2)).joint
    # both photons through chip 1, forward fiber, compensation and chip 2:
    # eight 16-dim applications
    forward, compensation = bp.fiber_link(seed, residual)
    rho = state.joint
    for ch in (chip1.channel(), forward, compensation, chip2.channel()):
        rho = lifted_both(rho, ch)
    np.testing.assert_allclose(got.entries, rho.entries, rtol=0, atol=TOL)
    assert got.trace <= 1.0 + TOL


def werner_oracle(label, visibility) -> np.ndarray:
    """The Werner joint state built by Kronecker products and a subsystem
    permutation (`assemble_joint`)."""
    bell = bp.bell_state_vector(label)
    pol = visibility * np.outer(bell, bell.conj()) + (1.0 - visibility) * np.eye(4) / 4.0
    return bp.assemble_joint(["T", "B"], pol).entries


def bell_polarization_oracle(joint, link):
    """One label: lifted Kraus propagation, heralding, the (T_S, B_I) block
    and its probability, each through validated values."""
    rho, survival = qc.heralded_normalize(lifted_both(qc.DensityMatrix(16, joint), link))
    t = rho.entries.reshape((2,) * 8)
    blk = t[0, :, 1, :, 0, :, 1, :].reshape(4, 4)
    w = float(np.trace(blk).real)
    blk = blk / w if w > 1e-15 else blk
    return 0.5 * (blk + blk.conj().T), (w if w > 1e-15 else 0.0) * survival


@PROPERTY
@given(CHIPS, CHIPS, st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
       st.integers(0, 2**16), st.floats(-0.5, 0.5))
def test_two_photon_stack_equals_lifted_kraus(chip1, chip2, visibilities, seed, residual):
    # all four labels, each at its own visibility, as one stack
    labels = list(bp.BellLabel)
    joints = np.array([bp.werner_joint_stack([l], v)[0] for l, v in zip(labels, visibilities)])
    for joint, label, v in zip(joints, labels, visibilities):
        np.testing.assert_array_equal(joint, werner_oracle(label, v))
    np.testing.assert_array_equal(bp.werner_joint_stack(labels, visibilities[0]),
                                  [werner_oracle(l, visibilities[0]) for l in labels])
    cfg = ExperimentConfig(fiber_seed=seed, fiber_residual_rad=residual,
                           source=SourceConfig(bell_visibility=visibilities[0]))
    link = ex._bell_link(cfg, chip1, chip2)
    for ch in (chip1.channel(), link):
        assert len(ch.kraus) > 1  # depolarizing: several Kraus operators
        got = bp.apply_chip_both_stack(joints, ch)
        for g, joint in zip(got, joints):
            want = lifted_both(qc.DensityMatrix(16, joint), ch)
            np.testing.assert_allclose(g, want.entries, rtol=0, atol=TOL)

    # the runner's stack at the config's visibility: propagation,
    # validation, heralding and the sector block
    try:
        want = [bell_polarization_oracle(werner_oracle(l, visibilities[0]), link)
                for l in labels]
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            ex._bell_polarization_stack(cfg, labels, link)
        return
    blocks, probs = ex._bell_polarization_stack(cfg, labels, link)
    for blk, p, (want_blk, want_p) in zip(blocks, probs, want):
        # heralding and the block's normalisation divide the rounding of the
        # link output by the sector probability
        np.testing.assert_allclose(blk, want_blk, rtol=0, atol=TOL / max(want_p, TOL))
        assert p == pytest.approx(want_p, rel=0, abs=TOL)


@PROPERTY
@given(CHIPS, density_matrices(16), st.sampled_from([bp.SIGNAL, bp.IDLER]))
def test_apply_local_equals_lifted_kraus(chip, rho, which):
    state = bp.BiphotonState(rho, 3.15, (778.0, 1556.0, 1556.0))
    got = bp.apply_local(state, chip.channel(), which).joint
    want = lifted(rho, chip.channel(), which)
    np.testing.assert_allclose(got.entries, want.entries, rtol=0, atol=TOL)


# the 16 separable inputs of two-qubit process tomography, momentum major
SEPARABLE = np.array([np.kron(qc.ket2(m), qc.ket2(p))
                      for m in ("0", "1", "+", "i") for p in ("H", "V", "D", "R")])


def output_state_oracle(chip, vec, frame, trace_polarization):
    """One input at a time: stagewise chip, heralding, partial trace and
    frame, each a validated `DensityMatrix`; returns (state, survival)."""
    out = stagewise(chip, qc.DensityMatrix(4, np.outer(vec, vec.conj())))
    out, survival = qc.heralded_normalize(out)
    if trace_polarization:
        out = qc.partial_trace(out, [2, 2], [0])
    return dv.logical_frame(out, frame), survival


def momentum_probabilities_oracle(rho2):
    """One `apply_channel` of the MZI projector per momentum setting."""
    return [qc.apply_channel(dv.mzi_projector(dv.MZISetting(lbl)), rho2).trace
            for lbl in ("0", "1", "+", "-", "i", "-i")]


@PROPERTY
@given(CHIPS, st.sampled_from(["raw", "relabeled"]), st.booleans())
def test_exact_outputs_equal_per_state_chain(chip, frame, trace_polarization):
    try:
        want = [output_state_oracle(chip, v, frame, trace_polarization) for v in SEPARABLE]
    except ValueError as exc:
        assert str(exc).startswith("vacuum state")
        with pytest.raises(ValueError, match="^vacuum state"):
            ex._exact_outputs(chip, SEPARABLE, frame, trace_polarization)
        return
    got = ex._exact_outputs(chip, SEPARABLE, frame, trace_polarization)
    assert got.shape == ((16, 2, 2) if trace_polarization else (16, 4, 4))
    for g, (w, survival) in zip(got, want):
        # heralding divides the rounding of the chip output by the survival
        np.testing.assert_allclose(g, w.entries, rtol=0, atol=TOL / survival)
        if trace_polarization:
            np.testing.assert_allclose(ex._mzi_probabilities(g[None])[0],
                                       momentum_probabilities_oracle(w),
                                       rtol=0, atol=TOL / survival)


def test_exact_outputs_of_a_dark_chip_raise_the_vacuum_error():
    # crossed polarizers on both ports pass no photon
    dark = nl.compile_netlist(nl.parse(
        "chip dark {\n  ports T, B;\n  polarizer p0 (T, B) angle=0rad;\n"
        "  polarizer p1 (T, B) angle=90deg;\n}\n"))
    for trace_polarization in (False, True):
        with pytest.raises(ValueError, match="^vacuum state: trace is zero"):
            ex._exact_outputs(dark, SEPARABLE, "raw", trace_polarization)
