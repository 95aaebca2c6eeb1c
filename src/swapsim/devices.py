"""Quantum-channel models of the physical chip components.

Each component is a Kraus channel on the four-dimensional single-photon
space |T,H>, |T,V>, |B,H>, |B,V> (channel major, polarization minor).  The
chip itself is a cascade PC-NOT / MC-NOT / PC-NOT between input and output
facets, held as one 16x16 superoperator (`ChipModel.superoperator`); with
every imperfection switched off that superoperator equals U (x) conj(U)
for U = (X (x) X) . SWAP on the (momentum, polarization) logical pair,
exactly.

Phase conventions
-----------------
Finite extinction is modeled as coherent leakage: each gate stays unitary.
The polarized coupler routes H on the bar path and V on the cross path:

    U_H = [[sqrt(1-eH), i sqrt(eH)], [i sqrt(eH), sqrt(1-eH)]]
    U_V = [[-sqrt(eV),  sqrt(1-eV)], [sqrt(1-eV),  sqrt(eV)]]

(2x2 blocks on the (T, B) channel subspace; e = leakage from the extinction
ratio).  The H block is the usual symmetric coupler with the quadrature
phase on the weak crossing; the V block is the real reciprocal completion
of a full crossing, with the residual bar amplitudes carrying opposite
signs.  Both ideal limits are exactly I and X, so the ideal three-gate
cascade equals (X (x) X) . SWAP with no residual per-column phases, and
leaked amplitudes of multi-gate paths do not pile up perfectly in phase
(an all +i quadrature convention would make them, grossly overstating
two-chip crosstalk).  The MC-NOT polarization flip uses the matching
half-wave-retarder form, again exactly X in the ideal limit.  Optional
incoherent leakage is exposed as `depol`.

The constructors of the netlist's components take the statement's
parameter names (`netlist.COMPONENTS`) as keyword arguments, in the units
the netlist writes them: dB for extinction and loss, radians for angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qcore import (
    SWAP,
    QuantumChannel,
    check_trace_nonincreasing,
    pauli_operators,
    PAULI_I,
    PAULI_X,
)

__all__ = [
    "ChipModel",
    "er_to_leakage",
    "pcnot_channel",
    "mcnot_channel",
    "waveplate_jones",
    "phase_v",
    "polarizer",
    "mzi_projector",
    "facet_channel",
    "BS_5050",
    "logical_frame_stack",
    "ideal_swap_unitary",
    "swap_unitary",
]


def er_to_leakage(er_db: float | None) -> float:
    """Leakage power fraction eps = 10^(-ER/10) of the suppressed path.

    `None` or infinity means a perfect component (eps = 0).
    """
    if er_db is None or er_db == math.inf:
        return 0.0
    if er_db <= 0:
        raise ValueError("extinction ratio must be > 0 dB")
    return 10.0 ** (-er_db / 10.0)


def db_to_amplitude(loss_db: float) -> float:
    """Field amplitude transmission for a power loss in dB."""
    if loss_db < 0:
        raise ValueError("loss must be >= 0 dB")
    return 10.0 ** (-loss_db / 20.0)


def _pol_controlled(u_h: np.ndarray, u_v: np.ndarray) -> np.ndarray:
    """4x4 operator applying u_h / u_v on the channel pair per polarization."""
    out = np.zeros((4, 4), dtype=complex)
    out[0::2, 0::2] = u_h
    out[1::2, 1::2] = u_v
    return out


def _channel_controlled(op_t: np.ndarray, op_b: np.ndarray) -> np.ndarray:
    """4x4 operator applying op_t / op_b on polarization per channel."""
    out = np.zeros((4, 4), dtype=complex)
    out[0:2, 0:2] = op_t
    out[2:4, 2:4] = op_b
    return out


def _coupler_bar(eps: float) -> np.ndarray:
    """Coupler whose ideal action is the identity (bar); eps leaks across.

    Symmetric form with the quadrature phase on the weak crossing.
    """
    t = np.sqrt(1.0 - eps)
    r = np.sqrt(eps)
    return np.array([[t, 1j * r], [1j * r, t]], dtype=complex)


def _coupler_cross(eps: float) -> np.ndarray:
    """Coupler whose ideal action is a crossing (X); eps stays on the bar.

    Real reciprocal form: the residual bar amplitudes carry opposite signs,
    the dominant crossing is real and positive, so the ideal limit is
    exactly X and double crossings keep a +1 phase.
    """
    t = np.sqrt(eps)
    r = np.sqrt(1.0 - eps)
    return np.array([[-t, r], [r, t]], dtype=complex)


def _depolarize(ch: QuantumChannel, prob: float) -> QuantumChannel:
    """Mix the channel with the fully depolarizing map at rate `prob`."""
    if not 0 <= prob <= 1:
        raise ValueError("depol must lie in [0, 1]")
    if prob == 0:
        return ch
    dim = ch.dim_out
    full = pauli_operators(int(round(math.log2(dim))))
    d2 = len(full)
    kraus = [np.sqrt(1.0 - prob * (d2 - 1) / d2) * np.eye(dim, dtype=complex)]
    kraus += [np.sqrt(prob / d2) * p for p in full[1:]]
    # the depolarizing map after the channel: d2 * len(ch.kraus) products
    return QuantumChannel(dim, dim, tuple(d @ k for d in kraus for k in ch.kraus))


def pcnot_channel(*, extinction: float = math.inf, extinction_h: float | None = None,
                  extinction_v: float | None = None, imbalance: float = 0.0,
                  loss: float = 0.0, depol: float = 0.0) -> QuantumChannel:
    """Polarization-controlled NOT: V crosses channels, H stays put.

    Coherent leakage per polarization from the extinction ratio (dB;
    `extinction_h` / `extinction_v` override it for one polarization).
    `imbalance` is the H-vs-V coupling difference (dB): the V crossing
    amplitude is attenuated by that much relative to the H bar path, which
    both costs V photons and degrades the effective V extinction (the
    leakage amplitude bypasses the coupling region and is not attenuated).
    A uniform `loss` (dB) and the incoherent `depol` knob compose on top.
    """
    eps_h = er_to_leakage(extinction if extinction_h is None else extinction_h)
    eps_v = er_to_leakage(extinction if extinction_v is None else extinction_v)
    u_v = _coupler_cross(eps_v)
    if imbalance:
        a = db_to_amplitude(imbalance)
        u_v = u_v.copy()
        u_v[0, 1] *= a
        u_v[1, 0] *= a
    u = _pol_controlled(_coupler_bar(eps_h), u_v)
    u *= db_to_amplitude(loss)
    return _depolarize(QuantumChannel(4, 4, (u,)), depol)


def mcnot_channel(*, extinction: float = math.inf, loss: float = 0.0,
                  loss_other: float = 0.0, rotation_error: float = 0.0,
                  depol: float = 0.0) -> QuantumChannel:
    """Momentum-controlled NOT: flips polarization on the T channel only.

    The rotator flips polarization through angle pi/2 - dtheta, where
    dtheta is the angle whose sin^2 is the extinction leakage plus the
    flip-angle error `rotation_error` (rad), in half-wave-retarder form
    (exactly X when ideal).  Channel-resolved losses (dB), `loss` on the
    rotator's channel and `loss_other` on the other, model the extra
    attenuation of the rotator path.
    """
    eps = er_to_leakage(extinction)
    dtheta = math.asin(math.sqrt(eps)) + rotation_error
    s, c = math.sin(dtheta), math.cos(dtheta)
    flip = np.array([[s, c], [c, -s]], dtype=complex)
    k = _channel_controlled(db_to_amplitude(loss) * flip,
                            db_to_amplitude(loss_other) * PAULI_I)
    return _depolarize(QuantumChannel(4, 4, (k,)), depol)


def waveplate_jones(kind: str, theta: float) -> np.ndarray:
    """Jones matrix of a retarder with fast axis at `theta` in the H/V frame.

    Retardance pi for kind "hwp", pi/2 for "qwp"; the slow axis acquires
    e^{-i gamma}.
    """
    if kind == "hwp":
        gamma = math.pi
    elif kind == "qwp":
        gamma = math.pi / 2
    else:
        raise ValueError(f"not a waveplate kind: {kind!r}")
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return rot @ np.diag([1.0, np.exp(-1j * gamma)]) @ rot.conj().T


def phase_v(phi: float) -> np.ndarray:
    """diag(1, e^{i phi}): programmable phase between |H> and |V>."""
    return np.diag([1.0, np.exp(1j * phi)]).astype(complex)


def polarizer(theta: float) -> QuantumChannel:
    """Rank-1 projector onto cos(theta)|H> + sin(theta)|V> (dim 2)."""
    v = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
    return QuantumChannel(2, 2, (np.outer(v, v.conj()),))


# momentum label (`tomography.MOMENTUM_LABELS`) -> (input-arm phase,
# internal phase) realizing its projection at the T output
_MZI_PHASES = {
    "0": (0.0, math.pi),
    "1": (0.0, 0.0),
    "+": (0.0, math.pi / 2),
    "-": (0.0, -math.pi / 2),
    "i": (-math.pi / 2, math.pi / 2),
    "-i": (math.pi / 2, math.pi / 2),
}

# symmetric 50:50 splitter on the (T, B) channel pair
BS_5050 = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) / np.sqrt(2.0)


def mzi_transfer(phase: float = 0.0, input_phase: float = 0.0) -> np.ndarray:
    """2x2 spatial transfer matrix: input phase, 50:50, internal phase, 50:50."""
    d_in = np.diag([1.0, np.exp(1j * input_phase)])
    d_mid = np.diag([np.exp(1j * phase), 1.0])
    return BS_5050 @ d_mid @ BS_5050 @ d_in


def mzi_projector(label: str) -> QuantumChannel:
    """Spatial-momentum projector realized as a BS-phase-BS interferometer.

    The T output port of the interferometer selects the Bloch state of the
    momentum `label` ("0", "1", "+", "-", "i", "-i").  Trace-decreasing
    dim-2 channel with one Kraus operator.
    """
    alpha, phi = _MZI_PHASES[label]
    row = mzi_transfer(phi, alpha)[0:1, :]  # amplitude reaching the monitored port
    return QuantumChannel(2, 2, (np.vstack([row, np.zeros((1, 2), dtype=complex)]),))


def facet_channel(loss_h: float = 0.0, loss_v: float = 0.0, xtalk: float = 0.0) -> QuantumChannel:
    """Facet coupling: per-polarization attenuation (dB), identical on T and B.

    `xtalk` is the amplitude of a small coherent T<->B coupling
    (spatial-mode contamination), zero by default.
    """
    a = np.diag([db_to_amplitude(loss_h), db_to_amplitude(loss_v)])
    k = np.kron(np.eye(2), a).astype(complex)
    if xtalk != 0.0:
        if not -1.0 <= xtalk <= 1.0:
            raise ValueError("xtalk must lie in [-1, 1]")
        x = xtalk
        mix = np.array([[math.sqrt(1 - x * x), x], [-x, math.sqrt(1 - x * x)]])
        k = np.kron(mix, np.eye(2)) @ k
    return QuantumChannel(4, 4, (k,))


# exchange of the two spatial ports, T <-> B, polarization kept
_SWAP_PORTS = np.eye(4, dtype=complex)[[2, 3, 0, 1]]


def _per_port_pol(op: np.ndarray, ports) -> QuantumChannel:
    """The 2x2 polarization operator `op` on each spatial port of `ports`."""
    k = np.eye(4, dtype=complex)
    for p in ports:
        lifted = np.eye(4, dtype=complex)
        lifted[2 * p:2 * p + 2, 2 * p:2 * p + 2] = op
        k = lifted @ k
    return QuantumChannel(4, 4, (k,))


def _reorient(ch: QuantumChannel, idx) -> QuantumChannel:
    """Conjugate a channel built in (first, second) port order when the
    statement references the chip ports in reversed order."""
    if tuple(idx) == (0, 1):
        return ch
    return QuantumChannel(4, 4, tuple(_SWAP_PORTS @ k @ _SWAP_PORTS for k in ch.kraus))


def stage_channel(kind: str, idx: tuple, params: dict) -> QuantumChannel:
    """The dim-4 channel of one netlist statement: a component of `kind` (a
    key of `netlist.COMPONENTS`) on the chip ports `idx` (indices into the
    chip's port order), with `params` the statement's checked parameters
    under their netlist names, passed straight to the constructor (the
    netlist has checked every name, unit and range).  Raises ValueError on
    a parameter out of range."""
    if kind == "pcnot":
        return _reorient(pcnot_channel(**params), idx)
    if kind == "mcnot":
        return _reorient(mcnot_channel(**params), (idx[0], 1 - idx[0]))
    if kind in ("hwp", "qwp"):
        return _per_port_pol(waveplate_jones(kind, params.get("angle", 0.0)), idx)
    if kind == "phase_v":
        return _per_port_pol(phase_v(params.get("phase", 0.0)), idx)
    if kind == "polarizer":
        return _per_port_pol(np.asarray(polarizer(params.get("angle", 0.0)).kraus[0]), idx)
    if kind == "bs5050":
        return _reorient(QuantumChannel(4, 4, (np.kron(BS_5050, np.eye(2)),)), idx)
    if kind == "mzi":
        return _reorient(QuantumChannel(4, 4, (np.kron(mzi_transfer(**params), np.eye(2)),)), idx)
    if kind == "fiber":
        amp = db_to_amplitude(params.get("loss", 0.0))
        return _per_port_pol(amp * phase_v(params.get("phase", 0.0)), idx)
    if kind == "facet":
        return _reorient(facet_channel(**params), idx)
    if kind == "loss":
        amp = db_to_amplitude(params.get("loss", 0.0))
        return _per_port_pol(amp * np.eye(2, dtype=complex), idx)
    raise ValueError(f"unknown component kind {kind!r}")


@dataclass(frozen=True)
class ChipModel:
    """Ordered dim-4 stages making up one chip.

    At construction the chip becomes its 16x16 `superoperator`, the
    product of its stages' (first stage rightmost), which every exact
    propagation reads; its rows (a, a) sum to conj(sum_k K^dag K), which is
    checked as a `QuantumChannel` checks its own.
    """

    stages: tuple
    label: str = "chip"
    superoperator: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        for st in stages:
            if not isinstance(st, QuantumChannel) or st.dim_in != 4 or st.dim_out != 4:
                raise ValueError("every chip stage must be a dim-4 channel")
        s = stages[0].superoperator
        for st in stages[1:]:
            s = st.superoperator @ s
        check_trace_nonincreasing(s[::5].sum(axis=0).reshape(4, 4))
        s.flags.writeable = False
        object.__setattr__(self, "superoperator", s)


_XX = np.kron(PAULI_X, PAULI_X)
_X2 = PAULI_X


def swap_unitary() -> np.ndarray:
    """SWAP on the (momentum, polarization) logical pair."""
    return SWAP.copy()


def ideal_swap_unitary() -> np.ndarray:
    """The chip's ideal composed operator (X (x) X) . SWAP."""
    return _XX @ swap_unitary()


def logical_frame_stack(m: np.ndarray, frame: str) -> np.ndarray:
    """Map chip outputs `m` (shape (..., d, d), d = 2 or 4) into the
    requested logical frame, plain arrays in and out.

    "raw" leaves the states untouched; "relabeled" applies X (x) X (dim 4) or
    X (dim 2) so that the ideal chip action reads as a pure SWAP / identity.
    """
    if frame == "raw":
        return m
    if frame != "relabeled":
        raise ValueError(f"unknown logical frame {frame!r}")
    op = {4: _XX, 2: _X2}.get(m.shape[-1])
    if op is None:
        raise ValueError("logical frame applies to dim-2 or dim-4 states")
    return op @ m @ op

