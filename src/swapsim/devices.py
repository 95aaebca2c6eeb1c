"""Quantum-channel models of the physical chip components.

Each component is a Kraus channel on the four-dimensional single-photon
space |T,H>, |T,V>, |B,H>, |B,V> (channel major, polarization minor).  The
chip itself is a cascade PC-NOT / MC-NOT / PC-NOT between input and output
facets; with every imperfection switched off the composed operator equals
(X (x) X) . SWAP on the (momentum, polarization) logical pair exactly.

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
incoherent leakage is exposed as `depol_prob`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .qcore import (
    SWAP,
    DensityMatrix,
    PauliBasis,
    QuantumChannel,
    apply_channel,
    compose_channels,
    PAULI_I,
    PAULI_X,
)

__all__ = [
    "ComponentKind",
    "ComponentSpec",
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
    "logical_frame",
    "ideal_swap_unitary",
    "swap_unitary",
    "MZISetting",
]


class ComponentKind(Enum):
    PCNOT = "pcnot"
    MCNOT = "mcnot"
    HWP = "hwp"
    QWP = "qwp"
    PHASE_V = "phase_v"
    POLARIZER = "polarizer"
    BS5050 = "bs5050"
    MZI = "mzi"
    FIBER = "fiber"
    FACET = "facet"
    LOSS = "loss"


@dataclass(frozen=True)
class ComponentSpec:
    """A component kind plus its named real parameters.

    Recognized parameters (all optional, ideal defaults):
      extinction_db            power extinction ratio; absent/inf = perfect
      extinction_db_h / _v     per-polarization override for PC-NOT
      loss_db                  insertion loss
      loss_db_t / loss_db_b    per-channel loss (MC-NOT asymmetry)
      loss_db_h / loss_db_v    per-polarization loss (facets)
      loss_imbalance_db        H-vs-V coupling difference of a PC-NOT
      rotation_error_rad       extra MC-NOT flip-angle error
      angle_rad                waveplate / polarizer axis angle
      phase_rad                programmable phase (PHASE_V, MZI)
      xtalk_amp                spatial-mode contamination amplitude (facets)
      depol_prob               incoherent leakage knob (PC-NOT / MC-NOT)
    """

    kind: ComponentKind
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        for name, value in self.params.items():
            if not math.isfinite(value) and not (
                name.startswith("extinction") and value == math.inf
            ):
                raise ValueError(f"parameter {name} must be finite, got {value}")
        for name in self.params:
            if name.startswith("extinction") and self.params[name] <= 0:
                raise ValueError(f"{name} must be > 0 dB")
            if name.startswith("loss") and self.params[name] < 0:
                raise ValueError(f"{name} must be >= 0 dB")

    def get(self, name: str, default: float = 0.0) -> float:
        return float(self.params.get(name, default))


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
    if prob <= 0:
        return ch
    if not 0 < prob <= 1:
        raise ValueError("depol_prob must lie in [0, 1]")
    dim = ch.dim_out
    full = PauliBasis(int(round(math.log2(dim)))).operators
    d2 = len(full)
    kraus = [np.sqrt(1.0 - prob * (d2 - 1) / d2) * np.eye(dim, dtype=complex)]
    kraus += [np.sqrt(prob / d2) * p for p in full[1:]]
    depol = QuantumChannel(dim, dim, tuple(kraus))
    return compose_channels(ch, depol)


def pcnot_channel(spec: ComponentSpec) -> QuantumChannel:
    """Polarization-controlled NOT: V crosses channels, H stays put.

    Coherent leakage per polarization from the extinction ratio.
    `loss_imbalance_db` is the H-vs-V coupling difference: the V crossing
    amplitude is attenuated by that much relative to the H bar path, which
    both costs V photons and degrades the effective V extinction (the
    leakage amplitude bypasses the coupling region and is not attenuated).
    A uniform `loss_db` and the incoherent `depol_prob` knob compose on top.
    """
    if spec.kind is not ComponentKind.PCNOT:
        raise ValueError(f"expected a PCNOT spec, got {spec.kind}")
    er = spec.params.get("extinction_db", math.inf)
    eps_h = er_to_leakage(spec.params.get("extinction_db_h", er))
    eps_v = er_to_leakage(spec.params.get("extinction_db_v", er))
    u_v = _coupler_cross(eps_v)
    imb = spec.get("loss_imbalance_db")
    if imb:
        a = db_to_amplitude(imb)
        u_v = u_v.copy()
        u_v[0, 1] *= a
        u_v[1, 0] *= a
    u = _pol_controlled(_coupler_bar(eps_h), u_v)
    u *= db_to_amplitude(spec.get("loss_db"))
    return _depolarize(QuantumChannel(4, 4, (u,)), spec.get("depol_prob"))


def mcnot_channel(spec: ComponentSpec) -> QuantumChannel:
    """Momentum-controlled NOT: flips polarization on the T channel only.

    The rotator flips polarization through angle pi/2 - dtheta with
    sin^2(dtheta) equal to the extinction leakage, in half-wave-retarder
    form (exactly X when ideal).  Channel-resolved losses model the extra
    attenuation of the rotator path.
    """
    if spec.kind is not ComponentKind.MCNOT:
        raise ValueError(f"expected a MCNOT spec, got {spec.kind}")
    eps = er_to_leakage(spec.params.get("extinction_db", math.inf))
    dtheta = math.asin(math.sqrt(eps)) + spec.get("rotation_error_rad")
    s, c = math.sin(dtheta), math.cos(dtheta)
    flip = np.array([[s, c], [c, -s]], dtype=complex)
    a_t = db_to_amplitude(spec.get("loss_db_t", spec.get("loss_db")))
    a_b = db_to_amplitude(spec.get("loss_db_b"))
    k = _channel_controlled(a_t * flip, a_b * PAULI_I)
    return _depolarize(QuantumChannel(4, 4, (k,)), spec.get("depol_prob"))


def waveplate_jones(kind: ComponentKind, theta: float) -> np.ndarray:
    """Jones matrix of a retarder with fast axis at `theta` in the H/V frame.

    Retardance pi for HWP, pi/2 for QWP; the slow axis acquires e^{-i gamma}.
    """
    if kind is ComponentKind.HWP:
        gamma = math.pi
    elif kind is ComponentKind.QWP:
        gamma = math.pi / 2
    else:
        raise ValueError(f"not a waveplate kind: {kind}")
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


class MZISetting(Enum):
    T = "0"
    B = "1"
    PLUS = "+"
    MINUS = "-"
    PLUS_I = "i"
    MINUS_I = "-i"


# (input-arm phase, internal phase) realizing each projection at the T output
_MZI_PHASES = {
    MZISetting.T: (0.0, math.pi),
    MZISetting.B: (0.0, 0.0),
    MZISetting.PLUS: (0.0, math.pi / 2),
    MZISetting.MINUS: (0.0, -math.pi / 2),
    MZISetting.PLUS_I: (-math.pi / 2, math.pi / 2),
    MZISetting.MINUS_I: (math.pi / 2, math.pi / 2),
}

# symmetric 50:50 splitter on the (T, B) channel pair
BS_5050 = np.array([[1.0, 1j], [1j, 1.0]], dtype=complex) / np.sqrt(2.0)


def mzi_transfer(internal_phase: float, input_phase: float = 0.0) -> np.ndarray:
    """2x2 spatial transfer matrix: input phase, 50:50, internal phase, 50:50."""
    d_in = np.diag([1.0, np.exp(1j * input_phase)])
    d_mid = np.diag([np.exp(1j * internal_phase), 1.0])
    return BS_5050 @ d_mid @ BS_5050 @ d_in


def mzi_projector(setting: MZISetting, extinction_db: float = math.inf) -> QuantumChannel:
    """Spatial-momentum projector realized as a BS-phase-BS interferometer.

    The T output port of the interferometer selects the named Bloch state;
    finite extinction contaminates the projection with the orthogonal state
    incoherently.  Trace-decreasing dim-2 channel.
    """
    alpha, phi = _MZI_PHASES[setting]
    u = mzi_transfer(phi, alpha)
    row = u[0:1, :]  # amplitude reaching the monitored output port
    k_main = np.vstack([row, np.zeros((1, 2), dtype=complex)])
    eps = er_to_leakage(extinction_db)
    if eps == 0.0:
        return QuantumChannel(2, 2, (k_main,))
    # Orthogonal-state contamination at the suppressed-port level.
    ortho = np.array([-row[0, 1].conj(), row[0, 0].conj()], dtype=complex)
    k_leak = np.vstack([ortho.reshape(1, 2), np.zeros((1, 2), dtype=complex)])
    return QuantumChannel(
        2, 2, (math.sqrt(1.0 - eps) * k_main, math.sqrt(eps) * k_leak)
    )


def facet_channel(loss_h_db: float, loss_v_db: float, xtalk_amp: float = 0.0) -> QuantumChannel:
    """Facet coupling: per-polarization attenuation, identical on T and B.

    `xtalk_amp` adds a small coherent T<->B coupling (spatial-mode
    contamination), zero by default.
    """
    a = np.diag([db_to_amplitude(loss_h_db), db_to_amplitude(loss_v_db)])
    k = np.kron(np.eye(2), a).astype(complex)
    if xtalk_amp != 0.0:
        if not -1.0 <= xtalk_amp <= 1.0:
            raise ValueError("xtalk_amp must lie in [-1, 1]")
        x = xtalk_amp
        mix = np.array([[math.sqrt(1 - x * x), x], [-x, math.sqrt(1 - x * x)]])
        k = np.kron(mix, np.eye(2)) @ k
    return QuantumChannel(4, 4, (k,))


@dataclass(frozen=True)
class ChipModel:
    """Ordered dim-4 stages making up one chip."""

    stages: tuple
    label: str = "chip"

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        for st in stages:
            if not isinstance(st, QuantumChannel) or st.dim_in != 4 or st.dim_out != 4:
                raise ValueError("every chip stage must be a dim-4 channel")

    def channel(self) -> QuantumChannel:
        """All stages composed into a single channel (first stage acts first)."""
        return compose_channels(*self.stages)

    def apply(self, rho: DensityMatrix) -> DensityMatrix:
        out = rho
        for st in self.stages:
            out = apply_channel(st, out)
        return out


_XX = np.kron(PAULI_X, PAULI_X)
_X2 = PAULI_X


def swap_unitary() -> np.ndarray:
    """SWAP on the (momentum, polarization) logical pair."""
    return SWAP.copy()


def ideal_swap_unitary() -> np.ndarray:
    """The chip's ideal composed operator (X (x) X) . SWAP."""
    return _XX @ swap_unitary()


def logical_frame(rho_out: DensityMatrix, frame: str) -> DensityMatrix:
    """Map a chip output into the requested logical frame.

    "raw" leaves the state untouched; "relabeled" applies X (x) X (dim 4) or
    X (dim 2) so that the ideal chip action reads as a pure SWAP / identity.
    """
    frame = frame.lower()
    if frame == "raw":
        return rho_out
    if frame != "relabeled":
        raise ValueError(f"unknown logical frame {frame!r}")
    if rho_out.dim == 4:
        op = _XX
    elif rho_out.dim == 2:
        op = _X2
    else:
        raise ValueError("logical frame applies to dim-2 or dim-4 states")
    return DensityMatrix(rho_out.dim, op @ rho_out.entries @ op)
