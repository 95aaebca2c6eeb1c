"""Two-photon states: SPDC source, Bell preparation, HOM interference.

A biphoton lives on the 16-dimensional space signal (x) idler, each photon
carrying the (channel (x) polarization) pair in the fixed basis order of
`qcore`; the signal is the most significant subsystem, so the joint index
reads (m_s, p_s, m_i, p_i).  The spectral degree of freedom is compressed
to a scalar overlap mu(tau) with configurable dip shape; everywhere except
`hom_coincidence` the two photons are ordinary distinguishable subsystems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.optimize import least_squares

from .qcore import (
    SWAP,
    DensityMatrix,
    QuantumChannel,
    apply_channel,
    dagger,
    heralded_normalize,
    ket2,
    ket4,
    permute_subsystems,
)

__all__ = [
    "BellLabel",
    "SpectralOverlap",
    "BiphotonState",
    "spdc_state",
    "prepare_bell",
    "apply_local",
    "apply_chip_both",
    "spectral_overlap",
    "interference_overlap",
    "hom_coincidence",
    "hom_visibility",
    "HomFit",
    "fiber_link",
    "bell_state_vector",
    "assemble_joint",
    "conditional_polarization",
]

ENERGY_TOL_PER_NM = 1e-6


class BellLabel(Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


def bell_state_vector(label: BellLabel) -> np.ndarray:
    h, v = ket2("H"), ket2("V")
    pairs = {
        BellLabel.PSI_PLUS: np.kron(h, v) + np.kron(v, h),
        BellLabel.PSI_MINUS: np.kron(h, v) - np.kron(v, h),
        BellLabel.PHI_PLUS: np.kron(h, h) + np.kron(v, v),
        BellLabel.PHI_MINUS: np.kron(h, h) - np.kron(v, v),
    }
    return pairs[label] / np.sqrt(2.0)


@dataclass(frozen=True)
class SpectralOverlap:
    """Scalar spectral-overlap model mu(tau) of the two-photon wavepacket."""

    coherence_time_ps: float
    shape: str = "gaussian"

    def __post_init__(self):
        if self.coherence_time_ps <= 0:
            raise ValueError("coherence time must be positive")
        if self.shape not in ("gaussian", "triangular"):
            raise ValueError(f"unknown overlap shape {self.shape!r}")


def spectral_overlap(tau_ps: float, s: SpectralOverlap) -> float:
    """Overlap mu(tau), 1 at zero delay, monotone decreasing in |tau|.

    Gaussian: exp(-tau^2 / (2 T_c^2)); the corresponding coincidence-dip
    FWHM is 2 sqrt(2 ln 2) T_c.  Triangular (CW type-II walk-off shape):
    max(0, 1 - |tau| / (2 T_c)).
    """
    tc = s.coherence_time_ps
    if s.shape == "gaussian":
        return float(np.exp(-(tau_ps**2) / (2.0 * tc * tc)))
    return float(max(0.0, 1.0 - abs(tau_ps) / (2.0 * tc)))


@dataclass(frozen=True)
class BiphotonState:
    """Joint signal-idler state with its spectral-overlap parameters."""

    joint: DensityMatrix
    coherence_time_ps: float
    wavelengths_nm: tuple  # (pump, signal, idler)
    overlap_shape: str = "gaussian"

    def __post_init__(self):
        if self.joint.dim != 16:
            raise ValueError("joint state must have dimension 16")
        if self.coherence_time_ps <= 0:
            raise ValueError("coherence time must be positive")
        lp, ls, li = self.wavelengths_nm
        if abs(1.0 / lp - 1.0 / ls - 1.0 / li) > ENERGY_TOL_PER_NM:
            raise ValueError("wavelengths violate energy conservation")

    @property
    def overlap(self) -> SpectralOverlap:
        return SpectralOverlap(self.coherence_time_ps, self.overlap_shape)


def idler_wavelength(lambda_pump_nm: float, lambda_signal_nm: float) -> float:
    """Idler wavelength from energy conservation 1/lp = 1/ls + 1/li."""
    if lambda_pump_nm <= 0 or lambda_signal_nm <= lambda_pump_nm:
        raise ValueError("need 0 < lambda_pump < lambda_signal")
    return 1.0 / (1.0 / lambda_pump_nm - 1.0 / lambda_signal_nm)


def assemble_joint(spatial_pol_pairs, pol_rho: np.ndarray | None = None) -> DensityMatrix:
    """Build the 16-dim joint state.

    Either pass a pure assignment [(m_s, p_s), (m_i, p_i)] of state labels,
    or pass spatial labels [m_s, m_i] plus a 4x4 polarization density matrix
    on (p_s, p_i).
    """
    if pol_rho is None:
        (ms, ps), (mi, pi) = spatial_pol_pairs
        v = np.kron(ket4(ms, ps), ket4(mi, pi))
        return DensityMatrix(16, np.outer(v, v.conj()))
    ms, mi = spatial_pol_pairs
    spatial = np.kron(ket2(ms), ket2(mi))
    big = np.kron(np.outer(spatial, spatial.conj()), np.asarray(pol_rho, dtype=complex))
    # reorder (m_s m_i p_s p_i) -> (m_s p_s m_i p_i)
    return DensityMatrix(16, permute_subsystems(big, [2, 2, 2, 2], [0, 2, 1, 3]))


def spdc_state(
    lambda_pump_nm: float,
    lambda_signal_nm: float,
    t_c_ps: float,
    signal_channel: str = "T",
    overlap_shape: str = "gaussian",
) -> BiphotonState:
    """Type-II SPDC pair |V_S H_I> with the photons in opposite channels.

    The signal enters `signal_channel`, the idler the other channel; the
    idler wavelength follows from energy conservation.
    """
    idler_channel = "B" if signal_channel == "T" else "T"
    joint = assemble_joint([(signal_channel, "V"), (idler_channel, "H")])
    li = idler_wavelength(lambda_pump_nm, lambda_signal_nm)
    return BiphotonState(joint, t_c_ps, (lambda_pump_nm, lambda_signal_nm, li),
                         overlap_shape)


def prepare_bell(
    label: BellLabel,
    visibility: float = 1.0,
    t_c_ps: float = 3.15,
    wavelengths_nm: tuple = (778.0, 1556.0, 1556.0),
) -> BiphotonState:
    """Polarization Bell state as a Werner mixture, spatial part |T_S B_I>.

    rho_pol = v |Bell><Bell| + (1 - v) I/4.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    bell = bell_state_vector(label)
    pol = visibility * np.outer(bell, bell.conj()) + (1.0 - visibility) * np.eye(4) / 4.0
    return BiphotonState(assemble_joint(["T", "B"], pol), t_c_ps, wavelengths_nm)


SIGNAL, IDLER = "signal", "idler"


def apply_local(state: BiphotonState, ch: QuantumChannel, which: str) -> BiphotonState:
    """Apply a dim-4 channel to one photon; the trace drops under loss."""
    if ch.dim_in != 4 or ch.dim_out != 4:
        raise ValueError("local channels must be dim-4")
    eye = np.eye(4, dtype=complex)
    if which == SIGNAL:
        kraus = tuple(np.kron(k, eye) for k in ch.kraus)
    elif which == IDLER:
        kraus = tuple(np.kron(eye, k) for k in ch.kraus)
    else:
        raise ValueError(f"which must be 'signal' or 'idler', got {which!r}")
    lifted = QuantumChannel(16, 16, kraus)
    return replace(state, joint=apply_channel(lifted, state.joint))


def apply_chip_both(state: BiphotonState, ch: QuantumChannel) -> BiphotonState:
    """Send both photons through the same chip channel."""
    return apply_local(apply_local(state, ch, SIGNAL), ch, IDLER)


def conditional_polarization(rho16: DensityMatrix, sector: tuple) -> tuple:
    """Joint polarization block for fixed photon channels (m_s, m_i).

    Returns (4x4 block, sector probability); the block is normalized when
    the probability is nonzero.
    """
    ms, mi = sector
    t = rho16.entries.reshape(2, 2, 2, 2, 2, 2, 2, 2)
    blk = t[ms, :, mi, :, ms, :, mi, :].reshape(4, 4)
    w = float(np.trace(blk).real)
    if w > 1e-15:
        return blk / w, w
    return blk, 0.0


def interference_overlap(rho16: DensityMatrix) -> float:
    """Exchange overlap O of the two photons' channel-mapped polarization.

    Each photon's channel selects which combiner input it occupies, so only
    population with the photons in distinct channels interferes; for those
    sectors the contrast is the polarization SWAP expectation of the
    conditional joint polarization state.  Sector contributions are weighted
    by their probability (same-channel population dilutes the dip) and
    cross-sector coherences are dropped.  Clipped to [0, 1].
    """
    total = float(np.trace(rho16.entries).real)
    if total <= 1e-15:
        raise ValueError("vacuum state has no interference overlap")
    o = 0.0
    for sector in ((0, 1), (1, 0)):
        blk, w = conditional_polarization(rho16, sector)
        if w > 0.0:
            o += (w / total) * float(np.trace(blk @ SWAP).real)
    return float(np.clip(o, 0.0, 1.0))


def hom_coincidence(state: BiphotonState, tau_ps: float, background: float = 0.0) -> float:
    """Coincidence probability at the 50:50 combiner output pair.

    P(tau) = 1/2 (1 - mu(tau) O) + background, with O from
    `interference_overlap`; the state should be heralded (trace 1).
    """
    if background < 0:
        raise ValueError("background must be >= 0")
    rho, _ = heralded_normalize(state.joint)
    o = interference_overlap(rho)
    mu = spectral_overlap(tau_ps, state.overlap)
    return 0.5 * (1.0 - mu * o) + background


@dataclass(frozen=True)
class HomFit:
    """Gaussian-dip fit of a HOM scan."""

    visibility_raw: float
    visibility_subtracted: float
    coherence_time_ps: float
    center_ps: float
    baseline: float
    depth: float
    converged: bool


def hom_visibility(scan, background: float = 0.0) -> HomFit:
    """Least-squares Gaussian-dip fit of (tau, coincidence) points.

    Visibility is (P_wing - P_min) / P_wing; the subtracted value removes
    the supplied constant background (same units as the scan values) from
    the fitted wing level.  Raises on a scan with no wings (all points
    within the dip).
    """
    taus = np.array([t for t, _ in scan], dtype=float)
    vals = np.array([v for _, v in scan], dtype=float)
    if len(taus) < 4:
        raise ValueError("need at least 4 scan points")
    span = taus.max() - taus.min()
    width0 = span / 6.0 if span > 0 else 1.0
    base0 = float(np.percentile(vals, 90))
    depth0 = base0 - float(vals.min())
    center0 = float(taus[np.argmin(vals)])
    if depth0 <= 0 or span == 0:
        raise ValueError("degenerate scan: no dip wings to fit")

    def model(p, t):
        base, depth, center, width = p
        return base - depth * np.exp(-((t - center) ** 2) / (2.0 * width**2))

    weights = 1.0 / np.sqrt(np.maximum(vals, 1.0))

    def resid(p):
        return (model(p, taus) - vals) * weights

    fit = least_squares(resid, x0=[base0, depth0, center0, width0],
                        max_nfev=5000)
    base, depth, center, width = fit.x
    width = abs(width)
    if base <= 0:
        raise ValueError("degenerate scan: fitted wing level is not positive")
    if background >= base:
        raise ValueError("background exceeds the fitted wing level")
    v_raw = depth / base
    v_sub = depth / (base - background)
    return HomFit(
        visibility_raw=float(v_raw),
        visibility_subtracted=float(v_sub),
        coherence_time_ps=float(width),
        center_ps=float(center),
        baseline=float(base),
        depth=float(depth),
        converged=bool(fit.status > 0),
    )


def fiber_link(seed: int, residual_angle_rad: float = 0.0) -> tuple:
    """Polarization rotation of a fiber link plus its compensation.

    The forward channel applies a Haar-random SU(2) on polarization (drawn
    deterministically from `seed`, identical on both spatial channels); the
    compensation applies the exact inverse followed by a small residual
    rotation of `residual_angle_rad` (0 = perfect compensation).  Returns
    (forward, compensation) as dim-4 channels.
    """
    rng = np.random.default_rng(np.random.SeedSequence([0x5F1BE, seed]))
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    u = np.array([[a + 1j * b, c + 1j * d], [-c + 1j * d, a - 1j * b]], dtype=complex)
    res = np.array(
        [[math.cos(residual_angle_rad), -math.sin(residual_angle_rad)],
         [math.sin(residual_angle_rad), math.cos(residual_angle_rad)]],
        dtype=complex,
    )
    eye = np.eye(2, dtype=complex)
    forward = QuantumChannel(4, 4, (np.kron(eye, u),))
    compensation = QuantumChannel(4, 4, (np.kron(eye, res @ dagger(u)),))
    return forward, compensation
