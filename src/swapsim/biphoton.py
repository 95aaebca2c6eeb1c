"""Two-photon states: Bell preparation and HOM interference.

A biphoton lives on the 16-dimensional space signal (x) idler, each photon
carrying the (channel (x) polarization) pair in the fixed basis order of
`qcore`; the signal is the most significant subsystem, so the joint index
reads (m_s, p_s, m_i, p_i).  Joint states are plain (n, 16, 16) arrays
with a leading stack axis.  The spectral degree of freedom is compressed
to a scalar Gaussian overlap mu(tau) (`spectral_overlap`); everywhere except
the HOM dip the two photons are ordinary distinguishable subsystems.
Exact propagation of the pair goes through one stack kernel
(`apply_chip_both_stack`): a dim-4 map acts on each photon as its 16x16
superoperator (a chip's `ChipModel.superoperator`), so a stack of joint
states crosses a chip in two matmuls.  `werner_joint_stack` prepares Bell
pairs and `sector_block_stack` reads the polarization block of fixed
photon channels.  The HOM dip reads the exchange overlap off a joint-state
array (`exchange_overlap`, then `hom_dip`).
HOM scans are fitted with a Gaussian dip by one numpy Levenberg-Marquardt
loop over a whole stack of scans (`hom_fit_stack`); one scan is a one-row
stack.  The loop starts from the scan's wing level (its 90th percentile)
and the width of the Gaussian with the dip's area, evaluates the weighted
residuals and Jacobian in one pass over preallocated work arrays
(`_dip_resid_jac`), and stops at MINPACK's default step tolerance,
sqrt(eps) (`_LM_XTOL`): a least-squares minimum is only defined to about
that relative precision, so a tighter tolerance only multiplies the
damping by 10 at the rounding floor until the step shrinks below it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from ._memo import memo
from .qcore import (
    SWAP,
    ket2,
    solve_stack,
)

__all__ = [
    "BellLabel",
    "apply_chip_both_stack",
    "spectral_overlap",
    "exchange_overlap",
    "hom_dip",
    "hom_fit_stack",
    "HomFit",
    "bell_state_vector",
    "werner_joint_stack",
    "sector_block_stack",
]


class BellLabel(Enum):
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"


@memo()
def _bell_vectors() -> dict:
    h, v = ket2("H"), ket2("V")
    pairs = {
        BellLabel.PSI_PLUS: np.kron(h, v) + np.kron(v, h),
        BellLabel.PSI_MINUS: np.kron(h, v) - np.kron(v, h),
        BellLabel.PHI_PLUS: np.kron(h, h) + np.kron(v, v),
        BellLabel.PHI_MINUS: np.kron(h, h) - np.kron(v, v),
    }
    return {label: pair / np.sqrt(2.0) for label, pair in pairs.items()}


def bell_state_vector(label: BellLabel) -> np.ndarray:
    return _bell_vectors()[label].copy()


def spectral_overlap(tau_ps, coherence_time_ps: float):
    """Overlap mu(tau) = exp(-tau^2 / (2 T_c^2)) of the two-photon
    wavepacket, T_c = `coherence_time_ps`: 1 at zero delay, monotone
    decreasing in |tau|; the coincidence-dip FWHM is 2 sqrt(2 ln 2) T_c.  A
    float for a scalar delay, an array for an array of delays.
    """
    if coherence_time_ps <= 0:
        raise ValueError("coherence time must be positive")
    tau = np.asarray(tau_ps, dtype=float)
    mu = np.exp(-(tau**2) / (2.0 * coherence_time_ps * coherence_time_ps))
    return float(mu) if mu.ndim == 0 else mu


def werner_joint_stack(labels, visibility: float) -> np.ndarray:
    """Joint states (L, 16, 16) of the polarization Werner mixtures
    v |Bell><Bell| + (1 - v) I/4 of `labels`, spatial part |T_S B_I>."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    bells = np.array([_bell_vectors()[label] for label in labels])
    pol = (visibility * np.einsum("la,lb->lab", bells, bells.conj())
           + (1.0 - visibility) * np.eye(4) / 4.0)
    # joint axes (m_s, p_s, m_i, p_i) for the row, then for the column
    joints = np.zeros((len(bells),) + (2,) * 8, dtype=complex)
    joints[:, 0, :, 1, :, 0, :, 1, :] = pol.reshape(-1, 2, 2, 2, 2)
    return joints.reshape(-1, 16, 16)


def _by_photon(m: np.ndarray) -> np.ndarray:
    """Regroup the indices of each joint operator of `m` (n, 16, 16) from
    ((signal, idler), (signal', idler')) to ((signal, signal'), (idler,
    idler')); the regrouping is its own inverse."""
    return m.reshape(-1, 4, 4, 4, 4).transpose(0, 1, 3, 2, 4).reshape(-1, 16, 16)


def apply_chip_both_stack(joints: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Send both photons of every joint state in `joints` (n, 16, 16)
    through the same dim-4 map, given as its 16x16 superoperator `s`;
    returns the (n, 16, 16) outputs, whose traces drop under loss.  Plain
    arrays in and out, not validated: the caller validates the outputs
    once, as a stack.

    Regrouped by photon, a joint state is X with X[(a, a'), (b, b')] =
    rho[(a, b), (a', b')], and the map on each photon is S X S^T.
    """
    return _by_photon(s @ _by_photon(np.asarray(joints, dtype=complex)) @ s.T)


def sector_block_stack(joints: np.ndarray, sector: tuple) -> tuple:
    """Joint polarization blocks for fixed photon channels (m_s, m_i) of
    each joint state in `joints` (n, 16, 16).

    Returns ((n, 4, 4) blocks, (n,) sector probabilities); a block is
    normalized when its probability is above 1e-15, and that probability
    reads 0 otherwise.
    """
    ms, mi = sector
    blk = joints.reshape((-1,) + (2,) * 8)[:, ms, :, mi, :, ms, :, mi, :].reshape(-1, 4, 4)
    w = np.trace(blk, axis1=1, axis2=2).real
    kept = w > 1e-15
    return blk / np.where(kept, w, 1.0)[:, None, None], np.where(kept, w, 0.0)


def exchange_overlap(joint: np.ndarray) -> float:
    """Exchange overlap O of the two photons' channel-mapped polarization,
    for the joint state `joint` (a (16, 16) array of any positive trace).

    Each photon's channel selects which combiner input it occupies, so only
    population with the photons in distinct channels interferes; for those
    sectors the contrast is the polarization SWAP expectation of the
    conditional joint polarization state.  Sector contributions are weighted
    by their probability (same-channel population dilutes the dip) and
    cross-sector coherences are dropped.  Clipped to [0, 1].
    """
    total = float(np.trace(joint).real)
    if total <= 1e-15:
        raise ValueError("vacuum state has no interference overlap")
    o = 0.0
    for sector in ((0, 1), (1, 0)):
        blk, w = sector_block_stack(joint[None], sector)
        if w[0] > 0.0:
            o += (w[0] / total) * float(np.trace(blk[0] @ SWAP).real)
    return float(np.clip(o, 0.0, 1.0))


def hom_dip(overlap: float, tau_ps, coherence_time_ps: float):
    """Coincidence probability P(tau) = 1/2 (1 - mu(tau) O) at the 50:50
    combiner outputs, for the exchange overlap O = `overlap` and the
    Gaussian mu of `spectral_overlap`: a float for a scalar delay, an array
    for an array of delays."""
    return 0.5 * (1.0 - spectral_overlap(tau_ps, coherence_time_ps) * overlap)


class HomFit(NamedTuple):
    """Gaussian-dip fit of a stack of n HOM scans (`hom_fit_stack`): each
    field an (n,) array."""

    visibility_raw: float
    visibility_subtracted: float
    coherence_time_ps: float
    center_ps: float
    baseline: float
    depth: float
    converged: bool


_LM_MAX_ITER = 100
_LM_XTOL = float(np.sqrt(np.finfo(float).eps))  # MINPACK's default step tolerance


def _dip_work(n: int, m: int) -> tuple:
    """Work arrays of the dip fit of n scans of m delays: three (n, m) and
    one (n, 4, m), allocated once per fit; an iteration over k running
    trials writes the first k rows of each."""
    return (*np.empty((3, n, m)), np.empty((n, 4, m)))


def _dip_resid_jac(p, taus, vals, weights, work) -> tuple:
    """Weighted residuals (k, m) and Jacobian (k, 4, m), one contiguous
    column per parameter, of the dip model at the parameter rows `p`
    (k, 4) = (base, depth, center, width), written in place into the first
    k rows of the `_dip_work` arrays `work`.

    With u = (tau - center) / width, g = exp(-u^2 / 2) and the weights s,
    the columns are s, -s g, -(depth / width) s g u and that column times
    u, and the residual is (base - vals - depth g) s: the weights enter
    each column once, and no power of the width is formed."""
    u, g, r, jac = (a[:len(p)] for a in work)
    base, depth, center, width = (p[:, i, None] for i in range(4))
    # products and quotients only, no `np.power`: numpy's vectorised power
    # may round the last bit differently depending on the CPU, and along
    # the flat valley of a poorly resolved dip that bit grows into
    # parameter differences of ~1e-8.  An IEEE multiply or divide is
    # exactly rounded, so every CPU gives the same bits, and each trial's
    # iterates do not depend on the other rows of the stack.  In place,
    # one operation at a time in the evaluation order of the expression in
    # the line's comment, so each value is bit-equal to it.
    np.divide(np.subtract(taus, center, out=u), width, out=u)  # (tau - center) / width
    np.exp(np.multiply(np.multiply(u, u, out=g), -0.5, out=g), out=g)  # exp(u u (-0.5))
    jac[:, 0] = weights
    np.multiply(depth, g, out=jac[:, 1])
    np.multiply(np.subtract(np.subtract(base, vals, out=r), jac[:, 1], out=r), weights,
                out=r)  # (base - vals - depth g) s
    np.negative(np.multiply(weights, g, out=jac[:, 1]), out=jac[:, 1])  # -s g
    np.multiply(np.multiply(depth / width, jac[:, 1], out=jac[:, 2]), u,
                out=jac[:, 2])  # -(depth / width) s g u
    np.multiply(jac[:, 2], u, out=jac[:, 3])
    return r, jac


def _row_dot(a, b):
    """Dot product of each row of `a` with the same row of `b`, summed the
    way `a[k] @ b[k]` sums it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _dip_normal_equations(p, taus, vals, weights, work) -> tuple:
    """(J^T J (k, 4, 4), -J^T r (k, 4, 1), r^T r (k,)) of the weighted dip
    fit at the parameter rows `p`; new arrays, so `work` may be reused.
    `_dip_resid_jac` stores J^T, so both products run over contiguous rows."""
    r, jac_t = _dip_resid_jac(p, taus, vals, weights, work)
    return jac_t @ np.swapaxes(jac_t, 1, 2), -(jac_t @ r[..., None]), _row_dot(r, r)


def hom_fit_stack(taus, counts, background: float = 0.0) -> HomFit:
    """Least-squares Gaussian-dip fit of every scan in `counts`, shape
    (n, m): one row per trial over the m delays `taus`.  Returns a `HomFit`
    of (n,) arrays.

    The model base - depth exp(-(tau - center)^2 / (2 width^2)) is fitted by
    Levenberg-Marquardt (Marquardt, SIAM J. Appl. Math. 11, 431, 1963)
    with the analytic Jacobian, on residuals weighted by
    1 / sqrt(max(counts, 1)), over the delays in increasing order.  Each trial
    starts from its wing level, the 90th percentile of its counts, the
    depth of its lowest count below it, that count's delay, and the width
    of a Gaussian with the dip's area: the trapezoid of the counts below the
    wing level over depth sqrt(2 pi), clipped to [mean delay spacing,
    span].  The damping is scaled by the running maximum of
    the Jacobian column norms, as in MINPACK (More, Lecture Notes in
    Math. 630, 105, 1978): with the current norms alone a dip at the scan edge
    drifts off to an ever deeper, wider Gaussian.  One loop runs over the
    stack, with one batched 4x4 solve per iteration; each trial keeps its
    own damping, column scale and stop test, so its iterates are those of a
    fit of its scan alone.  A trial stops converged once its scaled step is
    below _LM_XTOL of its scaled parameters, and unconverged when its damped
    system is singular or after _LM_MAX_ITER iterations.  _LM_XTOL is
    sqrt(eps), MINPACK's default (More, Garbow and Hillstrom, ANL-80-74,
    1980): near the minimum the cost changes by about eps times itself over
    such a step, so the cost of a smaller one is lost to rounding, it is
    rejected, and a tighter tolerance only multiplies the damping by 10
    until the step falls below it.  One evaluation of the weighted residuals
    and Jacobian is one pass over three (trials x delays) work arrays and
    one (trials x 4 x delays), allocated once per call and updated in place;
    only an iteration in which trials stop allocates arrays of that size,
    when it drops their rows.
    `converged` also requires a positive depth (a fit that ends on a bump
    has not found a dip) and the fitted width to be at least the smallest
    delay spacing (a narrower dip is not resolved by the scan).

    Visibility is (P_wing - P_min) / P_wing; the subtracted value removes
    the constant `background` (same units as the counts) from the fitted
    wing level.  Raises if any scan has no wings (all points within the
    dip), or if any fitted wing level is not positive or not above the
    background.
    """
    taus = np.asarray(taus, dtype=float)
    vals = np.asarray(counts, dtype=float)
    if taus.ndim != 1 or vals.ndim != 2 or vals.shape[1] != len(taus):
        raise ValueError("counts must have shape (n_trials, len(taus))")
    if len(taus) < 4:
        raise ValueError("need at least 4 scan points")
    # the fit runs over the delays in increasing order, whatever order
    # they are given in; `np.take` returns C-ordered rows (an index array
    # on axis 1 would not), so a row's sums are those of the row alone
    order = np.argsort(taus)
    taus, vals = taus[order], np.take(vals, order, axis=1)
    span = taus[-1] - taus[0]
    base0 = np.percentile(vals, 90, axis=1)
    depth0 = base0 - vals.min(axis=1)
    if span == 0 or np.any(depth0 <= 0):
        raise ValueError("degenerate scan: no dip wings to fit")
    # the start width: that of the Gaussian with the dip's area
    below = np.maximum(base0[:, None] - vals, 0.0)
    area = (np.diff(taus) * (below[:, :-1] + below[:, 1:])).sum(axis=1) * 0.5
    width0 = np.clip(area / (depth0 * math.sqrt(2.0 * math.pi)),
                     span / (len(taus) - 1), span)

    # the loop works on the rows of the trials still running (`trial`);
    # a row leaves, with its parameters stored in `fitted`, when it stops
    n = len(vals)
    weights = 1.0 / np.sqrt(np.maximum(vals, 1.0))
    p = np.column_stack([base0, depth0, taus[np.argmin(vals, axis=1)], width0])
    work = _dip_work(n, len(taus))
    jtj, rhs, cost = _dip_normal_equations(p, taus, vals, weights, work)
    lam, scale = np.full(n, 1e-3), np.zeros((n, 4))
    trial, fitted = np.arange(n), p.copy()
    converged = np.zeros(n, dtype=bool)
    for _ in range(_LM_MAX_ITER):
        scale = np.maximum(scale, np.sqrt(jtj.reshape(-1, 16)[:, ::5]))
        damped = jtj.copy()
        damped.reshape(-1, 16)[:, ::5] += lam[:, None] * scale**2  # the diagonal
        # a singular damped system gives a NaN step: never an improvement,
        # and the trial stops there unconverged
        step, solved = solve_stack(damped, rhs)
        step = step[..., 0]
        p_try = p + step
        jtj_try, rhs_try, cost_try = _dip_normal_equations(p_try, taus, vals, weights, work)
        better = cost_try < cost
        lam = np.where(better, lam / 10.0, lam * 10.0)
        p = np.where(better[:, None], p_try, p)
        jtj = np.where(better[:, None, None], jtj_try, jtj)
        rhs = np.where(better[:, None, None], rhs_try, rhs)
        cost = np.where(better, cost_try, cost)
        done = (np.sqrt(_row_dot(scale * step, scale * step))
                <= _LM_XTOL * np.sqrt(_row_dot(scale * p, scale * p)))
        converged[trial[done]] = True
        stop = done | ~solved
        if stop.any():
            fitted[trial[stop]] = p[stop]
            keep = ~stop
            trial, p, jtj, rhs, cost, lam, scale, vals, weights = (
                a[keep] for a in (trial, p, jtj, rhs, cost, lam, scale, vals, weights))
            if not len(trial):
                break
    fitted[trial] = p

    base, depth, center, width = fitted.T
    width = np.abs(width)
    # a dip narrower than the delay spacing is not resolved: narrower than
    # both the smallest distinct spacing (a width equal to it up to the
    # fit's precision still counts) and the mean spacing, which is the
    # smaller one when delays repeat
    unresolved = ((width < span / (len(taus) - 1))
                  & (width < (1.0 - 1e-9) * np.diff(np.unique(taus)).min()))
    if np.any(base <= 0):
        raise ValueError("degenerate scan: fitted wing level is not positive")
    if np.any(background >= base):
        raise ValueError("background exceeds the fitted wing level")
    return HomFit(
        visibility_raw=depth / base,
        visibility_subtracted=depth / (base - background),
        coherence_time_ps=width,
        center_ps=center,
        baseline=base,
        depth=depth,
        converged=converged & ~unresolved & (depth > 0),
    )
