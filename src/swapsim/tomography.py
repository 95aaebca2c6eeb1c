"""State and process tomography plus the fidelity/purity/visibility metrics.

Measurement settings are named by their Bloch states: H,V,D,A,R,L for the
polarization qubit and 0,1,+,-,i,-i for the spatial-momentum qubit, paired
into the z, x, y axes in that order.  No state is reconstructed from
counts: the counts estimate a fidelity with a pure target, which is
linear in them (`linear_fidelity_stack`), so it takes no state, no
projection and no decomposition, and its mean is not biased low at low
counts.  An exact state is read off the chip's superoperator, never
re-estimated, and process tomography solves for chi from such exact
outputs (`process_tomo_stack`).  Every estimator is a stacked kernel
(`*_stack`) that takes plain arrays with a leading trial axis, so a Monte
Carlo run is estimated in one call; one value is a one-row stack.  Fringe
scans are fitted in closed form: A (1 + V cos(phi + delta)) is rewritten
as A + B cos(phi) + C sin(phi) and solved by weighted linear least
squares, a stack of scans at once (`fringe_fit_stack`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ._memo import memo
from .qcore import check_chi_stack, dagger, pauli_operators, solve_stack

__all__ = [
    "POLARIZATION_LABELS",
    "MOMENTUM_LABELS",
    "ideal_truth_table",
    "truth_table_fidelity_stack",
    "linear_fidelity_stack",
    "column_normalize_stack",
    "process_tomo_stack",
    "chi_from_unitary",
    "process_fidelity_stack",
    "process_purity_stack",
    "FringeFit",
    "fringe_fit_stack",
]

POLARIZATION_LABELS = ("H", "V", "D", "A", "R", "L")
MOMENTUM_LABELS = ("0", "1", "+", "-", "i", "-i")


# ---------------------------------------------------------------------------
# truth tables
# ---------------------------------------------------------------------------

def column_normalize_stack(m: np.ndarray) -> np.ndarray:
    """Each table of `m` (shape (..., 4, 4)) with its columns normalized to
    1; raises on a column with zero total."""
    sums = m.sum(axis=-2, keepdims=True)
    if np.any(sums <= 0):
        raise ValueError("cannot normalize a column with zero total")
    return m / sums


def ideal_truth_table() -> np.ndarray:
    """Ideal SWAP-chip 0/1 table (4, 4), columns indexed by input:
    {00->11, 01->01, 10->10, 11->00}."""
    m = np.zeros((4, 4))
    for j, i in enumerate((3, 1, 2, 0)):
        m[i, j] = 1.0
    return m


def truth_table_fidelity_stack(m_exp: np.ndarray, m_ideal: np.ndarray) -> np.ndarray:
    """Fidelity F = (1/4) sum_ij ideal_ij exp_ij of each table in `m_exp`
    (shape (n, 4, 4), columns normalized to 1) with the 0/1 table
    `m_ideal`, as an (n,) array.

    For the permutation-style ideal tables used here the trace
    normalization Tr(M_ideal M_ideal^T) equals 4, so this matches the
    quoted fidelity convention exactly.
    """
    sums = m_exp.sum(axis=-2)
    if np.max(np.abs(sums - 1.0)) > 1e-9:
        raise ValueError("measured table columns must be normalized to 1")
    if not ((m_ideal == 0.0) | (m_ideal == 1.0)).all() or (m_ideal.sum(axis=0) != 1.0).any():
        raise ValueError("ideal table must be a 0/1 table with one entry per column")
    return (m_exp * m_ideal).sum(axis=(-2, -1)) / 4.0


# ---------------------------------------------------------------------------
# state tomography
# ---------------------------------------------------------------------------

# A count array lists the six settings of a qubit in label order, which is
# the same for both flavors: z+, z-, x+, x-, y+, y-.
# _SIGNS is the eigenvalue of each setting's axis operator, and
# _AXIS_TO_PAULI the index into `pauli_operators` order (I, X, Y, Z) of
# z, x, y.
_SIGNS = np.array([1.0, -1.0])
_AXIS_TO_PAULI = np.array([3, 1, 2])


def _pauli_rows(n: int) -> np.ndarray:
    """`pauli_operators(n)` flattened into the rows of a (4^n, 4^n)
    array, so a coefficient row times it is the flattened operator sum."""
    return pauli_operators(n).reshape(4**n, 4**n)


@memo()
def _pooled_stokes_map(n: int) -> np.ndarray:
    """The read-only (6^n, 4^n) map from label-ordered counts to Pauli
    coefficients times the pooled normaliser: the Kronecker power of the
    one-qubit rows (1/3, the setting's sign at its axis's Pauli), so an
    identity factor averages over its 3 axes; the all-identity column,
    fixed at 1 by the trace, is zeroed."""
    one = np.zeros((6, 4))
    one[:, 0] = 1.0 / 3.0
    one[np.arange(6), np.repeat(_AXIS_TO_PAULI, 2)] = np.tile(_SIGNS, 3)
    rows = one if n == 1 else np.kron(one, one)
    rows[:, 0] = 0.0
    return rows


def linear_fidelity_stack(counts, targets) -> np.ndarray:
    """Fidelity <psi|rho_lin|psi> of every trial of `counts` (L, T, 6^n),
    settings in label order (q1 major), with the pure target of its row of
    `targets` (L, 2^n); returns the (L, T) fidelities, not clipped; n is 1
    or 2.

    rho_lin is linear inversion with one pooled normaliser per trial, N =
    its total counts / 3^n, in place of each axis tuple's own total, so the
    fidelity is linear in the counts: (1 + c . w / N) / 2^n with w = A
    <psi|P|psi> (`_pooled_stokes_map`).  With no projection, clipping or
    per-tuple ratio, the mean over background-subtracted trials is unbiased
    up to the one ratio to N (Schwemmer et al., PRL 114, 080403, 2015).
    Raises on a trial whose N is not positive.
    """
    c = np.ascontiguousarray(counts, dtype=float)
    psi = np.ascontiguousarray(targets, dtype=complex)
    n = {2: 1, 4: 2}.get(psi.shape[-1])
    if n is None or c.ndim != 3 or c.shape[-1] != 6**n or psi.shape != (len(c), 2**n):
        raise ValueError("counts must have shape (L, T, 6^n) and targets (L, 2^n), n = 1 or 2")
    pooled = c.sum(axis=-1) / 3**n
    if (pooled <= 0).any():
        raise ValueError("a trial's pooled total counts are not positive")
    # products and sums along contiguous last axes only, no BLAS call: each
    # row's value does not depend on how many rows share the stack
    ops = psi.conj()[:, None, :, None] * pauli_operators(n) * psi[:, None, None, :]
    expect = ops.sum(axis=(-2, -1)).real
    w = (expect[:, None, :] * _pooled_stokes_map(n)).sum(axis=-1)
    return (1.0 + (c * w[:, None, :]).sum(axis=-1) / pooled) / 2**n


# ---------------------------------------------------------------------------
# process tomography
# ---------------------------------------------------------------------------

def process_tomo_stack(inputs, outputs, n: int) -> np.ndarray:
    """The (G, 4^n, 4^n) chi matrices over the Pauli basis of the G
    processes of `outputs` (G, J, d, d) on the J fixed `inputs`.

    Solves for each channel's superoperator S in the row-major vec
    convention, vec(A rho B) = (A (x) B^T) vec(rho): with the input vecs
    stacked as the rows of R (J, 4^n) and the output vecs as those of O,
    R S^T = O is a 4^n x 4^n least-squares problem, and all G of them share
    R, so one solve takes the G O's as its G 4^n right-hand columns.  chi
    is read off S in one contraction: S = sum_mn chi_mn E_m (x) conj(E_n),
    and the E_m (x) conj(E_n) are Hilbert-Schmidt orthogonal with norm d^2
    (d = 2^n), so chi_mn = sum conj(E_m[a, c]) E_n[b, d] S[ab, cd] / d^2
    (Chuang and Nielsen, J. Mod. Opt. 44, 2455, 1997).  This is the
    least-squares fit of the Pauli expectations Tr(P_k eps(rho_j)) =
    Tr(P_k rho'_j): by Pauli orthogonality their squared residual is d
    times the squared Frobenius residual of the outputs, and chi <-> S is
    linear and one to one.  Each chi is then Hermitized, clipped to PSD
    (one batched eigh), normalized to Tr(chi) = 1 and validated by
    `check_chi_stack`, in one batch.  Requires 4^n linearly independent
    inputs (J, d, d): the rank is read off the singular values the
    least-squares solve returns (those above 1e-10), so no second
    decomposition is taken, and a rank-deficient basis raises.
    """
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    rhos = np.asarray(inputs, dtype=complex)
    outs = np.asarray(outputs, dtype=complex)
    if len(rhos) != outs.shape[1]:
        raise ValueError("inputs and outputs must pair up")
    d = 2**n
    d2 = 4**n
    if len(rhos) < d2:
        raise ValueError(f"need at least {d2} input states, got {len(rhos)}")
    stack = rhos.reshape(-1, d2)
    g = len(outs)
    rhs = outs.reshape(g, -1, d2).transpose(1, 0, 2).reshape(-1, g * d2)
    s_t, _, _, sv = np.linalg.lstsq(stack, rhs, rcond=None)
    # the rank test of np.linalg.matrix_rank(stack, tol=1e-10), on the
    # singular values the solve has already taken
    if np.count_nonzero(sv > 1e-10) < d2:
        raise ValueError("input states are rank-deficient; cannot invert")
    # s_t[(c, d), (k, a, b)] = S_k[(a, b), (c, d)], regrouped as
    # t[k, (a, c), (b, d)]: the contraction is then one product with the
    # flattened Pauli rows
    t = s_t.reshape(d, d, g, d, d).transpose(2, 3, 0, 4, 1).reshape(g, d2, d2)
    e_rows = _pauli_rows(n)
    chi = e_rows.conj() @ t @ e_rows.T / d2
    chi = 0.5 * (chi + dagger(chi))
    evals, vecs = np.linalg.eigh(chi)
    chi = (vecs * np.clip(evals, 0.0, None)[:, None, :]) @ dagger(vecs)
    tr = np.trace(chi, axis1=1, axis2=2).real
    if (tr <= 0).any():
        raise ValueError("reconstructed chi has nonpositive trace")
    chi = chi / tr[:, None, None]
    check_chi_stack(chi)
    return chi


def chi_from_unitary(u: np.ndarray) -> np.ndarray:
    """Chi matrix of a unitary process over the Pauli basis, chi_mn =
    c_m conj(c_n) with c_m = Tr(E_m U) / 2^n, checked by `check_chi_stack`."""
    u = np.asarray(u, dtype=complex)
    d = u.shape[0]
    c = np.array([np.trace(e @ u) / d for e in pauli_operators(int(round(np.log2(d))))])
    chi = np.outer(c, c.conj())
    chi = chi / float(np.trace(chi).real)
    check_chi_stack(chi)
    return chi


def process_fidelity_stack(chis: np.ndarray, chi_ideal: np.ndarray) -> np.ndarray:
    """F_chi = Tr(chi chi_i) / (Tr(chi) Tr(chi_i)) of each chi of `chis`
    (shape (..., d2, d2)) with the one chi matrix `chi_ideal`."""
    t1 = np.trace(chis, axis1=-2, axis2=-1).real
    t2 = np.trace(chi_ideal).real
    if np.any(t1 == 0) or t2 == 0:
        raise ValueError("zero-trace chi matrix")
    return np.trace(chis @ chi_ideal, axis1=-2, axis2=-1).real / (t1 * t2)


def process_purity_stack(chis: np.ndarray) -> np.ndarray:
    """P_chi = Tr(chi^2) / Tr(chi)^2 of each chi of `chis` (shape (...,
    d2, d2)); unity for a unitary process."""
    tr = np.trace(chis, axis1=-2, axis2=-1).real
    if np.any(tr == 0):
        raise ValueError("zero-trace chi matrix")
    return np.trace(chis @ chis, axis1=-2, axis2=-1).real / tr**2


# ---------------------------------------------------------------------------
# fringe fitting
# ---------------------------------------------------------------------------

class FringeFit(NamedTuple):
    """Least-squares fit of C(phi) = A (1 + V cos(phi + delta)) of a stack
    of n scans (`fringe_fit_stack`): each field an (n,) array."""

    phase_offset: float
    amplitude: float
    visibility_raw: float
    visibility_subtracted: float
    visibility_stderr: float
    converged: bool


def _fit_cosine(phis, vals) -> tuple:
    """Fit A (1 + V cos(phi + delta)) to each row of `vals` (n, m) in its
    linear form A + B cos(phi) + C sin(phi), by weighted linear least
    squares (weights 1 / max(vals, 1)): one batch of 3x3 normal equations.

    Returns (n,) arrays (A, V, delta, V stderr, finite).  The stderr
    propagates the parameter covariance inv(X^T W X) to V = hypot(B, C) / A
    by the delta method.  A fit with A <= 0 (e.g. an all-zero scan) has
    V = 0 and a NaN stderr; a singular system gives NaN throughout.
    """
    x = np.column_stack([np.ones_like(phis), np.cos(phis), np.sin(phis)])
    xw = x / np.maximum(vals, 1.0)[..., None]  # (n, m, 3)
    normal = x.T @ xw
    cov, solved = solve_stack(normal, np.broadcast_to(np.eye(3), normal.shape))
    coef = (cov @ (np.swapaxes(xw, 1, 2) @ vals[..., None]))[..., 0]
    finite = np.isfinite(coef).all(axis=1)
    a, b, c = coef.T
    flat = ~(a > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        v = np.hypot(b, c) / a
        d = np.arctan2(-c, b)
        grad = np.stack([-v, np.cos(d), -np.sin(d)], axis=-1) / a[:, None]  # dV/d(A, B, C)
        var = (grad[:, None, :] @ cov @ grad[:, :, None])[:, 0, 0]
        v_err = np.sqrt(np.maximum(var, 0.0))
    v[flat], d[flat], v_err[flat] = 0.0, 0.0, np.nan
    v[~solved] = d[~solved] = np.nan
    return a, v, d, v_err, finite


def fringe_fit_stack(phis, counts, background: float = 0.0) -> FringeFit:
    """Fit interference-fringe counts C(phi) = A (1 + V cos(phi + delta)) to
    every scan in `counts`, shape (n, m): one row per trial over the m
    phases `phis`.  Returns a `FringeFit` of (n,) arrays.

    Needs at least 5 points spanning a period.  The raw visibility comes
    from the data as-is; the subtracted one from the data with the constant
    `background` (counts per point) removed.  Both are fitted in one batch
    (see `_fit_cosine`).  The fit is linear, so it has one global minimum;
    `converged` is False when a solve is not finite, a fitted amplitude A
    is not positive (a flat or all-zero scan has no fringe to fit) or a
    fitted visibility lies outside [0, 1] (a fit to noise, such as a
    spike on a dark scan), on the raw or on the subtracted scan.
    """
    phis = np.asarray(phis, dtype=float)
    vals = np.asarray(counts, dtype=float)
    if phis.ndim != 1 or vals.ndim != 2 or vals.shape[1] != len(phis):
        raise ValueError("counts must have shape (n_trials, len(phis))")
    if len(phis) < 5:
        raise ValueError("need at least 5 fringe points")
    if phis.max() - phis.min() < 2 * np.pi * 0.99:
        raise ValueError("scan must span at least one period")
    n = len(vals)
    # rows [:n] are the raw scans, rows [-n:] the background-subtracted ones
    if background > 0:
        vals = np.concatenate([vals, np.maximum(vals - background, 0.0)])
    a, v, d, v_err, finite = _fit_cosine(phis, vals)
    ok = finite & (a > 0) & (v >= 0.0) & (v <= 1.0)
    return FringeFit(
        phase_offset=d[:n],
        amplitude=a[:n],
        visibility_raw=v[:n],
        visibility_subtracted=v[len(v) - n:],
        visibility_stderr=v_err[:n],
        converged=ok[:n] & ok[len(v) - n:],
    )
