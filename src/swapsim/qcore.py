"""Complex linear algebra core: states, density matrices, channels.

Everything downstream (device models, tomography, experiment runners) is
built on the channel type and the array kernels defined here.  The
four-dimensional single-photon space uses one fixed basis order everywhere:

    index 0: |T,H>    index 1: |T,V>    index 2: |B,H>    index 3: |B,V>

i.e. spatial channel is the most significant subsystem and polarization the
least significant.  Density matrices are plain (n, d, d) arrays with a
leading stack axis, and may carry trace < 1: the missing trace is
unheralded photon loss, and `heralded_normalize_stack` validates a stack
and recovers it as survival probabilities.  The density-matrix and chi
checks are one stack check (`_check_stack`) with their own names,
tolerances and trace rules; it and the trace-nonincreasing check share
one PSD test, a batched Cholesky factorisation (`_psd_violation`):
eigenvalues are computed only when it fails, to decide at the tolerance
and word the error, and a matrix that is not finite is rejected as such
before it.  Every state is an exact propagation result, never one
reconstructed from counts, so nothing here projects onto the physical
set.  A channel is given by Kraus operators and carries its row-major
superoperator (`QuantumChannel.superoperator`, computed once per channel
object), the one representation the exact paths propagate with.  Channels and the Pauli
operators (`pauli_operators`) are immutable (backing arrays are marked
read-only), so everything in this module is safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ._memo import memo

__all__ = [
    "QuantumChannel",
    "pauli_operators",
    "heralded_normalize_stack",
    "pure_fidelity_stack",
    "solve_stack",
    "check_trace_nonincreasing",
    "check_chi_stack",
    "dagger",
    "ket2",
    "ket4",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "SWAP",
]

# Tolerances of the density-matrix and channel checks.
HERM_TOL = 1e-10
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
CP_TOL = 1e-10

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# exchange of two qubits: |a, b> -> |b, a>
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


# Single-qubit states by name.  Circular polarization follows the logical
# convention |R> = (|H> + i|V>)/sqrt(2) so that H,V,D,A,R,L line up with the
# +Z,-Z,+X,-X,+Y,-Y Bloch axes (same mapping as 0,1,+,-,i,-i for the
# spatial-momentum qubit).
_SQRT2 = np.sqrt(2.0)
KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / _SQRT2
KET_MINUS = np.array([1, -1], dtype=complex) / _SQRT2
KET_PLUS_I = np.array([1, 1j], dtype=complex) / _SQRT2
KET_MINUS_I = np.array([1, -1j], dtype=complex) / _SQRT2

def ket2(label: str) -> np.ndarray:
    """Named single-qubit state vector.

    Accepts polarization labels H,V,D,A,R,L, spatial labels T,B and the
    generic labels 0,1,+,-,i,-i.
    """
    table = {
        "H": KET_0, "V": KET_1, "D": KET_PLUS, "A": KET_MINUS,
        "R": KET_PLUS_I, "L": KET_MINUS_I,
        "T": KET_0, "B": KET_1,
        "0": KET_0, "1": KET_1, "+": KET_PLUS, "-": KET_MINUS,
        "i": KET_PLUS_I, "-i": KET_MINUS_I,
    }
    try:
        return table[label].copy()
    except KeyError:
        raise ValueError(f"unknown state label {label!r}") from None


def ket4(channel: str, pol: str) -> np.ndarray:
    """Single-photon basis vector |channel,pol> in the fixed dim-4 order."""
    return np.kron(ket2(channel), ket2(pol))


def _check_finite(m: np.ndarray, what: str) -> None:
    if not np.isfinite(m).all():
        raise ValueError(f"{what} is not finite")


def _psd_violation(m: np.ndarray, tol: float) -> float | None:
    """The PSD test of every check here: None when no matrix of the finite,
    Hermitian stack `m` (..., d, d) has an eigenvalue below -tol, else the
    lowest eigenvalue of the stack, for the error to name.

    One batched Cholesky factorisation of m + tol I accepts the stack when
    it succeeds, which it does exactly when m + tol I is positive definite,
    up to a backward error of order d eps |m| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., ch. 10).  Only when it
    fails are the eigenvalues computed, and the rule min eig < -tol
    decides, so the verdict is that rule's outside that rounding band.
    """
    try:
        np.linalg.cholesky(m + tol * np.eye(m.shape[-1]))
        return None
    except np.linalg.LinAlgError:
        low = np.linalg.eigvalsh(m).min()
        return low if low < -tol else None


def _check_stack(m: np.ndarray, names: tuple, psd_tol: float, trace_rule: tuple) -> np.ndarray:
    """The traces of `m` (shape (..., d, d)); raises, naming the matrix by
    `names` (full name, short name), unless every matrix is finite,
    Hermitian, has no eigenvalue below -`psd_tol` (`_psd_violation`) and a
    trace in range: `trace_rule` is (the out-of-range test, range in words)."""
    (name, short), (trace_bad, trace_range) = names, trace_rule
    _check_finite(m, name)
    if np.max(np.abs(m - dagger(m))) > HERM_TOL:
        raise ValueError(f"{name} is not Hermitian")
    low = _psd_violation(m, psd_tol)
    if low is not None:
        raise ValueError(f"{short} has negative eigenvalue {low:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = trace_bad(tr)
    if bad.any():
        raise ValueError(f"{short} trace {float(np.extract(bad, tr)[0])} outside {trace_range}")
    return tr


def check_trace_nonincreasing(effect: np.ndarray) -> None:
    """Raise unless the effect sum_k K^dag K of a map (or its complex
    conjugate, which has the same spectrum) is finite and has no eigenvalue
    above 1 + CP_TOL: the PSD test (`_psd_violation`) of
    (1 + CP_TOL) I - effect, whose eigenvalues are those of -effect shifted
    by 1 + CP_TOL."""
    _check_finite(effect, "sum K^dag K")
    low = _psd_violation(-effect, 1.0 + CP_TOL)
    if low is not None:
        raise ValueError(f"channel is trace-increasing: max eig of sum K^dag K = {-low:.6f}")


@dataclass(frozen=True)
class QuantumChannel:
    """Completely positive, trace-nonincreasing map given by Kraus operators."""

    dim_in: int
    dim_out: int
    kraus: tuple

    def __post_init__(self):
        ops = tuple(_frozen(k) for k in self.kraus)
        object.__setattr__(self, "kraus", ops)
        if not ops:
            raise ValueError("channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValueError(f"Kraus shape {k.shape} != ({self.dim_out},{self.dim_in})")
            # before the sum, which would warn on an infinite entry times 0
            _check_finite(k, "sum K^dag K")
        check_trace_nonincreasing(sum(dagger(k) @ k for k in ops))

    @functools.cached_property
    def superoperator(self) -> np.ndarray:
        """sum_k K_k (x) conj(K_k), once per channel object: the row-major vec
        of sum_k K rho K^dag is it times the vec of rho (Wood, Biamonte and
        Cory, QIC 15, 759, 2015); a cascade's is the product of its stages'."""
        k = np.array(self.kraus)
        s = np.einsum("kac,kbd->abcd", k, k.conj()).reshape(self.dim_out**2, self.dim_in**2)
        s.flags.writeable = False
        return s


@memo()
def pauli_operators(n: int) -> np.ndarray:
    """The n-qubit Pauli operators {I, X, Y, Z}^(x n) in lexicographic
    order (the first qubit's factor major), as one read-only (4^n, 2^n,
    2^n) array built once per n; n is 1 or 2."""
    if n not in (1, 2):
        raise ValueError("only 1- and 2-qubit bases are supported")
    ops = np.array([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
    if n == 2:  # kron(P_i, P_j)[(a, c), (b, d)] = P_i[a, b] P_j[c, d]
        ops = np.einsum("iab,jcd->ijacbd", ops, ops).reshape(16, 4, 4)
    return ops


def check_chi_stack(m: np.ndarray) -> None:
    """Raise unless every matrix of `m` (shape (..., d2, d2)) is a chi
    matrix (`_check_stack`): no eigenvalue below -1e-8, trace in (0, 1 + 1e-8]."""
    _check_stack(m, ("chi matrix", "chi"), 1e-8,
                 (lambda tr: (tr <= 0) | (tr > 1.0 + 1e-8), "(0, 1]"))


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def heralded_normalize_stack(m: np.ndarray) -> tuple:
    """Validate each matrix of `m` (shape (n, d, d)) as a density matrix
    (finite, Hermitian, PSD, trace in [0, 1]), in one batch, and
    renormalize it: returns (m / tr, tr) as arrays.  Raises on a vacuum
    state (any trace ~ 0, total loss).
    """
    tr = _check_stack(m, ("density matrix", "density matrix"), PSD_TOL,
                      (lambda tr: (tr < -TRACE_TOL) | (tr > 1.0 + TRACE_TOL), "[0, 1]"))
    return _unit_trace(m, tr), tr


def _unit_trace(m: np.ndarray, tr: np.ndarray) -> np.ndarray:
    """`m` over its traces `tr`; raises on a vacuum state."""
    if tr.min() <= 1e-15:
        raise ValueError("vacuum state: trace is zero, photon was lost")
    return m / tr[..., None, None]


def pure_fidelity_stack(rhos: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Fidelity Re<psi|rho|psi> / Tr rho of each state of `rhos` (shape
    (..., d, d)) with the pure target of `psis` (shape (..., d), unit
    norm), broadcast over the leading axes and clipped to [0, 1].

    For a pure target the Uhlmann fidelity is exactly this overlap (Jozsa,
    J. Mod. Opt. 41, 2315, 1994), so no square root or decomposition is
    taken.  Raises on a vacuum state (any trace ~ 0) as
    `heralded_normalize_stack` does; the states are not checked PSD, so
    validate them at the boundary they come from.
    """
    rhos = _unit_trace(rhos, np.trace(rhos, axis1=-2, axis2=-1).real)
    f = np.einsum("...a,...ab,...b->...", psis.conj(), rhos, psis).real
    return np.clip(f, 0.0, 1.0)


def solve_stack(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solve a[k] x[k] = b[k] for each k (`a` of shape (n, d, d), `b` of
    shape (n, d, m)); returns (x, solved).

    A batched LAPACK solve raises on the first singular matrix, so on a
    failure each system is solved alone: a singular a[k] leaves x[k] NaN and
    solved[k] False, and every other system is still solved.
    """
    try:
        return np.linalg.solve(a, b), np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.full(b.shape, np.nan)
        solved = np.zeros(len(a), dtype=bool)
        for k in range(len(a)):
            try:
                x[k] = np.linalg.solve(a[k], b[k])
                solved[k] = True
            except np.linalg.LinAlgError:
                pass
        return x, solved
