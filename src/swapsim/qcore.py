"""Complex linear algebra core: states, density matrices, channels.

Everything downstream (device models, tomography, experiment runners) is
built on the channel type and the array kernels defined here.  The
four-dimensional single-photon space uses one fixed basis order everywhere:

    index 0: |T,H>    index 1: |T,V>    index 2: |B,H>    index 3: |B,V>

i.e. spatial channel is the most significant subsystem and polarization the
least significant.  Density matrices are plain (n, d, d) arrays with a
leading stack axis, and may carry trace < 1: the missing trace is
unheralded photon loss, and `heralded_normalize_stack` validates a stack
and recovers it as survival probabilities.  A channel is given by Kraus
operators and carries its row-major superoperator
(`QuantumChannel.superoperator`, computed once per channel object), the one
representation the exact paths propagate with.  Channels and the Pauli
operators (`pauli_operators`) are immutable (backing arrays are marked
read-only), so everything in this module is safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantumChannel",
    "pauli_operators",
    "heralded_normalize_stack",
    "pure_fidelity_stack",
    "project_to_physical_stack",
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
# smallest trace, relative to the largest eigenvalue magnitude, that
# project_to_physical_stack accepts
PROJECT_RTOL = 1e-4

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


def _check_density(m: np.ndarray) -> np.ndarray:
    """Raise unless every matrix of `m` (shape (..., d, d)) is Hermitian,
    PSD and of trace in [0, 1], within the tolerances above; returns the
    traces."""
    if np.max(np.abs(m - dagger(m))) > HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    low = np.linalg.eigvalsh(m).min()
    if low < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = (tr < -TRACE_TOL) | (tr > 1.0 + TRACE_TOL)
    if bad.any():
        raise ValueError(f"density matrix trace {float(np.extract(bad, tr)[0])} "
                         "outside [0, 1]")
    return tr


def check_trace_nonincreasing(effect: np.ndarray) -> None:
    """Raise unless the effect sum_k K^dag K of a map (or its complex
    conjugate, which has the same spectrum) has no eigenvalue above 1."""
    top = np.linalg.eigvalsh(effect).max()
    if top > 1.0 + CP_TOL:
        raise ValueError(f"channel is trace-increasing: max eig of sum K^dag K = {top:.6f}")


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


@functools.cache
def pauli_operators(n: int) -> np.ndarray:
    """The n-qubit Pauli operators {I, X, Y, Z}^(x n) in lexicographic
    order (the first qubit's factor major), as one read-only (4^n, 2^n,
    2^n) array built once per n; n is 1 or 2."""
    if n not in (1, 2):
        raise ValueError("only 1- and 2-qubit bases are supported")
    ops = np.array([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])
    if n == 2:  # kron(P_i, P_j)[(a, c), (b, d)] = P_i[a, b] P_j[c, d]
        ops = np.einsum("iab,jcd->ijacbd", ops, ops).reshape(16, 4, 4)
    ops.flags.writeable = False
    return ops


def check_chi_stack(m: np.ndarray) -> None:
    """Raise unless every matrix of `m` (shape (..., d2, d2)) is a chi
    matrix, in one batch: Hermitian, no eigenvalue below -1e-8 and a trace
    in (0, 1 + 1e-8]."""
    if np.max(np.abs(m - dagger(m))) > HERM_TOL:
        raise ValueError("chi matrix is not Hermitian")
    low = np.linalg.eigvalsh(m).min()
    if low < -1e-8:
        raise ValueError(f"chi has negative eigenvalue {low:.3e}")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = (tr <= 0) | (tr > 1.0 + 1e-8)
    if bad.any():
        raise ValueError(f"chi trace {float(np.extract(bad, tr)[0])} outside (0, 1]")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def heralded_normalize_stack(m: np.ndarray) -> tuple:
    """Validate each matrix of `m` (shape (n, d, d)) as a density matrix
    (Hermitian, PSD, trace in [0, 1]), in one batch, and renormalize it:
    returns (m / tr, tr) as arrays.  Raises on a vacuum state (any trace
    ~ 0, total loss).
    """
    tr = _check_density(m)
    return _unit_trace(m), tr


def _unit_trace(m: np.ndarray) -> np.ndarray:
    tr = np.trace(m, axis1=-2, axis2=-1).real
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
    f = np.einsum("...a,...ab,...b->...", psis.conj(), _unit_trace(rhos), psis).real
    return np.clip(f, 0.0, 1.0)


def project_to_physical_stack(h: np.ndarray) -> np.ndarray:
    """Project each Hermitian matrix of `h` (shape (n, d, d)) onto the
    nearest physical density matrix; returns an (n, d, d) array.

    Eigenvalue-redistribution projection (Smolin, Gambetta and Smith, PRL
    108, 070502, 2012): normalize the spectrum to unit sum, then walk the
    sorted eigenvalues from the most negative up, zeroing each negative one
    and spreading the deficit uniformly over all remaining larger
    eigenvalues.  This is the closed-form maximum-likelihood projection for
    additive Gaussian noise and equals the Frobenius-nearest trace-1 PSD
    matrix.  The walk runs over the d eigenvalue positions, vectorised over
    the stack.

    Raises if any input is not Hermitian within 1e-8 or has a trace not
    above PROJECT_RTOL of its largest eigenvalue magnitude (including any
    all-nonpositive spectrum).
    """
    m = np.asarray(h, dtype=complex)
    if np.max(np.abs(m - dagger(m))) > 1e-8:
        raise ValueError("input is not Hermitian within 1e-8")
    evals, vecs = np.linalg.eigh(0.5 * (m + dagger(m)))
    total = evals.sum(axis=-1)
    # normalizing divides the rounding error of the eigenvalues (~eps times
    # the largest magnitude) by the trace; a trace below PROJECT_RTOL of that
    # magnitude (or not positive) would leave the result's trace off by more
    # than TRACE_TOL
    if (total <= PROJECT_RTOL * np.abs(evals).max(axis=-1)).any():
        raise ValueError("spectrum sum is not positive relative to its largest "
                         "eigenvalue: nothing to project onto")
    lam = (evals / total[:, None])[:, ::-1].copy()  # descending
    vecs = vecs[..., ::-1]
    d = lam.shape[-1]
    acc = np.zeros(len(lam))
    kept = np.full(len(lam), d)  # eigenvalues not (yet) zeroed
    for i in range(d, 0, -1):
        cut = (kept == i) & (lam[:, i - 1] + acc / i < 0)
        if not cut.any():
            break  # a trial not cut here stops, so no trial walks further
        acc = np.where(cut, acc + lam[:, i - 1], acc)
        lam[cut, i - 1] = 0.0
        kept -= cut
    if acc.any():  # spread each trial's deficit over its kept eigenvalues
        lam += np.where(np.arange(d) < kept[:, None], (acc / kept)[:, None], 0.0)
    out = (vecs * lam[:, None, :]) @ dagger(vecs)
    return 0.5 * (out + dagger(out))


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
