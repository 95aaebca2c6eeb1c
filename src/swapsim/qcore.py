"""Complex linear algebra core: states, density matrices, Kraus channels.

Everything downstream (device models, tomography, experiment runners) is
built on the small set of value types defined here.  The four-dimensional
single-photon space uses one fixed basis order everywhere:

    index 0: |T,H>    index 1: |T,V>    index 2: |B,H>    index 3: |B,V>

i.e. spatial channel is the most significant subsystem and polarization the
least significant.  Density matrices are allowed to carry trace < 1: the
missing trace is unheralded photon loss, and `heralded_normalize` recovers
it as a survival probability.  All values are immutable (backing arrays are
marked read-only), so everything in this module is safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "PureState",
    "DensityMatrix",
    "QuantumChannel",
    "PauliBasis",
    "ProcessMatrix",
    "tensor",
    "apply_channel",
    "heralded_normalize",
    "uhlmann_fidelity",
    "project_to_physical",
    "pauli_coefficients",
    "identity_channel",
    "attenuator_channel",
    "unitary_channel",
    "compose_channels",
    "dagger",
    "ket",
    "ket2",
    "ket4",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "SWAP",
]

# Tolerances used by the value-type invariants.
NORM_TOL = 1e-12
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
    return m.conj().T


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


def ket(amplitudes: Sequence[complex]) -> "PureState":
    """Build a normalized PureState from raw amplitudes."""
    a = np.asarray(amplitudes, dtype=complex)
    n = np.linalg.norm(a)
    if n < 1e-15:
        raise ValueError("cannot normalize a zero vector")
    return PureState(len(a), a / n)


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

BLOCH_AXES = {
    "0": ("z", +1), "1": ("z", -1),
    "+": ("x", +1), "-": ("x", -1),
    "i": ("y", +1), "-i": ("y", -1),
}


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


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of dimension `dim`."""

    dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        a = _frozen(self.amplitudes)
        object.__setattr__(self, "amplitudes", a)
        if a.shape != (self.dim,):
            raise ValueError(f"amplitude vector shape {a.shape} != ({self.dim},)")
        if abs(np.linalg.norm(a) - 1.0) > NORM_TOL:
            raise ValueError("pure state is not normalized")

    def density(self) -> "DensityMatrix":
        return DensityMatrix(self.dim, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian PSD matrix with 0 <= trace <= 1 (+ tolerance).

    Trace strictly below 1 encodes unheralded loss; a trace of exactly zero
    is the vacuum left behind by total loss (e.g. a crossed polarizer) and
    is representable, but cannot be heralded.
    """

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        m = _frozen(self.entries)
        object.__setattr__(self, "entries", m)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {m.shape} != ({self.dim},{self.dim})")
        if np.max(np.abs(m - dagger(m))) > HERM_TOL:
            raise ValueError("density matrix is not Hermitian")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -PSD_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {evals.min():.3e}")
        tr = float(np.trace(m).real)
        if tr < -TRACE_TOL or tr > 1.0 + TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} outside [0, 1]")

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def purity(self) -> float:
        tr = self.trace
        if tr <= 0:
            raise ValueError("purity undefined for a vacuum state")
        return float(np.trace(self.entries @ self.entries).real) / tr**2


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
        s = sum(dagger(k) @ k for k in ops)
        evals = np.linalg.eigvalsh(s)
        if evals.max() > 1.0 + CP_TOL:
            raise ValueError("channel is trace-increasing: max eig of sum K^dag K "
                             f"= {evals.max():.6f}")

    def is_trace_preserving(self, tol: float = 1e-12) -> bool:
        s = sum(dagger(k) @ k for k in self.kraus)
        return bool(np.max(np.abs(s - np.eye(self.dim_in))) <= tol)


@dataclass(frozen=True)
class PauliBasis:
    """Ordered n-qubit Pauli operator basis {I,X,Y,Z}^(tensor n), lexicographic."""

    n_qubits: int
    operators: tuple = field(init=False, default=None)
    labels: tuple = field(init=False, default=None)

    def __post_init__(self):
        if self.n_qubits not in (1, 2):
            raise ValueError("only 1- and 2-qubit bases are supported")
        singles = [("I", PAULI_I), ("X", PAULI_X), ("Y", PAULI_Y), ("Z", PAULI_Z)]
        ops, labels = [], []
        for combo in product(singles, repeat=self.n_qubits):
            label = "".join(name for name, _ in combo)
            op = combo[0][1]
            for _, factor in combo[1:]:
                op = np.kron(op, factor)
            ops.append(_frozen(op))
            labels.append(label)
        object.__setattr__(self, "operators", tuple(ops))
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@dataclass(frozen=True)
class ProcessMatrix:
    """Chi matrix of a process over the ordered Pauli basis."""

    n_qubits: int
    chi: np.ndarray

    def __post_init__(self):
        m = _frozen(self.chi)
        object.__setattr__(self, "chi", m)
        d2 = 4**self.n_qubits
        if m.shape != (d2, d2):
            raise ValueError(f"chi shape {m.shape} != ({d2},{d2})")
        if np.max(np.abs(m - dagger(m))) > HERM_TOL:
            raise ValueError("chi matrix is not Hermitian")
        evals = np.linalg.eigvalsh(m)
        if evals.min() < -1e-8:
            raise ValueError(f"chi has negative eigenvalue {evals.min():.3e}")
        tr = float(np.trace(m).real)
        if tr <= 0 or tr > 1.0 + 1e-8:
            raise ValueError(f"chi trace {tr} outside (0, 1]")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def tensor(a, b):
    """Kronecker product with the left operand as most significant subsystem.

    Operands must be of the same kind: two PureStates, two DensityMatrices,
    or two bare ndarrays.
    """
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.dim * b.dim, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.dim * b.dim, np.kron(a.entries, b.entries))
    if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        return np.kron(a, b)
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def apply_channel(ch: QuantumChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply sum_k K rho K^dag.  The output trace is the survival probability;
    no renormalization happens here."""
    if ch.dim_in != rho.dim:
        raise ValueError(f"channel dim_in {ch.dim_in} != state dim {rho.dim}")
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus:
        out += k @ rho.entries @ dagger(k)
    out = 0.5 * (out + dagger(out))
    return DensityMatrix(ch.dim_out, out)


def heralded_normalize(rho: DensityMatrix) -> tuple:
    """Renormalize a lossy state, returning (rho / tr, tr).

    The returned probability is the heralding/coincidence probability.
    Raises on a vacuum state (trace ~ 0, total loss).
    """
    tr = rho.trace
    if tr <= 1e-15:
        raise ValueError("vacuum state: trace is zero, photon was lost")
    return DensityMatrix(rho.dim, rho.entries / tr), tr


def _psd_sqrt(m: np.ndarray, floor_tol: float) -> np.ndarray:
    """Matrix square root via eigendecomposition with eigenvalue floor 0.

    Eigenvalues in [-floor_tol, 0) are clipped to zero; anything more
    negative raises.  Positive eigenvalues at the numerical noise floor are
    zeroed too, since sqrt would amplify them from ~1e-16 to ~1e-8.
    """
    evals, vecs = np.linalg.eigh(m)
    if evals.min() < -floor_tol:
        raise ValueError(f"matrix is not PSD within tolerance (min eig {evals.min():.3e})")
    noise = 64.0 * np.finfo(float).eps * max(float(evals.max()), 0.0)
    evals = np.where(evals < max(noise, 0.0), 0.0, evals)
    return (vecs * np.sqrt(evals)) @ dagger(vecs)


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    Both arguments are normalized to trace 1 before comparison (sub-trace
    states encode loss, which is not a state-overlap property).
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    r, _ = heralded_normalize(rho)
    s, _ = heralded_normalize(sigma)
    # (Tr sqrt(sqrt(r) s sqrt(r)))^2 equals the trace norm of
    # sqrt(r) sqrt(s), squared; singular values avoid taking square roots
    # of eigenvalue-level noise.
    sq_r = _psd_sqrt(r.entries, PSD_TOL)
    sq_s = _psd_sqrt(s.entries, PSD_TOL)
    f = float(np.sum(np.linalg.svd(sq_r @ sq_s, compute_uv=False)) ** 2)
    return min(f, 1.0)


def project_to_physical(h: np.ndarray) -> DensityMatrix:
    """Project a Hermitian estimate onto the nearest physical density matrix.

    Eigenvalue-redistribution projection: normalize the spectrum to unit
    sum, then walk the sorted eigenvalues from the most negative up, zeroing
    each negative one and spreading the deficit uniformly over all remaining
    larger eigenvalues.  This is the closed-form maximum-likelihood
    projection for additive Gaussian noise and equals the Frobenius-nearest
    trace-1 PSD matrix.

    Raises if the input is not Hermitian within 1e-8 or has an
    all-nonpositive spectrum.
    """
    m = np.asarray(h, dtype=complex)
    if isinstance(h, DensityMatrix):
        m = h.entries
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    if np.max(np.abs(m - dagger(m))) > 1e-8:
        raise ValueError("input is not Hermitian within 1e-8")
    m = 0.5 * (m + dagger(m))
    evals, vecs = np.linalg.eigh(m)
    total = float(evals.sum())
    if evals.max() <= 0 or total <= 0:
        raise ValueError("all-nonpositive spectrum: nothing to project onto")
    lam = evals / total  # descending after flip
    lam = lam[::-1].copy()
    vecs = vecs[:, ::-1]
    d = len(lam)
    acc = 0.0
    i = d
    while i > 0 and lam[i - 1] + acc / i < 0:
        acc += lam[i - 1]
        lam[i - 1] = 0.0
        i -= 1
    lam[:i] += acc / i
    out = (vecs * lam) @ dagger(vecs)
    out = 0.5 * (out + dagger(out))
    return DensityMatrix(m.shape[0], out)


def pauli_coefficients(rho: DensityMatrix, basis: PauliBasis) -> np.ndarray:
    """Coefficients c_m = Tr(E_m rho)/2^n; rho = sum_m c_m E_m exactly."""
    if rho.dim != basis.dim:
        raise ValueError("dimension mismatch")
    scale = 2.0**basis.n_qubits
    return np.array([np.trace(e @ rho.entries).real / scale for e in basis.operators])


# ---------------------------------------------------------------------------
# channel constructors / composition
# ---------------------------------------------------------------------------

def identity_channel(dim: int) -> QuantumChannel:
    return QuantumChannel(dim, dim, (np.eye(dim, dtype=complex),))


def unitary_channel(u: np.ndarray) -> QuantumChannel:
    u = np.asarray(u, dtype=complex)
    return QuantumChannel(u.shape[1], u.shape[0], (u,))


def attenuator_channel(dim: int, power_transmission: float) -> QuantumChannel:
    """Uniform amplitude attenuator with the given power transmission."""
    if not 0.0 <= power_transmission <= 1.0:
        raise ValueError("power transmission must lie in [0, 1]")
    return QuantumChannel(dim, dim, (np.sqrt(power_transmission) * np.eye(dim, dtype=complex),))


def compose_channels(*channels: QuantumChannel) -> QuantumChannel:
    """Compose channels left to right: the first argument acts first.

    Unitary (single-Kraus) compositions stay bit-exact matrix products.
    When the Kraus product set outgrows the d_in*d_out bound it is reduced
    to a minimal canonical set through the Choi matrix, which preserves the
    channel action exactly (up to numerical eigendecomposition accuracy).
    """
    if not channels:
        raise ValueError("nothing to compose")
    current = list(channels[0].kraus)
    dim_in = channels[0].dim_in
    for ch in channels[1:]:
        if ch.dim_in != current[0].shape[0]:
            raise ValueError("channel dimension mismatch in composition")
        current = [k2 @ k1 for k2 in ch.kraus for k1 in current]
        if len(current) > dim_in * ch.dim_out:
            current = _minimal_kraus(current, dim_in, ch.dim_out)
    return QuantumChannel(dim_in, current[0].shape[0], tuple(current))


def _minimal_kraus(kraus, dim_in: int, dim_out: int) -> list:
    """Minimal Kraus set of the map given by `kraus`, via its Choi matrix."""
    choi = np.zeros((dim_in * dim_out, dim_in * dim_out), dtype=complex)
    for k in kraus:
        v = np.asarray(k).reshape(-1)  # row-major vec: index (out, in)
        choi += np.outer(v, v.conj())
    evals, vecs = np.linalg.eigh(choi)
    out = []
    for lam, col in zip(evals[::-1], vecs[:, ::-1].T):
        if lam <= 1e-14:
            break
        out.append(np.sqrt(lam) * col.reshape(dim_out, dim_in))
    return out


def partial_trace(rho: DensityMatrix, dims: Sequence[int], keep: Iterable[int]) -> DensityMatrix:
    """Trace out all subsystems not listed in `keep` (indices into `dims`)."""
    dims = list(dims)
    keep = sorted(keep)
    if int(np.prod(dims)) != rho.dim:
        raise ValueError("subsystem dims do not multiply to the state dim")
    n = len(dims)
    t = rho.entries.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for offset, ax in enumerate(traced):
        a = ax - offset
        t = np.trace(t, axis1=a, axis2=a + (n - offset))
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return DensityMatrix(d, t.reshape(d, d))


def permute_subsystems(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of an operator: output factor i is input factor perm[i]."""
    dims = list(dims)
    n = len(dims)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    axes = list(perm) + [p + n for p in perm]
    t = t.transpose(axes)
    d = int(np.prod(dims))
    return t.reshape(d, d)
