"""Complex linear algebra core: states, density matrices, Kraus channels.

Everything downstream (device models, tomography, experiment runners) is
built on the small set of value types defined here.  The four-dimensional
single-photon space uses one fixed basis order everywhere:

    index 0: |T,H>    index 1: |T,V>    index 2: |B,H>    index 3: |B,V>

i.e. spatial channel is the most significant subsystem and polarization the
least significant.  Density matrices are allowed to carry trace < 1: the
missing trace is unheralded photon loss, and `heralded_normalize` recovers
it as a survival probability.  A channel also carries its row-major
superoperator (`QuantumChannel.superoperator`, computed once per channel
object), the one representation the exact paths propagate with.  All
values are immutable (backing arrays are marked read-only), so everything
in this module is safe to share across threads.
"""

from __future__ import annotations

import functools
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
    "heralded_normalize_stack",
    "uhlmann_fidelity",
    "uhlmann_fidelity_stack",
    "pure_fidelity_stack",
    "project_to_physical",
    "project_to_physical_stack",
    "solve_stack",
    "check_trace_nonincreasing",
    "check_chi_stack",
    "pauli_coefficients",
    "identity_channel",
    "attenuator_channel",
    "unitary_channel",
    "compose_channels",
    "dagger",
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
# smallest trace, relative to the largest eigenvalue magnitude, that
# project_to_physical accepts
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


def _check_density(m: np.ndarray) -> np.ndarray:
    """Raise unless every matrix of `m` (shape (..., d, d)) is Hermitian,
    PSD and of trace in [0, 1], within the value-type tolerances; returns
    the traces."""
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
        _check_density(m)

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def purity(self) -> float:
        tr = self.trace
        if tr <= 0:
            raise ValueError("purity undefined for a vacuum state")
        return float(np.trace(self.entries @ self.entries).real) / tr**2


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
        check_chi_stack(m)


def check_chi_stack(m: np.ndarray) -> None:
    """Raise unless every matrix of `m` (shape (..., d2, d2)) is a chi
    matrix as `ProcessMatrix` checks it, in one batch: Hermitian, no
    eigenvalue below -1e-8 and a trace in (0, 1 + 1e-8]."""
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


def heralded_normalize_stack(m: np.ndarray) -> tuple:
    """Validate each matrix of `m` (shape (n, d, d)) as a `DensityMatrix`
    would, in one batch, and renormalize it: returns (m / tr, tr) as arrays.
    The plain-ndarray kernel of `heralded_normalize`; raises on a vacuum
    state (any trace ~ 0) as it does.
    """
    tr = _check_density(m)
    return _unit_trace(m), tr


def _psd_sqrt(m: np.ndarray, floor_tol: float) -> np.ndarray:
    """Matrix square root of each matrix in `m` (shape (..., d, d)) via
    eigendecomposition with eigenvalue floor 0.

    Eigenvalues in [-floor_tol, 0) are clipped to zero; anything more
    negative raises.  Positive eigenvalues at the numerical noise floor are
    zeroed too, since sqrt would amplify them from ~1e-16 to ~1e-8.
    """
    evals, vecs = np.linalg.eigh(m)
    if evals.min() < -floor_tol:
        raise ValueError(f"matrix is not PSD within tolerance (min eig {evals.min():.3e})")
    noise = 64.0 * np.finfo(float).eps * np.maximum(evals.max(axis=-1, keepdims=True), 0.0)
    evals = np.where(evals < noise, 0.0, evals)
    return (vecs * np.sqrt(evals)[..., None, :]) @ dagger(vecs)


def _unit_trace(m: np.ndarray) -> np.ndarray:
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if tr.min() <= 1e-15:
        raise ValueError("vacuum state: trace is zero, photon was lost")
    return m / tr[..., None, None]


def uhlmann_fidelity_stack(rhos: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity of each state in `rhos` (shape (n, d, d)) with the
    one state `sigma` (shape (d, d)), as an (n,) array in [0, 1].

    Plain-ndarray kernel of `uhlmann_fidelity`: each input is normalized to
    trace 1 and checked PSD within tolerance, but not validated as a
    `DensityMatrix`.  (Tr sqrt(sqrt(r) s sqrt(r)))^2 equals the trace norm
    of sqrt(r) sqrt(s), squared; singular values avoid taking square roots
    of eigenvalue-level noise.  sqrt(s) is computed once.  For a rank-1
    sigma = |psi><psi| this equals `pure_fidelity_stack` of psi.
    """
    sq_r = _psd_sqrt(_unit_trace(rhos), PSD_TOL)
    sq_s = _psd_sqrt(_unit_trace(sigma), PSD_TOL)
    f = np.sum(np.linalg.svd(sq_r @ sq_s, compute_uv=False), axis=-1) ** 2
    return np.minimum(f, 1.0)


def pure_fidelity_stack(rhos: np.ndarray, psis: np.ndarray) -> np.ndarray:
    """Fidelity Re<psi|rho|psi> / Tr rho of each state of `rhos` (shape
    (..., d, d)) with the pure target of `psis` (shape (..., d), unit
    norm), broadcast over the leading axes and clipped to [0, 1].

    For a pure target the Uhlmann fidelity is exactly this overlap (Jozsa,
    J. Mod. Opt. 41, 2315, 1994), so no square root or decomposition is
    taken.  Raises on a vacuum state (any trace ~ 0) as `heralded_normalize`
    does; the states are not checked PSD, so validate them at the boundary
    they come from.
    """
    f = np.einsum("...a,...ab,...b->...", psis.conj(), _unit_trace(rhos), psis).real
    return np.clip(f, 0.0, 1.0)


def uhlmann_fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    Both arguments are normalized to trace 1 before comparison (sub-trace
    states encode loss, which is not a state-overlap property).  For a
    rank-1 sigma this equals `pure_fidelity_stack` of its state vector.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return float(uhlmann_fidelity_stack(rho.entries[None], sigma.entries)[0])


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


def project_to_physical(h: np.ndarray) -> DensityMatrix:
    """Project a Hermitian estimate onto the nearest physical density matrix
    (the one-matrix case of `project_to_physical_stack`).

    Raises if the input is not a square matrix, is not Hermitian within
    1e-8 or has a trace not above PROJECT_RTOL of its largest eigenvalue
    magnitude (including any all-nonpositive spectrum).
    """
    m = h.entries if isinstance(h, DensityMatrix) else np.asarray(h, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("expected a square matrix")
    return DensityMatrix(m.shape[0], project_to_physical_stack(m[None])[0])


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
