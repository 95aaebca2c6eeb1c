"""Reference implementations that the tests compare the kernels against.

These are the one-state forms of operations that `swapsim` computes on
stacks: the partial trace and subsystem permutation of a density matrix,
the biphoton joint state assembled by Kronecker products, and the Uhlmann
fidelity by matrix square roots, and the linear-inversion estimate of
state tomography written out term by term (`linear_inversion_stack`, with
each axis tuple's own total or the pooled one) and its projection
(`state_tomo_2q_stack`).  No runner uses them.  `density` is the check a
test puts a one-state result through: it raises unless its argument is a
density matrix, as `swapsim` checks a stack of them.

The Kraus composition of a cascade (`compose_channels`, reduced to a
minimal Kraus set through the Choi matrix) and its action on one state
(`apply_channel`) are the oracle of the superoperator path: a chip is its
16x16 `ChipModel.superoperator`, and the tests check that matrix against
`compose_channels(*chip.stages)`.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

import numpy as np

from swapsim.qcore import (HERM_TOL, PSD_TOL, TRACE_TOL, QuantumChannel, dagger, ket2,
                           ket4, pauli_operators, project_to_physical_stack)


def density(m) -> np.ndarray:
    """`m` as a read-only complex (d, d) array, raising unless it is a
    density matrix: Hermitian, PSD and of trace in [0, 1] (a trace below 1
    is unheralded loss, 0 the vacuum) within the `qcore` tolerances."""
    out = np.array(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"matrix shape {out.shape} is not square")
    if np.max(np.abs(out - dagger(out))) > HERM_TOL:
        raise ValueError("density matrix is not Hermitian")
    low = np.linalg.eigvalsh(out).min()
    if low < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
    tr = np.trace(out).real
    if not -TRACE_TOL <= tr <= 1.0 + TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} outside [0, 1]")
    out.flags.writeable = False
    return out


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all subsystems not listed in `keep` (indices into `dims`)."""
    dims = list(dims)
    keep = sorted(keep)
    if int(np.prod(dims)) != len(rho):
        raise ValueError("subsystem dims do not multiply to the state dim")
    n = len(dims)
    t = np.asarray(rho).reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep]
    for offset, ax in enumerate(traced):
        a = ax - offset
        t = np.trace(t, axis1=a, axis2=a + (n - offset))
    d = int(np.prod([dims[i] for i in keep])) if keep else 1
    return density(t.reshape(d, d))


def permute_subsystems(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors of an operator: output factor i is input factor perm[i]."""
    dims = list(dims)
    n = len(dims)
    t = np.asarray(mat, dtype=complex).reshape(dims + dims)
    axes = list(perm) + [p + n for p in perm]
    t = t.transpose(axes)
    d = int(np.prod(dims))
    return t.reshape(d, d)


def assemble_joint(spatial_pol_pairs, pol_rho: np.ndarray | None = None) -> np.ndarray:
    """Build the 16-dim joint state.

    Either pass a pure assignment [(m_s, p_s), (m_i, p_i)] of state labels,
    or pass spatial labels [m_s, m_i] plus a 4x4 polarization density matrix
    on (p_s, p_i).
    """
    if pol_rho is None:
        (ms, ps), (mi, pi) = spatial_pol_pairs
        v = np.kron(ket4(ms, ps), ket4(mi, pi))
        return density(np.outer(v, v.conj()))
    ms, mi = spatial_pol_pairs
    spatial = np.kron(ket2(ms), ket2(mi))
    big = np.kron(np.outer(spatial, spatial.conj()), np.asarray(pol_rho, dtype=complex))
    # reorder (m_s m_i p_s p_i) -> (m_s p_s m_i p_i)
    return density(permute_subsystems(big, [2, 2, 2, 2], [0, 2, 1, 3]))


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

    Each input is normalized to trace 1 and checked PSD within tolerance.
    (Tr sqrt(sqrt(r) s sqrt(r)))^2 equals the trace norm of sqrt(r)
    sqrt(s), squared; singular values avoid taking square roots of
    eigenvalue-level noise.  sqrt(s) is computed once.  For a rank-1
    sigma = |psi><psi| this equals `qcore.pure_fidelity_stack` of psi.
    """
    sq_r = _psd_sqrt(_unit_trace(rhos), PSD_TOL)
    sq_s = _psd_sqrt(_unit_trace(sigma), PSD_TOL)
    f = np.sum(np.linalg.svd(sq_r @ sq_s, compute_uv=False), axis=-1) ** 2
    return np.minimum(f, 1.0)


def uhlmann_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    Both arguments are normalized to trace 1 before comparison (sub-trace
    states encode loss, which is not a state-overlap property).
    """
    if len(rho) != len(sigma):
        raise ValueError("dimension mismatch")
    return float(uhlmann_fidelity_stack(np.asarray(rho)[None], np.asarray(sigma))[0])


def apply_channel(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Apply sum_k K rho K^dag to the density matrix `rho`.  The output trace
    is the survival probability; no renormalization happens here."""
    if ch.dim_in != len(rho):
        raise ValueError(f"channel dim_in {ch.dim_in} != state dim {len(rho)}")
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus:
        out += k @ rho @ dagger(k)
    out = 0.5 * (out + dagger(out))
    return density(out)


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


# the axis (z, x, y: the order of the settings in a label-ordered count
# array) that measures each Pauli operator X, Y, Z
_PAULI_AXIS = {1: 1, 2: 2, 3: 0}


def linear_inversion_stack(counts, n: int, pooled: bool = False) -> np.ndarray:
    """Unprojected linear-inversion estimates (T, 2^n, 2^n) of the trials
    of `counts` (T, 6^n), the settings in label order (z+, z-, x+, x-, y+,
    y- per qubit, q1 major), one Pauli term at a time.

    The expectation of a Pauli string is read from each axis tuple whose
    axes measure its non-identity factors: the sign-weighted sum of the
    tuple's 2^n counts over the tuple's own total or, with `pooled`, over
    the trial's total / 3^n; a string with identity factors averages over
    the axes of those factors.  Raises on a zero normaliser.
    """
    c_all = np.asarray(counts, dtype=float).reshape(-1, 6**n)
    paulis = pauli_operators(1)
    out = []
    for trial in c_all:
        c = trial.reshape((3, 2) * n)
        rho = np.zeros((2**n, 2**n), dtype=complex)
        for string in product(range(4), repeat=n):
            terms = []
            for axes in product(range(3), repeat=n):
                if any(p and a != _PAULI_AXIS[p] for p, a in zip(string, axes)):
                    continue
                block = c[sum(((a, slice(None)) for a in axes), ())]
                total = trial.sum() / 3**n if pooled else block.sum()
                if total <= 0:
                    raise ValueError("zero total counts for an axis tuple")
                signed = sum(block[signs] * np.prod([(1.0, -1.0)[s]
                                                     for s, p in zip(signs, string) if p])
                             for signs in product(range(2), repeat=n))
                terms.append(signed / total)
            op = paulis[string[0]] if n == 1 else np.kron(paulis[string[0]], paulis[string[1]])
            rho += np.mean(terms) * op
        out.append(rho / 2**n)
    return np.array(out)


def state_tomo_2q_stack(counts) -> np.ndarray:
    """Two-qubit tomography of every trial in `counts`, shape (T, 36) with
    the settings in label order, q1 major: the linear-inversion estimate
    with each axis pair's own total, projected to the physical set; (T, 4,
    4).  Raises on an axis pair with zero total counts."""
    return project_to_physical_stack(linear_inversion_stack(counts, 2))
