"""Superoperator process tomography against the Pauli-expectation system.

`tomography.process_tomo_stack` solves R S^T = O for the channel's
superoperator S on the stacked input and output vecs, then reads chi off S.  The oracle
below is the solver it replaced: one (J 4^n) x 16^n least-squares system
over the Pauli expectations Tr(P_k eps(rho_j)) = sum_mn chi_mn
Tr(P_k E_m rho_j E_n), followed by the same Hermitize, PSD clip and trace
normalization.  Both minimise the same residual over the same linear
parametrisation, so on random trace-nonincreasing channels, full-rank input
sets and noisy outputs they must agree to float rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import qcore as qc
from swapsim import tomography as tm

# derandomized: tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
TOL = 1e-12


def oracle_process_tomo(inputs, outputs, n):
    """The (J 4^n) x 16^n Pauli-expectation least-squares solve."""
    rhos, outs = np.array(inputs), np.array(outputs)
    d2 = 4**n
    if np.linalg.matrix_rank(rhos.reshape(len(rhos), -1), tol=1e-10) < d2:
        raise ValueError("input states are rank-deficient; cannot invert")
    e_ops = qc.pauli_operators(n)
    left = np.einsum("mab,jbc->mjac", e_ops, rhos)
    x = np.einsum("mjac,ncd->mjnad", left, e_ops)
    a = np.einsum("kda,mjnad->jkmn", e_ops, x).reshape(len(rhos) * d2, d2 * d2)
    b = np.einsum("kda,jad->jk", e_ops, outs).reshape(-1)
    chi = np.linalg.lstsq(a, b, rcond=None)[0].reshape(d2, d2)
    chi = 0.5 * (chi + qc.dagger(chi))
    evals, vecs = np.linalg.eigh(chi)
    chi = (vecs * np.clip(evals, 0.0, None)) @ qc.dagger(vecs)
    return chi / np.trace(chi).real


def _ginibre(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _states(rng, count, d, pure):
    """`count` random density matrices of dimension d, pure or full-rank."""
    g = _ginibre(rng, (count, d, 1 if pure else d))
    rho = g @ qc.dagger(g)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def _channel(rng, n):
    """Random Kraus set of 1 to 4^n operators with max eig of sum K^dag K
    in [0.1, 1]: a trace-nonincreasing channel."""
    d = 2**n
    kraus = _ginibre(rng, (rng.integers(1, 4**n + 1), d, d))
    top = np.linalg.eigvalsh(sum(qc.dagger(k) @ k for k in kraus)).max()
    return kraus * np.sqrt(rng.uniform(0.1, 1.0) / top)


# (n, seed, extra inputs beyond 4^n, pure inputs, output noise)
CASES = st.tuples(st.sampled_from([1, 2]), st.integers(0, 2**32 - 1), st.integers(0, 4),
                  st.booleans(), st.sampled_from([0.0, 1e-6, 1e-3, 1e-2]))


def _case(n, seed, extra, pure, noise):
    rng = np.random.default_rng(seed)
    d = 2**n
    kraus = _channel(rng, n)
    rhos = _states(rng, 4**n + extra, d, pure)
    outs = np.einsum("kab,jbc,kdc->jad", kraus, rhos, kraus.conj())
    h = _ginibre(rng, outs.shape)
    return rng, rhos, outs + noise * (h + qc.dagger(h))


@PROPERTY
@given(CASES)
def test_process_tomo_equals_pauli_expectation_solve(case):
    n = case[0]
    _, rhos, outs = _case(*case)
    chi = tm.process_tomo_stack(rhos, outs[None], n)[0]
    np.testing.assert_allclose(chi, oracle_process_tomo(rhos, outs, n), rtol=0, atol=TOL)


@PROPERTY
@given(CASES)
def test_rank_deficient_inputs_raise_as_before(case):
    # 4^n - 1 random states plus mixtures of them span only 4^n - 1 dims
    n, _, extra, _, _ = case
    rng, rhos, outs = _case(*case)
    base = rhos[:4**n - 1]
    weights = rng.dirichlet(np.ones(len(base)), size=extra + 1)
    rhos = np.concatenate([base, np.einsum("ja,abc->jbc", weights, base)])
    with pytest.raises(ValueError) as want:
        oracle_process_tomo(rhos, outs, n)
    with pytest.raises(ValueError) as got:
        tm.process_tomo_stack(rhos, outs[None], n)
    assert str(got.value) == str(want.value)
