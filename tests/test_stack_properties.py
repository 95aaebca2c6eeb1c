"""Stacked estimator kernels, trial by trial and against their oracles.

Each kernel takes a leading trial axis; on random stacks it must equal the
kernel applied to each trial alone (and raise where that raises), so no
trial's estimate depends on the others.  The linear fidelity is checked
against the linear-inversion estimate written out term by term, the pure
fidelity against the Uhlmann fidelity of `oracles` (and within [0, 1]),
and that oracle against the closed form of the qubit fidelity.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import linear_inversion_stack, uhlmann_fidelity_stack
from swapsim import qcore as qc
from swapsim import tomography as tm

# derandomized: tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
TOL = 1e-12


def complex_stacks(dim, cols=None):
    """(n, dim, cols) complex arrays with parts in [-1, 1]."""
    cols = dim if cols is None else cols
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    return st.integers(1, 5).flatmap(
        lambda n: arrays(np.float64, (2, n, dim, cols), elements=parts)
    ).map(lambda a: a[0] + 1j * a[1])


@st.composite
def linear_fidelity_inputs(draw):
    """(counts (L, T, 6^n), targets (L, 2^n)) for n = 1 or 2: background-
    subtracted counts, so some are negative, and unit-norm targets."""
    n = draw(st.sampled_from([1, 2]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), 6**n)
    counts = draw(arrays(np.int64, shape, elements=st.integers(0, 60)))
    bg = draw(st.sampled_from([0.0, 0.4, 1.7]))
    psi = draw(complex_stacks(2**n, 1))[:, :, 0]
    assume(np.linalg.norm(psi, axis=1).min() > 1e-3)
    psi = np.resize(psi, (shape[0], 2**n))
    return counts - bg, psi / np.linalg.norm(psi, axis=1, keepdims=True)


@PROPERTY
@given(linear_fidelity_inputs())
def test_linear_fidelity_stack_is_the_pooled_linear_estimate(inputs):
    # <psi|rho_lin|psi> of the unprojected estimate, written out term by
    # term, with the pooled normaliser; a trial without a positive pooled
    # total raises
    counts, psi = inputs
    n = {2: 1, 4: 2}[psi.shape[1]]
    if (counts.sum(axis=-1) <= 0).any():
        with pytest.raises(ValueError, match="^a trial's pooled total counts are not positive$"):
            tm.linear_fidelity_stack(counts, psi)
        return
    out = tm.linear_fidelity_stack(counts, psi)
    for l, (trials, target) in enumerate(zip(counts, psi)):
        rho = linear_inversion_stack(trials, n)
        expect = np.einsum("a,tab,b->t", target.conj(), rho, target).real
        np.testing.assert_allclose(out[l], expect, rtol=TOL, atol=TOL)


@PROPERTY
@given(linear_fidelity_inputs())
def test_linear_fidelity_stack_rows_are_independent(inputs):
    # a stacked run equals its per-trial runs bit for bit, also on a
    # fancy-indexed (non-contiguous) stack as the Bell runner passes it
    counts, psi = inputs
    assume((counts.sum(axis=-1) > 0).all())
    fancy = counts[..., np.arange(counts.shape[-1])]
    for stack in (counts, fancy):
        out = tm.linear_fidelity_stack(stack, psi)
        for l, t in np.ndindex(out.shape):
            one = tm.linear_fidelity_stack(counts[l:l + 1, t:t + 1].copy(), psi[l:l + 1])
            assert one[0, 0] == out[l, t]


# Bloch lengths: pure, maximally mixed, and mixed away from the eigenvalue
# noise floor below which the oracle's matrix square root zeroes an
# eigenvalue (there the closed form keeps a ~1e-8 term the oracle drops)
BLOCH_LENGTHS = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0 - 1e-6))
BLOCH_DIRECTIONS = arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)).filter(
    lambda v: np.linalg.norm(v) > 1e-3)


def _qubit_state(length, direction):
    """(I + r . sigma) / 2 for r of `length` along `direction`, with its
    determinant (1 - |r|^2) / 4."""
    r = length * direction / np.linalg.norm(direction)
    rho = 0.5 * (qc.PAULI_I + r[0] * qc.PAULI_X + r[1] * qc.PAULI_Y + r[2] * qc.PAULI_Z)
    return rho, (1.0 - length**2) / 4.0


@PROPERTY
@given(st.lists(st.tuples(BLOCH_LENGTHS, BLOCH_DIRECTIONS), min_size=1, max_size=5),
       st.tuples(BLOCH_LENGTHS, BLOCH_DIRECTIONS))
def test_uhlmann_fidelity_stack(states, target):
    # the oracle against the closed form of the fidelity of two qubit
    # states, Tr(rho sigma) + 2 sqrt(det rho det sigma) (Jozsa, J. Mod.
    # Opt. 41, 2315, 1994)
    rhos, dets = map(np.array, zip(*(_qubit_state(*s) for s in states)))
    sigma, det_sigma = _qubit_state(*target)
    expect = np.einsum("nab,ba->n", rhos, sigma).real + 2.0 * np.sqrt(dets * det_sigma)
    f = uhlmann_fidelity_stack(rhos, sigma)
    np.testing.assert_allclose(f, np.minimum(expect, 1.0), rtol=0, atol=TOL)
    assert np.all((f >= 0.0) & (f <= 1.0))


@PROPERTY
@given(st.data())
def test_pure_fidelity_stack_equals_uhlmann(data):
    dim = data.draw(st.sampled_from([2, 4]))
    # g g^dag / Tr: full-rank (rank dim) and rank-deficient states
    g = data.draw(complex_stacks(dim, data.draw(st.integers(1, dim))))
    rhos = g @ np.swapaxes(g, -1, -2).conj()
    # one pure target per state
    psis = data.draw(arrays(np.float64, (2, len(g), dim), elements=st.floats(-1.0, 1.0)))
    psis = psis[0] + 1j * psis[1]
    norms = np.linalg.norm(psis, axis=1)
    tr = np.trace(rhos, axis1=1, axis2=2).real
    assume(tr.min() > 1e-6 and norms.min() > 1e-3)
    psis = psis / norms[:, None]
    # sub-trace (lossy) states are compared after normalization
    loss = data.draw(arrays(np.float64, len(rhos), elements=st.floats(0.1, 1.0)))
    rhos = rhos * (loss / tr)[:, None, None]
    f = qc.pure_fidelity_stack(rhos, psis)
    expect = [uhlmann_fidelity_stack(r[None], np.outer(p, p.conj()))[0]
              for r, p in zip(rhos, psis)]
    np.testing.assert_allclose(f, expect, rtol=0, atol=TOL)
    assert np.all((f >= 0.0) & (f <= 1.0))
    # one target for the whole stack broadcasts over it
    np.testing.assert_allclose(qc.pure_fidelity_stack(rhos, psis[0]),
                               uhlmann_fidelity_stack(rhos, np.outer(psis[0], psis[0].conj())),
                               rtol=0, atol=TOL)


def test_pure_fidelity_stack_of_a_vacuum_state_raises():
    rhos = np.array([np.eye(2) / 2.0, np.zeros((2, 2))], dtype=complex)
    with pytest.raises(ValueError, match="^vacuum state: trace is zero"):
        qc.pure_fidelity_stack(rhos, np.array([1.0, 0.0], dtype=complex))
