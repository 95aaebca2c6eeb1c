import functools
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import apply_channel, compose_channels, uhlmann_fidelity
from oracles import density as dm
from swapsim import qcore as qc


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return dm(rho / np.trace(rho).real)


def validated(mat):
    """`heralded_normalize_stack` of the one-row stack of `mat`: the
    density-matrix check of the stack kernels."""
    return qc.heralded_normalize_stack(np.array([mat], dtype=complex))


class TestTypes:
    # the density-matrix check of `heralded_normalize_stack`
    def test_density_matrix_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            validated([[1.0, 0.5], [0.0, 0.0]])

    def test_density_matrix_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            validated([[1.1, 0.0], [0.0, -0.1]])

    def test_density_matrix_rejects_trace_above_one(self):
        with pytest.raises(ValueError):
            validated([[0.8, 0.0], [0.0, 0.4]])

    def test_subnormalized_trace_is_allowed(self):
        _, tr = validated([[0.5, 0.0], [0.0, 0.2]])
        assert tr[0] == pytest.approx(0.7)

    def test_channel_rejects_trace_increasing(self):
        with pytest.raises(ValueError):
            qc.QuantumChannel(2, 2, (1.5 * np.eye(2),))

    def test_pauli_basis_orthogonality(self):
        for n in (1, 2):
            ops = qc.pauli_operators(n)
            for i, a in enumerate(ops):
                for j, b in enumerate(ops):
                    expect = 2.0**n if i == j else 0.0
                    assert np.trace(a @ b).real == pytest.approx(expect, abs=1e-12)
                assert np.allclose(a, a.conj().T)
                assert np.allclose(a @ a, np.eye(2**n))


class TestTensor:
    # the spatial channel is the most significant factor of the dim-4 space
    def test_basis_order_th_is_index_zero(self):
        np.testing.assert_array_equal(qc.ket4("T", "H"), [1, 0, 0, 0])

    def test_basis_order_bv_is_index_three(self):
        np.testing.assert_array_equal(qc.ket4("B", "V"), [0, 0, 0, 1])

    def test_identity_tensor(self):
        # the two-qubit Pauli basis is the Kronecker product of the one-qubit
        # bases, the left factor most significant: II is the identity, and
        # operator 6 is XY
        ops = qc.pauli_operators(2)
        np.testing.assert_array_equal(ops[0], np.eye(4))
        np.testing.assert_array_equal(ops[6], np.kron(qc.PAULI_X, qc.PAULI_Y))


class TestPauliOperators:
    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_the_lexicographic_kronecker_products(self, n):
        singles = (qc.PAULI_I, qc.PAULI_X, qc.PAULI_Y, qc.PAULI_Z)
        want = [functools.reduce(np.kron, combo) for combo in product(singles, repeat=n)]
        np.testing.assert_array_equal(qc.pauli_operators(n), np.array(want))

    @pytest.mark.parametrize("n", [1, 2])
    def test_read_only_and_built_once(self, n):
        ops = qc.pauli_operators(n)
        assert not ops.flags.writeable
        with pytest.raises(ValueError):
            ops[0, 0, 0] = 2.0
        assert qc.pauli_operators(n) is ops

    def test_three_qubits_rejected(self):
        with pytest.raises(ValueError, match="only 1- and 2-qubit"):
            qc.pauli_operators(3)


class TestApplyChannel:
    # the oracle's one-state Kraus propagation
    def test_identity_channel(self):
        rho = random_density(np.random.default_rng(0), 4)
        out = apply_channel(qc.QuantumChannel(4, 4, (np.eye(4),)), rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_attenuator_halves_trace(self):
        rho = random_density(np.random.default_rng(1), 2)
        out = apply_channel(qc.QuantumChannel(2, 2, (np.sqrt(0.5) * np.eye(2),)), rho)
        assert np.trace(out).real == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_channel(qc.QuantumChannel(2, 2, (np.eye(2),)),
                             random_density(np.random.default_rng(2), 4))

    def test_trace_preserving_channels_preserve_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            u, _ = np.linalg.qr(g)
            ch = qc.QuantumChannel(4, 4, (u,))
            rho = random_density(rng, 4)
            assert np.trace(apply_channel(ch, rho)).real == pytest.approx(1.0, abs=1e-12)


class TestHeraldedNormalize:
    # `heralded_normalize_stack` of one state is its one-row stack
    def test_trace_one_passthrough(self):
        rho = random_density(np.random.default_rng(4), 2)
        out, p = qc.heralded_normalize_stack(rho[None])
        assert p[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(out[0], rho, atol=1e-14)

    def test_quarter_trace(self):
        base = np.zeros((4, 4), dtype=complex)
        base[0, 0] = 0.25
        out, p = qc.heralded_normalize_stack(dm(base)[None])
        assert p[0] == pytest.approx(0.25)
        assert out[0, 0, 0] == pytest.approx(1.0)

    def test_six_db_insertion_loss(self):
        # 3 dB per facet at both ends of a lossless chip
        survival = 10 ** (-0.6)
        rho = dm(np.diag([survival, 0, 0, 0]))
        _, p = qc.heralded_normalize_stack(rho[None])
        assert p[0] == pytest.approx(0.251, abs=5e-4)

    def test_vacuum_raises(self):
        with pytest.raises(ValueError):
            qc.heralded_normalize_stack(dm(np.zeros((2, 2)))[None])

    def test_stack_equals_one_state_at_a_time(self):
        rng = np.random.default_rng(6)
        rhos = [dm(rng.uniform(0.01, 1.0) * random_density(rng, 4)) for _ in range(5)]
        out, p = qc.heralded_normalize_stack(np.array(rhos))
        for k, rho in enumerate(rhos):
            one, p_one = qc.heralded_normalize_stack(rho[None])
            np.testing.assert_array_equal(out[k], one[0])
            assert p[k] == p_one[0]

    @pytest.mark.parametrize("bad, message", [
        ([[0.5, 0.1], [0.0, 0.5]], "not Hermitian"),
        ([[1.0, 0.0], [0.0, -0.1]], "negative eigenvalue"),
        ([[0.7, 0.0], [0.0, 0.7]], "trace 1.4 outside"),
        (np.zeros((2, 2)), "^vacuum state"),
    ])
    def test_stack_validates_like_density_matrix(self, bad, message):
        # one bad matrix in the stack raises what its one-row stack raises
        good = random_density(np.random.default_rng(7), 2)
        with pytest.raises(ValueError, match=message):
            qc.heralded_normalize_stack(np.array([bad], dtype=complex))
        with pytest.raises(ValueError, match=message):
            qc.heralded_normalize_stack(np.array([good, bad, good], dtype=complex))


class TestNonFinite:
    # a NaN or an infinity anywhere is one ValueError that says so, never
    # LAPACK's LinAlgError or a verdict on the other entries, and no numpy
    # warning before it
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_every_check_says_not_finite(self, value):
        with pytest.raises(ValueError, match="^density matrix is not finite$"):
            qc.heralded_normalize_stack(np.full((1, 4, 4), value, dtype=complex))
        with pytest.raises(ValueError, match="^chi matrix is not finite$"):
            qc.check_chi_stack(np.full((2, 4, 4), value, dtype=complex))
        with pytest.raises(ValueError, match="^sum K\\^dag K is not finite$"):
            qc.check_trace_nonincreasing(np.full((4, 4), value, dtype=complex))
        with pytest.raises(ValueError, match="^sum K\\^dag K is not finite$"):
            qc.QuantumChannel(2, 2, (np.array([[value, 0.0], [0.0, 0.5]]),))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_one_entry_of_one_matrix_in_a_stack(self, value):
        good = random_density(np.random.default_rng(7), 4)
        stack = np.array([good, good, good])
        stack[1, 2, 0] = value
        with pytest.raises(ValueError, match="^density matrix is not finite$"):
            qc.heralded_normalize_stack(stack)
        with pytest.raises(ValueError, match="^chi matrix is not finite$"):
            qc.check_chi_stack(stack)


# derandomized: tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)
# eigenvalues this close to a tolerance may be decided either way: they are
# within the rounding of the decompositions that compute them
BAND = 1e-14


@st.composite
def stacks_near(draw, dims, edge):
    """(m, k): an (n, d, d) Hermitian stack U diag(eigs) U^dag, every
    eigenvalue drawn in [1e-3, 1/d] except one of matrix k, which is `edge`
    plus an offset of either sign, 3e-14 to 1e-6 in size."""
    d = draw(st.sampled_from(dims))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(0, n - 1))
    offset = draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-13.5, -6.0))
    parts = st.floats(-1.0, 1.0, allow_subnormal=False)
    mats = []
    for j in range(n):
        eigs = np.array(draw(st.lists(st.floats(1e-3, 1.0 / d), min_size=d, max_size=d)))
        if j == k:
            eigs[0] = edge + offset
        g = draw(arrays(np.float64, (2, d, d), elements=parts))
        u, _ = np.linalg.qr(g[0] + 1j * g[1])
        m = (u * eigs) @ u.conj().T
        mats.append(0.5 * (m + m.conj().T))
    return np.array(mats), k


class TestPsdRule:
    """Each check accepts and rejects by its eigenvalue rule, outside `BAND`
    around its tolerance, with the error texts the rule words."""

    @PROPERTY
    @given(stacks_near((2, 4), -qc.PSD_TOL))
    def test_density_check(self, case):
        m, _ = case
        low = np.linalg.eigvalsh(m).min()
        assume(abs(low + qc.PSD_TOL) > BAND)
        if low < -qc.PSD_TOL:
            with pytest.raises(ValueError) as err:
                qc.heralded_normalize_stack(m)
            assert str(err.value) == f"density matrix has negative eigenvalue {low:.3e}"
        else:
            qc.heralded_normalize_stack(m)

    @PROPERTY
    @given(stacks_near((4, 16), -1e-8))
    def test_chi_check(self, case):
        m, _ = case
        low = np.linalg.eigvalsh(m).min()
        assume(abs(low + 1e-8) > BAND)
        if low < -1e-8:
            with pytest.raises(ValueError) as err:
                qc.check_chi_stack(m)
            assert str(err.value) == f"chi has negative eigenvalue {low:.3e}"
        else:
            qc.check_chi_stack(m)

    @PROPERTY
    @given(stacks_near((2, 4, 16), 1.0 + qc.CP_TOL))
    def test_trace_nonincreasing_check(self, case):
        m, k = case
        effect = m[k]
        top = np.linalg.eigvalsh(effect).max()
        assume(abs(top - (1.0 + qc.CP_TOL)) > BAND)
        if top > 1.0 + qc.CP_TOL:
            with pytest.raises(ValueError) as err:
                qc.check_trace_nonincreasing(effect)
            assert str(err.value) == ("channel is trace-increasing: "
                                      f"max eig of sum K^dag K = {top:.6f}")
        else:
            qc.check_trace_nonincreasing(effect)


class TestUhlmannFidelity:
    def test_identical_pure(self):
        rho = dm([[1, 0], [0, 0]])
        assert uhlmann_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure(self):
        a = dm([[1, 0], [0, 0]])
        b = dm([[0, 0], [0, 1]])
        assert uhlmann_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_plus_state_overlap(self):
        a = dm([[1, 0], [0, 0]])
        plus = dm(np.full((2, 2), 0.5))
        assert uhlmann_fidelity(a, plus) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            a, b = random_density(rng, 4), random_density(rng, 4)
            assert uhlmann_fidelity(a, b) == pytest.approx(
                uhlmann_fidelity(b, a), abs=1e-10)

    def test_pure_sigma_reduces_to_expectation(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            rho = random_density(rng, 2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v /= np.linalg.norm(v)
            sigma = dm(np.outer(v, v.conj()))
            expect = float(np.real(v.conj() @ rho @ v))
            assert uhlmann_fidelity(rho, sigma) == pytest.approx(expect, abs=1e-10)

    def test_normalizes_subtrace_inputs(self):
        rho = dm([[0.5, 0], [0, 0]])
        sigma = dm([[1.0, 0], [0, 0]])
        assert uhlmann_fidelity(rho, sigma) == pytest.approx(1.0, abs=1e-12)


def pauli_coefficients(rho, basis):
    """c_m = Tr(E_m rho) / 2^n over the operators `basis`, in their order."""
    return np.array([np.trace(e @ rho).real / len(rho) for e in basis])


class TestPauliCoefficients:
    # the order (I, X, Y, Z) of `pauli_operators` that tomography's
    # coefficient rows and chi matrices are indexed by, and the completeness
    # of the basis
    def test_ground_state(self):
        basis = qc.pauli_operators(1)
        c = pauli_coefficients(dm([[1, 0], [0, 0]]), basis)
        np.testing.assert_allclose(c, [0.5, 0, 0, 0.5], atol=1e-14)

    def test_maximally_mixed(self):
        basis = qc.pauli_operators(1)
        c = pauli_coefficients(dm(np.eye(2) / 2), basis)
        np.testing.assert_allclose(c, [0.5, 0, 0, 0], atol=1e-14)

    def test_plus_state(self):
        basis = qc.pauli_operators(1)
        c = pauli_coefficients(dm(np.full((2, 2), 0.5)), basis)
        np.testing.assert_allclose(c, [0.5, 0.5, 0, 0], atol=1e-14)

    def test_reconstruction_roundtrip(self):
        rng = np.random.default_rng(10)
        for n in (1, 2):
            basis = qc.pauli_operators(n)
            rho = random_density(rng, 2**n)
            c = pauli_coefficients(rho, basis)
            rebuilt = sum(cm * e for cm, e in zip(c, basis))
            np.testing.assert_allclose(rebuilt, rho, atol=1e-12)


class TestComposition:
    # the oracle's Kraus composition and its Choi-matrix reduction
    def test_compose_is_sequential(self):
        rng = np.random.default_rng(11)
        g1, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        g2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        combined = compose_channels(qc.QuantumChannel(4, 4, (g1,)),
                                       qc.QuantumChannel(4, 4, (g2,)))
        np.testing.assert_allclose(combined.kraus[0], g2 @ g1, atol=1e-14)

    def test_kraus_reduction_preserves_action(self):
        rng = np.random.default_rng(12)
        # build a 6-Kraus channel and compose with itself: count collapses
        ops = []
        for _ in range(6):
            ops.append(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        s = sum(k.conj().T @ k for k in ops)
        evals, vecs = np.linalg.eigh(s)
        w = (vecs / np.sqrt(evals)) @ vecs.conj().T  # s^(-1/2)
        ops = [k @ w for k in ops]
        ch = qc.QuantumChannel(2, 2, tuple(ops))
        twice = compose_channels(ch, ch)
        assert len(twice.kraus) <= 4
        rho = random_density(rng, 2)
        direct = apply_channel(ch, apply_channel(ch, rho))
        reduced = apply_channel(twice, rho)
        np.testing.assert_allclose(direct, reduced, atol=1e-12)
