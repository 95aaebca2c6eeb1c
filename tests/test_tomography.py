from itertools import product

import numpy as np
import pytest

from swapsim import qcore as qc
from swapsim import tomography as tm


def projector(label):
    """The rank-1 projector of the named single-qubit setting."""
    v = qc.ket2(label)
    return np.outer(v, v.conj())


def tt_fidelity(table, ideal):
    """`truth_table_fidelity_stack` of one table."""
    return float(tm.truth_table_fidelity_stack(np.asarray(table)[None], ideal)[0])


class TestMeasurementSetting:
    # a setting is a label of `ket2`, measured by its rank-1 projector
    def test_projectors_are_rank_one(self):
        for lbl in tm.POLARIZATION_LABELS + tm.MOMENTUM_LABELS:
            p = projector(lbl)
            assert np.linalg.matrix_rank(p) == 1
            np.testing.assert_allclose(p @ p, p, atol=1e-14)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="unknown state label 'Q'"):
            projector("Q")


class TestTruthTableFidelity:
    def test_perfect_match(self):
        ideal = tm.ideal_truth_table()
        assert tt_fidelity(ideal, ideal) == pytest.approx(1.0)

    def test_uniform_table(self):
        uniform = np.full((4, 4), 0.25)
        assert tt_fidelity(uniform, tm.ideal_truth_table()) == pytest.approx(0.25)

    def test_requires_normalized_columns(self):
        bad = np.full((4, 4), 0.2)
        with pytest.raises(ValueError):
            tt_fidelity(bad, tm.ideal_truth_table())

    def test_linear_in_measurement(self):
        rng = np.random.default_rng(0)
        ideal = tm.ideal_truth_table()
        a = rng.uniform(0.01, 1.0, size=(4, 4))
        a /= a.sum(axis=0)
        b = rng.uniform(0.01, 1.0, size=(4, 4))
        b /= b.sum(axis=0)
        lam = 0.3
        fa = tt_fidelity(a, ideal)
        fb = tt_fidelity(b, ideal)
        fm = tt_fidelity(lam * a + (1 - lam) * b, ideal)
        assert fm == pytest.approx(lam * fa + (1 - lam) * fb, abs=1e-12)

    def test_unity_only_on_ideal_support(self):
        ideal = tm.ideal_truth_table()
        m = np.array(ideal, copy=True)
        m[:, 0] = [0.01, 0.0, 0.0, 0.99]
        assert tt_fidelity(m, ideal) < 1.0

    def test_frames(self):
        # the raw table, and its relabeled view (output i read as 3 - i,
        # X (x) X on every output): the pure SWAP's table
        raw = tm.ideal_truth_table()
        rel = raw[::-1]
        assert raw[3, 0] == 1.0 and raw[1, 1] == 1.0 and raw[2, 2] == 1.0 and raw[0, 3] == 1.0
        assert rel[0, 0] == 1.0 and rel[2, 1] == 1.0 and rel[1, 2] == 1.0 and rel[3, 3] == 1.0
        assert raw.sum() == 4.0


def random_cptp_kraus(rng, dim, n_kraus):
    """Random channel via a Haar isometry (Stinespring dilation)."""
    g = rng.normal(size=(dim * n_kraus, dim)) + 1j * rng.normal(size=(dim * n_kraus, dim))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))  # fix gauge
    return [q[i * dim:(i + 1) * dim, :] for i in range(n_kraus)]


def chi_of_kraus(kraus, n):
    d = 2**n
    chi = np.zeros((4**n, 4**n), dtype=complex)
    for k in kraus:
        c = np.array([np.trace(e @ k) / d for e in qc.pauli_operators(n)])
        chi += np.outer(c, c.conj())
    return chi / np.trace(chi).real


def tomo_inputs(n):
    if n == 1:
        vecs = [qc.ket2(l) for l in ("H", "V", "D", "R")]
        return [np.outer(v, v.conj()) for v in vecs]
    singles = [np.outer(qc.ket2(l), qc.ket2(l).conj()) for l in ("0", "1", "+", "i")]
    return [np.kron(a, b) for a in singles for b in singles]


def process_tomo(ins, outs, n):
    """`process_tomo_stack` of one process."""
    return tm.process_tomo_stack(ins, np.array(outs)[None], n)[0]


class TestProcessTomo:
    def test_identity_channel(self):
        ins = tomo_inputs(1)
        chi = process_tomo(ins, ins, 1)
        expect = np.zeros((4, 4))
        expect[0, 0] = 1.0
        np.testing.assert_allclose(chi, expect, atol=1e-10)

    def test_x_channel(self):
        ins = tomo_inputs(1)
        x = qc.PAULI_X
        outs = [x @ r @ x for r in ins]
        chi = process_tomo(ins, outs, 1)
        expect = np.zeros((4, 4))
        expect[1, 1] = 1.0
        np.testing.assert_allclose(chi, expect, atol=1e-10)

    def test_swap_chi_structure(self):
        from swapsim.devices import swap_unitary

        ins = tomo_inputs(2)
        u = swap_unitary()
        outs = [u @ r @ u.conj().T for r in ins]
        chi = process_tomo(ins, outs, 2)
        labels = ["".join(p) for p in product("IXYZ", repeat=2)]  # `pauli_operators` order
        want = {"II", "XX", "YY", "ZZ"}
        for i, li in enumerate(labels):
            for j, lj in enumerate(labels):
                expect = 0.25 if (li in want and lj in want) else 0.0
                assert abs(chi[i, j] - expect) <= 1e-10

    def test_rank_deficient_inputs_rejected(self):
        ins = [np.diag([1.0, 0.0]).astype(complex)] * 4
        with pytest.raises(ValueError):
            process_tomo(ins, ins, 1)

    def test_random_cptp_roundtrip(self):
        rng = np.random.default_rng(11)
        for n, n_cases in ((1, 10), (2, 3)):
            ins = tomo_inputs(n)
            for _ in range(n_cases):
                kraus = random_cptp_kraus(rng, 2**n, 3)
                outs = [sum(k @ r @ k.conj().T for k in kraus) for r in ins]
                chi = process_tomo(ins, outs, n)
                truth = chi_of_kraus(kraus, n)
                # scale-invariant overlap: 1 iff the matrices coincide
                num = np.trace(chi @ truth).real
                den = np.sqrt(np.trace(chi @ chi).real
                              * np.trace(truth @ truth).real)
                assert num / den >= 1 - 1e-9
                assert np.max(np.abs(chi - truth)) < 1e-8


class TestProcessMetrics:
    def test_fidelity_of_identical_unitary(self):
        chi = tm.chi_from_unitary(qc.PAULI_X)
        assert tm.process_fidelity_stack(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_processes(self):
        chi_x = tm.chi_from_unitary(qc.PAULI_X)
        chi_i = tm.chi_from_unitary(np.eye(2))
        assert tm.process_fidelity_stack(chi_x, chi_i) == pytest.approx(0.0, abs=1e-12)

    def test_unitary_purity_is_one(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
            chi = tm.chi_from_unitary(g)
            assert tm.process_purity_stack(chi) == pytest.approx(1.0, abs=1e-10)

    def test_depolarizing_purity(self):
        chi = np.eye(4, dtype=complex) / 4
        qc.check_chi_stack(chi)
        assert tm.process_purity_stack(chi) == pytest.approx(0.25)


def fringe_fit(scan, background=0.0):
    """`fringe_fit_stack` of one scan of (phi, counts) points, as floats."""
    phis, vals = np.array(scan, dtype=float).T
    fit = tm.fringe_fit_stack(phis, vals[None], background)
    return tm.FringeFit(*(v[0].item() for v in fit))


class TestFringeFit:
    def analytic(self, phis, a=1.0, v=1.0, delta=0.0, bg=0.0):
        return [(p, a * (1 + v * np.cos(p + delta)) + bg) for p in phis]

    def test_ideal_fringe(self):
        phis = np.linspace(0, 2 * np.pi, 25)
        fit = fringe_fit(self.analytic(phis, a=500.0))
        assert fit.visibility_raw == pytest.approx(1.0, abs=1e-6)
        assert abs(fit.phase_offset) < 1e-6

    def test_constant_scan(self):
        phis = np.linspace(0, 2 * np.pi, 25)
        fit = fringe_fit([(p, 100.0) for p in phis])
        assert fit.visibility_raw == pytest.approx(0.0, abs=1e-6)

    def test_rescaling_invariance(self):
        phis = np.linspace(0, 2 * np.pi, 25)
        base = self.analytic(phis, a=200.0, v=0.8, delta=0.4)
        f1 = fringe_fit(base)
        f2 = fringe_fit([(p, 3.0 * c) for p, c in base])
        assert f2.visibility_raw == pytest.approx(f1.visibility_raw, abs=1e-10)
        assert f2.phase_offset == pytest.approx(f1.phase_offset, abs=1e-10)
        assert f2.amplitude == pytest.approx(3.0 * f1.amplitude, rel=1e-9)

    def test_poisson_recovery(self):
        # oracle: noise-free generator at the quoted visibility scale
        rng = np.random.default_rng(77)
        phis = np.linspace(0, 2 * np.pi, 25)
        clean = self.analytic(phis, a=18750.0, v=0.987)  # ~30 s at typical rates
        noisy = [(p, rng.poisson(c)) for p, c in clean]
        fit = fringe_fit(noisy)
        assert fit.visibility_raw == pytest.approx(0.987, abs=0.005)

    def test_background_subtraction(self):
        phis = np.linspace(0, 2 * np.pi, 25)
        a, v, bg = 1000.0, 0.994, 10.7
        scan = self.analytic(phis, a=a, v=v, bg=bg)
        fit = fringe_fit(scan, background=bg)
        raw_expect = a * v / (a + bg)
        assert fit.visibility_raw == pytest.approx(raw_expect, abs=1e-6)
        assert fit.visibility_subtracted == pytest.approx(v, abs=1e-6)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fringe_fit([(0.0, 1.0), (1.0, 2.0), (2.0, 1.0), (3.0, 2.0)])

    def test_all_zero_scan_has_zero_visibility(self):
        fit = fringe_fit([(p, 0.0) for p in np.linspace(0, 2 * np.pi, 17)],
                            background=1.0)
        assert fit.visibility_raw == 0.0
        assert fit.visibility_subtracted == 0.0
        assert not fit.converged

    def test_fringe_below_background_is_not_converged(self):
        # the raw fit has A > 0, but nothing is left after subtraction
        scan = [(p, 5.0 * (1.0 + 0.5 * np.cos(p))) for p in np.linspace(0, 2 * np.pi, 17)]
        fit = fringe_fit(scan, background=10.0)
        assert fit.amplitude == pytest.approx(5.0)
        assert fit.visibility_subtracted == 0.0
        assert not fit.converged
        assert fringe_fit(scan).converged

    def test_visibility_outside_unit_interval_is_not_converged(self):
        # a one-period scan that is dark but for a spike at phi = 0: the
        # cosine fit reads V = 2 on the raw and on the subtracted scan, which
        # no fringe has
        phis = np.linspace(0, 2 * np.pi, 13)
        counts = np.zeros(13)
        counts[0] = counts[-1] = 3.0
        fit = tm.fringe_fit_stack(phis, counts[None], background=0.5)
        assert fit.amplitude[0] > 0
        assert fit.visibility_raw[0] == pytest.approx(2.0)
        assert fit.visibility_subtracted[0] == pytest.approx(2.0)
        assert not fit.converged[0]

    def test_matches_least_squares_oracle(self):
        # oracle: scipy's iterative fit of the same weighted residual in the
        # (A, V, delta) form, with the covariance inv(J^T J) at its minimum
        from scipy.optimize import least_squares

        rng = np.random.default_rng(np.random.SeedSequence([4040]))
        phis = np.linspace(0, 2 * np.pi, 17)
        for _ in range(100):
            a, v, d = rng.uniform(50, 2e4), rng.uniform(0.3, 0.999), rng.uniform(-3, 3)
            vals = rng.poisson(a * (1 + v * np.cos(phis + d))).astype(float)
            w = 1.0 / np.sqrt(np.maximum(vals, 1.0))

            def resid(p):
                return (p[0] * (1 + p[1] * np.cos(phis + p[2])) - vals) * w

            def jac(p):
                cos, sin = np.cos(phis + p[2]), np.sin(phis + p[2])
                return np.column_stack([1 + p[1] * cos, p[0] * cos,
                                        -p[0] * p[1] * sin]) * w[:, None]

            ref = least_squares(resid, x0=[a, v, d], jac=jac,
                                xtol=1e-14, ftol=1e-14, gtol=1e-14)
            j = ref.jac
            ref_err = np.sqrt(np.linalg.inv(j.T @ j)[1, 1])
            fit = fringe_fit(list(zip(phis, vals)))
            assert fit.converged
            assert fit.visibility_raw == pytest.approx(ref.x[1], abs=1e-6)
            assert abs(np.angle(np.exp(1j * (fit.phase_offset - ref.x[2])))) <= 1e-6
            assert fit.visibility_stderr == pytest.approx(ref_err, abs=1e-6)
