import numpy as np
import pytest

from swapsim import biphoton as bp
from swapsim import qcore as qc
from swapsim.config import ChipConfig


def ideal_chip_channel():
    return ChipConfig().build().channel()


class TestSpdc:
    def test_degenerate_pair(self):
        st = bp.spdc_state(778.0, 1556.0, 3.15)
        assert st.wavelengths_nm[2] == pytest.approx(1556.0, abs=1e-9)

    def test_idler_wavelength_against_mpmath_oracle(self):
        # oracle: arbitrary-precision evaluation of 1/(1/793 - 1/1559.6)
        import mpmath

        mpmath.mp.dps = 50
        expect = float(1 / (mpmath.mpf(1) / 793 - mpmath.mpf(1) / mpmath.mpf("1559.6")))
        got = bp.idler_wavelength(793.0, 1559.6)
        assert got == pytest.approx(expect, rel=1e-12)
        assert got == pytest.approx(1613.3, abs=0.5)  # near the quoted ~1613.6 nm

    def test_signal_must_exceed_pump(self):
        with pytest.raises(ValueError):
            bp.spdc_state(1556.0, 778.0, 3.15)

    def test_energy_conservation_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            lp = rng.uniform(775.0, 793.0)
            ls = rng.uniform(1552.5, 1559.6)
            st = bp.spdc_state(lp, ls, 3.15)
            lp_, ls_, li_ = st.wavelengths_nm
            assert abs(1 / lp_ - 1 / ls_ - 1 / li_) <= 1e-6

    def test_state_structure(self):
        st = bp.spdc_state(778.0, 1556.0, 3.15)
        diag = np.diag(st.joint.entries).real
        # |T_S V_S> (x) |B_I H_I> = index (0,1,1,0) -> 6
        assert diag[6] == pytest.approx(1.0)

    def test_configurable_signal_channel(self):
        st = bp.spdc_state(778.0, 1556.0, 3.15, signal_channel="B")
        diag = np.diag(st.joint.entries).real
        # |B_S V_S> (x) |T_I H_I> = (1,1,0,0) -> 12
        assert diag[12] == pytest.approx(1.0)


class TestPrepareBell:
    def test_pure_psi_plus(self):
        st = bp.prepare_bell(bp.BellLabel.PSI_PLUS, 1.0)
        blk, w = bp.conditional_polarization(st.joint, (0, 1))
        assert w == pytest.approx(1.0)
        vec = bp.bell_state_vector(bp.BellLabel.PSI_PLUS)
        f = np.real(vec.conj() @ blk @ vec)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_limit(self):
        st = bp.prepare_bell(bp.BellLabel.PSI_PLUS, 0.0)
        blk, _ = bp.conditional_polarization(st.joint, (0, 1))
        vec = bp.bell_state_vector(bp.BellLabel.PSI_PLUS)
        assert np.real(vec.conj() @ blk @ vec) == pytest.approx(0.25, abs=1e-12)

    def test_werner_algebra(self):
        st = bp.prepare_bell(bp.BellLabel.PSI_PLUS, 0.9)
        blk, _ = bp.conditional_polarization(st.joint, (0, 1))
        vec = bp.bell_state_vector(bp.BellLabel.PSI_PLUS)
        assert np.real(vec.conj() @ blk @ vec) == pytest.approx(0.925, abs=1e-12)


class TestApplyLocal:
    def test_identity_leaves_state(self):
        st = bp.spdc_state(778.0, 1556.0, 3.15)
        out = bp.apply_local(st, qc.identity_channel(4), bp.SIGNAL)
        np.testing.assert_allclose(out.joint.entries, st.joint.entries, atol=1e-14)

    def test_signal_idler_commute(self):
        rng = np.random.default_rng(1)
        g1, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        g2, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        st = bp.prepare_bell(bp.BellLabel.PHI_MINUS, 0.8)
        a = bp.apply_local(bp.apply_local(st, qc.unitary_channel(g1), bp.SIGNAL),
                           qc.unitary_channel(g2), bp.IDLER)
        b = bp.apply_local(bp.apply_local(st, qc.unitary_channel(g2), bp.IDLER),
                           qc.unitary_channel(g1), bp.SIGNAL)
        np.testing.assert_allclose(a.joint.entries, b.joint.entries, atol=1e-12)

    def test_bell_through_ideal_chip_gives_spatial_entanglement(self):
        st = bp.prepare_bell(bp.BellLabel.PSI_PLUS, 1.0)
        out = bp.apply_chip_both(st, ideal_chip_channel())
        rho = out.joint.entries
        # expect (|T_S B_I> + |B_S T_I>)/sqrt(2) on channels with fixed pols
        # = (|TV;BH> + |BV;TH>)/sqrt(2) in (m_s p_s m_i p_i) indexing
        i1 = 0b0110  # T V B H
        i2 = 0b1100  # B V T H
        assert rho[i1, i1].real == pytest.approx(0.5, abs=1e-12)
        assert rho[i2, i2].real == pytest.approx(0.5, abs=1e-12)
        assert abs(rho[i1, i2]) == pytest.approx(0.5, abs=1e-12)

    def test_six_db_loss_scales_trace(self):
        st = bp.spdc_state(778.0, 1556.0, 3.15)
        lossy = qc.attenuator_channel(4, 10 ** (-0.6))
        out = bp.apply_local(st, lossy, bp.SIGNAL)
        assert out.joint.trace == pytest.approx(10 ** (-0.6), abs=1e-12)


class TestSpectralOverlap:
    def test_unity_at_zero(self):
        s = bp.SpectralOverlap(3.15)
        assert bp.spectral_overlap(0.0, s) == pytest.approx(1.0)

    def test_gaussian_half_width(self):
        tc = 3.15
        s = bp.SpectralOverlap(tc)
        tau = tc * np.sqrt(2 * np.log(2))
        assert bp.spectral_overlap(tau, s) == pytest.approx(0.5, abs=1e-12)

    def test_dip_fwhm_matches_numeric_scan(self):
        # oracle: numeric scan of hom_coincidence for an ideal pair
        tc = 3.15
        st = bp.spdc_state(778.0, 1556.0, tc)
        # align polarizations so the photons are identical at the combiner
        flip = qc.unitary_channel(np.kron(np.eye(2), qc.PAULI_X))
        st = bp.apply_local(st, flip, bp.IDLER)
        taus = np.linspace(0.0, 12.0, 20001)
        p = np.array([bp.hom_coincidence(st, t) for t in taus])
        half = 0.25  # dip from 0 to 0.5: half depth
        idx = np.argmin(np.abs(p - half))
        fwhm_numeric = 2.0 * taus[idx]
        assert fwhm_numeric == pytest.approx(2.0 * np.sqrt(2 * np.log(2)) * tc, abs=2e-3)

    def test_monotone_decreasing(self):
        s = bp.SpectralOverlap(2.0)
        taus = np.linspace(0, 10, 50)
        vals = [bp.spectral_overlap(t, s) for t in taus]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_triangular_shape(self):
        s = bp.SpectralOverlap(2.0, shape="triangular")
        assert bp.spectral_overlap(0.0, s) == 1.0
        assert bp.spectral_overlap(4.0, s) == 0.0
        assert bp.spectral_overlap(2.0, s) == pytest.approx(0.5)


class TestHomCoincidence:
    def aligned_pair(self, tc=3.15):
        st = bp.spdc_state(778.0, 1556.0, tc)
        flip = qc.unitary_channel(np.kron(np.eye(2), qc.PAULI_X))
        return bp.apply_local(st, flip, bp.IDLER)

    def test_identical_photons_bunch_perfectly(self):
        st = self.aligned_pair()
        assert bp.hom_coincidence(st, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_large_delay_gives_half(self):
        st = self.aligned_pair()
        assert bp.hom_coincidence(st, 1e6) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_polarizations_give_half(self):
        st = bp.spdc_state(778.0, 1556.0, 3.15)  # V vs H, no alignment
        assert bp.hom_coincidence(st, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_even_in_tau(self):
        st = self.aligned_pair()
        for tau in (0.7, 1.9, 3.4):
            assert bp.hom_coincidence(st, tau) == pytest.approx(
                bp.hom_coincidence(st, -tau), abs=1e-12)

    def test_background_shifts_floor(self):
        st = self.aligned_pair()
        assert bp.hom_coincidence(st, 0.0, background=0.05) == pytest.approx(0.05)


class TestHomVisibility:
    def scan(self, overlap, tc, taus, scale=1.0, background=0.0):
        return [(t, scale * (0.5 * (1 - overlap * np.exp(-t * t / (2 * tc * tc)))
                             + background)) for t in taus]

    def test_ideal_scan_gives_unity(self):
        taus = np.linspace(-12, 12, 61)
        fit = bp.hom_visibility(self.scan(1.0, 3.15, taus, scale=1e4))
        assert fit.visibility_raw == pytest.approx(1.0, abs=1e-6)
        assert fit.coherence_time_ps == pytest.approx(3.15, abs=1e-6)

    def test_background_pair_reproduces_quoted_values(self):
        # additive accidentals with b chosen so raw = 92.4% while the
        # subtracted visibility recovers 96.9%
        v_true = 0.969
        b = 0.5 * (v_true / 0.924 - 1.0)
        taus = np.linspace(-12, 12, 61)
        scale = 1e5
        fit = bp.hom_visibility(self.scan(v_true, 3.15, taus, scale=scale,
                                          background=b),
                                background=scale * b)
        assert fit.visibility_raw == pytest.approx(0.924, abs=1e-3)
        assert fit.visibility_subtracted == pytest.approx(0.969, abs=1e-3)

    def test_poisson_recovery_within_tolerance(self):
        # oracle: the noise-free analytic curve with V = 0.9
        rng = np.random.default_rng(42)
        taus = np.linspace(-12, 12, 41)
        clean = self.scan(0.9, 3.15, taus, scale=2e4)  # wings at 1e4/point
        noisy = [(t, rng.poisson(v)) for t, v in clean]
        fit = bp.hom_visibility(noisy)
        assert fit.visibility_raw == pytest.approx(0.9, abs=0.01)

    def test_degenerate_scan_raises(self):
        with pytest.raises(ValueError):
            bp.hom_visibility([(0.0, 5.0), (0.1, 5.0), (0.2, 5.0), (0.3, 5.0)])


class TestReversibility:
    def test_twice_swapped_bell_states_return(self):
        ch = ideal_chip_channel()
        for label in bp.BellLabel:
            st = bp.prepare_bell(label, 1.0)
            out = bp.apply_chip_both(bp.apply_chip_both(st, ch), ch)
            rho, _ = qc.heralded_normalize(out.joint)
            blk, w = bp.conditional_polarization(rho, (0, 1))
            assert w == pytest.approx(1.0, abs=1e-12)
            vec = bp.bell_state_vector(label)
            f = np.real(vec.conj() @ blk @ vec)
            assert f == pytest.approx(1.0, abs=1e-10)


class TestFiberLink:
    def test_compensation_inverts_forward(self):
        fwd, comp = bp.fiber_link(seed=11)
        total = comp.kraus[0] @ fwd.kraus[0]
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)

    def test_deterministic_by_seed(self):
        a1, _ = bp.fiber_link(seed=3)
        a2, _ = bp.fiber_link(seed=3)
        b, _ = bp.fiber_link(seed=4)
        assert np.array_equal(a1.kraus[0], a2.kraus[0])
        assert not np.allclose(a1.kraus[0], b.kraus[0])

    def test_residual_angle_leaves_rotation(self):
        fwd, comp = bp.fiber_link(seed=5, residual_angle_rad=0.1)
        total = comp.kraus[0] @ fwd.kraus[0]
        # polarization block is a rotation by 0.1 rad
        blk = total[0:2, 0:2]
        assert blk[0, 0].real == pytest.approx(np.cos(0.1), abs=1e-12)
