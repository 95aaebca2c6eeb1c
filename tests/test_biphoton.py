import numpy as np
import pytest

from swapsim import biphoton as bp
from swapsim import experiments as ex
from swapsim import qcore as qc
from swapsim.config import ChipConfig


def ideal_chip_superoperator():
    return ChipConfig().build().superoperator


def werner(label, visibility):
    """The (16, 16) joint state of one Bell label, spatial part |T_S B_I>."""
    return bp.werner_joint_stack([label], visibility)[0]


def bell_fidelity(joint, label):
    """<Bell|blk|Bell> of the (T_S, B_I) polarization block of `joint`,
    with the sector probability."""
    blk, w = bp.sector_block_stack(joint[None], (0, 1))
    vec = bp.bell_state_vector(label)
    return np.real(vec.conj() @ blk[0] @ vec), w[0]


class TestSpdc:
    def test_state_structure(self):
        # the HOM runner's bare source pair, no polarization controller
        joint = ex._hom_joint(None, "source", "none")
        diag = np.diag(joint).real
        # |T_S V_S> (x) |B_I H_I> = index (0,1,1,0) -> 6
        assert diag[6] == pytest.approx(1.0)


class TestPrepareBell:
    def test_pure_psi_plus(self):
        f, w = bell_fidelity(werner(bp.BellLabel.PSI_PLUS, 1.0), bp.BellLabel.PSI_PLUS)
        assert w == pytest.approx(1.0)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_white_noise_limit(self):
        f, _ = bell_fidelity(werner(bp.BellLabel.PSI_PLUS, 0.0), bp.BellLabel.PSI_PLUS)
        assert f == pytest.approx(0.25, abs=1e-12)

    def test_werner_algebra(self):
        f, _ = bell_fidelity(werner(bp.BellLabel.PSI_PLUS, 0.9), bp.BellLabel.PSI_PLUS)
        assert f == pytest.approx(0.925, abs=1e-12)


class TestApplyLocal:
    # the same local map on each photon, through the two-photon stack kernel
    def test_identity_leaves_state(self):
        joint = werner(bp.BellLabel.PHI_MINUS, 0.8)
        out = bp.apply_chip_both_stack(joint[None], np.eye(16))
        np.testing.assert_allclose(out[0], joint, atol=1e-14)

    def test_bell_through_ideal_chip_gives_spatial_entanglement(self):
        rho = bp.apply_chip_both_stack(werner(bp.BellLabel.PSI_PLUS, 1.0)[None],
                                       ideal_chip_superoperator())[0]
        # expect (|T_S B_I> + |B_S T_I>)/sqrt(2) on channels with fixed pols
        # = (|TV;BH> + |BV;TH>)/sqrt(2) in (m_s p_s m_i p_i) indexing
        i1 = 0b0110  # T V B H
        i2 = 0b1100  # B V T H
        assert rho[i1, i1].real == pytest.approx(0.5, abs=1e-12)
        assert rho[i2, i2].real == pytest.approx(0.5, abs=1e-12)
        assert abs(rho[i1, i2]) == pytest.approx(0.5, abs=1e-12)

    def test_six_db_loss_scales_trace(self):
        # 3 dB on each photon
        lossy = qc.QuantumChannel(4, 4, (10 ** (-0.15) * np.eye(4),))
        out = bp.apply_chip_both_stack(werner(bp.BellLabel.PSI_PLUS, 0.9)[None],
                                       lossy.superoperator)
        assert np.trace(out[0]).real == pytest.approx(10 ** (-0.6), abs=1e-12)


def source_pair(aligned=True):
    """The type-II pair |T_S V_S> (x) |B_I H_I> as a (16, 16) array; with
    `aligned` the idler's polarization is flipped to V, so the photons are
    identical at the combiner."""
    v = np.kron(qc.ket4("T", "V"), qc.ket4("B", "V" if aligned else "H"))
    return np.outer(v, v.conj())


class TestSpectralOverlap:
    def test_unity_at_zero(self):
        assert bp.spectral_overlap(0.0, 3.15) == pytest.approx(1.0)

    def test_gaussian_half_width(self):
        tc = 3.15
        tau = tc * np.sqrt(2 * np.log(2))
        assert bp.spectral_overlap(tau, tc) == pytest.approx(0.5, abs=1e-12)

    def test_dip_fwhm_matches_numeric_scan(self):
        # oracle: numeric scan of the coincidence dip of an ideal pair
        tc = 3.15
        taus = np.linspace(0.0, 12.0, 20001)
        p = bp.hom_dip(bp.exchange_overlap(source_pair()), taus, tc)
        half = 0.25  # dip from 0 to 0.5: half depth
        idx = np.argmin(np.abs(p - half))
        fwhm_numeric = 2.0 * taus[idx]
        assert fwhm_numeric == pytest.approx(2.0 * np.sqrt(2 * np.log(2)) * tc, abs=2e-3)

    def test_monotone_decreasing(self):
        taus = np.linspace(0, 10, 50)
        vals = [bp.spectral_overlap(t, 2.0) for t in taus]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


class TestHomCoincidence:
    @staticmethod
    def coincidence(joint, tau):
        return bp.hom_dip(bp.exchange_overlap(joint), tau, 3.15)

    def test_identical_photons_bunch_perfectly(self):
        assert self.coincidence(source_pair(), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_large_delay_gives_half(self):
        assert self.coincidence(source_pair(), 1e6) == pytest.approx(0.5, abs=1e-12)

    def test_orthogonal_polarizations_give_half(self):
        # V vs H, no alignment
        assert self.coincidence(source_pair(aligned=False), 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_even_in_tau(self):
        for tau in (0.7, 1.9, 3.4):
            assert self.coincidence(source_pair(), tau) == pytest.approx(
                self.coincidence(source_pair(), -tau), abs=1e-12)


def hom_fit(scan, background=0.0):
    """`hom_fit_stack` of one scan of (tau, counts) points, as floats."""
    taus, vals = np.array(scan, dtype=float).T
    fit = bp.hom_fit_stack(taus, vals[None], background)
    return bp.HomFit(*(v[0].item() for v in fit))


class TestHomVisibility:
    def scan(self, overlap, tc, taus, scale=1.0, background=0.0):
        return [(t, scale * (0.5 * (1 - overlap * np.exp(-t * t / (2 * tc * tc)))
                             + background)) for t in taus]

    def test_ideal_scan_gives_unity(self):
        taus = np.linspace(-12, 12, 61)
        fit = hom_fit(self.scan(1.0, 3.15, taus, scale=1e4))
        assert fit.visibility_raw == pytest.approx(1.0, abs=1e-6)
        assert fit.coherence_time_ps == pytest.approx(3.15, abs=1e-6)

    def test_background_pair_reproduces_quoted_values(self):
        # additive accidentals with b chosen so raw = 92.4% while the
        # subtracted visibility recovers 96.9%
        v_true = 0.969
        b = 0.5 * (v_true / 0.924 - 1.0)
        taus = np.linspace(-12, 12, 61)
        scale = 1e5
        fit = hom_fit(self.scan(v_true, 3.15, taus, scale=scale, background=b),
                      background=scale * b)
        assert fit.visibility_raw == pytest.approx(0.924, abs=1e-3)
        assert fit.visibility_subtracted == pytest.approx(0.969, abs=1e-3)

    def test_poisson_recovery_within_tolerance(self):
        # oracle: the noise-free analytic curve with V = 0.9
        rng = np.random.default_rng(42)
        taus = np.linspace(-12, 12, 41)
        clean = self.scan(0.9, 3.15, taus, scale=2e4)  # wings at 1e4/point
        noisy = [(t, rng.poisson(v)) for t, v in clean]
        fit = hom_fit(noisy)
        assert fit.visibility_raw == pytest.approx(0.9, abs=0.01)

    def test_degenerate_scan_raises(self):
        with pytest.raises(ValueError):
            hom_fit([(0.0, 5.0), (0.1, 5.0), (0.2, 5.0), (0.3, 5.0)])

    def test_dip_at_scan_edge(self):
        # only four points see the dip; the fit must not drift past the edge
        taus = np.linspace(-12, 12, 49)
        fit = hom_fit([(t, 100.0 - 60.0 * np.exp(-(t - 12.0) ** 2 / 0.5)) for t in taus])
        assert fit.converged
        assert fit.visibility_raw == pytest.approx(0.6, abs=1e-9)
        assert fit.coherence_time_ps == pytest.approx(0.5, abs=1e-9)
        assert fit.center_ps == pytest.approx(12.0, abs=1e-9)

    def test_dip_narrower_than_spacing_not_converged(self):
        # one low point on a flat scan fits a ~0.06 ps dip, below the 0.5 ps
        # delay spacing: the scan does not resolve it
        taus = np.linspace(-12, 12, 49)
        vals = np.full(49, 100.0)
        vals[24] = 50.0
        fit = hom_fit(list(zip(taus, vals)))
        assert fit.coherence_time_ps < 0.5
        assert not fit.converged

    def test_default_scan_converges(self):
        taus = np.linspace(-12, 12, 49)
        fit = hom_fit(self.scan(0.96, 3.15, taus, scale=1e4))
        assert fit.converged
        assert fit.coherence_time_ps == pytest.approx(3.15, abs=1e-6)

    def test_matches_least_squares_oracle(self):
        # oracle: scipy's iterative fit of the same weighted Gaussian-dip
        # residual, started from the true parameters
        from scipy.optimize import least_squares

        rng = np.random.default_rng(np.random.SeedSequence([7070]))
        taus = np.linspace(-12, 12, 49)
        for _ in range(100):
            wing, bg = rng.uniform(200, 2e4), rng.uniform(0.0, 0.05)
            depth = wing * rng.uniform(0.5, 0.99)
            tc, center = rng.uniform(1.5, 4.5), rng.uniform(-2, 2)
            base = wing * (1 + bg)
            vals = rng.poisson(base - depth * np.exp(-(taus - center) ** 2 / (2 * tc**2)))
            w = 1.0 / np.sqrt(np.maximum(vals, 1.0))

            def resid(p):
                return (p[0] - p[1] * np.exp(-(taus - p[2]) ** 2 / (2 * p[3] ** 2))
                        - vals) * w

            ref = least_squares(resid, x0=[base, depth, center, tc],
                                xtol=1e-14, ftol=1e-14, gtol=1e-14)
            r_base, r_depth, r_center, r_width = ref.x
            fit = hom_fit(list(zip(taus, vals)), background=wing * bg)
            assert fit.converged
            assert fit.visibility_raw == pytest.approx(r_depth / r_base, abs=1e-6)
            assert fit.visibility_subtracted == pytest.approx(
                r_depth / (r_base - wing * bg), abs=1e-6)
            assert fit.coherence_time_ps == pytest.approx(abs(r_width), abs=1e-6)
            assert fit.center_ps == pytest.approx(r_center, abs=1e-6)


class TestReversibility:
    def test_twice_swapped_bell_states_return(self):
        s = ideal_chip_superoperator()
        joints = bp.werner_joint_stack(list(bp.BellLabel), 1.0)
        out = bp.apply_chip_both_stack(bp.apply_chip_both_stack(joints, s), s)
        rho, _ = qc.heralded_normalize_stack(out)
        for joint, label in zip(rho, bp.BellLabel):
            f, w = bell_fidelity(joint, label)
            assert w == pytest.approx(1.0, abs=1e-12)
            assert f == pytest.approx(1.0, abs=1e-10)
