import math

import numpy as np
import pytest

from swapsim import devices as dv
from swapsim import qcore as qc
from swapsim.config import ChipConfig

from oracles import apply_channel, compose_channels, density


def basis_rho(idx):
    v = np.zeros(4, dtype=complex)
    v[idx] = 1.0
    return density(np.outer(v, v.conj()))


def ideal_chip():
    return ChipConfig().build()


def through(chip, rho):
    """One state through the chip, read off its superoperator."""
    return density((chip.superoperator @ rho.reshape(16)).reshape(4, 4))


def in_frame(rho, frame):
    return density(dv.logical_frame_stack(rho, frame))


def calibrated_chip():
    return ChipConfig(pcnot_extinction_db=18.0, mcnot_extinction_db=20.0,
                      pcnot_loss_imbalance_db=0.45, mcnot_loss_db_t=1.0).build()


class TestErToLeakage:
    def test_18_db(self):
        assert dv.er_to_leakage(18.0) == pytest.approx(0.015849, abs=1e-6)

    def test_20_db(self):
        assert dv.er_to_leakage(20.0) == pytest.approx(0.01, abs=1e-12)

    def test_unset_is_zero(self):
        assert dv.er_to_leakage(math.inf) == 0.0
        assert dv.er_to_leakage(None) == 0.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            dv.er_to_leakage(0.0)


class TestPcnot:
    def test_ideal_v_crosses(self):
        ch = dv.pcnot_channel()
        out = apply_channel(ch, basis_rho(1))  # |TV>
        np.testing.assert_allclose(np.diag(out).real, [0, 0, 0, 1], atol=1e-12)

    def test_ideal_h_stays(self):
        ch = dv.pcnot_channel()
        out = apply_channel(ch, basis_rho(0))  # |TH>
        np.testing.assert_allclose(np.diag(out).real, [1, 0, 0, 0], atol=1e-12)

    def test_leakage_probability_at_18db(self):
        ch = dv.pcnot_channel(extinction=18.0)
        out = apply_channel(ch, basis_rho(1))
        stay = out[1, 1].real  # |TV> stays in T
        assert stay == pytest.approx(10 ** (-1.8), abs=1e-12)

    def test_unitary_at_finite_er(self):
        ch = dv.pcnot_channel(extinction=18.0)
        k = ch.kraus[0]
        np.testing.assert_allclose(k.conj().T @ k, np.eye(4), atol=1e-12)


class TestMcnot:
    def test_ideal_flips_top_polarization(self):
        ch = dv.mcnot_channel()
        out = apply_channel(ch, basis_rho(0))  # |TH> -> |TV|
        np.testing.assert_allclose(np.diag(out).real, [0, 1, 0, 0], atol=1e-12)

    def test_bottom_channel_untouched(self):
        ch = dv.mcnot_channel()
        out = apply_channel(ch, basis_rho(2))  # |BH>
        np.testing.assert_allclose(np.diag(out).real, [0, 0, 1, 0], atol=1e-12)

    def test_residual_population_at_20db(self):
        ch = dv.mcnot_channel(extinction=20.0)
        out = apply_channel(ch, basis_rho(0))
        assert out[0, 0].real == pytest.approx(0.01, abs=1e-12)

    def test_unitary_at_finite_er_without_loss(self):
        ch = dv.mcnot_channel(extinction=20.0)
        k = ch.kraus[0]
        np.testing.assert_allclose(k.conj().T @ k, np.eye(4), atol=1e-12)

    def test_channel_resolved_loss(self):
        ch = dv.mcnot_channel(loss=1.0)
        out_t = apply_channel(ch, basis_rho(0))
        out_b = apply_channel(ch, basis_rho(2))
        assert np.trace(out_t).real == pytest.approx(10 ** (-0.1), abs=1e-12)
        assert np.trace(out_b).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("make", [dv.pcnot_channel, dv.mcnot_channel])
@pytest.mark.parametrize("depol", [1.5, -0.2])
def test_depol_out_of_range_rejected(make, depol):
    # a negative rate is as invalid as one above 1, not a silent no-op
    with pytest.raises(ValueError, match=r"^depol must lie in \[0, 1\]$"):
        make(depol=depol)


class TestWaveplates:
    def test_hwp_at_pi8_rotates_h_to_d(self):
        j = dv.waveplate_jones("hwp", math.pi / 8)
        out = j @ qc.ket2("H")
        np.testing.assert_allclose(out, qc.ket2("D"), atol=1e-12)

    def test_hwp_at_zero_flips_v_phase(self):
        j = dv.waveplate_jones("hwp", 0.0)
        out = j @ qc.ket2("V")
        np.testing.assert_allclose(out, -qc.ket2("V"), atol=1e-12)

    def test_qwp_at_pi4_makes_circular(self):
        j = dv.waveplate_jones("qwp", math.pi / 4)
        out = j @ qc.ket2("H")
        target = qc.ket2("R")  # (|H> + i|V>)/sqrt(2)
        overlap = abs(np.vdot(target, out))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_unitarity(self):
        for kind in ("hwp", "qwp"):
            for theta in (0.0, 0.3, 1.1):
                j = dv.waveplate_jones(kind, theta)
                np.testing.assert_allclose(j.conj().T @ j, np.eye(2), atol=1e-12)


class TestPhaseV:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(dv.phase_v(0.0), np.eye(2), atol=1e-15)

    def test_pi_turns_d_into_a(self):
        out = dv.phase_v(math.pi) @ qc.ket2("D")
        np.testing.assert_allclose(out, qc.ket2("A"), atol=1e-12)

    def test_half_pi_turns_d_circular(self):
        out = dv.phase_v(math.pi / 2) @ qc.ket2("D")
        assert abs(np.vdot(qc.ket2("R"), out)) == pytest.approx(1.0, abs=1e-12)


class TestPolarizer:
    def test_aligned_passes(self):
        rho = density(np.diag([1.0, 0.0]).astype(complex))
        out = apply_channel(dv.polarizer(0.0), rho)
        assert np.trace(out).real == pytest.approx(1.0)

    def test_crossed_blocks(self):
        rho = density(np.diag([1.0, 0.0]).astype(complex))
        out = apply_channel(dv.polarizer(math.pi / 2), rho)
        assert np.trace(out).real == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_halves(self):
        rho = density(np.diag([1.0, 0.0]).astype(complex))
        out = apply_channel(dv.polarizer(math.pi / 4), rho)
        assert np.trace(out).real == pytest.approx(0.5, abs=1e-12)


class TestMziProjector:
    def survival(self, setting, state_label):
        v = qc.ket2(state_label)
        rho = density(np.outer(v, v.conj()))
        return np.trace(apply_channel(dv.mzi_projector(setting), rho)).real

    def test_t_setting_on_t(self):
        assert self.survival("0", "T") == pytest.approx(1.0, abs=1e-12)

    def test_plus_setting_on_t(self):
        assert self.survival("+", "T") == pytest.approx(0.5, abs=1e-12)

    def test_plus_i_setting_on_plus_i(self):
        assert self.survival("i", "i") == pytest.approx(1.0, abs=1e-12)

    def test_all_settings_select_their_state(self):
        for lbl in ("0", "1", "+", "-", "i", "-i"):
            assert self.survival(lbl, lbl) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_state_is_blocked(self):
        for lbl, ortho in (("0", "1"), ("1", "0"), ("+", "-"), ("-", "+"), ("i", "-i"),
                           ("-i", "i")):
            assert self.survival(lbl, ortho) == pytest.approx(0.0, abs=1e-12)
        assert len(dv.mzi_projector("+").kraus) == 1


class TestFacet:
    def test_no_loss_is_identity(self):
        ch = dv.facet_channel(0.0, 0.0)
        np.testing.assert_allclose(ch.kraus[0], np.eye(4), atol=1e-15)

    def test_v_to_h_survival_ratio(self):
        ch = dv.facet_channel(0.0, 0.9)
        out_h = apply_channel(ch, basis_rho(0))
        out_v = apply_channel(ch, basis_rho(1))
        ratio = np.trace(out_v).real / np.trace(out_h).real
        assert ratio == pytest.approx(10 ** (-0.09), abs=1e-9)
        assert ratio == pytest.approx(0.813, abs=5e-4)

    def test_three_db_survival(self):
        ch = dv.facet_channel(3.0, 3.0)
        out = apply_channel(ch, basis_rho(0))
        assert np.trace(out).real == pytest.approx(0.501, abs=5e-4)

    def test_crosstalk_stays_physical(self):
        ch = dv.facet_channel(0.0, 0.0, xtalk=0.1)
        out = apply_channel(ch, basis_rho(0))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert out[2, 2].real == pytest.approx(0.01, abs=1e-12)


class TestSwapChip:
    def test_ideal_matches_xx_swap_exactly(self):
        u = dv.ideal_swap_unitary()
        assert np.linalg.norm(ideal_chip().superoperator - np.kron(u, u.conj())) <= 1e-10

    def test_ideal_th_to_bv(self):
        out = through(ideal_chip(), basis_rho(0))
        np.testing.assert_allclose(np.diag(out).real, [0, 0, 0, 1], atol=1e-12)

    def test_ideal_tv_stays_up_to_phase(self):
        # oracle: direct product of the three ideal stage matrices
        pc = dv.pcnot_channel().kraus[0]
        mc = dv.mcnot_channel().kraus[0]
        product = pc @ mc @ pc
        col = product[:, 1]
        assert abs(col[1]) == pytest.approx(1.0, abs=1e-12)
        out = through(ideal_chip(), basis_rho(1))
        assert out[1, 1].real == pytest.approx(1.0, abs=1e-12)

    def test_phase_coherence_transfer(self):
        # |T> (x) (|H> + e^{i phi}|V>)/sqrt(2) -> |V> (x) (|B> + e^{i(phi+delta)}|T>)
        u = compose_channels(*ideal_chip().stages).kraus[0]
        deltas = []
        for phi in (0.3, 1.2, 2.5):
            pol = (qc.ket2("H") + np.exp(1j * phi) * qc.ket2("V")) / np.sqrt(2)
            vin = np.kron(qc.ket2("T"), pol)
            vout = u @ vin
            amp_b = vout[3]  # |BV>
            amp_t = vout[1]  # |TV>
            assert abs(abs(amp_b) - 1 / np.sqrt(2)) < 1e-12
            assert abs(abs(amp_t) - 1 / np.sqrt(2)) < 1e-12
            deltas.append(np.angle(amp_t / amp_b) - phi)
        spread = np.ptp(np.unwrap(deltas))
        assert spread < 1e-10  # constant offset delta

    def test_composed_is_trace_nonincreasing(self):
        k = compose_channels(*calibrated_chip().stages).kraus[0]
        evals = np.linalg.eigvalsh(k.conj().T @ k)
        assert evals.max() <= 1.0 + 1e-10


class TestLogicalFrame:
    def test_relabel_recovers_input(self):
        out = through(ideal_chip(), basis_rho(0))
        rel = in_frame(out, "relabeled")
        np.testing.assert_allclose(np.diag(rel).real, [1, 0, 0, 0], atol=1e-12)

    def test_raw_untouched(self):
        out = through(ideal_chip(), basis_rho(0))
        raw = in_frame(out, "raw")
        np.testing.assert_allclose(raw, out)

    def test_relabel_twice_is_identity(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = density((a @ a.conj().T) / np.trace(a @ a.conj().T).real)
        twice = in_frame(in_frame(rho, "relabeled"), "relabeled")
        np.testing.assert_allclose(twice, rho, atol=1e-14)

    @pytest.mark.parametrize("frame", ["RELABELED", "Raw"])
    def test_a_frame_has_one_spelling(self, frame):
        # the config and the ideal truth tables know only the lowercase names
        with pytest.raises(ValueError, match="unknown logical frame"):
            dv.logical_frame_stack(basis_rho(0), frame)

    def test_relabeled_chip_equals_pure_swap_on_16_inputs(self):
        u = compose_channels(*ideal_chip().stages).kraus[0]
        swap = dv.swap_unitary()
        states = []
        for i in range(4):
            v = np.zeros(4, dtype=complex)
            v[i] = 1
            states.append(v)
        for i in range(4):
            for j in range(i + 1, 4):
                a = np.zeros(4, dtype=complex)
                a[i] = 1 / np.sqrt(2)
                a[j] = 1 / np.sqrt(2)
                states.append(a)
                b = np.zeros(4, dtype=complex)
                b[i] = 1 / np.sqrt(2)
                b[j] = 1j / np.sqrt(2)
                states.append(b)
        assert len(states) >= 16
        xx = np.kron(qc.PAULI_X, qc.PAULI_X)
        for v in states:
            got = xx @ (u @ v)
            want = swap @ v
            assert abs(abs(np.vdot(want, got)) - 1.0) < 1e-12


class TestMonotonicity:
    def test_truth_table_fidelity_nonincreasing_in_each_leakage(self):
        from swapsim.experiments import truth_table_fidelity_exact

        eps_grid = [0.0, 0.005, 0.01, 0.0158]

        def er_db(eps):
            return -10 * math.log10(eps) if eps > 0 else None

        def chip_with(eps_pc=0.0, eps_mc=0.0):
            return ChipConfig(pcnot_extinction_db=er_db(eps_pc),
                              mcnot_extinction_db=er_db(eps_mc)).build()

        for axis in ("pc", "mc"):
            fids = []
            for eps in eps_grid:
                chip = chip_with(eps_pc=eps) if axis == "pc" else chip_with(eps_mc=eps)
                fids.append(truth_table_fidelity_exact(chip))
            for a, b in zip(fids, fids[1:]):
                assert b <= a + 1e-9


def test_chip_checks_its_superoperator_is_trace_nonincreasing():
    # no product of valid stages exceeds the bound but by rounding, so the
    # stage's superoperator is scaled behind its back: the chip's check
    # reads the composed superoperator, not the stages' Kraus operators
    stage = dv.facet_channel(0.0, 0.0)
    stage.__dict__["superoperator"] = 1.5 * stage.superoperator
    with pytest.raises(ValueError, match=r"^channel is trace-increasing: max eig of "
                                         r"sum K\^dag K = 1\.500000$"):
        dv.ChipModel((dv.facet_channel(0.0, 0.0), stage))
