import numpy as np
import pytest

from swapsim import experiments as ex
from swapsim.biphoton import BellLabel
from swapsim.config import ChipConfig, ExperimentConfig


@pytest.fixture(scope="module")
def calibrated():
    return ExperimentConfig.measured_chip(n_trials=8, rng_seed=5)


@pytest.fixture(scope="module")
def ideal():
    return ExperimentConfig.ideal(n_trials=4, rng_seed=5)


class TestPoissonCounts:
    def test_zero_rate(self):
        for seed in range(5):
            assert ex.poisson_counts(0.0, 100.0, seed) == 0

    def test_deterministic(self):
        a = [ex.poisson_counts(625.0, 1.0, ex.derive_seed(9, "x", k)) for k in range(20)]
        b = [ex.poisson_counts(625.0, 1.0, ex.derive_seed(9, "x", k)) for k in range(20)]
        assert a == b

    def test_moments(self):
        # oracle: Poisson moment identities, mean 625, sigma_mean = 25/100
        draws = [ex.poisson_counts(625.0, 1.0, ex.derive_seed(1, "m", k))
                 for k in range(10000)]
        mean = np.mean(draws)
        assert abs(mean - 625.0) <= 3.0 * 25.0 / 100.0
        assert abs(np.var(draws) - 625.0) <= 4.0 * 625.0 * np.sqrt(2.0 / 10000.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ex.poisson_counts(-1.0, 1.0, 0)

    def test_derived_seeds_distinct(self):
        seqs = {tuple(ex.derive_seed(3, "a", k).entropy) for k in range(100)}
        assert len(seqs) == 100


class TestTruthTable:
    def test_ideal_chip_exact_fidelity_one(self, ideal):
        r = ex.run_truth_table(ideal)
        assert r.payload["fidelity_exact"] == pytest.approx(1.0, abs=1e-12)

    def test_calibrated_bracket(self, calibrated):
        r = ex.run_truth_table(calibrated)
        assert 0.95 <= r.payload["fidelity_exact"] <= 0.995

    def test_monte_carlo_tracks_exact(self, calibrated):
        r = ex.run_truth_table(calibrated)
        gap = abs(r.payload["fidelity_mc_mean"] - r.payload["fidelity_exact"])
        assert gap <= 4 * max(r.payload["fidelity_mc_stderr"], 1e-4)

    def test_determinism(self, calibrated):
        a = ex.run_truth_table(calibrated)
        b = ex.run_truth_table(calibrated)
        assert a.canonical_payload() == b.canonical_payload()
        assert a.payload_sha256() == b.payload_sha256()

    def test_noiseless_value_independent_of_rate_and_time(self, calibrated):
        from dataclasses import replace

        alt = replace(calibrated, pair_rate_hz=10.0, integration_time_s=1.0,
                      n_trials=1)
        a = ex.run_truth_table(calibrated)
        b = ex.run_truth_table(alt)
        assert a.payload["fidelity_exact"] == b.payload["fidelity_exact"]


class TestFringe:
    def test_ideal_visibility_unity(self, ideal):
        r = ex.run_fringe_scan(ideal)
        assert r.payload["visibility_exact_fit"] == pytest.approx(1.0, abs=1e-6)

    def test_background_raw_vs_subtracted(self):
        # calibrate the accidental rate so the raw visibility reads 98.7%
        cfg = ExperimentConfig.measured_chip(n_trials=10, rng_seed=3,
                                                pair_rate_hz=50000.0)
        r0 = ex.run_fringe_scan(cfg)
        v_true = r0.payload["visibility_exact"]
        mean_p = float(np.mean(r0.payload["exact_probabilities"]))
        bg_rate = cfg.pair_rate_hz * mean_p * (v_true / 0.987 - 1.0)
        from dataclasses import replace

        cfg = replace(cfg, background_rate_hz=bg_rate)
        r = ex.run_fringe_scan(cfg)
        assert r.payload["visibility_raw_mean"] == pytest.approx(0.987, abs=0.004)
        assert r.payload["visibility_subtracted_mean"] >= 0.99

    def test_b_port_supported(self, calibrated):
        from dataclasses import replace

        r = ex.run_fringe_scan(replace(calibrated, fringe_port="B", n_trials=2))
        assert r.payload["visibility_exact"] > 0.98


class TestHom:
    def test_source_only_perfect_dip(self, ideal):
        from dataclasses import replace

        cfg = replace(ideal, hom_input="source", fpc_mode="ideal")
        state = ex._hom_state(cfg)
        from swapsim import biphoton as bp

        assert bp.hom_coincidence(state, 0.0) <= 1e-9

    def test_coherence_time_recovery(self, calibrated):
        from dataclasses import replace

        cfg = replace(calibrated, hom_input="source", n_trials=6,
                      pair_rate_hz=200000.0)
        r = ex.run_hom_scan(cfg)
        tc = r.payload["coherence_time_fit_mean_ps"]
        assert abs(tc - 3.15) / 3.15 <= 0.01

    def test_post_chip_visibility_bracket(self, calibrated):
        r = ex.run_hom_scan(calibrated)
        assert 0.93 <= r.payload["visibility_subtracted_exact"] <= 0.99

    def test_orthogonal_fpc_none_gives_no_dip(self, ideal):
        from dataclasses import replace

        cfg = replace(ideal, hom_input="source", fpc_mode="none")
        state = ex._hom_state(cfg)
        from swapsim import biphoton as bp

        assert bp.hom_coincidence(state, 0.0) == pytest.approx(0.5, abs=1e-12)


class TestBell:
    def test_ideal_pipeline_unity(self, ideal):
        from dataclasses import replace

        cfg = replace(ideal, n_trials=1,
                      source=ideal.source.__class__(bell_visibility=1.0))
        for label in BellLabel:
            rho, _ = ex._bell_final_polarization(cfg, label)
            from swapsim import biphoton as bp
            from swapsim import qcore as qc

            vec = bp.bell_state_vector(label)
            ideal_dm = qc.DensityMatrix(4, np.outer(vec, vec.conj()))
            assert qc.uhlmann_fidelity(rho, ideal_dm) == pytest.approx(1.0, abs=1e-9)

    def test_calibrated_average_bracket(self, calibrated):
        from dataclasses import replace

        cfg = replace(calibrated, n_trials=1)
        fids = []
        for label in BellLabel:
            r = ex.run_bell_distribution(cfg, label)
            fids.append(r.payload["fidelity_exact"])
        assert 0.88 <= float(np.mean(fids)) <= 0.95

    def test_second_chip_truth_table_reported(self, calibrated):
        from dataclasses import replace

        r = ex.run_bell_distribution(replace(calibrated, n_trials=1), BellLabel.PSI_PLUS)
        assert 0.9 < r.payload["second_chip_truth_table_fidelity"] < 1.0


class TestProcessTomography:
    def test_per_input_brackets(self, calibrated):
        r = ex.run_process_tomography(calibrated)
        for v in r.payload["per_spatial_input"].values():
            assert 0.92 <= v["process_fidelity"] <= 0.99
            assert 0.88 <= v["process_purity"] <= 0.97

    def test_ideal_chip_identity_process(self, ideal):
        r = ex.run_process_tomography(ideal)
        for v in r.payload["per_spatial_input"].values():
            assert v["process_fidelity"] == pytest.approx(1.0, abs=1e-9)
            assert v["process_purity"] == pytest.approx(1.0, abs=1e-9)

    def test_two_qubit_ideal_chi(self, ideal):
        r = ex.run_process_tomography_2q(ideal)
        assert r.payload["process_fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert r.payload["process_purity"] == pytest.approx(1.0, abs=1e-9)


class TestStateTomography:
    def test_exact_reconstruction_quality(self, calibrated):
        r = ex.run_state_tomography(calibrated, "T", "D")
        assert r.payload["fidelity_exact"] > 0.95
        assert abs(r.payload["fidelity_mc_mean"] - r.payload["fidelity_exact"]) < 0.02


class TestErrorBudget:
    def test_near_unity_at_35_db(self, calibrated):
        r = ex.run_error_budget(calibrated, {
            "pcnot_extinction_db": [35.0], "mcnot_extinction_db": [35.0]})
        # both axes move one knob at a time; combine manually
        chip = ChipConfig(pcnot_extinction_db=35.0, mcnot_extinction_db=35.0,
                          mcnot_loss_db_t=1.0)
        cfg = ExperimentConfig(chips=(chip,), n_trials=1)
        f = ex.truth_table_fidelity_exact(cfg.chip(0), "raw")
        assert f >= 0.995

    def test_imbalance_marginal_cost(self, calibrated):
        r = ex.run_error_budget(calibrated, {"loss_imbalance_db": [0.0, 0.45]})
        rows = {(g["axis"], g["value"]): g["truth_table_fidelity"]
                for g in r.payload["grid"]}
        cost = rows[("loss_imbalance_db", 0.0)] - rows[("loss_imbalance_db", 0.45)]
        assert 0.001 <= cost <= 0.009

    def test_monotone_in_each_axis(self):
        # sweeps isolate one imperfection at a time on the extinction-ratio
        # baseline; coexisting loss asymmetries can interfere at the 1e-5
        # level otherwise
        base = ChipConfig(pcnot_extinction_db=18.0, mcnot_extinction_db=20.0)
        cfg = ExperimentConfig(chips=(base,), n_trials=1)
        sweep = {
            "loss_imbalance_db": [0.0, 0.2, 0.45, 0.9],
            "mcnot_loss_db_t": [0.0, 0.5, 1.0, 2.0],
            "facet_xtalk": [0.0, 0.05, 0.1],
            "rotation_error_rad": [0.0, 0.05, 0.1],
        }
        r = ex.run_error_budget(cfg, sweep)
        by_axis = {}
        for g in r.payload["grid"]:
            by_axis.setdefault(g["axis"], []).append((g["value"], g["truth_table_fidelity"]))
        for axis, pairs in by_axis.items():
            pairs.sort()
            fids = [f for _, f in pairs]
            assert all(b <= a + 1e-9 for a, b in zip(fids, fids[1:])), axis
        # extinction axes: fidelity should not decrease as ER improves
        r2 = ex.run_error_budget(cfg, {
            "pcnot_extinction_db": [18.0, 24.0, 30.0, 35.0],
            "mcnot_extinction_db": [20.0, 25.0, 30.0, 35.0]})
        by_axis = {}
        for g in r2.payload["grid"]:
            by_axis.setdefault(g["axis"], []).append((g["value"], g["truth_table_fidelity"]))
        for axis, pairs in by_axis.items():
            pairs.sort()
            fids = [f for _, f in pairs]
            assert all(b >= a - 1e-9 for a, b in zip(fids, fids[1:])), axis

    def test_empty_grid_rejected(self, calibrated):
        with pytest.raises(ValueError):
            ex.run_error_budget(calibrated, {})


class TestConvergence:
    def test_mc_estimates_converge_to_exact(self):
        # |estimate - exact| <= 3 stderr for almost all seeds
        hits = 0
        total = 12
        for seed in range(total):
            cfg = ExperimentConfig.measured_chip(n_trials=24, rng_seed=seed,
                                                    pair_rate_hz=20000.0)
            r = ex.run_truth_table(cfg)
            gap = abs(r.payload["fidelity_mc_mean"] - r.payload["fidelity_exact"])
            stderr = r.payload["fidelity_mc_stderr"] / np.sqrt(cfg.n_trials)
            bias_allowance = 3e-4  # residual clipping bias at finite counts
            if gap <= 3 * stderr + bias_allowance:
                hits += 1
        assert hits >= total - 1


class TestBellAllLabels:
    def test_each_chip_compiled_once(self, calibrated, monkeypatch):
        from dataclasses import replace

        from swapsim import netlist as nl

        compiled = []
        compile_chip = nl.compile_chip
        monkeypatch.setattr(nl, "compile_chip",
                            lambda chip: compiled.append(chip) or compile_chip(chip))
        ex.run_bell_distribution(replace(calibrated, n_trials=1))
        assert len(compiled) == 2

    def test_aggregate_matches_single_label_runs(self, calibrated):
        from dataclasses import replace

        cfg = replace(calibrated, n_trials=2)
        agg = ex.run_bell_distribution(cfg)
        assert agg.payload["bell_labels"] == [l.value for l in BellLabel]
        singles = {l.value: ex.run_bell_distribution(cfg, l) for l in BellLabel}
        for lbl, r in singles.items():
            assert agg.payload["fidelity_exact_by_label"][lbl] == r.payload["fidelity_exact"]
            assert agg.payload["fidelity_mc_mean_by_label"][lbl] == r.payload["fidelity_mc_mean"]
            tag = lbl.replace("+", "p").replace("-", "m")
            assert agg.tables[f"density_matrix_{tag}"] == r.tables["density_matrix"]
        assert agg.payload["second_chip_truth_table_fidelity"] == \
            singles["psi+"].payload["second_chip_truth_table_fidelity"]
        assert agg.config_hash == singles["psi+"].config_hash
