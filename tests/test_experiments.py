import functools
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from swapsim import experiments as ex
from swapsim import tomography as tm
from swapsim._memo import MEMOS
from swapsim.biphoton import BellLabel
from swapsim.config import ChipConfig, ConfigError, ExperimentConfig


def _clear_memos():
    """Empty every memo of the registry: a test that counts kernel calls
    runs the exact halves, which a warm process would not run again."""
    for cached in MEMOS.values():
        cached.cache_clear()


@pytest.fixture(scope="module")
def calibrated():
    return ExperimentConfig.measured_chip(n_trials=8, rng_seed=5)


@pytest.fixture(scope="module")
def ideal():
    return ExperimentConfig(n_trials=4, rng_seed=5)


class TestSampleCounts:
    @staticmethod
    def cfg(n_trials=7, seed=9, **kw):
        return ExperimentConfig(n_trials=n_trials, rng_seed=seed, **kw)

    def test_shape(self):
        counts = ex.sample_counts(self.cfg(), ("x",), np.full((4, 3), 0.1), 1.0)
        assert counts.shape == (7, 4, 3)

    def test_zero_mean_gives_zeros(self):
        counts = ex.sample_counts(self.cfg(), ("x",), np.zeros(5), 100.0)
        assert not counts.any()

    def test_negative_mean_rejected(self):
        with pytest.raises(ValueError):
            ex.sample_counts(self.cfg(), ("x",), [0.1, -0.5], 1.0)

    def test_deterministic(self):
        a = ex.sample_counts(self.cfg(), ("x", 3), np.full(20, 0.2), 1.0)
        b = ex.sample_counts(self.cfg(), ("x", 3), np.full(20, 0.2), 1.0)
        assert np.array_equal(a, b)

    def test_paths_give_different_streams(self):
        probs = np.full(20, 0.2)
        a = ex.sample_counts(self.cfg(), ("x", 3), probs, 1.0)
        b = ex.sample_counts(self.cfg(), ("x", 4), probs, 1.0)
        c = ex.sample_counts(self.cfg(), ("y", 3), probs, 1.0)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)

    def test_moments(self):
        # oracle: Poisson moment identities, mean 625, sigma_mean = 25/100
        cfg = self.cfg(n_trials=10000, seed=1, pair_rate_hz=625.0)
        draws = ex.sample_counts(cfg, ("m",), [1.0], 1.0)[:, 0]
        mean = np.mean(draws)
        assert abs(mean - 625.0) <= 3.0 * 25.0 / 100.0
        assert abs(np.var(draws) - 625.0) <= 4.0 * 625.0 * np.sqrt(2.0 / 10000.0)

    def test_first_trial_independent_of_trial_count(self):
        probs = np.linspace(0.0, 1.0, 16).reshape(4, 4)
        one = ex.sample_counts(self.cfg(n_trials=1), ("truth-table",), probs, 10.0)
        seven = ex.sample_counts(self.cfg(n_trials=7), ("truth-table",), probs, 10.0)
        assert np.array_equal(one[0], seven[0])

    def test_derived_seeds_distinct(self):
        seqs = {tuple(ex.derive_seed(3, "a", k).entropy) for k in range(100)}
        assert len(seqs) == 100

    @pytest.mark.parametrize("run, n_calls", [
        (lambda cfg: ex.run_truth_table(replace(cfg, n_trials=100)), 1),
        (lambda cfg: ex.run_bell_distribution(replace(cfg, n_trials=2)), 4),
    ], ids=["truth-table", "bell"])
    def test_one_seed_derivation_per_run(self, calibrated, monkeypatch, run, n_calls):
        paths = []
        derive_seed = ex.derive_seed
        monkeypatch.setattr(ex, "derive_seed",
                            lambda seed, *path: paths.append(path) or derive_seed(seed, *path))
        run(calibrated)
        assert len(paths) == n_calls


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

    def test_noiseless_value_independent_of_rate_and_time(self, calibrated):
        alt = replace(calibrated, pair_rate_hz=10.0, integration_time_s=1.0,
                      n_trials=1)
        a = ex.run_truth_table(calibrated)
        b = ex.run_truth_table(alt)
        assert a.payload["fidelity_exact"] == b.payload["fidelity_exact"]

    def test_total_counts_mean_is_the_mean_over_trials(self, calibrated):
        cfg = replace(calibrated, n_trials=100)
        r = ex.run_truth_table(cfg)
        counts = ex.sample_counts(cfg, ("truth-table",), ex.exact_truth_table(cfg.chip(0)),
                                  cfg.integration_time_s / 16.0)
        total = r.payload["total_counts_mean"]
        assert total != np.sum(r.payload["first_trial_counts"])
        assert total == float(counts.sum(axis=(1, 2)).mean())


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
        cfg = replace(cfg, background_rate_hz=bg_rate)
        r = ex.run_fringe_scan(cfg)
        assert r.payload["visibility_raw_mean"] == pytest.approx(0.987, abs=0.004)
        assert r.payload["visibility_subtracted_mean"] >= 0.99

    def test_b_port_supported(self, calibrated):
        r = ex.run_fringe_scan(replace(calibrated, fringe_port="B", n_trials=2))
        assert r.payload["visibility_exact"] > 0.98


class TestHom:
    @staticmethod
    def zero_delay_coincidence(cfg):
        from swapsim import biphoton as bp

        return bp.hom_dip(bp.exchange_overlap(ex._hom_joint(
            cfg.chip(0).superoperator, cfg.hom_input, cfg.fpc_mode)), 0.0,
                          cfg.source.coherence_time_ps)

    def test_source_only_perfect_dip(self, ideal):
        cfg = replace(ideal, hom_input="source", fpc_mode="ideal")
        assert self.zero_delay_coincidence(cfg) <= 1e-9

    def test_coherence_time_recovery(self, calibrated):
        cfg = replace(calibrated, hom_input="source", n_trials=6,
                      pair_rate_hz=200000.0)
        r = ex.run_hom_scan(cfg)
        tc = r.payload["coherence_time_fit_mean_ps"]
        assert abs(tc - 3.15) / 3.15 <= 0.01

    def test_post_chip_visibility_bracket(self, calibrated):
        r = ex.run_hom_scan(calibrated)
        assert 0.93 <= r.payload["visibility_subtracted_exact"] <= 0.99

    def test_orthogonal_fpc_none_gives_no_dip(self, ideal):
        cfg = replace(ideal, hom_input="source", fpc_mode="none")
        assert self.zero_delay_coincidence(cfg) == pytest.approx(0.5, abs=1e-12)

    def test_no_dip_is_a_config_error_before_sampling(self, monkeypatch):
        # the default config without a polarization controller: the
        # photons' exchange overlap is exactly 0, so there is no dip to fit
        # at any delay count or integration time
        def no_draws(*args):
            raise AssertionError("sampled a scan with no dip")

        monkeypatch.setattr(ex, "sample_counts", no_draws)
        with pytest.raises(ConfigError, match="no two-photon dip to fit"):
            ex.run_hom_scan(ExperimentConfig(fpc_mode="none"))


class TestFitDiagnostics:
    def test_default_fits_converge(self, calibrated):
        for run in (ex.run_hom_scan, ex.run_fringe_scan):
            assert run(calibrated).payload["diagnostics"] == {"fits_not_converged": 0}

    def test_unresolved_dips_are_counted(self, calibrated):
        # 4 ps between delays: the 3.15 ps dip is narrower than the spacing,
        # so no trial's fit converges
        r = ex.run_hom_scan(calibrated, delays_ps=np.linspace(-12.0, 12.0, 7))
        assert r.payload["diagnostics"] == {"fits_not_converged": calibrated.n_trials}


class TestBell:
    def test_ideal_pipeline_unity(self, ideal):
        from oracles import density, uhlmann_fidelity
        from swapsim import biphoton as bp

        cfg = replace(ideal, n_trials=1,
                      source=ideal.source.__class__(bell_visibility=1.0))
        labels = list(BellLabel)
        link = ex._bell_link(cfg.fiber_residual_rad, cfg.chip(0), cfg.chip(1))
        rho, _ = ex._bell_polarization_stack(cfg.source.bell_visibility, labels, link)
        for r, label in zip(rho, labels):
            vec = bp.bell_state_vector(label)
            ideal_dm = density(np.outer(vec, vec.conj()))
            f = uhlmann_fidelity(density(r), ideal_dm)
            assert f == pytest.approx(1.0, abs=1e-9)

    def test_calibrated_average_bracket(self, calibrated):
        cfg = replace(calibrated, n_trials=1)
        fids = []
        for label in BellLabel:
            r = ex.run_bell_distribution(cfg, label)
            fids.append(r.payload["fidelity_exact"])
        assert 0.88 <= float(np.mean(fids)) <= 0.95

    def test_second_chip_truth_table_reported(self, calibrated):
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
        f = ex.truth_table_fidelity_exact(cfg.chip(0))
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
        with pytest.raises(ConfigError):
            ex.run_error_budget(calibrated, {})

    def test_repeated_sweep_compiles_no_chip(self, calibrated, monkeypatch):
        # each distinct chip is compiled once per process: a second sweep of
        # the same config constructs no ChipModel, and it gives the bytes of
        # the first and of a sweep after every memo was cleared
        from swapsim import devices

        first = ex.run_error_budget(calibrated)
        built = []
        post_init = devices.ChipModel.__post_init__
        monkeypatch.setattr(devices.ChipModel, "__post_init__",
                            lambda chip: built.append(chip.label) or post_init(chip))
        second = ex.run_error_budget(calibrated)
        assert built == []
        _clear_memos()
        cold = ex.run_error_budget(calibrated)
        # the baseline and the 19 grid points: 4 points are the baseline chip
        assert len(built) == 16
        for run in (second, cold):
            assert run.canonical_payload() == first.canonical_payload()


class TestMonteCarloSkeleton:
    @pytest.mark.parametrize("run", [
        ex.run_truth_table, ex.run_fringe_scan, ex.run_hom_scan,
        functools.partial(ex.run_bell_distribution, label=BellLabel.PSI_MINUS),
        ex.run_state_tomography,
    ], ids=["truth-table", "fringe", "hom", "bell-psi-", "tomo-state"])
    def test_every_sampling_run_reports_the_same_fields(self, calibrated, monkeypatch, run):
        # one draw per run, whose trial 0 the payload carries as drawn, with
        # the trial count and a diagnostics block of counts
        drawn = []
        sample_counts = ex.sample_counts
        monkeypatch.setattr(ex, "sample_counts",
                            lambda *a: drawn.append(sample_counts(*a)) or drawn[-1])
        payload = run(calibrated).payload
        assert len(drawn) == 1
        assert payload["first_trial_counts"] == drawn[0][0].tolist()
        assert payload["n_trials"] == calibrated.n_trials
        diagnostics = payload["diagnostics"]
        assert isinstance(diagnostics, dict) and diagnostics
        assert all(type(v) is int and v >= 0 for v in diagnostics.values())


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

    @pytest.mark.parametrize("run, mc, exact", [
        (ex.run_state_tomography, "fidelity_mc_mean", "fidelity_exact"),
        (ex.run_fringe_scan, "visibility_subtracted_mean", "visibility_exact_fit"),
        (ex.run_hom_scan, "visibility_subtracted_mean", "visibility_subtracted_exact"),
        *[(functools.partial(ex.run_bell_distribution, label=label),
           "fidelity_mc_mean", "fidelity_exact") for label in BellLabel],
    ], ids=["tomo-state", "fringe", "hom", *(f"bell-{label.value}" for label in BellLabel)])
    def test_mc_means_converge_to_exact(self, run, mc, exact):
        # |mean - exact| <= 3 spread / sqrt(n) for almost all seeds, with no
        # bias allowance, at 0.1x, 1x and 10x the default integration times
        # (the background scales along, so the signal-to-background ratio
        # stays that of the defaults)
        defaults = ExperimentConfig.measured_chip()
        total = 12
        for scale in (0.1, 1.0, 10.0):
            hits = 0
            for seed in range(total):
                cfg = ExperimentConfig.measured_chip(
                    n_trials=24, rng_seed=seed,
                    integration_time_s=scale * defaults.integration_time_s,
                    fringe_time_per_point_s=scale * defaults.fringe_time_per_point_s)
                p = run(cfg).payload
                stderr = p[mc.replace("_mean", "_stderr")] / np.sqrt(cfg.n_trials)
                if abs(p[mc] - p[exact]) <= 3 * stderr:
                    hits += 1
            assert hits >= total - 1, scale

    def test_tomo_process_is_exact(self):
        # process tomography reconstructs the exact outputs only: there is no
        # Monte Carlo mean to converge, and no seed or trial count changes it
        runs = [ex.run_process_tomography(ExperimentConfig.measured_chip(n_trials=n, rng_seed=seed))
                for n, seed in ((1, 0), (24, 11))]
        assert runs[0].payload == runs[1].payload


class TestLinearFidelity:
    @staticmethod
    def poisson_means(cfg, path, probs, time_s):
        """Noise-free counts: every trial counts the Poisson means."""
        lam = (cfg.pair_rate_hz * np.asarray(probs) + cfg.background_rate_hz) * time_s
        return np.broadcast_to(lam, (cfg.n_trials, *lam.shape))

    @pytest.mark.parametrize("preset", [ExperimentConfig.measured_chip, ExperimentConfig],
                             ids=["measured", "ideal"])
    def test_noise_free_counts_give_the_exact_fidelity(self, monkeypatch, preset):
        # the scaled exact probabilities, background added and subtracted,
        # give each pure-target fidelity exactly
        monkeypatch.setattr(ex, "sample_counts", self.poisson_means)
        cfg = preset(n_trials=2, rng_seed=3)
        bell = ex.run_bell_distribution(cfg).payload
        for label, f in bell["fidelity_exact_by_label"].items():
            assert abs(bell["fidelity_mc_mean_by_label"][label] - f) <= 1e-12
        for spatial, pol in product(("T", "B", "+", "+i"), tm.POLARIZATION_LABELS):
            p = ex.run_state_tomography(cfg, spatial, pol).payload
            assert abs(p["fidelity_mc_mean"] - p["fidelity_exact"]) <= 1e-12

    def test_means_clamped_and_counted(self, monkeypatch):
        # the per-trial estimate is not clipped, so a mean can leave [0, 1]:
        # the payload reports it clamped, counts the clamp, and keeps the
        # spread of the unclamped values
        monkeypatch.setattr(tm, "linear_fidelity_stack",
                            lambda counts, targets: np.tile([[1.5, 0.75]], (len(counts), 1)))
        cfg = ExperimentConfig.measured_chip(n_trials=2, rng_seed=3)
        for p in (ex.run_state_tomography(cfg).payload,
                  ex.run_bell_distribution(cfg, BellLabel.PHI_MINUS).payload):
            assert p["fidelity_mc_mean"] == 1.0
            assert p["fidelity_mc_stderr"] == pytest.approx(np.std([1.5, 0.75], ddof=1))
            assert p["diagnostics"] == {"fidelity_means_clamped": 1}
        agg = ex.run_bell_distribution(cfg).payload
        assert set(agg["fidelity_mc_mean_by_label"].values()) == {1.0}
        assert agg["diagnostics"] == {"fidelity_means_clamped": 4}
        monkeypatch.undo()
        assert ex.run_bell_distribution(cfg).payload["diagnostics"] == \
            {"fidelity_means_clamped": 0}


class TestBellAllLabels:
    def test_each_chip_compiled_once(self, calibrated, monkeypatch):
        from swapsim import netlist as nl

        _clear_memos()
        compiled = []
        compile_chip = nl.compile_chip
        monkeypatch.setattr(nl, "compile_chip",
                            lambda chip: compiled.append(chip) or compile_chip(chip))
        ex.run_bell_distribution(replace(calibrated, n_trials=1))
        assert len(compiled) == 2

    def test_aggregate_matches_single_label_runs(self, calibrated):
        cfg = replace(calibrated, n_trials=2)
        agg = ex.run_bell_distribution(cfg)
        assert agg.payload["bell_labels"] == [l.value for l in BellLabel]
        singles = {l.value: ex.run_bell_distribution(cfg, l) for l in BellLabel}
        for lbl, r in singles.items():
            assert agg.payload["fidelity_exact_by_label"][lbl] == r.payload["fidelity_exact"]
            assert agg.payload["fidelity_mc_mean_by_label"][lbl] == r.payload["fidelity_mc_mean"]
            for key in ("fidelity_mc_stderr", "density_matrix_real", "density_matrix_imag"):
                assert agg.payload[f"{key}_by_label"][lbl] == r.payload[key]
        assert agg.payload["second_chip_truth_table_fidelity"] == \
            singles["psi+"].payload["second_chip_truth_table_fidelity"]


class TestBellDarkChip:
    # crossed polarizers on both ports pass no photon
    DARK = ("chip dark {\n  ports T, B;\n  polarizer p0 (T, B) angle=0rad;\n"
            "  polarizer p1 (T, B) angle=90deg;\n}\n")
    NO_COLUMN = "cannot normalize a column with zero total"
    VACUUM = "vacuum state: trace is zero, photon was lost"

    @pytest.mark.parametrize("first_dark, second_dark, message", [
        (True, True, NO_COLUMN), (True, False, VACUUM), (False, True, NO_COLUMN)],
        ids=["both", "first", "second"])
    @pytest.mark.parametrize("label", [None, BellLabel.PSI_MINUS], ids=["all", "psi-"])
    def test_dark_chip_raises(self, tmp_path, calibrated, first_dark, second_dark, message,
                              label):
        # the second chip's truth table is read first, so a dark second chip
        # fails there; a dark first chip leaves the link's outputs vacuum
        pnl = tmp_path / "dark.pnl"
        pnl.write_text(self.DARK)
        dark, good = ChipConfig(netlist_path=str(pnl)), calibrated.chips[0]
        cfg = replace(calibrated, n_trials=2, chips=(dark if first_dark else good,
                                                     dark if second_dark else good))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ex.run_bell_distribution(cfg, label)


class TestStackedEstimators:
    @pytest.fixture(scope="class")
    def cfg(self):
        return ExperimentConfig.measured_chip(n_trials=100, rng_seed=4242)

    def test_exact_tomography_makes_no_per_state_values(self, cfg, monkeypatch):
        # process tomography and the sweep propagate all their inputs in one
        # batch, validated once as a stack: one validation per run, of all
        # 16 inputs, or of the 4 T inputs of all 19 default grid points
        _clear_memos()
        checked = []
        validate = ex.heralded_normalize_stack
        monkeypatch.setattr(ex, "heralded_normalize_stack",
                            lambda m: checked.append(m.shape[:-2]) or validate(m))
        ex.run_process_tomography(cfg)
        ex.run_process_tomography_2q(cfg)
        ex.run_error_budget(cfg)  # the default grid
        assert checked == [(16,), (16,), (19, 4)]

    def test_runners_read_the_superoperator(self, cfg, monkeypatch):
        # every runner reads each chip's superoperator, and a default sweep
        # solves for the chi matrices of its whole grid at once
        _clear_memos()
        calls = []

        def spy(name, f):
            return lambda *a, **k: calls.append(name) or f(*a, **k)

        monkeypatch.setattr(np.linalg, "lstsq", spy("lstsq", np.linalg.lstsq))
        small = replace(cfg, n_trials=2)
        for run in (ex.run_truth_table, ex.run_fringe_scan, ex.run_hom_scan,
                    ex.run_bell_distribution, ex.run_state_tomography):
            run(small)
        assert calls == []
        # the four spatial inputs in one solve, then the two-qubit process
        ex.run_process_tomography(small)
        ex.run_process_tomography_2q(small)
        assert calls == ["lstsq", "lstsq"]
        calls.clear()
        grid = ex._DEFAULT_SWEEP
        assert sum(map(len, grid.values())) == 19
        ex.run_error_budget(small)
        assert calls == ["lstsq"]

    def test_bell_is_one_batched_pass(self, cfg, monkeypatch):
        # all four labels go through the link as one stack, validated once
        # at the boundary; each label's counts come from its own run path,
        # and the fidelities of all labels come from one linear_fidelity_stack
        # call
        _clear_memos()
        checked, paths, shapes = [], [], []
        validate = ex.heralded_normalize_stack
        monkeypatch.setattr(ex, "heralded_normalize_stack",
                            lambda m: checked.append(len(m)) or validate(m))
        sample_counts = ex.sample_counts
        monkeypatch.setattr(ex, "sample_counts",
                            lambda c, path, *a: paths.append(path) or sample_counts(c, path, *a))
        fidelity = tm.linear_fidelity_stack
        monkeypatch.setattr(tm, "linear_fidelity_stack",
                            lambda counts, targets: shapes.append(counts.shape)
                            or fidelity(counts, targets))
        ex.run_bell_distribution(cfg)
        assert shapes == [(4, cfg.n_trials, 36)]
        assert paths == [("bell", l.value) for l in BellLabel]
        assert checked == [4]

    def test_counts_unchanged(self, cfg, monkeypatch):
        # the draws at seed 4242 as made by the per-trial estimators before
        # them: the stacked estimators reindex the counts after the draw
        drawn = []
        sample_counts = ex.sample_counts
        monkeypatch.setattr(ex, "sample_counts",
                            lambda *a: drawn.append(sample_counts(*a)) or drawn[-1])
        ex.run_bell_distribution(cfg)
        assert [int(c.sum()) for c in drawn] == [28162, 28220, 26482, 26481]
        assert drawn[0][0].tolist() == [
            10, 2, 7, 9, 9, 9, 2, 10, 13, 7, 5, 5, 4, 4, 4, 8, 4, 9,
            4, 7, 11, 7, 3, 1, 10, 5, 6, 0, 18, 2, 8, 10, 15, 6, 12, 3]
        tt = ex.run_truth_table(cfg)
        assert tt.payload["first_trial_counts"] == [
            [44, 112, 162, 5577], [110, 6234, 4, 133], [160, 2, 7863, 97], [5579, 142, 94, 37]]
        ts = ex.run_state_tomography(cfg)
        assert ts.payload["first_trial_counts"] == [33419, 52019, 84009, 1374, 42354, 42950]

    def test_fits_run_once_per_run(self, cfg, monkeypatch):
        # one stacked fit of all trials per run (the fringe adds one fit of
        # its exact curve), never one fit per trial
        from swapsim import biphoton as bp
        from swapsim import tomography as tm

        _clear_memos()
        fitted = []
        for module, name in ((bp, "hom_fit_stack"), (tm, "fringe_fit_stack")):
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name, lambda grid, counts, background=0.0, _k=kernel,
                                _n=name: fitted.append((_n, len(counts)))
                                or _k(grid, counts, background))
        ex.run_hom_scan(cfg)
        ex.run_fringe_scan(cfg)
        assert fitted == [("hom_fit_stack", 100), ("fringe_fit_stack", 1),
                          ("fringe_fit_stack", 100)]
