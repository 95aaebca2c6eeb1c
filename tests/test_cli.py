import json
from pathlib import Path

import pytest

from swapsim import cli
from swapsim.config import ExperimentConfig, dump_config, load_config

REPO = Path(__file__).resolve().parent.parent

GOOD_NETLIST = """\
chip swap {
  ports T, B;
  pcnot c1 (T, B) extinction=18dB imbalance=0.45dB;
  mcnot r1 (T) extinction=20dB loss=1dB;
  pcnot c2 (T, B) extinction=18dB imbalance=0.45dB;
}
"""

BAD_NETLIST = "chip swap {\n  ports T, B;\n  pcnot c1 (T, X);\n}\n"


@pytest.fixture
def netlist_file(tmp_path):
    p = tmp_path / "swap.pnl"
    p.write_text(GOOD_NETLIST)
    return p


@pytest.fixture
def config_file(tmp_path):
    cfg = ExperimentConfig.measured_chip(n_trials=3, rng_seed=7)
    p = tmp_path / "config.json"
    p.write_text(dump_config(cfg))
    return p


class TestNetlistTools:
    def test_fmt_prints_canonical(self, netlist_file, capsys):
        assert cli.dispatch(["fmt", str(netlist_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("chip swap {")
        assert "extinction=18dB" in out

    def test_fmt_bad_input_exits_2_with_span(self, tmp_path, capsys):
        p = tmp_path / "bad.pnl"
        p.write_text(BAD_NETLIST)
        assert cli.dispatch(["fmt", str(p)]) == 2
        err = capsys.readouterr().err
        assert "undeclared-port" in err
        assert "3:" in err  # line number of the offending token

    def test_check_accepts_valid(self, netlist_file, capsys):
        assert cli.dispatch(["check", str(netlist_file)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_check_rejects_with_same_codes_as_compile(self, tmp_path, capsys):
        cases = {
            "chip c { ports T, B, C; pcnot a (T, B); }": "port-count",
            "chip c { ports T, B; pcnot a (T, B) wibble=1; }": "unknown-param",
            "chip c { ports T, B; gizmo g (T); }": "unknown-kind",
        }
        for src, code in cases.items():
            p = tmp_path / "case.pnl"
            p.write_text(src)
            assert cli.dispatch(["check", str(p)]) == 2
            assert code in capsys.readouterr().err

    def test_missing_file_is_config_error(self, capsys):
        assert cli.dispatch(["check", "/nonexistent/x.pnl"]) == 1


class TestDispatch:
    def test_unknown_subcommand_exits_64(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 64

    def test_no_subcommand_exits_64(self, capsys):
        assert cli.dispatch([]) == 64

    def test_truth_table_writes_report(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = cli.dispatch(["truth-table", "--config", str(config_file),
                           "--out", str(out), "--seed", "7"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["experiment"] == "truth-table"
        assert 0.9 < doc["payload"]["fidelity_exact"] < 1.0
        assert (out / "truth_table.csv").exists()
        assert (out / "config.json").exists()

    def test_byte_identical_payload_on_rerun(self, tmp_path, config_file):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.dispatch(["truth-table", "--config", str(config_file),
                               "--out", str(out), "--seed", "11"])
            assert rc == 0
            doc = json.loads((out / "report.json").read_text())
            payloads.append((json.dumps(doc["payload"], sort_keys=True),
                             doc["payload_sha256"]))
            tables = sorted(p.name for p in out.glob("*.csv"))
            assert tables == ["truth_table.csv"]
        assert payloads[0] == payloads[1]
        csv_a = (tmp_path / "a" / "truth_table.csv").read_bytes()
        csv_b = (tmp_path / "b" / "truth_table.csv").read_bytes()
        assert csv_a == csv_b

    def test_netlist_flag_overrides_chips(self, tmp_path, netlist_file, config_file):
        out = tmp_path / "out"
        rc = cli.dispatch(["truth-table", "--config", str(config_file),
                           "--netlist", str(netlist_file),
                           "--out", str(out), "--seed", "3", "--trials", "2"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        # netlist chip has no facets: higher survival than the config chip
        assert min(doc["payload"]["column_survival"]) > 0.5

    def test_env_seed_override(self, tmp_path, config_file, monkeypatch):
        outs = []
        for name, env in (("a", "123"), ("b", "123"), ("c", "456")):
            monkeypatch.setenv("SWAPSIM_SEED", env)
            out = tmp_path / name
            assert cli.dispatch(["truth-table", "--config", str(config_file),
                                 "--out", str(out)]) == 0
            doc = json.loads((out / "report.json").read_text())
            outs.append(doc["payload_sha256"])
            assert doc["meta"]["seed"] == int(env)
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_bad_config_exits_1(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{\"schema_version\": 99}")
        assert cli.dispatch(["truth-table", "--config", str(p)]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_sweep_grid(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = cli.dispatch(["sweep", "--config", str(config_file),
                           "--grid", "er=18,25,35", "--out", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert rows[0].startswith("axis,value")
        assert len(rows) == 4  # header + 3 grid points
        # values must match the error-budget oracle run directly
        from swapsim import experiments as ex
        from swapsim.config import load_config

        cfg = load_config(str(config_file))
        oracle = ex.run_error_budget(cfg, {"pcnot_extinction_db": [18.0, 25.0, 35.0]})
        want = [repr(g["truth_table_fidelity"]) for g in oracle.payload["grid"]]
        got = [r.split(",")[2] for r in rows[1:]]
        assert got == want

    def test_bell_all_labels(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = cli.dispatch(["bell", "--config", str(config_file),
                           "--out", str(out), "--trials", "1"])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        fids = doc["payload"]["fidelity_exact_by_label"]
        assert set(fids) == {"psi+", "psi-", "phi+", "phi-"}
        assert 0.85 < doc["payload"]["fidelity_exact_avg"] < 1.0

    def test_tomo_state_emits_count_records(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = cli.dispatch(["tomo-state", "--config", str(config_file),
                           "--out", str(out), "--trials", "2"])
        assert rc == 0
        from swapsim.tomography import counts_from_csv

        records = counts_from_csv((out / "count_records.csv").read_text())
        assert len(records) == 6

    def test_tomo_process_summary(self, tmp_path, config_file):
        out = tmp_path / "out"
        rc = cli.dispatch(["tomo-process", "--config", str(config_file),
                           "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["payload"]["per_spatial_input"]) == {"T", "B", "+", "+i"}

    def test_fringe_and_hom_run(self, tmp_path, config_file):
        for cmd in ("fringe", "hom"):
            out = tmp_path / cmd
            rc = cli.dispatch([cmd, "--config", str(config_file),
                               "--out", str(out), "--trials", "2"])
            assert rc == 0
            assert (out / "report.json").exists()


class TestChipPaths:
    def test_config_with_netlist_flag_resolves_netlist_against_cwd(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.chdir(REPO)
        rc = cli.dispatch(["truth-table", "--config", "demos/data/config_measured.json",
                           "--netlist", "demos/data/swap_measured.pnl",
                           "--trials", "1", "--out", str(tmp_path / "out")])
        assert rc == 0

    def test_sweep_resolves_config_netlist_against_config_dir(self, tmp_path,
                                                              monkeypatch, capsys):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        (cfg_dir / "swap.pnl").write_text(GOOD_NETLIST)
        doc = json.loads(dump_config(ExperimentConfig.measured_chip(n_trials=1)))
        for chip in doc["chips"]:
            chip["netlist_path"] = "swap.pnl"
        (cfg_dir / "cfg.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        rc = cli.dispatch(["sweep", "--config", "cfg/cfg.json", "--grid", "er=18",
                           "--out", "out"])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        from swapsim import experiments as ex
        from swapsim import netlist as nl

        chip = nl.compile_netlist(nl.parse(GOOD_NETLIST))
        want = ex.truth_table_fidelity_exact(chip, "raw")
        assert report["payload"]["grid"][0]["truth_table_fidelity"] == want

    def test_written_config_reloads(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert cli.dispatch(["truth-table", "--config", str(config_file),
                             "--out", str(out)]) == 0
        assert load_config(str(out / "config.json")) == load_config(str(config_file))


class TestBadValues:
    def test_facet_xtalk_out_of_range_exits_1_with_one_line(self, tmp_path, capsys):
        doc = json.loads(dump_config(ExperimentConfig.measured_chip()))
        doc["chips"][0]["facet_xtalk"] = 1.5
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert cli.dispatch(["truth-table", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error:") and "facet_xtalk" in err

    @pytest.mark.parametrize("flag", [["--wavelength", "1550"], ["--format", "csv"]])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        assert cli.dispatch(["truth-table", *flag]) == 64
