import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from swapsim import cli, config
from swapsim import netlist as nl
from swapsim._memo import MEMOS
from swapsim.config import ChipConfig, ExperimentConfig, dump_config, load_config

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
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("cmd", [
        ["truth-table"], ["fringe"], ["hom"], ["bell"], ["bell", "--label", "psi-"],
        ["tomo-state"], ["tomo-process"], ["tomo-process", "--two-qubit"], ["sweep"]],
        ids=lambda cmd: " ".join(cmd))
    def test_out_writes_the_report_and_its_config(self, cmd, tmp_path, config_file, capsys):
        # report.json is the whole report, beside the config that reruns it;
        # stdout gets one line of compact JSON summarizing the payload's scalars
        out = tmp_path / "out"
        assert cli.dispatch([*cmd, "--config", str(config_file), "--trials", "1",
                             "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "report.json"]
        text = capsys.readouterr().out
        assert text.count("\n") == 1 and text.endswith("\n")
        summary = json.loads(text)
        assert text == json.dumps(summary, sort_keys=True, separators=(",", ":")) + "\n"
        doc = json.loads((out / "report.json").read_text())
        assert summary == {"experiment": doc["experiment"], "out": str(out), "summary": {
            k: v for k, v in doc["payload"].items() if not isinstance(v, (dict, list))}}

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
        grid = json.loads((out / "report.json").read_text())["payload"]["grid"]
        assert [(g["axis"], g["value"]) for g in grid] == [
            ("pcnot_extinction_db", v) for v in (18.0, 25.0, 35.0)]
        # values must match the error-budget oracle run directly
        from swapsim import experiments as ex
        from swapsim.config import load_config

        cfg = load_config(str(config_file))
        oracle = ex.run_error_budget(cfg, {"pcnot_extinction_db": [18.0, 25.0, 35.0]})
        assert grid == oracle.payload["grid"]

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
        # trial 0's counts of the six MZI settings, in MOMENTUM_LABELS order
        out = tmp_path / "out"
        rc = cli.dispatch(["tomo-state", "--config", str(config_file),
                           "--out", str(out), "--trials", "2"])
        assert rc == 0
        counts = json.loads((out / "report.json").read_text())["payload"]["first_trial_counts"]
        assert len(counts) == 6
        assert all(isinstance(c, int) and c >= 0 for c in counts)

    def test_tomo_state_runs_on_the_ideal_chip(self, tmp_path, capsys):
        # an exactly-zero setting probability must not reach the sampler
        # as -1e-17 (a negative Poisson mean)
        config = tmp_path / "ideal.json"
        config.write_text(dump_config(ExperimentConfig()))
        capsys.readouterr()
        for spatial in ("T", "B", "+", "+i"):
            for pol in ("H", "V", "D", "A", "R", "L"):
                rc = cli.dispatch(["tomo-state", "--config", str(config), "--trials", "3",
                                   f"--spatial={spatial}", "--pol", pol])
                out, err = capsys.readouterr()
                assert (rc, err) == (0, ""), (spatial, pol)
                payload = json.loads(out)["payload"]
                assert payload["fidelity_exact"] == pytest.approx(1.0, abs=1e-12)
                assert 0.0 <= payload["fidelity_mc_mean"] <= 1.0

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


def _clear_caches():
    for cached in MEMOS.values():
        cached.cache_clear()


class TestRepeatedDispatch:
    """One process builds each command's parser and the preset once, decodes
    each config text once, parses each netlist text once and compiles each
    distinct chip once, through the memos of the registry
    (`swapsim._memo.MEMOS`); none of it shows in what a call gives."""

    @staticmethod
    def _result(argv, out, capsys):
        rc = cli.dispatch(argv)
        captured = capsys.readouterr()
        if not (out / "report.json").exists():
            return rc, captured.out, captured.err
        doc = json.loads((out / "report.json").read_text())
        config_bytes = (out / "config.json").read_bytes()
        for p in out.iterdir():
            p.unlink()
        return rc, doc["payload"], doc["payload_sha256"], doc["meta"]["config_hash"], config_bytes

    def test_warm_calls_equal_cold_calls(self, tmp_path, config_file, netlist_file, capsys):
        out = tmp_path / "out"
        exp = ["--config", str(config_file), "--seed", "5", "--out", str(out)]
        ops = (["truth-table"], ["fringe"], ["hom"], ["bell"], ["tomo-state"], ["tomo-process"],
               ["tomo-process", "--two-qubit"], ["sweep"])
        calls = [["sweep", "--grid", "er=18,35", *exp],
                 ["sweep", "--grid"],                 # a usage error
                 *([*op, *exp] for op in ops),
                 ["check", str(netlist_file)],
                 ["fmt", str(netlist_file)]]
        warm = [self._result(argv, out, capsys) for argv in calls]
        cold = []
        for argv in calls:
            _clear_caches()
            cold.append(self._result(argv, out, capsys))
        assert warm == cold
        assert [r[0] for r in warm] == [0, 64, *[0] * len(ops), 0, 0]
        assert len(warm[9][1]["grid"]) == 19

    def test_help_text_does_not_change(self, tmp_path, config_file, capsys):
        def help_texts():
            texts = []
            for argv in (["--help"], ["sweep", "--help"], ["check", "--help"]):
                assert cli.dispatch(argv) == 0
                texts.append(capsys.readouterr().out)
            return texts

        _clear_caches()
        cold = help_texts()
        assert cli.dispatch(["sweep", "--config", str(config_file), "--grid", "er=18",
                             "--out", str(tmp_path / "out")]) == 0
        assert cli.dispatch(["truth-table", "--trials", "0"]) == 1
        capsys.readouterr()
        assert help_texts() == cold

    def test_parser_is_built_once_and_not_changed_by_parsing(self):
        sweep = cli._command_parser("sweep")
        assert sweep.parse_args(["--grid", "er=18"]).grid == ["er=18"]
        assert cli._command_parser("sweep") is sweep
        assert sweep.parse_args([]).grid == []

    def test_a_command_builds_only_its_own_parser(self, tmp_path, capsys, monkeypatch):
        _clear_caches()
        built = []
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
        assert cli.dispatch(["truth-table", "--trials", "1", "--out", str(tmp_path / "o")]) == 0
        assert cli.dispatch(["check", str(tmp_path / "missing.pnl")]) == 1
        assert built == []
        assert cli._command_parser.cache_info().currsize == 2
        # an argv naming no command parses with the full parser
        assert cli.dispatch(["frobnicate"]) == 64
        assert built == [1]
        assert cli._command_parser.cache_info().currsize == 2

    @pytest.mark.parametrize("columns", ["80", "200"])
    def test_each_command_help_equals_the_full_parsers(self, columns, capsys, monkeypatch):
        # argparse wraps help to $COLUMNS, read each time it formats
        monkeypatch.setenv("COLUMNS", columns)
        for command in cli._COMMANDS:
            with pytest.raises(SystemExit):
                cli._build_parser().parse_args([command, "--help"])
            full = capsys.readouterr().out
            assert full.startswith(f"usage: swapsim {command} [-h]")
            assert cli.dispatch([command, "--help"]) == 0
            assert capsys.readouterr().out == full


class TestChipPaths:
    def test_config_with_netlist_flag_resolves_netlist_against_cwd(self, tmp_path,
                                                                   monkeypatch):
        monkeypatch.chdir(REPO)
        rc = cli.dispatch(["truth-table", "--config", "demos/data/config_measured.json",
                           "--netlist", "demos/data/swap_measured.pnl",
                           "--trials", "1", "--out", str(tmp_path / "out")])
        assert rc == 0

    @pytest.mark.parametrize("chip_args", [
        ["--netlist", "demos/data/swap_measured.pnl"],
        ["--config", "demos/data/config_measured.json"]], ids=["netlist", "config"])
    def test_config_encodes_per_report(self, chip_args, tmp_path, monkeypatch):
        # the report's config hash and its config.json read the canonical
        # document of the config that the flags make, encoded once per
        # report; a netlist path that config.json rewrites against the
        # output directory is swapped into that text
        _clear_caches()
        monkeypatch.chdir(REPO)
        base = (ExperimentConfig.measured_chip() if chip_args[0] == "--netlist"
                else load_config(chip_args[1]))
        calls = []
        encode = config.dump_config
        monkeypatch.setattr(config, "dump_config",
                            lambda *args, **kwargs: calls.append(1) or encode(*args, **kwargs))
        for seed in (1, 2):
            calls.clear()
            out = tmp_path / f"out{seed}"
            assert cli.dispatch(["truth-table", *chip_args, "--trials", "1", "--seed", str(seed),
                                 "--out", str(out)]) == 0
            assert len(calls) == 1
            edits = {"rng_seed": seed, "n_trials": 1}
            if chip_args[0] == "--netlist":
                edits["chips"] = (ChipConfig(netlist_path=chip_args[1]),) * 2
            expected = replace(base, **edits)
            meta = json.loads((out / "report.json").read_text())["meta"]
            assert meta["config_hash"] == hashlib.sha256(encode(expected).encode()).hexdigest()
            assert (out / "config.json").read_text() == config.relocate_config(
                encode(expected), expected, out)

    def test_the_flags_replace_the_config_once(self, netlist_file, tmp_path, monkeypatch):
        # the preset is built once per process, and every flag's field is
        # set in one replace
        cli._measured_chip()
        calls = []
        post_init = ExperimentConfig.__post_init__
        monkeypatch.setattr(ExperimentConfig, "__post_init__",
                            lambda cfg: calls.append(1) or post_init(cfg))
        assert cli.dispatch(["fringe", "--netlist", str(netlist_file), "--seed", "3",
                             "--trials", "1", "--port", "B",
                             "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1
        cfg = load_config(str(tmp_path / "out" / "config.json"))
        assert (cfg.rng_seed, cfg.n_trials, cfg.fringe_port) == (3, 1, "B")
        assert cfg.chips == (ChipConfig(netlist_path=str(netlist_file)),) * 2

    @pytest.mark.parametrize("source", ["netlist", "inline"])
    def test_bell_reads_its_one_chip_once(self, source, netlist_file, tmp_path, monkeypatch):
        # one chip serves as both of the link: a netlist file is read, and an
        # inline chip lowered, once per call, cold and warm
        _clear_caches()
        reads, lowerings = [], []
        read_text, to_netlist = Path.read_text, ChipConfig.to_netlist
        monkeypatch.setattr(Path, "read_text", lambda p, *a, **k: (
            p == netlist_file and reads.append(p)) or read_text(p, *a, **k))
        monkeypatch.setattr(ChipConfig, "to_netlist",
                            lambda c: lowerings.append(c) or to_netlist(c))
        chip_args = ["--netlist", str(netlist_file)] if source == "netlist" else []
        for seed in (1, 2):
            reads.clear()
            lowerings.clear()
            assert cli.dispatch(["bell", *chip_args, "--trials", "1", "--seed", str(seed),
                                 "--out", str(tmp_path / f"out{seed}")]) == 0
            assert (len(reads), len(lowerings)) == (int(source == "netlist"), 1)

    def test_config_json_is_the_line_config_hash_hashes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(REPO)
        out = tmp_path / "out"
        assert cli.dispatch(["truth-table", "--config", "demos/data/config_measured.json",
                             "--trials", "1", "--out", str(out)]) == 0
        raw = (out / "config.json").read_bytes()
        text = raw.decode("utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert text[:-1] == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"),
                                       allow_nan=False)
        meta = json.loads((out / "report.json").read_text())["meta"]
        assert hashlib.sha256(raw).hexdigest() == meta["config_hash"]
        assert load_config(str(out / "config.json")) == ExperimentConfig.measured_chip(n_trials=1)

    def test_sweep_resolves_config_netlist_against_config_dir(self, tmp_path,
                                                              monkeypatch, capsys):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        (cfg_dir / "swap.pnl").write_text(GOOD_NETLIST)
        doc = json.loads(dump_config(ExperimentConfig.measured_chip(n_trials=1)))
        # a netlist chip sets no inline parameter beside its path
        doc["chips"] = [{"netlist_path": "swap.pnl"} for _ in doc["chips"]]
        (cfg_dir / "cfg.json").write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        rc = cli.dispatch(["sweep", "--config", "cfg/cfg.json", "--grid", "er=18",
                           "--out", "out"])
        assert rc == 0, capsys.readouterr().err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        from swapsim import experiments as ex
        from swapsim import netlist as nl

        chip = nl.compile_netlist(nl.parse(GOOD_NETLIST))
        want = ex.truth_table_fidelity_exact(chip)
        assert report["payload"]["grid"][0]["truth_table_fidelity"] == want

    def test_sweep_hash_does_not_depend_on_the_netlist_path(self, tmp_path, monkeypatch,
                                                             capsys):
        # the sweep payload names its baseline chip by the chip's canonical
        # netlist text, so one netlist read by a relative path, by an
        # absolute path and from a copy elsewhere gives one hash
        sample = REPO / "demos" / "data" / "swap_measured.pnl"
        copy = tmp_path / "elsewhere" / "copy.pnl"
        copy.parent.mkdir()
        copy.write_text(sample.read_text())
        monkeypatch.chdir(REPO)
        docs = []
        for i, path in enumerate(("demos/data/swap_measured.pnl", str(sample), str(copy))):
            out = tmp_path / f"out{i}"
            assert cli.dispatch(["sweep", "--netlist", path, "--grid", "er=18,35",
                                 "--trials", "1", "--out", str(out)]) == 0
            docs.append(json.loads((out / "report.json").read_text()))
        capsys.readouterr()
        assert len({d["payload_sha256"] for d in docs}) == 1
        assert docs[0]["payload"]["baseline"] == nl.format_netlist(nl.parse(sample.read_text()))

    def test_written_config_reloads(self, tmp_path, config_file):
        out = tmp_path / "out"
        assert cli.dispatch(["truth-table", "--config", str(config_file),
                             "--out", str(out)]) == 0
        assert load_config(str(out / "config.json")) == load_config(str(config_file))

    @staticmethod
    def _run_then_rerun(source, tmp_path, monkeypatch, capsys):
        """Run a truth table on a netlist chip into o1, rerun it from
        o1/config.json into o2, and return both report documents."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg").mkdir()
        (tmp_path / "cfg" / "swap.pnl").write_text(GOOD_NETLIST)
        if source == "netlist-flag":
            chip_args = ["--netlist", "cfg/swap.pnl"]
        else:
            doc = json.loads(dump_config(ExperimentConfig.measured_chip()))
            doc["chips"] = [{"netlist_path": "swap.pnl"} for _ in doc["chips"]]
            (tmp_path / "cfg" / "cfg.json").write_text(json.dumps(doc))
            chip_args = ["--config", "cfg/cfg.json"]
        common = ["truth-table", "--trials", "2", "--seed", "3"]
        assert cli.dispatch(common + chip_args + ["--out", "o1"]) == 0
        rc = cli.dispatch(common + ["--config", "o1/config.json", "--out", "o2"])
        assert rc == 0, capsys.readouterr().err
        return tuple(json.loads((tmp_path / d / "report.json").read_text())
                     for d in ("o1", "o2"))

    @pytest.mark.parametrize("source", ["netlist-flag", "config-dir"])
    def test_written_config_with_netlist_reruns_identically(self, source, tmp_path,
                                                             monkeypatch, capsys):
        first, again = self._run_then_rerun(source, tmp_path, monkeypatch, capsys)
        assert again["payload_sha256"] == first["payload_sha256"]

    @pytest.mark.parametrize("source", ["netlist-flag", "config-dir"])
    def test_written_config_reruns_with_equal_config_hash(self, source, tmp_path,
                                                          monkeypatch, capsys):
        # the reloaded netlist path is normalised: cfg/swap.pnl, not o1/../cfg/swap.pnl
        first, again = self._run_then_rerun(source, tmp_path, monkeypatch, capsys)
        assert again["meta"]["config_hash"] == first["meta"]["config_hash"]


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

    def test_inline_parameters_beside_a_netlist_path_exit_1_with_one_line(self, tmp_path,
                                                                        capsys):
        doc = json.loads(dump_config(ExperimentConfig.measured_chip()))
        doc["chips"][0]["netlist_path"] = str(REPO / "demos" / "data" / "swap_measured.pnl")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert cli.dispatch(["truth-table", "--config", str(p), "--trials", "1",
                             "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: chip sets netlist_path") and "facet_loss_db_h" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("edit, words", [
        (lambda doc: doc["chips"].append(doc["chips"][0]), "at most two chips"),
        (lambda doc: doc["chips"][0].update(netlist_chip="swap"), "chip sets netlist_chip 'swap'"),
    ], ids=["third-chip", "inline-netlist_chip"])
    def test_a_value_that_nothing_reads_exits_1_with_one_line(self, edit, words, tmp_path,
                                                              capsys):
        doc = json.loads(dump_config(ExperimentConfig.measured_chip()))
        edit(doc)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        assert cli.dispatch(["bell", "--config", str(p), "--trials", "1",
                             "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"config error: {words}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("where, key, value", [
        ("chip", "pcnot_extinction_db", float("nan")),
        ("chip", "mcnot_loss_db_t", float("inf")),
        ("experiment", "pair_rate_hz", float("nan")),
        ("experiment", "integration_time_s", float("inf")),
        ("experiment", "n_trials", 2.5),
        ("experiment", "n_trials", True),
        ("experiment", "rng_seed", "abc"),
        ("experiment", "rng_seed", 7.0),
        ("source", "bell_visibility", float("nan")),
        ("source", "dip_shape", "triangular"),
        ("experiment", "logical_frame", "relabeled"),
    ])
    def test_bad_number_exits_1_with_one_line(self, where, key, value, tmp_path, capsys):
        doc = json.loads(dump_config(ExperimentConfig.measured_chip()))
        target = {"chip": doc["chips"][0], "experiment": doc, "source": doc["source"]}[where]
        target[key] = value
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))  # NaN and Infinity as Python's JSON writes them
        assert cli.dispatch(["truth-table", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error:") and key in err

    @pytest.mark.parametrize("flag", [["--wavelength", "1550"], ["--format", "csv"]])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        assert cli.dispatch(["truth-table", *flag]) == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: swapsim truth-table [-h]")
        assert err.endswith(f"swapsim truth-table: error: unrecognized arguments: {' '.join(flag)}\n")

    @pytest.mark.parametrize("grid, words", [
        ("foo=1", "unknown sweep axis 'foo'"),
        ("er=", "sweep axis 'pcnot_extinction_db' has no values"),
    ])
    def test_bad_sweep_grid_exits_1_with_one_line(self, grid, words, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.dispatch(["sweep", "--grid", grid, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("config error:") and words in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, words", [
        (["fringe", "--points", "3"], "a fringe scan needs at least 5 phase points, got 3"),
        (["hom", "--points", "2"], "a HOM scan needs at least 4 delay points, got 2"),
        (["hom", "--points", "0"], "a HOM scan needs at least 4 delay points, got 0"),
        (["fringe", "--points", "-1"], "--points must not be negative, got -1"),
    ], ids=["fringe-3", "hom-2", "hom-0", "fringe-negative"])
    def test_too_few_scan_points_exit_1_with_one_line(self, argv, words, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.dispatch([*argv, "--trials", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {words}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -1])
    def test_a_fringe_time_that_is_not_positive_exits_1_with_one_line(self, value, tmp_path,
                                                                     capsys):
        # 0 would fit a fringe of no counts, and -1 draw from a negative mean
        p = tmp_path / "cfg.json"
        p.write_text(f'{{"schema_version": 1, "fringe_time_per_point_s": {value}}}')
        out = tmp_path / "out"
        assert cli.dispatch(["fringe", "--config", str(p), "--trials", "1",
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"config error: fringe_time_per_point_s must be > 0, got {float(value)!r}\n")
        assert not out.exists()

    def test_a_fringe_run_that_counts_nothing_exits_1_with_one_line(self, tmp_path, capsys):
        # a positive time too short to count anything: trial 0 has no fringe
        # to fit, and its NaN stderr once ended in a JSON traceback
        p = tmp_path / "cfg.json"
        p.write_text('{"schema_version": 1, "fringe_time_per_point_s": 1e-300}')
        out = tmp_path / "out"
        assert cli.dispatch(["fringe", "--config", str(p), "--trials", "1",
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: cannot fit the fringe of trial 0 (0 counts): "
            "use a longer fringe_time_per_point_s\n")
        assert not out.exists()

    @pytest.mark.parametrize("op", ["bell", "tomo-state"])
    def test_a_tomography_run_that_counts_nothing_exits_1_with_one_line(self, op, tmp_path,
                                                                       capsys):
        # a positive time too short to count anything: a trial has no
        # counts to normalise its linear estimate by, which once ended in a
        # traceback
        p = tmp_path / "cfg.json"
        p.write_text('{"schema_version": 1, "integration_time_s": 1e-300}')
        out = tmp_path / "out"
        assert cli.dispatch([op, "--config", str(p), "--trials", "3",
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: cannot estimate the fidelity (a trial's pooled total counts are "
            "not positive): use a longer integration_time_s\n")
        assert not out.exists()

    def test_unfittable_hom_scan_exits_1_with_one_line(self, tmp_path, capsys):
        # 49 delays of 20 us each: too few counts to find the dip's wings
        p = tmp_path / "cfg.json"
        p.write_text(dump_config(ExperimentConfig.measured_chip(integration_time_s=0.001)))
        out = tmp_path / "out"
        assert cli.dispatch(["hom", "--config", str(p), "--trials", "1",
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: cannot fit the HOM dip (degenerate scan: no dip wings to fit): "
            "use fewer delay points (--points) or a longer integration_time_s\n")
        assert not out.exists()

    def test_hom_scan_without_a_dip_exits_1_with_one_line(self, tmp_path, capsys):
        # no polarization controller: the exchange overlap is 0, and neither
        # fewer delay points nor a longer integration time gives a dip
        p = tmp_path / "cfg.json"
        p.write_text('{"schema_version": 1, "fpc_mode": "none"}')
        out = tmp_path / "out"
        assert cli.dispatch(["hom", "--config", str(p), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: no two-photon dip to fit: the photons' exchange overlap is 0\n")
        assert not out.exists()

    @pytest.mark.parametrize("op", ["truth-table", "fringe", "hom", "bell", "tomo-state"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_a_trial_count_that_cannot_be_drawn_exits_1_with_one_line(self, op, source,
                                                                      tmp_path, capsys):
        # numpy refuses a count array of 10**20 trials by its shape, before
        # it allocates anything
        argv = [op, "--trials", str(10**20)]
        if source == "config":
            p = tmp_path / "cfg.json"
            p.write_text(json.dumps({"schema_version": 1, "n_trials": 10**20}))
            argv = [op, "--config", str(p)]
        out = tmp_path / "out"
        assert cli.dispatch([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: n_trials (--trials) is too large: "
                              f"cannot draw {10**20} trials of ")
        assert not out.exists()

    @pytest.mark.parametrize("op", ["truth-table", "fringe", "hom", "bell", "tomo-state"])
    def test_a_poisson_mean_that_cannot_be_drawn_exits_1_with_one_line(self, op, tmp_path,
                                                                      capsys):
        # numpy refuses a mean above its limit before it allocates anything
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"schema_version": 1, "pair_rate_hz": 1e20}))
        out = tmp_path / "out"
        assert cli.dispatch([op, "--config", str(p), "--trials", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: pair_rate_hz (1e+20) and background_rate_hz (0) "
                              "are too large for ")
        assert " s per setting: a mean of " in err
        assert not out.exists()

    def test_a_count_array_the_machine_cannot_allocate_exits_1_with_one_line(
            self, tmp_path, capsys, monkeypatch):
        import numpy as np

        class Refusing:
            def __init__(self, bit_generator):
                pass

            def poisson(self, lam, size):
                raise MemoryError("Unable to allocate 7.28 PiB")

        monkeypatch.setattr(np.random, "Generator", Refusing)
        out = tmp_path / "out"
        assert cli.dispatch(["truth-table", "--trials", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("config error: n_trials (--trials) is too large: "
                                           "cannot draw 100 trials: Unable to allocate 7.28 PiB\n")
        assert not out.exists()

    @pytest.mark.parametrize("below", ["", "sub"], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_exits_1_with_one_line(self, below, tmp_path,
                                                                  capsys):
        existing = tmp_path / "existing"
        existing.write_text("kept\n")
        out = existing / below if below else existing
        assert cli.dispatch(["truth-table", "--trials", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"config error: cannot write the report to {out}: ")
        assert existing.read_text() == "kept\n"

    def test_a_report_json_that_is_a_directory_exits_1_with_one_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        assert cli.dispatch(["truth-table", "--trials", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"config error: cannot write the report to {out}: ")
        assert (out / "report.json").is_dir()

    @pytest.mark.parametrize("source", ["config", "netlist"])
    def test_out_of_range_sweep_value_exits_1_on_both_sources(self, source, netlist_file,
                                                             tmp_path, capsys):
        # a netlist chip sets no inline parameter, yet a grid value outside
        # its parameter's range is the same config error as for a config chip
        out = tmp_path / "out"
        flags = ["--netlist", str(netlist_file)] if source == "netlist" else []
        assert cli.dispatch(["sweep", *flags, "--grid", "er=-5", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "config error: pcnot_extinction_db must be > 0 dB, got -5.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, stmt, code", [
        ("check", "mzi z (T, B) phase=0.3rad extinction=20dB", "unknown-param"),
        ("check", "phase_v p (T) phase=1e999rad", "param-range"),
        ("check", "hwp w (T) angle=1e999rad", "param-range"),
        ("check", "loss l (T) loss=1e999dB", "param-range"),
        ("check", "hwp w (T) angle=800nm", "unknown-unit"),
        ("fmt", "hwp w (T) angle=800nm", "unknown-unit"),
    ])
    def test_bad_statement_exits_2_with_one_line(self, command, stmt, code, tmp_path, capsys):
        p = tmp_path / "bad.pnl"
        p.write_text(f"chip c {{\n  ports T, B;\n  {stmt};\n}}\n")
        assert cli.dispatch([command, str(p)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"{p}:3:") and f": {code}: " in err


EXPERIMENT_OPS = (["truth-table"], ["fringe"], ["hom"], ["bell"], ["bell", "--label", "psi-"],
                  ["tomo-state"], ["tomo-process"], ["tomo-process", "--two-qubit"],
                  ["sweep"])


class TestReportDocument:
    """A report is one line of canonical JSON whose payload bytes are the
    bytes its `payload_sha256` hashes, in `report.json` and on stdout."""

    @staticmethod
    def _check(text):
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"),
                                  allow_nan=False)
        start = text.index('"payload":') + len('"payload":')
        payload = text[start:json.JSONDecoder().raw_decode(text, start)[1]]
        assert json.loads(payload) == doc["payload"]
        assert hashlib.sha256(payload.encode("utf-8")).hexdigest() == doc["payload_sha256"]
        return payload

    @pytest.mark.parametrize("op", EXPERIMENT_OPS, ids=" ".join)
    def test_report_checks_itself(self, op, tmp_path, capsys):
        argv = [*op, "--trials", "2", "--seed", "7"]
        assert cli.dispatch(argv) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        on_stdout = self._check(out[:-1])
        assert cli.dispatch([*argv, "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
        assert text.endswith("\n") and text.count("\n") == 1
        assert self._check(text[:-1]) == on_stdout

    def test_a_second_report_into_one_out_leaves_exactly_its_bytes(self, tmp_path,
                                                                   monkeypatch, capsys):
        # a longer report and config, then shorter ones: nothing of the
        # first is left
        monkeypatch.setattr(cli.time, "time", lambda: 1.5)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        second = ["truth-table", "--trials", "1", "--seed", "2"]
        assert cli.dispatch(["sweep", "--trials", "3", "--seed", "1", "--out", str(out)]) == 0
        assert cli.dispatch([*second, "--out", str(out)]) == 0
        assert cli.dispatch([*second, "--out", str(fresh)]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "report.json"]
        for name in ("config.json", "report.json"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_out_with_missing_parents_is_made(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "out"
        assert cli.dispatch(["truth-table", "--trials", "1", "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["config.json", "report.json"]

    def test_payload_is_encoded_once(self, tmp_path, monkeypatch, capsys):
        from swapsim import experiments as ex

        reports, encoded = [], []
        run, dumps = ex.run_process_tomography_2q, json.dumps

        def run_and_keep(cfg):
            reports.append(run(cfg))
            return reports[-1]

        def counting_dumps(obj, *args, **kwargs):
            encoded.append(obj)
            return dumps(obj, *args, **kwargs)

        def holds(obj, target):
            if obj is target:
                return True
            values = obj.values() if isinstance(obj, dict) else obj
            return isinstance(obj, (dict, list, tuple)) and any(holds(v, target)
                                                                 for v in values)

        monkeypatch.setattr(ex, "run_process_tomography_2q", run_and_keep)
        monkeypatch.setattr(json, "dumps", counting_dumps)
        assert cli.dispatch(["tomo-process", "--two-qubit", "--trials", "1",
                             "--out", str(tmp_path / "out")]) == 0
        [report] = reports
        assert sum(holds(obj, report.payload) for obj in encoded) == 1


class TestExactPathFactorisations:
    """The exact path decides its PSD checks by Cholesky factorisation and
    the tomography rank by the singular values of its own least-squares
    solve: on valid input no eigenvalue or rank decomposition runs."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = Counter()
        for name in ("eigvalsh", "matrix_rank"):
            def count(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
                counted[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, count)
        return counted

    @pytest.mark.parametrize("command", [["sweep"], ["tomo-process", "--two-qubit"], ["bell"]])
    @pytest.mark.parametrize("source", ["--config", "--netlist"])
    def test_no_eigenvalues_or_rank_on_valid_input(self, command, source, calls, config_file,
                                                   tmp_path, capsys):
        path = config_file if source == "--config" else REPO / "demos/data/swap_measured.pnl"
        argv = [*command, source, str(path), "--trials", "3", "--out", str(tmp_path / "out")]
        assert cli.dispatch(argv) == 0  # the first call may build the chip
        assert cli.dispatch(argv) == 0  # warm
        capsys.readouterr()
        assert calls == Counter()

    def test_a_rank_deficient_basis_still_raises(self, calls):
        from swapsim import tomography as tm

        ins = np.array([np.diag([1.0, 0.0])] * 4, dtype=complex)
        with pytest.raises(ValueError, match="^input states are rank-deficient; cannot invert$"):
            tm.process_tomo_stack(ins, ins[None], 1)
        assert calls == Counter()


def test_runtime_does_not_import_scipy():
    # scipy is a test-only dependency: a fresh interpreter importing the
    # package and its CLI must not load it
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    code = "import sys, swapsim, swapsim.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_bell_label_choices_are_the_bell_labels():
    from swapsim.biphoton import BellLabel

    assert cli.BELL_LABELS == tuple(label.value for label in BellLabel)


def test_choices_are_the_values_their_config_and_runner_read():
    from swapsim import experiments as ex
    from swapsim import tomography as tm
    from swapsim.config import _DOMAINS

    def choices(command, dest):
        [action] = [a for a in cli._command_parser(command)._actions if a.dest == dest]
        return action.choices

    assert choices("fringe", "port") == _DOMAINS["fringe_port"]
    assert choices("hom", "hom_input") == _DOMAINS["hom_input"]
    assert set(ex._HOM_INPUTS) == set(_DOMAINS["hom_input"])
    assert set(choices("tomo-state", "spatial")) == set(ex._PROCESS_SPATIAL_INPUTS)
    assert set(choices("tomo-state", "pol")) == set(tm.POLARIZATION_LABELS)


def test_fmt_imports_no_numpy():
    # the parser and formatter are pure Python: a fresh `swapsim fmt` loads
    # neither numpy nor an experiment module
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    code = ("import sys; from swapsim.cli import dispatch; "
            "assert dispatch(['fmt', 'demos/data/swap_measured.pnl']) == 0; "
            "print(sorted({'numpy', 'swapsim.config', 'swapsim.experiments'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip().splitlines()[-1] == "[]"


def test_closed_stdout_exits_quietly():
    # `swapsim bell | head -1`: the reader is gone before the report is
    # printed; the CLI exits with its documented code and no traceback
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    try:
        proc = subprocess.run([sys.executable, "-m", "swapsim.cli", "bell", "--trials", "1"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr == ""
