"""Command-line entry point: experiment dispatch, netlist tooling, reports.

Subcommands: truth-table, fringe, hom, bell, tomo-state, tomo-process,
sweep, fmt, check.  Experiment flags: --netlist, --config, --out, --seed,
--trials.  A relative `netlist_path` inside a config file is resolved
against the config file's directory; --netlist against the working
directory.  Exit codes: 0 success, 1 configuration error, 2 netlist
parse/compile error (message carries a line:column span), 64 usage error.

Reports are written as `report.json` plus CSV data tables.  The JSON
document separates the deterministic `payload` (hashed into
`payload_sha256`) from run metadata, so identical (config, seed) inputs
produce byte-identical payload sections.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import experiments as ex
from . import netlist as nl
from .biphoton import BellLabel
from .config import ChipConfig, ConfigError, ExperimentConfig, dump_config, load_config

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_USAGE = 64

_EXPERIMENT_COMMANDS = ("truth-table", "fringe", "hom", "bell",
                        "tomo-state", "tomo-process", "sweep")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="swapsim",
        description="Simulator for the single-photon two-qubit SWAP chip.")
    sub = p.add_subparsers(dest="command")

    def add_common(sp):
        sp.add_argument("--netlist", type=str, default=None,
                        help="chip netlist (.pnl); overrides the config chips")
        sp.add_argument("--config", type=str, default=None,
                        help="experiment config JSON (default: measured-chip calibration)")
        sp.add_argument("--out", type=str, default=None,
                        help="output directory for report files")
        sp.add_argument("--seed", type=int, default=None, help="RNG master seed")
        sp.add_argument("--trials", type=int, default=None,
                        help="Monte Carlo trials")

    for name, descr in (
        ("truth-table", "measure the chip truth table"),
        ("fringe", "phase-coherence fringe scan"),
        ("hom", "Hong-Ou-Mandel dip scan"),
        ("bell", "chip-to-chip Bell-state distribution"),
        ("tomo-state", "single-qubit output-state tomography"),
        ("tomo-process", "process (chi-matrix) tomography"),
        ("sweep", "error-budget parameter sweep"),
    ):
        sp = sub.add_parser(name, help=descr)
        add_common(sp)
        if name == "fringe":
            sp.add_argument("--points", type=int, default=17)
            sp.add_argument("--port", choices=("T", "B"), default=None)
        if name == "hom":
            sp.add_argument("--points", type=int, default=49)
            sp.add_argument("--input", dest="hom_input",
                            choices=("TV_BH", "TH_BV", "source"), default=None)
        if name == "bell":
            sp.add_argument("--label", choices=[l.value for l in BellLabel],
                            default=None, help="single Bell state (default: all four)")
        if name == "tomo-state":
            sp.add_argument("--spatial", choices=("T", "B", "+", "+i"), default="T")
            sp.add_argument("--pol", choices=("H", "V", "D", "A", "R", "L"),
                            default="D")
        if name == "tomo-process":
            sp.add_argument("--two-qubit", action="store_true",
                            help="full two-qubit chi matrix instead of per-input")
        if name == "sweep":
            sp.add_argument("--grid", action="append", default=[],
                            metavar="AXIS=V1,V2,...",
                            help="sweep axis values, repeatable")

    fmt = sub.add_parser("fmt", help="canonically format a netlist")
    fmt.add_argument("path", type=str)
    chk = sub.add_parser("check", help="validate a netlist (parse + compile)")
    chk.add_argument("path", type=str)
    return p


def _load_experiment_config(args) -> ExperimentConfig:
    if args.config is not None:
        cfg = load_config(args.config)
    else:
        cfg = ExperimentConfig.measured_chip()
    if args.netlist is not None:
        chip = ChipConfig(netlist_path=args.netlist)
        cfg = replace(cfg, chips=(chip,) * max(len(cfg.chips), 1))
    seed = args.seed
    if seed is None and os.environ.get("SWAPSIM_SEED"):
        try:
            seed = int(os.environ["SWAPSIM_SEED"])
        except ValueError as exc:
            raise ConfigError(f"bad SWAPSIM_SEED: {exc}") from exc
    if seed is not None:
        cfg = cfg.with_seed(seed)
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError("--trials must be >= 1")
        cfg = replace(cfg, n_trials=args.trials)
    return cfg


def _write_report(report: ex.Report, cfg: ExperimentConfig, out_dir: str | None) -> None:
    doc = {
        "schema_version": 1,
        "experiment": report.kind,
        "payload": report.payload,
        "payload_sha256": report.payload_sha256(),
        "meta": {
            "config_hash": report.config_hash,
            "seed": report.seed,
            "created_unix": time.time(),
        },
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_dir is None:
        print(text)
        return
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text + "\n", encoding="utf-8")
    (out / "config.json").write_text(dump_config(cfg), encoding="utf-8")
    for name, rows in report.tables.items():
        with (out / f"{name}.csv").open("w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)  # RFC-4180 quoting via the csv module
            w.writerows(rows)
    summary = {k: v for k, v in report.payload.items()
               if isinstance(v, (int, float, str, bool))}
    print(json.dumps({"experiment": report.kind, "out": str(out),
                      "summary": summary}, indent=2, sort_keys=True))


def _parse_grid(args_grid) -> dict:
    sweep = {}
    for spec in args_grid:
        if "=" not in spec:
            raise ConfigError(f"bad --grid value {spec!r}, expected AXIS=V1,V2,...")
        axis, _, vals = spec.partition("=")
        axis = axis.strip()
        alias = {"er": "pcnot_extinction_db", "imbalance": "loss_imbalance_db"}
        axis = alias.get(axis, axis)
        try:
            sweep[axis] = [float(v) for v in vals.split(",") if v]
        except ValueError as exc:
            raise ConfigError(f"bad --grid numbers in {spec!r}: {exc}") from exc
    if not sweep:
        sweep = {
            "pcnot_extinction_db": [18.0, 25.0, 30.0, 35.0],
            "mcnot_extinction_db": [20.0, 25.0, 30.0, 35.0],
            "loss_imbalance_db": [0.0, 0.3, 0.6, 0.9],
            "mcnot_loss_db_t": [0.0, 0.5, 1.0, 2.0],
            "facet_xtalk": [0.0, 0.05, 0.1],
        }
    return sweep


def _run_experiment(args) -> int:
    cfg = _load_experiment_config(args)
    if args.command == "truth-table":
        report = ex.run_truth_table(cfg)
    elif args.command == "fringe":
        if args.port is not None:
            cfg = replace(cfg, fringe_port=args.port)
        phases = np.linspace(0.0, 2.0 * np.pi, args.points)
        report = ex.run_fringe_scan(cfg, phases)
    elif args.command == "hom":
        if args.hom_input is not None:
            cfg = replace(cfg, hom_input=args.hom_input)
        delays = np.linspace(-12.0, 12.0, args.points)
        report = ex.run_hom_scan(cfg, delays)
    elif args.command == "bell":
        report = ex.run_bell_distribution(cfg, BellLabel(args.label) if args.label else None)
    elif args.command == "tomo-state":
        report = ex.run_state_tomography(cfg, args.spatial, args.pol)
    elif args.command == "tomo-process":
        if args.two_qubit:
            report = ex.run_process_tomography_2q(cfg)
        else:
            report = ex.run_process_tomography(cfg)
    elif args.command == "sweep":
        report = ex.run_error_budget(cfg, _parse_grid(args.grid))
    else:  # pragma: no cover
        raise AssertionError(args.command)
    _write_report(report, cfg, args.out)
    return EXIT_OK


def _netlist_tool(args) -> int:
    try:
        text = Path(args.path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        ast = nl.parse(text)
        if args.command == "fmt":
            sys.stdout.write(nl.format_netlist(ast))
        else:
            nl.compile_all(ast)
            print(f"ok: {len(ast.chips)} chip(s)")
    except nl.ParseError as exc:
        print(f"{args.path}:{exc.span}: {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except nl.CompileError as exc:
        print(f"{args.path}:{exc.span}: {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command in ("fmt", "check"):
        return _netlist_tool(args)
    try:
        return _run_experiment(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except nl.ParseError as exc:
        print(f"netlist parse error: {exc.span}: {exc.code}: {exc.message}",
              file=sys.stderr)
        return EXIT_PARSE
    except nl.CompileError as exc:
        print(f"netlist compile error: {exc.span}: {exc.code}: {exc.message}",
              file=sys.stderr)
        return EXIT_PARSE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
