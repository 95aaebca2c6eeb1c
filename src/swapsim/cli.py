"""Command-line entry point: experiment dispatch, netlist tooling, reports.

Subcommands: truth-table, fringe, hom, bell, tomo-state, tomo-process,
sweep, fmt, check.  Experiment flags: --netlist, --config, --out, --seed,
--trials.  A relative `netlist_path` inside a config file is resolved
against the config file's directory; --netlist against the working
directory.  Exit codes: 0 success, 1 configuration error, 2 netlist
parse/compile error (message carries a line:column span), 64 usage error,
141 stdout closed before the output was written (e.g. `| head -1`; the
code a shell reports for a process ended by SIGPIPE, without a traceback).

Without --out the report document goes to stdout.  With --out it is
written to `report.json`, the whole report (it holds every number of the
run: no data table beside it), next to the `config.json` that reruns it:
the config's canonical line, whose bytes `meta.config_hash` hashes unless
a relative chip netlist path in it is rewritten against the output
directory.  Stdout gets a one-line summary of the payload's scalar fields.
The JSON document separates the deterministic `payload` (hashed into
`payload_sha256`) from run metadata, so identical (config, seed) inputs
produce byte-identical payload sections.  The document, in `report.json`
or on stdout, is one line of canonical JSON (sorted keys, no whitespace),
and the bytes of its `"payload":` member are the bytes that
`payload_sha256` hashes.

`dispatch` may be called repeatedly in one process.  An argv that starts
with a command is parsed by that command's own parser, built on its first
use; the full parser, which holds each command's parser as a subparser with
the same help text, is built for each other argv (no command, --help, an
unknown command).  The process builds the preset of a run without --config
once, decodes each config text once (`load_config` still reads the file on
every call), parses each netlist text once and compiles each distinct chip
once (memos of the registry `swapsim._memo`); no state that changes a
result is kept between calls, so a warm call gives the same payload as a
fresh process.  A report's config is encoded once: `meta.config_hash`
hashes that text, and `config.json` is it with each rewritten netlist path
swapped in.  Both files are written with raw writes of their encoded bytes.
A command imports only what it uses: `fmt` and `check` load no numpy, no
config and no experiment module (`config`, whose domain table gives the
--port and --input choices, loads no numpy).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import netlist as nl
from ._memo import memo

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .experiments import Report

__all__ = ["main", "dispatch"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

# the values of `biphoton.BellLabel`, written out so that parsing the
# command line imports no experiment module
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")

# command -> its help line
_COMMANDS = {
    "truth-table": "measure the chip truth table",
    "fringe": "phase-coherence fringe scan",
    "hom": "Hong-Ou-Mandel dip scan",
    "bell": "chip-to-chip Bell-state distribution",
    "tomo-state": "single-qubit output-state tomography",
    "tomo-process": "process (chi-matrix) tomography",
    "sweep": "error-budget parameter sweep",
    "fmt": "canonically format a netlist",
    "check": "validate a netlist (parse + compile)",
}


def _add_arguments(sp: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """`sp` with the arguments of command `name`: their one definition, for
    the command's own parser and for its subparser in the full parser."""
    if name in ("fmt", "check"):
        sp.add_argument("path", type=str)
        return sp
    from .config import _DOMAINS
    sp.add_argument("--netlist", type=str, default=None,
                    help="chip netlist (.pnl); overrides the config chips")
    sp.add_argument("--config", type=str, default=None,
                    help="experiment config JSON (default: measured-chip calibration)")
    sp.add_argument("--out", type=str, default=None,
                    help="output directory for report files")
    sp.add_argument("--seed", type=int, default=None, help="RNG master seed")
    sp.add_argument("--trials", type=int, default=None,
                    help="Monte Carlo trials")
    if name == "fringe":
        sp.add_argument("--points", type=int, default=17)
        sp.add_argument("--port", choices=_DOMAINS["fringe_port"], default=None)
    if name == "hom":
        sp.add_argument("--points", type=int, default=49)
        sp.add_argument("--input", dest="hom_input", choices=_DOMAINS["hom_input"],
                        default=None)
    if name == "bell":
        sp.add_argument("--label", choices=BELL_LABELS,
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
    return sp


@memo()
def _command_parser(name: str) -> argparse.ArgumentParser:
    """The subparser that `_build_parser` makes for command `name` (the same
    prog, arguments and help text), built on first use and kept: `parse_args`
    does not change it, and the `--grid` append action copies its default list."""
    return _add_arguments(argparse.ArgumentParser(prog=f"swapsim {name}"), name)


def _build_parser() -> argparse.ArgumentParser:
    """The full CLI parser, for an argv that names no command (no command,
    --help, an unknown command)."""
    p = argparse.ArgumentParser(
        prog="swapsim",
        description="Simulator for the single-photon two-qubit SWAP chip.")
    sub = p.add_subparsers(dest="command")
    for name, descr in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=descr), name)
    return p


@memo()
def _measured_chip() -> ExperimentConfig:
    """The config of a run without --config, built once per process (it is immutable)."""
    from .config import ExperimentConfig

    return ExperimentConfig.measured_chip()


def _load_experiment_config(args) -> ExperimentConfig:
    from dataclasses import replace

    from .config import ChipConfig, ConfigError, load_config

    cfg = _measured_chip() if args.config is None else load_config(args.config)
    seed = args.seed
    if seed is None and os.environ.get("SWAPSIM_SEED"):
        try:
            seed = int(os.environ["SWAPSIM_SEED"])
        except ValueError as exc:
            raise ConfigError(f"bad SWAPSIM_SEED: {exc}") from exc
    # every flag's field in one `replace`, so the config is checked once more
    edits = {name: value for name, value in (
        ("rng_seed", seed), ("n_trials", args.trials),
        ("fringe_port", getattr(args, "port", None)),
        ("hom_input", getattr(args, "hom_input", None))) if value is not None}
    if args.netlist is not None:
        edits["chips"] = (ChipConfig(netlist_path=args.netlist),) * len(cfg.chips)
    return replace(cfg, **edits) if edits else cfg


def _write_report(report: Report, cfg: ExperimentConfig, out_dir: str | None) -> None:
    import hashlib

    from .config import ConfigError, dump_config, relocate_config

    # the config and the payload are each encoded once: `meta.config_hash`
    # hashes the config's canonical text, and config.json is that text with
    # its rewritten netlist paths; the payload's canonical text is hashed and
    # spliced verbatim into a document that is itself canonical JSON (the
    # members in sorted key order, no whitespace), so the file's own payload
    # bytes are the bytes that `payload_sha256` hashes
    payload = report.canonical_payload()
    config = dump_config(cfg)
    meta = json.dumps({"config_hash": hashlib.sha256(config.encode("utf-8")).hexdigest(),
                       "seed": cfg.rng_seed, "created_unix": time.time()},
                      sort_keys=True, separators=(",", ":"), allow_nan=False)
    sha256 = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    text = (f'{{"experiment":{json.dumps(report.kind)},"meta":{meta},'
            f'"payload":{payload},"payload_sha256":"{sha256}","schema_version":1}}')
    if out_dir is None:
        print(text)
        return
    out = Path(out_dir)
    try:
        os.makedirs(out, exist_ok=True)
        _write_file(os.path.join(out, "report.json"), (text + "\n").encode("utf-8"))
        _write_file(os.path.join(out, "config.json"),
                    relocate_config(config, cfg, out).encode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot write the report to {out}: {exc}") from exc
    summary = {k: v for k, v in report.payload.items()
               if isinstance(v, (int, float, str, bool))}
    print(json.dumps({"experiment": report.kind, "out": str(out), "summary": summary},
                     sort_keys=True, separators=(",", ":")))


def _write_file(path, data: bytes) -> None:
    """Replace the file at `path` with `data` by unbuffered writes: the
    bytes are encoded already, so a text file object would only copy them."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def _parse_grid(args_grid) -> dict | None:
    """The `--grid AXIS=V1,V2,...` options as {axis: values}, None when
    there are none; `run_error_budget` checks the axes and their values."""
    from .config import ConfigError

    sweep = {}
    for spec in args_grid:
        if "=" not in spec:
            raise ConfigError(f"bad --grid value {spec!r}, expected AXIS=V1,V2,...")
        axis, _, vals = spec.partition("=")
        axis = axis.strip()
        sweep.pop(axis, None)  # the last option naming an axis, by any name, wins
        try:
            sweep[axis] = [float(v) for v in vals.split(",") if v]
        except ValueError as exc:
            raise ConfigError(f"bad --grid numbers in {spec!r}: {exc}") from exc
    return sweep or None


def _run_experiment(args) -> int:
    import numpy as np

    from . import experiments as ex
    from .config import ConfigError

    cfg = _load_experiment_config(args)
    # np.linspace rejects a negative count before the runner can check it
    if getattr(args, "points", 0) < 0:
        raise ConfigError(f"--points must not be negative, got {args.points}")
    if args.command == "truth-table":
        report = ex.run_truth_table(cfg)
    elif args.command == "fringe":
        phases = np.linspace(0.0, 2.0 * np.pi, args.points)
        report = ex.run_fringe_scan(cfg, phases)
    elif args.command == "hom":
        delays = np.linspace(-12.0, 12.0, args.points)
        report = ex.run_hom_scan(cfg, delays)
    elif args.command == "bell":
        from .biphoton import BellLabel

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
    except (nl.ParseError, nl.CompileError) as exc:
        print(f"{args.path}:{exc.span}: {exc.code}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def dispatch(argv) -> int:
    try:
        if argv and argv[0] in _COMMANDS:  # only the command's own parser is built
            args = _command_parser(argv[0]).parse_args(
                argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap to the documented code
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command is None:
        _build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command in ("fmt", "check"):
        return _netlist_tool(args)
    from .config import ConfigError

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
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: send the rest to devnull so the
        # interpreter's final flush cannot fail again, and exit quietly
        # (the recipe of the Python `signal` module docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
