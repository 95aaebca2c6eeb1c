"""Experiment configuration: JSON schema (version 1) and chip builders.

All physical quantities carry unit-suffixed field names (`*_db`, `*_ps`,
`*_hz`, `*_s`, `*_rad`).  A chip is configured either inline
through its imperfection parameters or by pointing at a `.pnl` netlist,
never both (a nonzero inline parameter beside `netlist_path` is a
`ConfigError`); either way it is built by the netlist compiler
(`ChipConfig.to_netlist`), and each inline parameter has the unit and
range of the netlist parameter it lowers to (`_CHIP_PARAMS`).  A relative `netlist_path` in a config file
is resolved against the file's directory when the file is loaded.
`measured_chip()` is the parameter set used to bracket the reported
hardware numbers; `ideal()` turns every imperfection off.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import netlist as nl

if TYPE_CHECKING:
    from .devices import ChipModel

__all__ = ["ConfigError", "ChipConfig", "SourceConfig", "ExperimentConfig",
           "load_config", "dump_config"]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid configuration content."""


@functools.cache
def _number_fields(cls) -> tuple:
    """(name, kind, optional) of each `float` or `int` field of the
    dataclass `cls`: kind "float" or "int", optional when None is allowed."""
    table = []
    for f in fields(cls):
        if f.type.startswith("float"):
            table.append((f.name, "float", "None" in f.type))
        elif f.type == "int":
            table.append((f.name, "int", False))
    return tuple(table)


def _check_numbers(obj) -> None:
    """Every `float` field must be a finite number, every `int` field an integer.

    JSON admits NaN, Infinity, fractions, strings and booleans anywhere, and
    Python's bool is an int; none of them is a valid count or parameter.
    The fields to check are looked up once per class (`_number_fields`).
    """
    for name, kind, optional in _number_fields(type(obj)):
        v = getattr(obj, name)
        if kind == "float":
            if v is None and optional:
                continue
            if type(v) is float:
                ok = math.isfinite(v)
            else:
                ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
            what = "a finite number"
        else:
            ok = isinstance(v, numbers.Integral) and not isinstance(v, bool)
            what = "an integer"
        if not ok:
            raise ConfigError(f"{name} must be {what}, got {v!r}")


# source span of netlist nodes lowered from a config rather than parsed
_NO_SPAN = nl.SourceSpan(0, 0, 1, 1)

# inline chip parameter -> (the kinds of the statements it lowers to, the
# netlist parameter it sets on them), in the order `to_netlist` writes them
_CHIP_PARAMS = {
    "pcnot_extinction_db": (("pcnot",), "extinction"),
    "mcnot_extinction_db": (("mcnot",), "extinction"),
    "pcnot_loss_imbalance_db": (("pcnot",), "imbalance"),
    "mcnot_loss_db_t": (("mcnot",), "loss"),
    "mcnot_loss_db_b": (("mcnot",), "loss_other"),
    "mcnot_rotation_error_rad": (("mcnot",), "rotation_error"),
    "facet_loss_db_h": (("facet",), "loss_h"),
    "facet_loss_db_v": (("facet",), "loss_v"),
    "facet_xtalk": (("facet",), "xtalk"),
    "depol_prob": (("pcnot", "mcnot"), "depol"),
}
# inline chip parameter -> the (unit, in-range test, range in words) of its
# netlist parameter's unit class
_CHIP_UNITS = {name: nl._UNIT_CLASSES[nl.COMPONENTS[kinds[0]][1][param]]
               for name, (kinds, param) in _CHIP_PARAMS.items()}
# statement kind -> the (field, netlist parameter, unit) of each inline chip
# parameter written on it, in `_CHIP_PARAMS` order
_KIND_PARAMS = {kind: tuple((name, param, _CHIP_UNITS[name][0])
                            for name, (kinds, param) in _CHIP_PARAMS.items() if kind in kinds)
                for kind in ("facet", "pcnot", "mcnot")}


@dataclass(frozen=True)
class ChipConfig:
    """One SWAP chip, inline parameters or a netlist reference."""

    pcnot_extinction_db: float | None = None   # None = ideal
    mcnot_extinction_db: float | None = None
    pcnot_loss_imbalance_db: float = 0.0
    mcnot_loss_db_t: float = 0.0
    mcnot_loss_db_b: float = 0.0
    mcnot_rotation_error_rad: float = 0.0
    facet_loss_db_h: float = 0.0
    facet_loss_db_v: float = 0.0
    facet_xtalk: float = 0.0
    depol_prob: float = 0.0
    netlist_path: str | None = None
    netlist_chip: str | None = None

    def __post_init__(self):
        _check_numbers(self)
        for name, (_, in_range, bounds) in _CHIP_UNITS.items():
            v = getattr(self, name)
            if v is not None and not in_range(v):
                raise ConfigError(f"{name} must be {bounds}, got {v!r}")
        beside = [name for name in _CHIP_PARAMS if getattr(self, name)]
        if self.netlist_path is not None and beside:
            raise ConfigError(f"chip sets netlist_path, so its inline parameters would be "
                              f"ignored: {', '.join(beside)}")

    def to_netlist(self) -> nl.ChipDecl:
        """The chip as a netlist declaration.

        With `netlist_path` set this is the referenced file's chip.  Inline
        parameters lower to the cascade facet / PC-NOT / MC-NOT / PC-NOT /
        facet through `_CHIP_PARAMS`, each with its unit class's unit; zero
        and None parameters are omitted.
        """
        if self.netlist_path is not None:
            try:
                text = Path(self.netlist_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read netlist {self.netlist_path}: {exc}") from exc
            return nl.select_chip(nl.parse(text), self.netlist_chip)

        def stmt(kind, name, ports):
            kept = tuple(nl.Param(param, float(v), unit, _NO_SPAN)
                         for name, param, unit in _KIND_PARAMS[kind] if (v := getattr(self, name)))
            return nl.Statement(kind, name, ports, kept, _NO_SPAN)

        both = ("T", "B")
        return nl.ChipDecl("swap", both, (
            stmt("facet", "fin", both), stmt("pcnot", "c1", both), stmt("mcnot", "rot", ("T",)),
            stmt("pcnot", "c2", both), stmt("facet", "fout", both)), _NO_SPAN)

    def build(self) -> ChipModel:
        return nl.compile_chip(self.to_netlist())


@dataclass(frozen=True)
class SourceConfig:
    """SPDC source and Bell-preparation parameters."""

    coherence_time_ps: float = 3.15
    bell_visibility: float = 0.96
    dip_shape: str = "gaussian"

    def __post_init__(self):
        _check_numbers(self)
        if self.coherence_time_ps <= 0:
            raise ConfigError("coherence_time_ps must be positive")
        if not 0.0 <= self.bell_visibility <= 1.0:
            raise ConfigError("bell_visibility must lie in [0, 1]")
        if self.dip_shape not in ("gaussian", "triangular"):
            raise ConfigError(f"unknown dip_shape {self.dip_shape!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment runner needs, reproducible from the seed."""

    chips: tuple = field(default_factory=tuple)
    pair_rate_hz: float = 3200.0
    integration_time_s: float = 160.0
    background_rate_hz: float = 0.0
    n_trials: int = 100
    rng_seed: int = 1
    logical_frame: str = "raw"
    source: SourceConfig = field(default_factory=SourceConfig)
    # experiment-specific knobs
    fringe_port: str = "T"
    fringe_output_polarizer: bool = True
    fringe_time_per_point_s: float = 30.0
    hom_input: str = "TV_BH"  # TV_BH | TH_BV | source
    fpc_mode: str = "auto"    # auto | ideal | none
    fiber_seed: int = 7
    fiber_residual_rad: float = 0.0

    def __post_init__(self):
        chips = tuple(self.chips) if self.chips else (ChipConfig(),)
        object.__setattr__(self, "chips", chips)
        _check_numbers(self)
        if self.pair_rate_hz <= 0 or self.integration_time_s <= 0:
            raise ConfigError("rates and times must be positive")
        if self.background_rate_hz < 0:
            raise ConfigError("background_rate_hz must be >= 0")
        if self.n_trials < 1:
            raise ConfigError("n_trials must be >= 1")
        if self.logical_frame not in ("raw", "relabeled"):
            raise ConfigError(f"unknown logical_frame {self.logical_frame!r}")
        if self.fringe_port not in ("T", "B"):
            raise ConfigError("fringe_port must be 'T' or 'B'")
        if self.hom_input not in ("TV_BH", "TH_BV", "source"):
            raise ConfigError(f"unknown hom_input {self.hom_input!r}")
        if self.fpc_mode not in ("auto", "ideal", "none"):
            raise ConfigError(f"unknown fpc_mode {self.fpc_mode!r}")

    # `asdict` and `dump_config` text, once per config object: the config
    # and everything it holds are immutable
    @functools.cached_property
    def _fields(self) -> dict:
        return asdict(self)

    @functools.cached_property
    def _json(self) -> str:
        return _json_text(self._fields)

    # -- chip access ---------------------------------------------------

    def chip(self, index: int = 0) -> ChipModel:
        cfgs = self.chips
        cc = cfgs[index] if index < len(cfgs) else cfgs[-1]
        return cc.build()

    # -- presets ---------------------------------------------------------

    @staticmethod
    def ideal(**overrides) -> "ExperimentConfig":
        """All imperfections off; infinite extinction, zero loss."""
        defaults = dict(chips=(ChipConfig(),), background_rate_hz=0.0)
        defaults.update(overrides)
        return ExperimentConfig(**defaults)

    @staticmethod
    def measured_chip(**overrides) -> "ExperimentConfig":
        """Imperfection set bracketing the reported chip:

        18 dB PC-NOT / 20 dB MC-NOT extinction, a 0.9 dB total H-vs-V
        coupling difference (0.45 dB per coupler crossing), 1 dB rotator
        excess loss and 3 dB per facet.
        """
        chip = ChipConfig(
            pcnot_extinction_db=18.0,
            mcnot_extinction_db=20.0,
            pcnot_loss_imbalance_db=0.45,
            mcnot_loss_db_t=1.0,
            facet_loss_db_h=3.0,
            facet_loss_db_v=3.0,
        )
        defaults = dict(chips=(chip, chip), background_rate_hz=0.4)
        defaults.update(overrides)
        return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

def _json_text(fields: dict) -> str:
    return json.dumps({"schema_version": SCHEMA_VERSION, **fields},
                      indent=2, sort_keys=True) + "\n"


def dump_config(cfg: ExperimentConfig, relative_to: str | os.PathLike | None = None) -> str:
    """The config as an indented JSON document (schema version 1); with
    `relative_to` (a directory), each relative chip `netlist_path` written
    relative to it, the inverse of `load_config` resolving it, so the
    document saved there reruns the same chips.  A config object runs
    `asdict` once, however often it is dumped, rewritten or hashed."""
    if relative_to is None:
        return cfg._json
    chips = tuple(
        {**c, "netlist_path": os.path.relpath(c["netlist_path"], relative_to)}
        if c["netlist_path"] is not None and not os.path.isabs(c["netlist_path"]) else c
        for c in cfg._fields["chips"])
    if chips == cfg._fields["chips"]:
        return cfg._json
    return _json_text({**cfg._fields, "chips": chips})


def _build(cls, data: dict, what: str):
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {what} fields: {exc}") from exc


def load_config(path_or_text) -> ExperimentConfig:
    """Load and validate a JSON config document (path or raw text).

    A relative chip `netlist_path` in a file is rewritten against the
    file's directory and normalised, so `o1/../x.pnl` reads `x.pnl`.  The
    `wavelength_nm` key and the source's `lambda_pump_nm` and
    `lambda_signal_nm` keys of older schema-1 documents never had an effect
    and are dropped.
    """
    text = str(path_or_text)
    base_dir = None
    if "\n" not in text and "{" not in text:
        path = Path(text)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        base_dir = path.parent
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    version = data.pop("schema_version", None)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")
    data.pop("wavelength_nm", None)
    chips = tuple(_resolve_netlist(_build(ChipConfig, c, "chip"), base_dir)
                  for c in data.pop("chips", []))
    source = data.pop("source", {})
    if isinstance(source, dict):
        source = {k: v for k, v in source.items()
                  if k not in ("lambda_pump_nm", "lambda_signal_nm")}
    source = _build(SourceConfig, source, "source")
    return _build(ExperimentConfig, {**data, "chips": chips, "source": source}, "experiment")


def _resolve_netlist(chip: ChipConfig, base_dir: Path | None) -> ChipConfig:
    if base_dir is None or chip.netlist_path is None or Path(chip.netlist_path).is_absolute():
        return chip
    return replace(chip, netlist_path=os.path.normpath(base_dir / chip.netlist_path))


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable hash of the configuration (used for report provenance)."""
    import hashlib

    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()
