"""Experiment configuration: JSON schema (version 1) and chip builders.

All physical quantities carry unit-suffixed field names (`*_db`, `*_ps`,
`*_hz`, `*_s`, `*_rad`).  A chip is configured either inline through its
imperfection parameters or by pointing at a `.pnl` netlist, never both (a
nonzero inline parameter beside `netlist_path` is a `ConfigError`); either
way it is built by the netlist compiler (`ChipConfig.to_netlist`).  A
`netlist_chip` without a `netlist_path`, and a third chip, are
`ConfigError`s too: nothing would read them.  Inline parameters reach it
through one lowering, `lower_chip_fields`, and each has the unit and range
of the netlist parameter it lowers to (`_CHIP_PARAMS`);
`edit_chip_field` gives the lowering with one field replaced from the
lowered declaration, without lowering again.
Each field's domain is declared once, in one table (`_DOMAINS`), and one
value check (`check_value`: the type, then the domain) checks each field on
construction, so a bad value is a `ConfigError` worded `{field} must be
{words}, got {value!r}`.  A relative `netlist_path` in a config file is
resolved against the file's directory when the file is loaded.
`load_config` reads a file on every call, and decodes and validates each
distinct (text, directory) once per process (`_decode`, a bounded memo of
the registry `swapsim._memo`; errors are never cached), so a repeated text
returns the same immutable config.  A config's canonical document
(`dump_config`, the text `config_digest` hashes) is one line of compact
JSON with sorted keys; the copy written beside a report swaps its rewritten
netlist paths into that text (`relocate_config`).  `measured_chip()` is the
parameter set used to bracket the reported hardware numbers;
`ExperimentConfig()` has every imperfection off.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import netlist as nl
from ._memo import memo

if TYPE_CHECKING:
    from .devices import ChipModel

__all__ = ["ConfigError", "ChipConfig", "SourceConfig", "ExperimentConfig",
           "load_config", "dump_config", "relocate_config"]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid configuration content."""


# the JSON values each field type admits, in words
_KINDS = {"float": "a finite number", "int": "an integer", "bool": "true or false",
          "str": "a string"}


@memo()
def _typed_fields(cls) -> tuple:
    """(name, kind, optional) of each `float`, `int`, `bool` or `str` field
    of the dataclass `cls`: kind a key of `_KINDS`, optional when None is
    allowed."""
    return tuple((f.name, kind, "None" in f.type) for f in fields(cls)
                 if (kind := f.type.split(" ")[0]) in _KINDS)


def _check_types(obj) -> None:
    """Check each typed field of `obj` (`check_value`) and store it plain."""
    for name, kind, optional in _typed_fields(type(obj)):
        v = getattr(obj, name)
        if v is None and optional:
            continue
        if (plain := check_value(name, kind, v)) is not v:
            object.__setattr__(obj, name, plain)


def check_value(name: str, kind: str, v):
    """The value that the field `name`, of `kind` (a `_KINDS` key), stores
    for `v`: a number plain (float, int; -0.0 as 0.0), so equal configs
    encode alike.  ConfigError `{name} must be {words}, got {v!r}` unless
    `v` has the kind and lies in the field's domain (`_DOMAINS`).  JSON
    admits NaN, Infinity, fractions, strings, booleans and null anywhere,
    and Python's bool is an int; none is a valid count or parameter, and a
    flag is only true or false (a truthy "no" would switch it on)."""
    if kind == "float":
        if type(v) is float:
            ok = math.isfinite(v)
        else:
            ok = isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
    elif kind == "int":
        ok = isinstance(v, numbers.Integral) and not isinstance(v, bool)
    else:
        ok = isinstance(v, bool if kind == "bool" else str)
    if not ok:
        raise ConfigError(f"{name} must be {_KINDS[kind]}, got {v!r}")
    if kind == "float" and (v == 0 or type(v) is not float):
        v = float(v) + 0.0
    elif kind == "int" and type(v) is not int:
        v = int(v)
    if (domain := _DOMAINS.get(name)) is not None:
        ranged = callable(domain[0])
        if not (domain[0](v) if ranged else v in domain):
            words = domain[1] if ranged else "one of " + ", ".join(map(repr, domain))
            raise ConfigError(f"{name} must be {words}, got {v!r}")
    return v


# source span of netlist nodes lowered from a config rather than parsed
_NO_SPAN = nl.SourceSpan(0, 0, 1, 1)

# inline chip parameter -> (the kinds of the statements it lowers to, the
# netlist parameter it sets on them), in the order `lower_chip_fields` writes them
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
_POSITIVE = (lambda v: v > 0, "> 0")
# field -> its domain: the tuple of its allowed values, or an (in-range
# test, range in words) pair; an inline chip parameter's is its netlist
# parameter's (`_CHIP_UNITS`), and a visibility is a netlist probability
_DOMAINS = {
    **{name: unit[1:] for name, unit in _CHIP_UNITS.items()},
    "coherence_time_ps": _POSITIVE,
    "bell_visibility": nl._UNIT_CLASSES["probability"][1:],
    "pair_rate_hz": _POSITIVE,
    "integration_time_s": _POSITIVE,
    "background_rate_hz": (lambda v: v >= 0, ">= 0"),
    "n_trials": (lambda v: v >= 1, ">= 1"),
    "fringe_port": ("T", "B"),
    "fringe_time_per_point_s": _POSITIVE,
    "hom_input": ("TV_BH", "TH_BV", "source"),
    "fpc_mode": ("auto", "ideal", "none"),
}
# the inline chip's statements in propagation order: (kind, instance name, ports)
_CASCADE = (("facet", "fin", ("T", "B")), ("pcnot", "c1", ("T", "B")), ("mcnot", "rot", ("T",)),
            ("pcnot", "c2", ("T", "B")), ("facet", "fout", ("T", "B")))


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
        _check_types(self)
        beside = [name for name in _CHIP_PARAMS if getattr(self, name)]
        if self.netlist_path is not None and beside:
            raise ConfigError(f"chip sets netlist_path, so its inline parameters would be "
                              f"ignored: {', '.join(beside)}")
        if self.netlist_path is None and self.netlist_chip is not None:
            raise ConfigError(f"chip sets netlist_chip {self.netlist_chip!r} but no "
                              f"netlist_path, so it would be ignored")

    def to_netlist(self) -> nl.ChipDecl:
        """The chip as a netlist declaration: the referenced file's chip with
        `netlist_path` set, else the lowering of its inline parameters
        (`lower_chip_fields`)."""
        if self.netlist_path is not None:
            try:
                text = Path(self.netlist_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read netlist {self.netlist_path}: {exc}") from exc
            return nl.select_chip(nl.parse(text), self.netlist_chip)
        return lower_chip_fields(vars(self))

    def build(self) -> ChipModel:
        return nl.compile_chip(self.to_netlist())


def lower_chip_fields(values: dict) -> nl.ChipDecl:
    """The inline chip whose `_CHIP_PARAMS` fields have `values` (a mapping
    from each such field to its value; other keys are ignored) as a netlist
    declaration: the cascade `_CASCADE`, each statement's parameters in
    `_KIND_PARAMS` order with their unit class's unit, zero and None values
    omitted.  Equal values lower to equal declarations, which compile to
    the same cached `ChipModel`.  The values are not checked
    (`check_value`)."""
    return nl.ChipDecl("swap", ("T", "B"), tuple(
        nl.Statement(kind, name, ports,
                     tuple(nl.Param(param, float(v), unit, _NO_SPAN)
                           for field, param, unit in _KIND_PARAMS[kind] if (v := values[field])),
                     _NO_SPAN)
        for kind, name, ports in _CASCADE), _NO_SPAN)


def edit_chip_field(decl: nl.ChipDecl, field: str, value: float | None) -> nl.ChipDecl:
    """`decl`, a declaration `lower_chip_fields` gave, with `field` set to
    `value`: equal to lowering the same fields with `field` replaced,
    without lowering them again.  On each statement of the field's kinds
    its netlist parameter is set (in `_KIND_PARAMS` order, with its unit)
    or, for zero and None, dropped; every other statement is reused.  The
    value is not checked (`check_value`)."""
    kinds, param = _CHIP_PARAMS[field]
    new = nl.Param(param, float(value), _CHIP_UNITS[field][0], _NO_SPAN) if value else None
    statements = []
    for st in decl.statements:
        if st.kind in kinds:
            have = {p.name: p for p in st.params}
            have[param] = new
            st = nl.Statement(st.kind, st.name, st.ports, tuple(
                p for _, name, _ in _KIND_PARAMS[st.kind] if (p := have.get(name)) is not None),
                st.span)
        statements.append(st)
    return nl.ChipDecl(decl.name, decl.ports, tuple(statements), decl.span)


@dataclass(frozen=True)
class SourceConfig:
    """SPDC source and Bell-preparation parameters."""

    coherence_time_ps: float = 3.15
    bell_visibility: float = 0.96

    def __post_init__(self):
        _check_types(self)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an experiment runner needs, reproducible from the seed."""

    chips: tuple = field(default_factory=tuple)
    pair_rate_hz: float = 3200.0
    integration_time_s: float = 160.0
    background_rate_hz: float = 0.0
    n_trials: int = 100
    rng_seed: int = 1
    source: SourceConfig = field(default_factory=SourceConfig)
    # experiment-specific knobs
    fringe_port: str = "T"
    fringe_output_polarizer: bool = True
    fringe_time_per_point_s: float = 30.0
    hom_input: str = "TV_BH"
    fpc_mode: str = "auto"
    fiber_residual_rad: float = 0.0

    def __post_init__(self):
        chips = tuple(self.chips) if self.chips else (ChipConfig(),)
        if len(chips) > 2:
            raise ConfigError(f"at most two chips, since only chips 0 and 1 are read; "
                              f"got {len(chips)}")
        object.__setattr__(self, "chips", chips)
        _check_types(self)

    # -- chip access ---------------------------------------------------

    def chip_decl(self, index: int = 0) -> nl.ChipDecl:
        """Chip `index`'s declaration (`ChipConfig.to_netlist`, so a netlist
        file is read on every call); one chip serves as both."""
        return self.chips[min(index, len(self.chips) - 1)].to_netlist()

    def chip(self, index: int = 0) -> ChipModel:
        return nl.compile_chip(self.chip_decl(index))

    # -- presets ---------------------------------------------------------

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

def _field_dict(obj) -> dict:
    """A config dataclass's fields by name, uncopied: the JSON encoder's `default`."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


def dump_config(cfg: ExperimentConfig) -> str:
    """The config's canonical document (schema version 1), the text that
    `config_digest` hashes."""
    return json.dumps({**_field_dict(cfg), "schema_version": SCHEMA_VERSION},
                      default=_field_dict, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"


def relocate_config(doc: str, cfg: ExperimentConfig, relative_to: str | os.PathLike) -> str:
    """`doc`, the canonical document of `cfg` (`dump_config`), as saved in
    the directory `relative_to`: each relative chip `netlist_path` is
    written relative to it, the inverse of `load_config` resolving it, so
    the document saved there reruns the same chips.  The paths are swapped
    into `doc`, not encoded again: a `"netlist_path":` key followed by the
    path's JSON string occurs only as that member, since a quote inside a
    JSON string is escaped."""
    rewrites = {json.dumps(path): json.dumps(rel) for path in {
        c.netlist_path for c in cfg.chips
        if c.netlist_path is not None and not os.path.isabs(c.netlist_path)}
        if (rel := os.path.relpath(path, relative_to)) != path}
    if not rewrites:
        return doc
    # one pass, so that a path rewritten to another chip's path is not rewritten twice
    return re.sub('"netlist_path":(' + "|".join(map(re.escape, rewrites)) + ")",
                  lambda m: '"netlist_path":' + rewrites[m[1]], doc)


def _build(cls, data: dict, what: str):
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {what} fields: {exc}") from exc


def load_config(path_or_text) -> ExperimentConfig:
    """Load and validate a JSON config document (path or raw text).

    A relative chip `netlist_path` in a file is rewritten against the
    file's directory and normalised, so `o1/../x.pnl` reads `x.pnl`.  The
    `wavelength_nm` and `fiber_seed` keys and the source's `lambda_pump_nm`
    and `lambda_signal_nm` keys of older schema-1 documents never had an
    effect and are dropped (the fiber's seeded rotation was compensated
    exactly), and so is their source's Gaussian dip shape: the HOM
    dip is always Gaussian, and any other shape is a `ConfigError`.  Their
    frame key is dropped too when it names the raw frame: reports are in
    the raw frame, and any other frame is a `ConfigError`.  A file
    is read on every call, so an edited file gives the new config; its text
    is decoded once per process (`_decode`).
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
    return _decode(text, base_dir)


@memo(32)  # config texts kept decoded
def _decode(text: str, base_dir: Path | None) -> ExperimentConfig:
    """The config of the JSON document `text`, its relative chip netlist
    paths resolved against `base_dir` (None: kept as written)."""
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
    data.pop("fiber_seed", None)
    if (frame := data.pop("logical_frame", "raw")) != "raw":
        raise ConfigError(f'reports are in the raw frame: logical_frame must be "raw", got '
                          f'{frame!r} (README "Physical model" relabels with xx @ rho @ xx)')
    chips = data.pop("chips", [])
    if not isinstance(chips, list):
        raise ConfigError(f"chips must be a JSON list, got {chips!r}")
    chips = tuple(_resolve_netlist(_build(ChipConfig, c, "chip"), base_dir) for c in chips)
    source = data.pop("source", {})
    if isinstance(source, dict):
        source = {k: v for k, v in source.items()
                  if k not in ("lambda_pump_nm", "lambda_signal_nm")}
        if (shape := source.pop("dip_shape", "gaussian")) != "gaussian":
            raise ConfigError(f'the HOM dip is Gaussian: dip_shape must be "gaussian", '
                              f'got {shape!r}')
    source = _build(SourceConfig, source, "source")
    return _build(ExperimentConfig, {**data, "chips": chips, "source": source}, "experiment")


def _resolve_netlist(chip: ChipConfig, base_dir: Path | None) -> ChipConfig:
    if base_dir is None or chip.netlist_path is None or Path(chip.netlist_path).is_absolute():
        return chip
    return replace(chip, netlist_path=os.path.normpath(base_dir / chip.netlist_path))


def config_digest(cfg: ExperimentConfig) -> str:
    """sha256 of the config's canonical document (`dump_config`): report provenance."""
    import hashlib  # here: importing it (OpenSSL) would slow every import of this module
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()
