"""Experiment configuration: JSON schema (version 1) and chip builders.

All physical quantities carry unit-suffixed field names (`*_db`, `*_nm`,
`*_ps`, `*_hz`, `*_s`, `*_rad`).  A chip is configured either inline
through its imperfection parameters or by pointing at a `.pnl` netlist;
either way it is built by the netlist compiler (`ChipConfig.to_netlist`).
A relative `netlist_path` in a config file is resolved against the file's
directory when the file is loaded.  `measured_chip()` is the parameter set
used to bracket the reported hardware numbers; `ideal()` turns every
imperfection off.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import netlist as nl
from .devices import ChipModel

__all__ = ["ConfigError", "ChipConfig", "SourceConfig", "ExperimentConfig",
           "load_config", "dump_config"]

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Invalid configuration content."""


# source span of netlist nodes lowered from a config rather than parsed
_NO_SPAN = nl.SourceSpan(0, 0, 1, 1)


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
        for name in ("pcnot_loss_imbalance_db", "mcnot_loss_db_t", "mcnot_loss_db_b",
                     "facet_loss_db_h", "facet_loss_db_v"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("pcnot_extinction_db", "mcnot_extinction_db"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"{name} must be > 0 dB")
        if not 0.0 <= self.depol_prob <= 1.0:
            raise ConfigError("depol_prob must lie in [0, 1]")
        if not -1.0 <= self.facet_xtalk <= 1.0:
            raise ConfigError("facet_xtalk must lie in [-1, 1]")

    def to_netlist(self) -> nl.ChipDecl:
        """The chip as a netlist declaration.

        With `netlist_path` set this is the referenced file's chip.  Inline
        parameters lower to the cascade facet / PC-NOT / MC-NOT / PC-NOT /
        facet; zero and None parameters are omitted.
        """
        if self.netlist_path is not None:
            try:
                text = Path(self.netlist_path).read_text(encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"cannot read netlist {self.netlist_path}: {exc}") from exc
            return nl.select_chip(nl.parse(text), self.netlist_chip)
        facet = (("loss_h", self.facet_loss_db_h, "dB"), ("loss_v", self.facet_loss_db_v, "dB"),
                 ("xtalk", self.facet_xtalk, None))
        pcnot = (("extinction", self.pcnot_extinction_db, "dB"),
                 ("imbalance", self.pcnot_loss_imbalance_db, "dB"),
                 ("depol", self.depol_prob, None))
        mcnot = (("extinction", self.mcnot_extinction_db, "dB"),
                 ("loss", self.mcnot_loss_db_t, "dB"), ("loss_other", self.mcnot_loss_db_b, "dB"),
                 ("rotation_error", self.mcnot_rotation_error_rad, "rad"),
                 ("depol", self.depol_prob, None))

        def stmt(kind, name, ports, params):
            kept = tuple(nl.Param(p, float(v), unit, _NO_SPAN) for p, v, unit in params if v)
            return nl.Statement(kind, name, ports, kept, _NO_SPAN)

        both = ("T", "B")
        return nl.ChipDecl("swap", both, (
            stmt("facet", "fin", both, facet), stmt("pcnot", "c1", both, pcnot),
            stmt("mcnot", "rot", ("T",), mcnot), stmt("pcnot", "c2", both, pcnot),
            stmt("facet", "fout", both, facet)), _NO_SPAN)

    def build(self) -> ChipModel:
        return nl.compile_chip(self.to_netlist())


@dataclass(frozen=True)
class SourceConfig:
    """SPDC source and Bell-preparation parameters."""

    lambda_pump_nm: float = 778.5
    lambda_signal_nm: float = 1557.0
    coherence_time_ps: float = 3.15
    bell_visibility: float = 0.96
    dip_shape: str = "gaussian"

    def __post_init__(self):
        if self.coherence_time_ps <= 0:
            raise ConfigError("coherence_time_ps must be positive")
        if not 0.0 <= self.bell_visibility <= 1.0:
            raise ConfigError("bell_visibility must lie in [0, 1]")
        if not 0 < self.lambda_pump_nm < self.lambda_signal_nm:
            raise ConfigError("need 0 < lambda_pump_nm < lambda_signal_nm")
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

    # -- chip access ---------------------------------------------------

    def chip(self, index: int = 0) -> ChipModel:
        cfgs = self.chips
        cc = cfgs[index] if index < len(cfgs) else cfgs[-1]
        return cc.build()

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, rng_seed=seed)

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

def _config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["chips"] = [asdict(c) for c in cfg.chips]
    d["source"] = asdict(cfg.source)
    return {"schema_version": SCHEMA_VERSION, **d}


def dump_config(cfg: ExperimentConfig) -> str:
    return json.dumps(_config_to_dict(cfg), indent=2, sort_keys=True) + "\n"


def _build(cls, data: dict, what: str):
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigError(f"bad {what} fields: {exc}") from exc


def load_config(path_or_text) -> ExperimentConfig:
    """Load and validate a JSON config document (path or raw text).

    A relative chip `netlist_path` in a file is rewritten against the
    file's directory.  The `wavelength_nm` key of older schema-1 documents
    never had an effect and is dropped.
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
    source = _build(SourceConfig, data.pop("source", {}), "source")
    return _build(ExperimentConfig, {**data, "chips": chips, "source": source}, "experiment")


def _resolve_netlist(chip: ChipConfig, base_dir: Path | None) -> ChipConfig:
    if base_dir is None or chip.netlist_path is None or Path(chip.netlist_path).is_absolute():
        return chip
    return replace(chip, netlist_path=str(base_dir / chip.netlist_path))


def config_digest(cfg: ExperimentConfig) -> str:
    """Stable hash of the configuration (used for report provenance)."""
    import hashlib

    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()
