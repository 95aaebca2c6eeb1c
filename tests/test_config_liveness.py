"""Every config field changes a result.

No field of `ExperimentConfig`, `SourceConfig` or `ChipConfig` (on chip 0
and on chip 1) may exist that changes nothing.  Changed from the measured
preset, each one moves some payload of the eight experiment runners by
more than 1e-12 relative.  A third chip and a `netlist_chip` on an inline
chip, which no runner would read, are `ConfigError`s.
"""

from dataclasses import fields, replace
from functools import cache
from pathlib import Path

import pytest

from swapsim import experiments as ex
from swapsim.config import ChipConfig, ConfigError, ExperimentConfig, SourceConfig

SAMPLE = Path(__file__).resolve().parent.parent / "demos" / "data" / "swap_measured.pnl"
BASE = ExperimentConfig.measured_chip(n_trials=20)
RUNNERS = (ex.run_truth_table, ex.run_fringe_scan, ex.run_hom_scan, ex.run_bell_distribution,
           ex.run_state_tomography, ex.run_process_tomography, ex.run_process_tomography_2q,
           ex.run_error_budget)
REL = 1e-12

# field -> a valid value other than the measured preset's; an int field not
# listed here steps by 1, and a flag is flipped
CHANGED = {
    "pair_rate_hz": 6400.0, "integration_time_s": 320.0, "background_rate_hz": 4.0,
    "logical_frame": "relabeled", "fringe_port": "B", "fringe_time_per_point_s": 60.0,
    "hom_input": "TH_BV", "fpc_mode": "ideal", "fiber_residual_rad": 0.2,
    "coherence_time_ps": 5.0, "bell_visibility": 0.9,
    "pcnot_extinction_db": 25.0, "mcnot_extinction_db": 25.0,
    "pcnot_loss_imbalance_db": 0.9, "mcnot_loss_db_t": 2.0, "mcnot_loss_db_b": 1.0,
    "mcnot_rotation_error_rad": 0.1, "facet_loss_db_h": 4.0, "facet_loss_db_v": 4.0,
    "facet_xtalk": 0.05, "depol_prob": 0.05,
}


def _edited(obj, name):
    """The config dataclass `obj` with its field `name` changed."""
    value = getattr(obj, name)
    if name in CHANGED:
        value = CHANGED[name]
    elif isinstance(value, bool):
        value = not value
    elif isinstance(value, int):
        value += 1
    else:
        pytest.fail(f"no changed value listed for the field {name}")
    return replace(obj, **{name: value})


def _with_chip(cfg, index, chip):
    return replace(cfg, chips=tuple(chip if i == index else c for i, c in enumerate(cfg.chips)))


@pytest.fixture(scope="module")
def netlists(tmp_path_factory):
    """The paths of two netlist files: "one" holds `swap_b`, the sample
    chip at another PC-NOT extinction, and "two" holds the sample chip
    `swap`, then `swap_b`."""
    text = SAMPLE.read_text()
    other = text.replace("chip swap", "chip swap_b").replace("extinction=18dB", "extinction=25dB")
    folder = tmp_path_factory.mktemp("liveness")
    (folder / "one.pnl").write_text(other)
    (folder / "two.pnl").write_text(text + other)
    return {name: str(folder / f"{name}.pnl") for name in ("one", "two")}


def _cases():
    """(id, make) of each change: `make(netlists)` gives the (before, after)
    configs, `netlists` being the fixture's netlist paths."""
    for f in fields(ExperimentConfig):
        if f.name not in ("chips", "source"):
            yield f.name, lambda _, n=f.name: (BASE, _edited(BASE, n))
    for f in fields(SourceConfig):
        yield f"source.{f.name}", lambda _, n=f.name: (
            BASE, replace(BASE, source=_edited(BASE.source, n)))
    for i in (0, 1):
        for f in fields(ChipConfig):
            if f.name == "netlist_path":
                # a netlist chip sets no inline parameter beside its path
                make = lambda paths, i=i: (BASE, _with_chip(
                    BASE, i, ChipConfig(netlist_path=paths["one"])))
            elif f.name == "netlist_chip":
                make = lambda paths, i=i: tuple(_with_chip(
                    BASE, i, ChipConfig(netlist_path=paths["two"], netlist_chip=name))
                    for name in ("swap", "swap_b"))
            else:
                make = lambda _, i=i, n=f.name: (
                    BASE, _with_chip(BASE, i, _edited(BASE.chips[i], n)))
            yield f"chip{i}.{f.name}", make


def _moved(a, b) -> bool:
    """Whether payload `b` differs from `a`: in shape, in a string or flag,
    or in a number by more than `REL` relative."""
    if isinstance(a, dict) or isinstance(b, dict):
        return (not (isinstance(a, dict) and isinstance(b, dict)) or a.keys() != b.keys()
                or any(_moved(a[k], b[k]) for k in a))
    if isinstance(a, list) or isinstance(b, list):
        return (not (isinstance(a, list) and isinstance(b, list)) or len(a) != len(b)
                or any(_moved(x, y) for x, y in zip(a, b)))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) and not isinstance(a, bool):
        return abs(a - b) > REL * max(abs(a), abs(b))
    return a != b


@cache
def _payloads(cfg) -> list:
    """The payload of each of `RUNNERS` on `cfg`, once per config."""
    return [run(cfg).payload for run in RUNNERS]


@pytest.mark.parametrize("make", [make for _, make in _cases()],
                         ids=[case for case, _ in _cases()])
def test_every_config_field_changes_a_payload(make, netlists):
    before, after = make(netlists)
    assert before != after
    assert any(_moved(a, b) for a, b in zip(_payloads(before), _payloads(after)))


@pytest.mark.parametrize("make", [
    lambda: replace(BASE.chips[0], netlist_chip="swap"),
    lambda: replace(BASE, chips=(*BASE.chips, BASE.chips[0])),
], ids=["inline-netlist_chip", "third-chip"])
def test_a_value_that_nothing_reads_is_a_config_error(make):
    with pytest.raises(ConfigError):
        make()
