import json
import math
import re
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import config as cfgmod
from swapsim import netlist as nl
from swapsim.config import (ChipConfig, ConfigError, ExperimentConfig, SourceConfig,
                            config_digest, dump_config, load_config, relocate_config)

PNL = "chip swap { ports T, B; pcnot c1 (T, B) extinction=18dB; }\n"


def _doc(**chip):
    return json.dumps({"schema_version": 1, "chips": [chip]})


def test_sample_config_is_the_measured_preset():
    from pathlib import Path

    sample = Path(__file__).resolve().parent.parent / "demos" / "data" / "config_measured.json"
    assert sample.read_text() == dump_config(ExperimentConfig.measured_chip())


class TestNetlistPath:
    def test_relative_path_resolved_against_config_file(self, tmp_path):
        (tmp_path / "swap.pnl").write_text(PNL)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(_doc(netlist_path="swap.pnl"))
        cfg = load_config(str(cfg_path))
        assert cfg.chips[0].netlist_path == str(tmp_path / "swap.pnl")
        assert cfg.chip(0).label == "swap"

    def test_absolute_path_kept(self, tmp_path):
        pnl = tmp_path / "swap.pnl"
        pnl.write_text(PNL)
        cfg_path = tmp_path / "sub" / "cfg.json"
        cfg_path.parent.mkdir()
        cfg_path.write_text(_doc(netlist_path=str(pnl)))
        assert load_config(str(cfg_path)).chips[0].netlist_path == str(pnl)

    def test_config_text_leaves_path_as_given(self):
        cfg = load_config(_doc(netlist_path="swap.pnl"))
        assert cfg.chips[0].netlist_path == "swap.pnl"

    def test_edited_netlist_builds_the_new_chip(self, tmp_path):
        # the file is read on every build; its text, stages and chip are
        # cached by what the file holds, never by the path, so an edit gives
        # the new chip and an edit back gives the chip first compiled
        pnl = tmp_path / "swap.pnl"
        pnl.write_text(PNL)
        chip = ChipConfig(netlist_path=str(pnl))
        before = chip.build()
        edited = PNL.replace("18dB", "25dB")
        pnl.write_text(edited)
        after = chip.build()
        assert not np.array_equal(after.superoperator, before.superoperator)
        assert np.array_equal(after.superoperator,
                              nl.compile_netlist(nl.parse(edited)).superoperator)
        pnl.write_text(PNL)
        assert chip.build() is before

    def test_missing_netlist_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read netlist"):
            ChipConfig(netlist_path=str(tmp_path / "absent.pnl")).build()

    def test_inline_parameters_beside_the_path_are_a_config_error(self):
        # a netlist chip takes its parameters from its netlist, so an inline
        # parameter set beside the path would be silently ignored
        with pytest.raises(ConfigError, match=r"^chip sets netlist_path, so its inline "
                           r"parameters would be ignored: pcnot_extinction_db, facet_xtalk$"):
            ChipConfig(netlist_path="swap.pnl", pcnot_extinction_db=35.0, facet_xtalk=0.3)
        with pytest.raises(ConfigError, match=r": depol_prob$"):
            load_config(_doc(netlist_path="swap.pnl", depol_prob=0.1))
        # zero and None are the defaults, which lower to nothing
        assert ChipConfig(netlist_path="swap.pnl", pcnot_extinction_db=None,
                          facet_xtalk=0.0) == ChipConfig(netlist_path="swap.pnl")


    @pytest.mark.parametrize("paths, out", [
        (("demos/data/swap_measured.pnl", None), None),
        (("/abs/swap.pnl", None), None),
        ((None, None), None),
        # each path rewritten in one pass: the first becomes the second one's text
        (("out/out/x.pnl", "out/x.pnl"), "out"),
        (('q "a"\\b/\u00e9\n.pnl', "/abs/swap.pnl"), None),
    ], ids=["relative", "absolute", "inline", "onto-another-path", "escaped"])
    def test_rewritten_config_equals_the_rewritten_config_object(self, tmp_path, paths, out):
        # config.json reruns from the output directory: a relative netlist
        # path is rewritten against it, byte for byte as a config object
        # holding the rewritten path dumps
        import os
        from dataclasses import replace

        cfg = replace(ExperimentConfig.measured_chip(),
                      chips=tuple(ChipConfig(netlist_path=p) for p in paths))
        out = tmp_path / "out" if out is None else out
        rel = tuple(replace(c, netlist_path=os.path.relpath(c.netlist_path, out))
                    if c.netlist_path is not None and not os.path.isabs(c.netlist_path)
                    else c for c in cfg.chips)
        doc = relocate_config(dump_config(cfg), cfg, out)
        assert doc == dump_config(replace(cfg, chips=rel))
        assert (doc == dump_config(cfg)) == (rel == cfg.chips)


class TestDecodeCache:
    # a config file is read on every call, and its text decoded once per
    # process (`config._decode`, keyed on the text and on the directory that
    # resolves its relative netlist paths)
    def test_a_repeated_text_is_decoded_once(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(ExperimentConfig.measured_chip(rng_seed=11)))
        assert load_config(str(path)) is load_config(str(path))

    def test_a_file_edited_between_dispatches_gives_the_new_config(self, tmp_path, capsys):
        from swapsim import cli

        path = tmp_path / "cfg.json"
        runs = []
        for residual in (0.1, 0.2, 0.1):
            path.write_text(dump_config(ExperimentConfig.measured_chip(
                fiber_residual_rad=residual)))
            out = tmp_path / f"out{len(runs)}"
            assert cli.dispatch(["fringe", "--config", str(path), "--trials", "1",
                                 "--out", str(out)]) == 0
            runs.append((json.loads((out / "report.json").read_text())["meta"]["config_hash"],
                         load_config(str(out / "config.json")).fiber_residual_rad))
        assert [residual for _, residual in runs] == [0.1, 0.2, 0.1]
        assert runs[0][0] != runs[1][0] and runs[0][0] == runs[2][0]

    def test_a_bad_config_raises_on_every_call(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(ExperimentConfig.measured_chip()))
        load_config(str(path))
        path.write_text(json.dumps({"schema_version": 1, "n_trials": 0}))
        for _ in range(2):
            with pytest.raises(ConfigError, match="^n_trials must be >= 1, got 0$"):
                load_config(str(path))

    def test_the_same_text_resolves_against_each_directory(self, tmp_path):
        text = _doc(netlist_path="swap.pnl")
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            d.mkdir()
            (d / "cfg.json").write_text(text)
        assert [load_config(str(d / "cfg.json")).chips[0].netlist_path for d in dirs] == [
            str(d / "swap.pnl") for d in dirs]
        assert load_config(text).chips[0].netlist_path == "swap.pnl"


class TestLegacyKeys:
    def test_wavelength_key_of_older_documents_is_dropped(self):
        cfg = ExperimentConfig.measured_chip()
        doc = json.loads(dump_config(cfg))
        assert "wavelength_nm" not in doc
        doc["wavelength_nm"] = 1550.0
        assert load_config(json.dumps(doc)) == cfg

    @pytest.mark.parametrize("seed", [7, 12345])
    def test_fiber_seed_key_of_older_documents_is_dropped(self, seed):
        # the seeded fiber rotation was inverted exactly by its compensation,
        # so every seed gave the same physics
        text = dump_config(ExperimentConfig.measured_chip())
        doc = json.loads(text)
        assert "fiber_seed" not in doc
        doc["fiber_seed"] = seed
        assert load_config(json.dumps(doc)) == load_config(text)

    def test_source_wavelength_keys_of_older_documents_are_dropped(self):
        cfg = ExperimentConfig.measured_chip()
        doc = json.loads(dump_config(cfg))
        assert "lambda_pump_nm" not in doc["source"]
        doc["source"].update(lambda_pump_nm=778.5, lambda_signal_nm=1557.0)
        assert load_config(json.dumps(doc)) == cfg

    @pytest.mark.parametrize("preset", [ExperimentConfig, ExperimentConfig.measured_chip])
    def test_gaussian_dip_shape_of_older_documents_is_dropped(self, preset):
        # every config.json written while the source had a dip_shape field holds this member
        cfg = preset()
        doc = json.loads(dump_config(cfg))
        doc["source"]["dip_shape"] = "gaussian"
        older = load_config(json.dumps(doc))
        assert older == cfg
        assert config_digest(older) == config_digest(cfg)

    @pytest.mark.parametrize("shape", ["triangular", 0])
    def test_any_other_dip_shape_is_one_config_error(self, shape):
        # the HOM dip is fitted as a Gaussian, so no other shape may load as one
        doc = json.dumps({"schema_version": 1, "source": {"dip_shape": shape}})
        with pytest.raises(ConfigError) as info:
            load_config(doc)
        assert str(info.value) == (
            f'the HOM dip is Gaussian: dip_shape must be "gaussian", got {shape!r}')

    def test_unknown_key_still_rejected(self):
        with pytest.raises(ConfigError, match="bad experiment fields"):
            load_config(json.dumps({"schema_version": 1, "base_dir": "."}))


class TestIllTypedValues:
    # JSON admits any value anywhere: a value of the wrong type is one
    # config error naming the field, never a traceback or a silent coercion
    @pytest.mark.parametrize("chips", [5, None, "ab", {"netlist_path": "x.pnl"}])
    def test_chips_must_be_a_list(self, chips):
        words = f"^chips must be a JSON list, got {re.escape(repr(chips))}$"
        with pytest.raises(ConfigError, match=words):
            load_config(json.dumps({"schema_version": 1, "chips": chips}))

    @pytest.mark.parametrize("where, key, value, words", [
        ("chip", "netlist_path", 5, "a string"),
        ("chip", "netlist_chip", ["swap"], "a string"),
        ("experiment", "fringe_output_polarizer", "no", "true or false"),
        # `1` once gave a config equal to `true`'s, with another config_hash
        ("experiment", "fringe_output_polarizer", 1, "true or false"),
        ("experiment", "fringe_output_polarizer", None, "true or false"),
        ("experiment", "hom_input", None, "a string"),
        ("source", "bell_visibility", "0.9", "a finite number"),
    ])
    def test_wrong_type_names_the_field(self, tmp_path, where, key, value, words):
        doc = {"schema_version": 1, "chips": [{}], "source": {}}
        {"chip": doc["chips"][0], "experiment": doc, "source": doc["source"]}[where][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError,
                           match=f"^{key} must be {words}, got {re.escape(repr(value))}$"):
            load_config(str(path))

    @pytest.mark.parametrize("doc", [
        {"schema_version": 1, "chips": 5},
        {"schema_version": 1, "chips": [{"netlist_path": 5}]},
        {"schema_version": 1, "fringe_output_polarizer": "no"},
    ], ids=["chips", "netlist_path", "fringe_output_polarizer"])
    def test_cli_exits_1_with_one_line(self, tmp_path, capsys, doc):
        from swapsim import cli

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.dispatch(["fringe", "--config", str(path), "--trials", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: ")


class TestFacetXtalk:
    @pytest.mark.parametrize("value", [1.5, -1.5])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(ConfigError, match="facet_xtalk"):
            ChipConfig(facet_xtalk=value)

    def test_bounds_accepted(self):
        for value in (-1.0, 0.0, 1.0):
            ChipConfig(facet_xtalk=value).build()


# each field with a domain -> (the domain in words, a value outside it, a
# value inside it on its edge)
DOMAINS = {
    "pcnot_extinction_db": ("> 0 dB", 0.0, 5e-324),
    "mcnot_extinction_db": ("> 0 dB", -3.0, 5e-324),
    "pcnot_loss_imbalance_db": ("finite and >= 0 dB", -0.5, 0.0),
    "mcnot_loss_db_t": ("finite and >= 0 dB", -0.5, 0.0),
    "mcnot_loss_db_b": ("finite and >= 0 dB", -5e-324, 0.0),
    # an angle's domain, every finite number, is the float type's own rule
    "mcnot_rotation_error_rad": ("a finite number", math.inf, -sys.float_info.max),
    "facet_loss_db_h": ("finite and >= 0 dB", -0.5, 0.0),
    "facet_loss_db_v": ("finite and >= 0 dB", -0.5, sys.float_info.max),
    "facet_xtalk": ("in [-1, 1]", 1.5, -1.0),
    "depol_prob": ("in [0, 1]", 1.5, 1.0),
    "coherence_time_ps": ("> 0", 0.0, 5e-324),
    "bell_visibility": ("in [0, 1]", 2.0, 0.0),
    "pair_rate_hz": ("> 0", -1.0, 5e-324),
    "integration_time_s": ("> 0", 0.0, 5e-324),
    "background_rate_hz": (">= 0", -1e-300, 0.0),
    "n_trials": (">= 1", 0, 1),
    "logical_frame": ("one of 'raw', 'relabeled'", "diagonal", "relabeled"),
    "fringe_port": ("one of 'T', 'B'", "t", "B"),
    "fringe_time_per_point_s": ("> 0", -1.0, 5e-324),
    "hom_input": ("one of 'TV_BH', 'TH_BV', 'source'", "TV_HB", "source"),
    "fpc_mode": ("one of 'auto', 'ideal', 'none'", "off", "none"),
}
# one out-of-range value of each inline chip parameter
OUT_OF_RANGE = {name: outside for name, (_, outside, _) in DOMAINS.items()
                if name in ChipConfig.__dataclass_fields__}


def _field_doc(name: str, value) -> str:
    """A config document that sets the field `name` to `value` and nothing else."""
    doc = {"schema_version": 1}
    if name in ChipConfig.__dataclass_fields__:
        doc["chips"] = [{name: value}]
    elif name in SourceConfig.__dataclass_fields__:
        doc["source"] = {name: value}
    else:
        doc[name] = value
    return json.dumps(doc)


class TestDomains:
    # each field's domain is declared once, in `config._DOMAINS`, and a value
    # outside it is one config error with one wording
    def test_every_field_with_a_domain_is_covered(self):
        assert set(DOMAINS) == set(cfgmod._DOMAINS)

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_a_value_outside_the_domain_raises_and_one_on_its_edge_loads(self, name):
        words, outside, inside = DOMAINS[name]
        with pytest.raises(ConfigError, match=f"^{name} must be {re.escape(words)}, "
                                              f"got {re.escape(repr(outside))}$"):
            load_config(_field_doc(name, outside))
        cfg = load_config(_field_doc(name, inside))
        where = (cfg.chips[0] if name in ChipConfig.__dataclass_fields__ else
                 cfg.source if name in SourceConfig.__dataclass_fields__ else cfg)
        assert getattr(where, name) == inside


class TestChipParameterRanges:
    # an inline chip parameter has the unit and the range of the netlist
    # parameter it lowers to
    def test_every_inline_parameter_is_covered(self):
        names = {f.name for f in fields(ChipConfig)} - {"netlist_path", "netlist_chip"}
        assert set(OUT_OF_RANGE) == names

    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
    def test_out_of_range_value_names_the_field(self, name, tmp_path):
        with pytest.raises(ConfigError, match=f"^{name} must be ") as exc:
            ChipConfig(**{name: OUT_OF_RANGE[name]})
        assert "\n" not in str(exc.value)
        path = tmp_path / "cfg.json"
        path.write_text(_doc(**{name: OUT_OF_RANGE[name]}))
        with pytest.raises(ConfigError, match=f"^{name} must be "):
            load_config(str(path))

    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE))
    def test_the_netlist_rejects_the_same_value(self, name):
        from swapsim import config

        kinds, param = config._CHIP_PARAMS[name]
        for kind in kinds:
            ports = ", ".join(("T", "B")[:nl.COMPONENTS[kind][0][0]])
            text = (f"chip c {{ ports T, B; {kind} x ({ports}) "
                    f"{param}={nl._fmt_number(OUT_OF_RANGE[name])}; }}")
            with pytest.raises(nl.CompileError) as exc:
                nl.compile_netlist(nl.parse(text))
            assert exc.value.code == "param-range"

    def test_lowered_units_are_the_unit_classes(self):
        chip = ChipConfig(**{name: 0.5 for name in OUT_OF_RANGE}).to_netlist()
        for st in chip.statements:
            for p in st.params:
                unit_class = nl.COMPONENTS[st.kind][1][p.name]
                assert p.unit == nl._UNIT_CLASSES[unit_class][0]


# ---------------------------------------------------------------------------
# the canonical document
# ---------------------------------------------------------------------------

def _numbers(lo, hi, ok=lambda v: True):
    """(value, twin) pairs of equal numbers in [lo, hi] that pass `ok`: the
    value a float (-0.0 among them) or an int, the twin the plain float."""
    return ((st.floats(lo, hi) | st.integers(math.ceil(lo), math.floor(hi))).filter(ok)
            .map(lambda v: (v, float(v) + 0.0)))


def _same(values):
    return values.map(lambda v: (v, v))


def _both(cls, pairs: dict) -> tuple:
    return tuple(cls(**{name: pair[i] for name, pair in pairs.items()}) for i in (0, 1))


@st.composite
def twin_configs(draw):
    """Two equal valid configs built apart: inline chips with parameters in
    range, netlist chips and sources; a number drawn as an int or as -0.0
    in the first is a plain float in the second."""
    chips = []
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            path, name = draw(st.text(max_size=12)), draw(st.none() | st.text(max_size=6))
            chips.append((ChipConfig(netlist_path=path, netlist_chip=name),) * 2)
        else:
            chips.append(_both(ChipConfig, draw(st.fixed_dictionaries({}, optional={
                name: _numbers(-100, 100, cfgmod._CHIP_UNITS[name][1])
                for name in cfgmod._CHIP_PARAMS}))))
    source = _both(SourceConfig, draw(st.fixed_dictionaries({}, optional={
        "coherence_time_ps": _numbers(0, 100, lambda v: v > 0),
        "bell_visibility": _numbers(0, 1)})))
    fields = draw(st.fixed_dictionaries({}, optional={
        "pair_rate_hz": _numbers(0, 1e6, lambda v: v > 0),
        "integration_time_s": _numbers(0, 1e3, lambda v: v > 0),
        "background_rate_hz": _numbers(0, 1e3),
        "n_trials": _same(st.integers(1, 1000)),
        "rng_seed": _same(st.integers(-2**63, 2**64)),
        "logical_frame": _same(st.sampled_from(["raw", "relabeled"])),
        "fringe_port": _same(st.sampled_from(["T", "B"])),
        "fringe_output_polarizer": _same(st.booleans()),
        "hom_input": _same(st.sampled_from(["TV_BH", "TH_BV", "source"])),
        "fiber_residual_rad": _numbers(-10, 10)}))
    return tuple(ExperimentConfig(chips=tuple(c[i] for c in chips), source=source[i],
                                  **{name: pair[i] for name, pair in fields.items()})
                 for i in (0, 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(twin_configs())
def test_the_document_round_trips_and_equal_configs_hash_alike(twins):
    cfg, twin = twins
    assert cfg == twin
    text = dump_config(cfg)
    assert text.endswith("\n") and text.count("\n") == 1
    assert text[:-1] == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert load_config(text) == cfg
    assert dump_config(twin) == text
    assert config_digest(twin) == config_digest(cfg)


def test_indented_documents_still_load():
    cfg = ExperimentConfig.measured_chip()
    assert load_config(json.dumps(json.loads(dump_config(cfg)), indent=2)) == cfg
