import json
import math
from dataclasses import fields

import numpy as np
import pytest

from swapsim import netlist as nl
from swapsim.config import (ChipConfig, ConfigError, ExperimentConfig, dump_config,
                            load_config)

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


    @pytest.mark.parametrize("path", ["demos/data/swap_measured.pnl", "/abs/swap.pnl", None],
                             ids=["relative", "absolute", "inline"])
    def test_rewritten_config_equals_the_rewritten_config_object(self, tmp_path, path):
        # config.json reruns from the output directory: a relative netlist
        # path is rewritten against it, byte for byte as a config object
        # holding the rewritten path dumps
        import os
        from dataclasses import replace

        cfg = replace(ExperimentConfig.measured_chip(),
                      chips=(ChipConfig(netlist_path=path), ChipConfig()))
        out = tmp_path / "out"
        rel = tuple(replace(c, netlist_path=os.path.relpath(c.netlist_path, out))
                    if c.netlist_path is not None and not os.path.isabs(c.netlist_path)
                    else c for c in cfg.chips)
        assert dump_config(cfg, relative_to=out) == dump_config(replace(cfg, chips=rel))
        assert (dump_config(cfg, relative_to=out) == dump_config(cfg)) == (rel == cfg.chips)


class TestLegacyKeys:
    def test_wavelength_key_of_older_documents_is_dropped(self):
        cfg = ExperimentConfig.measured_chip()
        doc = json.loads(dump_config(cfg))
        assert "wavelength_nm" not in doc
        doc["wavelength_nm"] = 1550.0
        assert load_config(json.dumps(doc)) == cfg

    def test_source_wavelength_keys_of_older_documents_are_dropped(self):
        cfg = ExperimentConfig.measured_chip()
        doc = json.loads(dump_config(cfg))
        assert "lambda_pump_nm" not in doc["source"]
        doc["source"].update(lambda_pump_nm=778.5, lambda_signal_nm=1557.0)
        assert load_config(json.dumps(doc)) == cfg

    def test_unknown_key_still_rejected(self):
        with pytest.raises(ConfigError, match="bad experiment fields"):
            load_config(json.dumps({"schema_version": 1, "base_dir": "."}))


class TestFacetXtalk:
    @pytest.mark.parametrize("value", [1.5, -1.5])
    def test_out_of_range_rejected(self, value):
        with pytest.raises(ConfigError, match="facet_xtalk"):
            ChipConfig(facet_xtalk=value)

    def test_bounds_accepted(self):
        for value in (-1.0, 0.0, 1.0):
            ChipConfig(facet_xtalk=value).build()


# one out-of-range value of each inline chip parameter
OUT_OF_RANGE = {
    "pcnot_extinction_db": 0.0, "mcnot_extinction_db": -3.0, "pcnot_loss_imbalance_db": -0.5,
    "mcnot_loss_db_t": -0.5, "mcnot_loss_db_b": -0.5, "mcnot_rotation_error_rad": math.inf,
    "facet_loss_db_h": -0.5, "facet_loss_db_v": -0.5, "facet_xtalk": 1.5, "depol_prob": 1.5,
}


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
