import json

import pytest

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

    def test_missing_netlist_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read netlist"):
            ChipConfig(netlist_path=str(tmp_path / "absent.pnl")).build()


class TestLegacyKeys:
    def test_wavelength_key_of_older_documents_is_dropped(self):
        cfg = ExperimentConfig.measured_chip()
        doc = json.loads(dump_config(cfg))
        assert "wavelength_nm" not in doc
        doc["wavelength_nm"] = 1550.0
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
