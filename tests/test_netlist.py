import math
import warnings

import numpy as np
import pytest

from pathlib import Path

from swapsim import devices as dv
from swapsim import netlist as nl
from swapsim._memo import MEMOS
from swapsim.config import ChipConfig, ExperimentConfig

SAMPLE_PNL = Path(__file__).resolve().parent.parent / "demos" / "data" / "swap_measured.pnl"

SWAP_SRC = """\
chip swap {
  ports T, B;
  pcnot c1 (T, B) extinction=18dB;
  mcnot r1 (T) extinction=20dB loss=1dB;
  pcnot c2 (T, B) extinction=18dB;
}
"""

IDEAL_SRC = """\
chip swap {
  ports T, B;
  pcnot c1 (T, B);
  mcnot r1 (T);
  pcnot c2 (T, B);
}
"""


def oracle_chip(pc_params, mc_params, facet=(0.0, 0.0, 0.0)):
    """The facet / PC-NOT / MC-NOT / PC-NOT / facet cascade composed
    directly from the device channel functions, without the compiler."""
    f = dv.facet_channel(*facet)
    pc = dv.pcnot_channel(**pc_params)
    mc = dv.mcnot_channel(**mc_params)
    return dv.ChipModel((f, pc, mc, pc, f))


# a corpus of valid sources exercising every component kind and unit form
def _corpus():
    sources = [SWAP_SRC, IDEAL_SRC]
    kinds_single = [
        "hwp w1 (T) angle=22.5deg;",
        "qwp w2 (B) angle=0.785rad;",
        "phase_v pv (T) phase=90deg;",
        "polarizer p1 (T) angle=45deg;",
        "fiber f1 (B) loss=0.2dB phase=0.1rad;",
        "loss l1 (T) loss=3dB;",
        "mcnot m1 (B) extinction=25dB loss=0.5dB loss_other=0.1dB;",
    ]
    kinds_double = [
        "bs5050 b1 (T, B);",
        "mzi z1 (T, B) phase=1.5707963267948966;",
        "facet fa (T, B) loss_h=3dB loss_v=3.45dB xtalk=0.05;",
        "pcnot pc (T, B) extinction=18dB imbalance=0.45dB;",
        "pcnot pr (B, T) extinction=22dB;",
    ]
    for stmt in kinds_single + kinds_double:
        sources.append("chip c {\n  ports T, B;\n  %s\n}\n" % stmt)
    # combined chips with several statements and comments
    sources.append(
        "# full cascade with analysis optics\n"
        "chip full {\n  ports T, B;\n"
        "  facet fin (T, B) loss_h=3dB loss_v=3dB;\n"
        "  pcnot c1 (T, B) extinction=18dB imbalance=0.45dB;\n"
        "  mcnot r1 (T) extinction=20dB loss=1dB;\n"
        "  pcnot c2 (T, B) extinction=18dB imbalance=0.45dB;\n"
        "  facet fout (T, B) loss_h=3dB loss_v=3dB;\n"
        "}\n")
    sources.append("chip two { ports A, Bp; pcnot x (A, Bp); }\n"
                   "chip three { ports T, B; mcnot y (B); }\n")
    sources.append("chip spaces { ports T, B; pcnot c (T, B) extinction=18 dB; }\n")
    sources.append("chip bare { ports T, B; pcnot c (T, B) extinction=18; }\n")
    sources.append("chip sci { ports T, B; loss l (T) loss=1e-1dB; }\n")
    sources.append("chip neg { ports T, B; phase_v p (T) phase=-0.5rad; }\n")
    sources.append("chip depol { ports T, B; pcnot c (T, B) extinction=18dB depol=0.01; }\n")
    sources.append("chip rot { ports T, B; mcnot m (T) rotation_error=1deg; }\n")
    return sources


class TestParse:
    def test_example_cascade(self):
        ast = nl.parse(SWAP_SRC)
        assert len(ast.chips) == 1
        chip = ast.chips[0]
        assert chip.name == "swap"
        assert chip.ports == ("T", "B")
        assert len(chip.statements) == 3
        assert [s.kind for s in chip.statements] == ["pcnot", "mcnot", "pcnot"]
        assert chip.statements[1].params[1].name == "loss"
        assert chip.statements[1].params[1].unit == "dB"

    def test_empty_input(self):
        with pytest.raises(nl.ParseError) as exc:
            nl.parse("")
        assert "expected 'chip'" in exc.value.message
        assert exc.value.span.line == 1
        assert exc.value.span.column == 1

    def test_undeclared_port(self):
        src = "chip c { ports T, B; pcnot c1 (T, X); }"
        with pytest.raises(nl.ParseError) as exc:
            nl.parse(src)
        assert exc.value.code == "undeclared-port"
        assert src[exc.value.span.start:exc.value.span.end] == "X"

    def test_unknown_kind(self):
        with pytest.raises(nl.ParseError) as exc:
            nl.parse("chip c { ports T, B; gizmo g (T); }")
        assert exc.value.code == "unknown-kind"

    def test_unknown_unit(self):
        with pytest.raises(nl.ParseError) as exc:
            nl.parse("chip c { ports T, B; pcnot c1 (T, B) extinction=18qB; }")
        assert exc.value.code == "unknown-unit"

    def test_nm_is_an_unknown_unit(self):
        with pytest.raises(nl.ParseError) as exc:
            nl.parse("chip c { ports T, B; hwp w (T) angle=800nm; }")
        assert exc.value.code == "unknown-unit"

    def test_duplicate_instance(self):
        with pytest.raises(nl.ParseError) as exc:
            nl.parse("chip c { ports T, B; pcnot a (T, B); mcnot a (T); }")
        assert exc.value.code == "duplicate-instance"

    def test_deg_converts_at_parse(self):
        ast = nl.parse("chip c { ports T, B; hwp w (T) angle=45deg; }")
        p = ast.chips[0].statements[0].params[0]
        assert p.unit == "rad"
        assert p.value == pytest.approx(math.pi / 4)

    def test_fuzz_never_escapes_parse_error(self):
        rng = np.random.default_rng(7)
        alphabet = list("chip ports pcnot mcnot {}();,=0123456789.dBradegnm_ \n#abcxyzTB")
        for _ in range(600):
            n = int(rng.integers(0, 100))
            src = "".join(rng.choice(alphabet) for _ in range(n))
            try:
                nl.parse(src)
            except nl.ParseError as err:
                assert 0 <= err.span.start <= err.span.end <= len(src)
                assert err.span.line >= 1 and err.span.column >= 1

    def test_every_error_span_is_inside_input(self):
        bad = [
            "",
            "chip",
            "chip c {",
            "chip c { ports T; }",
            "chip c { ports T, B; pcnot (T, B); }",
            "chip c { ports T, B; gizmo g (T); }",
            "chip c { ports T, B; pcnot c1 (T, X); }",
            "chip c { ports T, B; pcnot c1 (T, B) extinction=18zz; }",
            "chip c { ports T, B; pcnot c1 (T, B) extinction=; }",
            "chip c { ports T, B; pcnot c1 (T, B) }",
        ]
        for src in bad:
            with pytest.raises(nl.ParseError) as exc:
                nl.parse(src)
            span = exc.value.span
            assert 0 <= span.start <= span.end <= len(src)
            assert span.line >= 1 and span.column >= 1


class TestFormat:
    def test_golden_canonical_form(self):
        ast = nl.parse(SWAP_SRC)
        assert nl.format_netlist(ast) == (
            "chip swap {\n"
            "  ports T, B;\n"
            "  pcnot c1 (T, B) extinction=18dB;\n"
            "  mcnot r1 (T) extinction=20dB loss=1dB;\n"
            "  pcnot c2 (T, B) extinction=18dB;\n"
            "}\n")

    def test_idempotent(self):
        for src in _corpus():
            once = nl.format_netlist(nl.parse(src))
            twice = nl.format_netlist(nl.parse(once))
            assert once == twice

    def test_infinite_values_round_trip(self):
        src = "chip c { ports T, B; pcnot a (T, B) extinction=1e999dB depol=-1e999; }"
        out = nl.format_netlist(nl.parse(src))
        assert "extinction=1e999dB depol=-1e999;" in out
        assert nl.parse(out).structure() == nl.parse(src).structure()

    def test_comments_discarded(self):
        src = "# top comment\nchip c { ports T, B; # inline\n pcnot a (T, B); }"
        out = nl.format_netlist(nl.parse(src))
        assert "#" not in out

    def test_roundtrip_structural_equality_corpus(self):
        corpus = _corpus()
        assert len(corpus) >= 20
        for src in corpus:
            ast = nl.parse(src)
            again = nl.parse(nl.format_netlist(ast))
            assert again.structure() == ast.structure()


def _clear_memos():
    for cached in MEMOS.values():
        cached.cache_clear()


class TestCompile:
    def test_ideal_cascade_matches_builder_oracle(self):
        chip = nl.compile_netlist(nl.parse(IDEAL_SRC))
        built = oracle_chip({}, {})
        d = np.linalg.norm(chip.superoperator - built.superoperator)
        assert d <= 1e-10
        u = dv.ideal_swap_unitary()
        d2 = np.linalg.norm(chip.superoperator - np.kron(u, u.conj()))
        assert d2 <= 1e-10

    def test_measured_cascade_bit_identical_to_builder(self):
        chip = nl.compile_netlist(nl.parse(SWAP_SRC))
        built = oracle_chip({"extinction": 18.0},
                            {"extinction": 20.0, "loss": 1.0})
        assert np.array_equal(chip.superoperator, built.superoperator)

    def test_three_ports_rejected(self):
        ast = nl.parse("chip c { ports T, B, C; pcnot a (T, B); }")
        with pytest.raises(nl.CompileError) as exc:
            nl.compile_netlist(ast)
        assert exc.value.code == "port-count"

    def test_parameter_out_of_range(self):
        ast = nl.parse("chip c { ports T, B; pcnot a (T, B) extinction=-3dB; }")
        with pytest.raises(nl.CompileError) as exc:
            nl.compile_netlist(ast)
        assert exc.value.code == "param-range"

    def test_unknown_parameter(self):
        ast = nl.parse("chip c { ports T, B; pcnot a (T, B) wibble=3; }")
        with pytest.raises(nl.CompileError) as exc:
            nl.compile_netlist(ast)
        assert exc.value.code == "unknown-param"

    def test_unit_mismatch(self):
        ast = nl.parse("chip c { ports T, B; pcnot a (T, B) extinction=18rad; }")
        with pytest.raises(nl.CompileError) as exc:
            nl.compile_netlist(ast)
        assert exc.value.code == "bad-unit"

    def test_deterministic_bit_identical(self):
        a = nl.compile_netlist(nl.parse(SWAP_SRC)).superoperator
        b = nl.compile_netlist(nl.parse(SWAP_SRC)).superoperator
        assert np.array_equal(a, b)

    def test_caches_stay_within_their_bounds(self):
        # more distinct texts, chips, configs and fiber links than any
        # bounded memo of the registry holds: each chip is a text of its
        # own, and so is each config; a bounded memo that this loop does
        # not overfill fails here
        import importlib

        import swapsim
        from swapsim import biphoton as bp
        from swapsim import config

        for name in swapsim._SUBMODULES:
            importlib.import_module(f"swapsim.{name}")
        bounds = {name: cached.cache_info().maxsize for name, cached in MEMOS.items()
                  if cached.cache_info().maxsize is not None}
        for i in range(0, 8 * (max(bounds.values()) + 1), 8):
            body = " ".join(f"loss l{j} (T) loss={j / 1000}dB;" for j in range(i, i + 8))
            nl.compile_netlist(nl.parse(f"chip c {{ ports T, B; {body} }}"))
            config.load_config(f'{{"schema_version": 1, "rng_seed": {i}}}')
            bp.fiber_link(i, 0.0)
        assert {name: MEMOS[name].cache_info().currsize for name in bounds} == bounds

    def test_each_distinct_chip_compiled_once(self):
        chip = nl.parse(SWAP_SRC).chips[0]
        _clear_memos()
        assert nl.compile_chip(chip) is nl.compile_chip(chip)
        assert nl.compile_netlist(nl.parse(SWAP_SRC)) is nl.compile_chip(chip)
        info = nl.compile_chip.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_signs_of_zeros_compile_to_one_chip(self):
        # equal declarations as tuples (+0 == -0, the same spans) share one
        # cache entry, which is sound because every zero compiles as +0: the
        # -0 chip has the bytes of a cold +0 compile
        src = ("chip c {{ ports T, B; phase_v p (T) phase={0}rad; hwp w (B) angle={0}deg;"
               " mcnot m (T) loss={0}dB rotation_error={0}rad; facet f (T, B) xtalk={0}; }}")
        plus, minus = (nl.parse(src.format(v)).chips[0] for v in ("+0", "-0"))
        assert plus == minus
        assert all(math.copysign(1.0, v) == 1.0
                   for st in minus.statements for v in nl._checked_params(st).values())

        def image(model):
            return ([k.tobytes() for stage in model.stages for k in stage.kraus],
                    model.superoperator.tobytes())

        _clear_memos()
        cold_plus = image(nl.compile_chip(plus))
        _clear_memos()
        model = nl.compile_chip(minus)
        assert nl.compile_chip(plus) is model
        assert image(model) == cold_plus

    def test_compile_errors_are_not_cached(self):
        chip = nl.parse("chip c { ports T, B; loss a (T) loss=1dB;\n"
                        "  pcnot b (T, B) extinction=18rad; }").chips[0]
        _clear_memos()
        for _ in range(2):
            with pytest.raises(nl.CompileError) as exc:
                nl.compile_chip(chip)
            assert (exc.value.code, str(exc.value.span)) == ("bad-unit", "2:18")
        assert nl.compile_chip.cache_info().currsize == 0

    def test_whole_corpus_compiles(self):
        for src in _corpus():
            ast = nl.parse(src)
            for chip in ast.chips:
                model = nl.compile_chip(chip)
                assert model.superoperator.shape == (16, 16)

    def test_reversed_ports_swap_roles(self):
        fwd = nl.compile_netlist(nl.parse(
            "chip c { ports T, B; mcnot m (T); }")).superoperator
        rev = nl.compile_netlist(nl.parse(
            "chip c { ports T, B; mcnot m (B); }")).superoperator
        swap = np.kron(np.array([[0, 1], [1, 0]]), np.eye(2))
        swap2 = np.kron(swap, swap)
        np.testing.assert_allclose(rev, swap2 @ fwd @ swap2, atol=1e-15)

    def test_mzi_statement_is_spatial_transfer(self):
        chip = nl.compile_netlist(nl.parse(
            "chip c { ports T, B; mzi z (T, B) phase=180deg; }"))
        expect = np.kron(dv.mzi_transfer(math.pi), np.eye(2))
        np.testing.assert_allclose(chip.superoperator, np.kron(expect, expect.conj()),
                                   atol=1e-12)


# every (kind, parameter) pair of the component table
PAIRS = [(kind, name) for kind, (_, table) in nl.COMPONENTS.items() for name in table]
# unit class -> (values out of its range, extreme values in it, a value
# that is not the constructor's default), spelled in the class's unit
VALUES = {
    "extinction": (["0dB", "-3dB", "-1e999dB"], ["1e999dB", "1e-300dB", "1e308dB"], "10dB"),
    "loss": (["-1dB", "1e999dB"], ["0dB", "1e308dB"], "1dB"),
    "angle": (["1e999rad", "-1e999rad"], ["1e308rad", "-1e308rad"], "0.3rad"),
    "probability": (["-0.5", "1.5", "1e999"], ["0", "1"], "0.1"),
    "amplitude": (["-1.5", "1.5", "1e999"], ["-1", "1"], "0.1"),
}


def _statement(kind, params=""):
    ports = "T" if 1 in nl.COMPONENTS[kind][0] else "T, B"
    return f"chip c {{ ports T, B; {kind} s ({ports}) {params}; }}"


def _compile(src):
    return nl.compile_netlist(nl.parse(src))


class TestComponentTable:
    def test_values_cover_every_unit_class(self):
        assert set(VALUES) == set(nl._UNIT_CLASSES)

    @pytest.mark.parametrize("kind, name", PAIRS)
    def test_out_of_range_is_param_range_naming_the_parameter(self, kind, name):
        for value in VALUES[nl.COMPONENTS[kind][1][name]][0]:
            src = _statement(kind, f"{name}={value}")
            with pytest.raises(nl.CompileError) as exc:
                _compile(src)
            assert exc.value.code == "param-range"
            assert exc.value.message.startswith(f"parameter {name} must be ")
            assert src[exc.value.span.start:exc.value.span.end] == f"{name}={value}"

    @pytest.mark.parametrize("kind, name", PAIRS)
    def test_extreme_values_in_range_compile(self, kind, name):
        for value in VALUES[nl.COMPONENTS[kind][1][name]][1]:
            assert _compile(_statement(kind, f"{name}={value}")).superoperator.shape == (16, 16)

    @pytest.mark.parametrize("kind, name", PAIRS)
    def test_every_parameter_changes_its_stage(self, kind, name):
        value = VALUES[nl.COMPONENTS[kind][1][name]][2]
        plain = _compile(_statement(kind)).superoperator
        assert not np.array_equal(_compile(_statement(kind, f"{name}={value}")).superoperator,
                                  plain)

    @pytest.mark.parametrize("stmt, message", [
        ("phase_v p (T) phase=1e999rad", "parameter phase must be finite, got inf"),
        ("hwp w (T) angle=1e999rad", "parameter angle must be finite, got inf"),
        ("loss l (T) loss=1e999dB", "parameter loss must be finite and >= 0 dB, got inf"),
    ])
    def test_infinite_values_are_param_range_without_warnings(self, stmt, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nl.CompileError) as exc:
                _compile(f"chip c {{ ports T, B; {stmt}; }}")
        assert (exc.value.code, exc.value.message) == ("param-range", message)

    def test_a_parameter_an_override_leaves_unused_is_still_checked(self):
        with pytest.raises(nl.CompileError) as exc:
            _compile("chip c { ports T, B; pcnot c (T, B) extinction=-3dB "
                     "extinction_h=18dB extinction_v=18dB; }")
        assert exc.value.code == "param-range"
        assert exc.value.message == "parameter extinction must be > 0 dB, got -3.0"

    def test_mzi_takes_no_extinction(self):
        with pytest.raises(nl.CompileError) as exc:
            _compile("chip c { ports T, B; mzi z (T, B) phase=0.3rad extinction=20dB; }")
        assert exc.value.code == "unknown-param"


class TestConfigLowering:
    def test_measured_config_formats_as_sample_netlist(self):
        decl = ExperimentConfig.measured_chip().chips[0].to_netlist()
        want = nl.format_netlist(nl.parse(SAMPLE_PNL.read_text()))
        assert nl.format_netlist(nl.NetlistAst((decl,))) == want

    def test_measured_config_stages_bit_identical_to_oracle(self):
        chip = ExperimentConfig.measured_chip().chip(0)
        oracle = oracle_chip({"extinction": 18.0, "imbalance": 0.45},
                             {"extinction": 20.0, "loss": 1.0},
                             facet=(3.0, 3.0, 0.0))
        assert len(chip.stages) == len(oracle.stages) == 5
        for got, want in zip(chip.stages, oracle.stages):
            assert all(np.array_equal(a, b) for a, b in zip(got.kraus, want.kraus))

    def test_every_knob_lowers_bit_identical_to_oracle(self):
        cfg = ChipConfig(pcnot_extinction_db=22.0, mcnot_extinction_db=25.0,
                         pcnot_loss_imbalance_db=0.3, mcnot_loss_db_t=0.7,
                         mcnot_loss_db_b=0.2, mcnot_rotation_error_rad=-0.02,
                         facet_loss_db_h=2.5, facet_loss_db_v=3.5, facet_xtalk=-0.05,
                         depol_prob=0.01)
        oracle = oracle_chip(
            {"extinction": 22.0, "imbalance": 0.3, "depol": 0.01},
            {"extinction": 25.0, "loss": 0.7, "loss_other": 0.2,
             "rotation_error": -0.02, "depol": 0.01},
            facet=(2.5, 3.5, -0.05))
        chip = cfg.build()
        for got, want in zip(chip.stages, oracle.stages):
            assert all(np.array_equal(a, b) for a, b in zip(got.kraus, want.kraus))
        # the printed netlist compiles back to the same chip
        again = nl.compile_netlist(nl.parse(nl.format_netlist(nl.NetlistAst((cfg.to_netlist(),)))))
        assert np.array_equal(again.superoperator, chip.superoperator)

    def test_ideal_config_lowers_without_parameters(self):
        decl = ChipConfig().to_netlist()
        assert [(st.kind, st.name) for st in decl.statements] == [
            ("facet", "fin"), ("pcnot", "c1"), ("mcnot", "rot"), ("pcnot", "c2"),
            ("facet", "fout")]
        assert all(st.params == () for st in decl.statements)

    def test_netlist_path_lowers_to_the_files_chip(self):
        decl = ChipConfig(netlist_path=str(SAMPLE_PNL)).to_netlist()
        assert decl.structure() == nl.parse(SAMPLE_PNL.read_text()).chips[0].structure()
