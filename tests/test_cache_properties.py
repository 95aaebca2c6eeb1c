"""The netlist caches cannot be seen from outside.

A process parses each netlist text once (`parse`) and compiles each
distinct chip once (`compile_chip`, keyed on the declaration alone, which
takes +0 and -0 for equal; every zero compiles as +0).  Here every chip of
a random batch, compiled one after another with the caches warm, must give
what a cold compile gives after every memo of the registry is cleared: the
same Kraus bytes of every stage and the same bytes of the chip's
superoperator, or the same error with the same code, message and span.
The batch holds random grammar-valid chips (with `+0`/`-0` values,
`deg`/`rad` spellings and the odd parameter in a wrong unit) and siblings
of one chip that differ only in what the chip key must tell apart or what
must not change a stage: the signs of its zeros (one key, so a warm
compile of either sign must equal a cold one), the chip's port order, its
statements' ports, its units, its parameter names, and its spans and
instance names.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from swapsim import netlist as nl
from swapsim._memo import MEMOS
from swapsim.config import ChipConfig

# derandomized: tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# spellings of a value by the unit of its unit class (None: a plain number)
SPELLINGS = {
    "dB": ["0dB", "-0dB", "+0dB", "0", "-0", "0.5dB", "1 dB", "18dB", "25dB"],
    "rad": ["0rad", "-0rad", "0deg", "-0deg", "0", "-0", "90deg",
            "1.5707963267948966rad", "-30deg", "0.5rad"],
    None: ["0", "-0", "+0", "0.05", "0.2"],
}
# a spelling in the wrong unit for each unit (a bad-unit error)
WRONG_UNIT = {"dB": "1rad", "rad": "1dB", None: "1dB"}
# each number of ports a statement may name -> its spellings
PORT_SPELLINGS = {1: ["T", "B"], 2: ["T, B", "B, T"]}


def _unit(unit_class):
    return nl._UNIT_CLASSES[unit_class][0]


@st.composite
def statements(draw):
    kind = draw(st.sampled_from(sorted(nl.COMPONENTS)))
    counts, table = nl.COMPONENTS[kind]
    ports = draw(st.sampled_from([p for n in counts for p in PORT_SPELLINGS[n]]))
    names = draw(st.lists(st.sampled_from(sorted(table)), unique=True)) if table else []
    params = []
    for name in names:
        unit = _unit(table[name])
        wrong = draw(st.integers(0, 19)) == 0
        value = WRONG_UNIT[unit] if wrong else draw(st.sampled_from(SPELLINGS[unit]))
        params.append(f"{name}={value}")
    return f"{kind} {{name}} ({ports}) " + " ".join(params) + ";"


def _chip_text(chip_ports, stmts) -> str:
    body = "".join(f"  {s.format(name=f's{i}')}\n" for i, s in enumerate(stmts))
    return f"chip c {{\n  ports {chip_ports};\n{body}}}\n"


CHIPS = st.builds(_chip_text, st.sampled_from(["T, B", "B, T"]),
                  st.lists(statements(), max_size=6))


def flip_zero_signs(text):
    return re.sub(r"=([+-]?)0(?![\d.])", lambda m: "=0" if m.group(1) == "-" else "=-0", text)


def reverse_chip_ports(text):
    return re.sub(r"ports (\w), (\w);", r"ports \2, \1;", text)


def mirror_statement_ports(text):
    return re.sub(r"\(([TB, ]+)\)", lambda m: "(" + m.group(1).translate(
        str.maketrans("TB", "BT")) + ")", text)


def strip_units(text):
    return re.sub(r"(=[+-]?[\d.]+) ?(?:dB|deg|rad)", r"\1", text)


def rename_params(text):
    """Each parameter renamed to the next one of its kind written in the
    same unit."""
    def statement(m):
        table = nl.COMPONENTS[m.group(1)][1]
        nxt = {}
        for unit in {_unit(c) for c in table.values()}:
            names = [n for n in table if _unit(table[n]) == unit]
            nxt.update(zip(names, names[1:] + names[:1]))
        return re.sub(r"(\w+)=", lambda p: nxt[p.group(1)] + "=", m.group(0))
    return re.sub(r"^  (\w+) \w+ \(.*$", statement, text, flags=re.M)


def shift_spans(text):
    """The same statements one statement later, under other names."""
    return re.sub(r"(ports \w, \w;\n)", r"\1  loss pad (T, B);\n", text).replace(" s", " t")


def clear_caches():
    for cached in MEMOS.values():
        cached.cache_clear()


def outcome(text):
    try:
        chip = nl.compile_netlist(nl.parse(text))
    except (nl.ParseError, nl.CompileError) as exc:
        return (type(exc).__name__, exc.code, exc.message, exc.span)
    return (chip.label,
            tuple(k.tobytes() for stage in chip.stages for k in stage.kraus),
            chip.superoperator.tobytes())


def cold(text):
    clear_caches()
    return outcome(text)


@PROPERTY
@given(st.lists(CHIPS, max_size=3), CHIPS)
def test_warm_compiles_equal_cold_compiles(others, chip):
    batch = [*others, flip_zero_signs(chip), reverse_chip_ports(chip),
             mirror_statement_ports(chip), strip_units(chip), rename_params(chip),
             shift_spans(chip), chip, chip]
    expect = [cold(text) for text in batch]
    clear_caches()
    assert [outcome(text) for text in batch] == expect


def test_siblings_differ_only_where_meant():
    text = _chip_text("T, B", ["hwp {name} (B, T) angle=-0deg;",
                               "loss {name} (T) loss=1 dB;"])
    assert flip_zero_signs(text).count("angle=0deg") == 1
    assert "ports B, T;" in reverse_chip_ports(text)
    assert "(T, B) angle" in mirror_statement_ports(text)
    assert "(B) loss" in mirror_statement_ports(text)
    assert "angle=-0;" in strip_units(text) and "loss=1;" in strip_units(text)
    mcnot = _chip_text("T, B", ["mcnot {name} (T) loss=1dB extinction=20dB depol=0.1;"])
    assert "(T) loss_other=1dB loss=20dB depol=0.1;" in rename_params(mcnot)

    def stages(source):
        return [(s.kind, s.ports, tuple(p.structure() for p in s.params))
                for s in nl.parse(source).chips[0].statements]

    assert stages(shift_spans(text))[1:] == stages(text)
    assert nl.parse(shift_spans(text)).chips[0].statements[1].span.line == 4


CONFIG_VALUES = st.sampled_from([0.0, 0.45, 1.0, 3.0])


@PROPERTY
@given(st.lists(st.tuples(st.sampled_from([None, 18.0, 25.0]), CONFIG_VALUES,
                          CONFIG_VALUES, st.sampled_from([0.0, 0.05, -0.05])),
                min_size=2, max_size=5))
def test_warm_config_builds_equal_cold_builds(knobs):
    chips = [ChipConfig(pcnot_extinction_db=er, mcnot_loss_db_t=loss,
                        facet_loss_db_v=facet, facet_xtalk=xtalk)
             for er, loss, facet, xtalk in knobs]

    def superoperator(chip):
        return chip.build().superoperator.tobytes()

    expect = []
    for chip in chips:
        clear_caches()
        expect.append(superoperator(chip))
    clear_caches()
    assert [superoperator(chip) for chip in chips] == expect
