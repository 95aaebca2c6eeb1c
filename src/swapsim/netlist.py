"""Textual circuit-description language for photonic chips (`.pnl` files).

Grammar (EBNF):

    netlist := chip+
    chip    := "chip" IDENT "{" "ports" IDENT ("," IDENT)+ ";" stmt* "}"
    stmt    := KIND IDENT "(" IDENT ("," IDENT)* ")" param* ";"
    param   := IDENT "=" NUMBER UNIT?

`#` starts a line comment; whitespace is insignificant.  UNIT is one of
dB, deg, rad.  Angles are stored in radians (deg converts at parse time);
dB values are stored as written and converted to linear factors by the
device constructors.  `COMPONENTS` is the vocabulary: each KIND, the
number of ports it names, and its parameters with their unit class (the
unit and the range of values).  Statement order defines optical
propagation order.  The formatter emits a canonical layout; comments are
discarded.

A process parses each netlist text once and compiles each distinct chip
once, through two bounded memos of the registry `swapsim._memo`: `parse`
is keyed on the source text, and `compile_chip` on the `ChipDecl` alone:
declarations equal but for the signs of their zeros share one entry, since
a zero compiles as +0 either way.  A repeated chip therefore returns the
same `ChipModel`, whose stages are lowered, multiplied and trace-checked
once.  Every cached value is immutable, and errors are never cached.  The
parser and the formatter are pure Python: only lowering imports the device
models (and with them numpy).

Example:

    chip swap {
      ports T, B;
      pcnot c1 (T, B) extinction=18dB;
      mcnot r1 (T) extinction=20dB loss=1dB;
      pcnot c2 (T, B) extinction=18dB;
    }
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, NamedTuple

from ._memo import memo

if TYPE_CHECKING:
    from .devices import ChipModel
    from .qcore import QuantumChannel

__all__ = [
    "SourceSpan",
    "Param",
    "Statement",
    "ChipDecl",
    "NetlistAst",
    "ParseError",
    "CompileError",
    "parse",
    "format_netlist",
    "compile_netlist",
    "compile_chip",
    "select_chip",
]

UNITS = ("dB", "deg", "rad")

# unit class -> (the unit its values are written in, None for a plain
# number; whether a value is in range; that range in words).  An infinite
# extinction is a perfect component.
_UNIT_CLASSES = {
    "extinction": ("dB", lambda v: v > 0, "> 0 dB"),
    "loss": ("dB", lambda v: 0 <= v < math.inf, "finite and >= 0 dB"),
    "angle": ("rad", math.isfinite, "finite"),
    "probability": (None, lambda v: 0 <= v <= 1, "in [0, 1]"),
    "amplitude": (None, lambda v: -1 <= v <= 1, "in [-1, 1]"),
}

# The component vocabulary: kind -> (the numbers of ports a statement may
# name, {parameter name -> unit class}).  The device constructors take
# these parameter names as keyword arguments.
COMPONENTS = {
    "pcnot": ((2,), {"extinction": "extinction", "extinction_h": "extinction",
                     "extinction_v": "extinction", "imbalance": "loss", "loss": "loss",
                     "depol": "probability"}),
    "mcnot": ((1,), {"extinction": "extinction", "loss": "loss", "loss_other": "loss",
                     "rotation_error": "angle", "depol": "probability"}),
    "hwp": ((1, 2), {"angle": "angle"}),
    "qwp": ((1, 2), {"angle": "angle"}),
    "phase_v": ((1, 2), {"phase": "angle"}),
    "polarizer": ((1, 2), {"angle": "angle"}),
    "bs5050": ((2,), {}),
    "mzi": ((2,), {"phase": "angle", "input_phase": "angle"}),
    "fiber": ((1, 2), {"loss": "loss", "phase": "angle"}),
    "facet": ((2,), {"loss_h": "loss", "loss_v": "loss", "xtalk": "amplitude"}),
    "loss": ((1, 2), {"loss": "loss"}),
}


class SourceSpan(NamedTuple):
    start: int
    end: int
    line: int
    column: int

    def __str__(self):
        return f"{self.line}:{self.column}"


class ParseError(Exception):
    """Syntax or vocabulary error, pointing at a span of the source."""

    def __init__(self, message: str, span: SourceSpan, code: str = "expected"):
        super().__init__(f"{span}: {code}: {message}")
        self.message = message
        self.span = span
        self.code = code


class CompileError(Exception):
    """Semantic error during lowering to channels."""

    def __init__(self, message: str, span: SourceSpan, code: str):
        super().__init__(f"{span}: {code}: {message}")
        self.message = message
        self.span = span
        self.code = code


class Param(NamedTuple):
    name: str
    value: float
    unit: str | None
    span: SourceSpan

    def structure(self):
        return ("param", self.name, self.value, self.unit)


class Statement(NamedTuple):
    kind: str
    name: str
    ports: tuple
    params: tuple
    span: SourceSpan

    def structure(self):
        return ("stmt", self.kind, self.name, self.ports,
                tuple(p.structure() for p in self.params))


class ChipDecl(NamedTuple):
    name: str
    ports: tuple
    statements: tuple
    span: SourceSpan

    def structure(self):
        return ("chip", self.name, self.ports,
                tuple(s.structure() for s in self.statements))


class NetlistAst(NamedTuple):
    chips: tuple

    def structure(self):
        return tuple(c.structure() for c in self.chips)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

@memo()
def _token_re() -> re.Pattern:
    """The lexer's pattern, compiled on first use: building an inline
    chip from a config parses no text."""
    return re.compile(
        r"""
        (?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<unit>[A-Za-z]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<punct>[{}();,=])
        """,
        re.VERBOSE,
    )


class _Token(NamedTuple):
    kind: str  # "number", "ident", "punct", "eof"
    text: str
    value: float | None
    unit: str | None
    span: SourceSpan


def _tokenize(text: str):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    match = _token_re().match
    while pos < n:
        m = match(text, pos)
        if m is None:
            span = SourceSpan(pos, pos + 1, line, pos - line_start + 1)
            raise ParseError(f"unexpected character {text[pos]!r}", span)
        start, end = m.span()
        col = start - line_start + 1
        if m.group("ws") is not None or m.group("comment") is not None:
            chunk = m.group(0)
            nl = chunk.count("\n")
            if nl:
                line += nl
                line_start = start + chunk.rfind("\n") + 1
        elif m.group("number") is not None:
            span = SourceSpan(start, end, line, col)
            unit = m.group("unit") or None
            tokens.append(_Token("number", m.group(0), float(m.group("number")), unit, span))
        elif m.group("ident") is not None:
            span = SourceSpan(start, end, line, col)
            tokens.append(_Token("ident", m.group("ident"), None, None, span))
        else:
            span = SourceSpan(start, end, line, col)
            tokens.append(_Token("punct", m.group("punct"), None, None, span))
        pos = end
    tokens.append(_Token("eof", "", None, None, SourceSpan(n, n, line, n - line_start + 1)))
    return tokens


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect_punct(self, ch: str) -> _Token:
        if self.cur.kind == "punct" and self.cur.text == ch:
            return self.advance()
        raise ParseError(f"expected {ch!r}", self.cur.span)

    def expect_ident(self, what: str = "identifier") -> _Token:
        if self.cur.kind == "ident":
            return self.advance()
        raise ParseError(f"expected {what}", self.cur.span)

    def parse_netlist(self) -> NetlistAst:
        chips = []
        if self.cur.kind == "eof":
            raise ParseError("expected 'chip'", self.cur.span)
        while self.cur.kind != "eof":
            chips.append(self.parse_chip())
        return NetlistAst(tuple(chips))

    def parse_chip(self) -> ChipDecl:
        start = self.cur.span
        if not (self.cur.kind == "ident" and self.cur.text == "chip"):
            raise ParseError("expected 'chip'", self.cur.span)
        self.advance()
        name = self.expect_ident("chip name").text
        self.expect_punct("{")
        kw = self.expect_ident("'ports'")
        if kw.text != "ports":
            raise ParseError("expected 'ports'", kw.span)
        ports = [self.expect_ident("port name").text]
        self.expect_punct(",")
        ports.append(self.expect_ident("port name").text)
        while self.cur.kind == "punct" and self.cur.text == ",":
            self.advance()
            ports.append(self.expect_ident("port name").text)
        self.expect_punct(";")
        statements = []
        seen_names = set()
        while not (self.cur.kind == "punct" and self.cur.text == "}"):
            statements.append(self.parse_statement(ports, seen_names))
        close = self.expect_punct("}")
        span = SourceSpan(start.start, close.span.end, start.line, start.column)
        return ChipDecl(name, tuple(ports), tuple(statements), span)

    def parse_statement(self, ports, seen_names) -> Statement:
        kind_tok = self.expect_ident("component kind")
        if kind_tok.text not in COMPONENTS:
            raise ParseError(f"unknown component kind {kind_tok.text!r}",
                             kind_tok.span, code="unknown-kind")
        name_tok = self.expect_ident("instance name")
        if name_tok.text in seen_names:
            raise ParseError(f"duplicate instance name {name_tok.text!r}",
                             name_tok.span, code="duplicate-instance")
        seen_names.add(name_tok.text)
        self.expect_punct("(")
        stmt_ports = [self._port(ports)]
        while self.cur.kind == "punct" and self.cur.text == ",":
            self.advance()
            stmt_ports.append(self._port(ports))
        self.expect_punct(")")
        params = []
        while self.cur.kind == "ident":
            params.append(self.parse_param())
        self.expect_punct(";")
        span = SourceSpan(kind_tok.span.start, self.tokens[self.i - 1].span.end,
                          kind_tok.span.line, kind_tok.span.column)
        return Statement(kind_tok.text, name_tok.text, tuple(stmt_ports),
                         tuple(params), span)

    def _port(self, ports) -> str:
        tok = self.expect_ident("port name")
        if tok.text not in ports:
            raise ParseError(f"undeclared port {tok.text!r}", tok.span,
                             code="undeclared-port")
        return tok.text

    def parse_param(self) -> Param:
        name_tok = self.expect_ident("parameter name")
        self.expect_punct("=")
        if self.cur.kind != "number":
            raise ParseError("expected a number", self.cur.span)
        num_tok = self.advance()
        value, unit = num_tok.value, num_tok.unit
        if unit is None and self.cur.kind == "ident" and self.cur.text in UNITS:
            # whitespace-separated unit, e.g. "18 dB"
            unit = self.advance().text
        if unit is not None and unit not in UNITS:
            raise ParseError(f"unknown unit {unit!r}", num_tok.span, code="unknown-unit")
        if unit == "deg":
            value = math.radians(value)
            unit = "rad"
        span = SourceSpan(name_tok.span.start, num_tok.span.end,
                          name_tok.span.line, name_tok.span.column)
        return Param(name_tok.text, value, unit, span)


@memo(32)  # distinct netlist texts kept parsed
def parse(text: str) -> NetlistAst:
    """Parse netlist source into an AST.  Raises ParseError with a span.

    Cached on the text: a repeated text returns the same (immutable) AST."""
    return _Parser(text).parse_netlist()


# ---------------------------------------------------------------------------
# formatter
# ---------------------------------------------------------------------------

def _fmt_number(value: float) -> str:
    if math.isinf(value):  # the lexer reads no "inf"
        return "-1e999" if value < 0 else "1e999"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_param(p: Param) -> str:
    unit = p.unit or ""
    return f"{p.name}={_fmt_number(p.value)}{unit}"


def format_netlist(ast: NetlistAst) -> str:
    """Canonical formatting; parse(format_netlist(ast)) is structurally
    equal to ast.  Comments from the original source are not retained."""
    out = []
    for chip in ast.chips:
        out.append(f"chip {chip.name} {{")
        out.append(f"  ports {', '.join(chip.ports)};")
        for st in chip.statements:
            parts = [st.kind, st.name, f"({', '.join(st.ports)})"]
            parts.extend(_fmt_param(p) for p in st.params)
            out.append("  " + " ".join(parts) + ";")
        out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# compiler
# ---------------------------------------------------------------------------

def _port_indices(st: Statement, chip_ports) -> tuple:
    want = COMPONENTS[st.kind][0]
    if len(st.ports) not in want:
        raise CompileError(
            f"{st.kind} takes {' or '.join(map(str, want))} port(s), "
            f"got {len(st.ports)}", st.span, code="bad-ports")
    return tuple(chip_ports.index(p) for p in st.ports)


def _checked_params(st: Statement) -> dict:
    """The statement's parameters by name, each checked against the
    component table: a known name, its unit class's unit (or none) and a
    value in its class's range.  A zero is stored as +0, so declarations
    equal but for the signs of their zeros compile alike."""
    table = COMPONENTS[st.kind][1]
    params = {}
    for p in st.params:
        if p.name not in table:
            raise CompileError(f"unknown parameter {p.name!r} for {st.kind}",
                               p.span, code="unknown-param")
        unit, in_range, bounds = _UNIT_CLASSES[table[p.name]]
        if p.unit not in (None, unit):
            want = {"dB": "dB", "rad": "an angle"}.get(unit, "no unit")
            raise CompileError(f"parameter {p.name} expects {want}", p.span, code="bad-unit")
        if not in_range(p.value):
            raise CompileError(f"parameter {p.name} must be {bounds}, got {p.value!r}",
                               p.span, code="param-range")
        params[p.name] = p.value + 0.0
    return params


def _lower_statement(st: Statement, chip_ports) -> QuantumChannel:
    """The statement's stage: its names, units, values and ports are checked
    here, against the statement's spans."""
    from .devices import stage_channel

    params = _checked_params(st)
    idx = _port_indices(st, chip_ports)
    try:
        return stage_channel(st.kind, idx, params)
    except ValueError as exc:
        raise CompileError(str(exc), st.span, code="param-range") from exc


@memo(32)  # distinct chips kept compiled (every subcommand on the measured config: 17)
def compile_chip(chip: ChipDecl) -> ChipModel:
    """The chip's model, compiled once per distinct declaration and keyed on
    it alone: `ChipDecl` equality takes +0 and -0 for equal, and so does
    the compiled model, since every parameter value is stored with its zero
    as +0 (`_checked_params`)."""
    if len(chip.ports) != 2:
        raise CompileError(
            f"this simulator models exactly 2 spatial ports, chip "
            f"{chip.name!r} declares {len(chip.ports)}", chip.span, code="port-count")
    from .devices import ChipModel, facet_channel

    stages = tuple(_lower_statement(st, chip.ports) for st in chip.statements)
    if not stages:
        stages = (facet_channel(0.0, 0.0),)  # identity chip
    return ChipModel(stages, label=chip.name)


def select_chip(ast: NetlistAst, name: str | None = None) -> ChipDecl:
    """The chip declaration named `name`, or the only one if `name` is None."""
    if not ast.chips:
        raise CompileError("no chips in netlist", SourceSpan(0, 0, 1, 1), "port-count")
    if name is None:
        if len(ast.chips) > 1:
            raise CompileError(
                "netlist declares several chips; pass the chip name",
                ast.chips[1].span, code="ambiguous-chip")
        return ast.chips[0]
    for chip in ast.chips:
        if chip.name == name:
            return chip
    raise CompileError(f"no chip named {name!r}", ast.chips[0].span, code="no-such-chip")


def compile_netlist(ast: NetlistAst, name: str | None = None) -> ChipModel:
    """Compile a netlist to the ChipModel of its (named) chip."""
    return compile_chip(select_chip(ast, name))


def compile_all(ast: NetlistAst) -> dict:
    return {chip.name: compile_chip(chip) for chip in ast.chips}
