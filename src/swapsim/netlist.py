"""Textual circuit-description language for photonic chips (`.pnl` files).

Grammar (EBNF):

    netlist := chip+
    chip    := "chip" IDENT "{" "ports" IDENT ("," IDENT)+ ";" stmt* "}"
    stmt    := KIND IDENT "(" IDENT ("," IDENT)* ")" param* ";"
    param   := IDENT "=" NUMBER UNIT?

`#` starts a line comment; whitespace is insignificant.  UNIT is one of
dB, deg, rad, nm.  Angles are stored in radians (deg converts at parse
time); dB values are stored as written and converted to linear factors by
the device constructors.  Statement order defines optical propagation
order.  The formatter emits a canonical layout; comments are discarded.

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
from dataclasses import dataclass

import numpy as np

from . import devices
from .devices import ChipModel, ComponentKind, ComponentSpec
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

UNITS = ("dB", "deg", "rad", "nm")

KINDS = tuple(k.value for k in ComponentKind)

# netlist parameter name -> (ComponentSpec parameter, expected unit class)
# unit classes: "db", "angle" (rad, deg accepted), "plain" (unitless)
_PARAM_TABLE = {
    "pcnot": {
        "extinction": ("extinction_db", "db"),
        "extinction_h": ("extinction_db_h", "db"),
        "extinction_v": ("extinction_db_v", "db"),
        "imbalance": ("loss_imbalance_db", "db"),
        "loss": ("loss_db", "db"),
        "depol": ("depol_prob", "plain"),
    },
    "mcnot": {
        "extinction": ("extinction_db", "db"),
        "loss": ("loss_db_t", "db"),
        "loss_other": ("loss_db_b", "db"),
        "rotation_error": ("rotation_error_rad", "angle"),
        "depol": ("depol_prob", "plain"),
    },
    "hwp": {"angle": ("angle_rad", "angle")},
    "qwp": {"angle": ("angle_rad", "angle")},
    "phase_v": {"phase": ("phase_rad", "angle")},
    "polarizer": {"angle": ("angle_rad", "angle")},
    "bs5050": {},
    "mzi": {
        "phase": ("phase_rad", "angle"),
        "input_phase": ("input_phase_rad", "angle"),
        "extinction": ("extinction_db", "db"),
    },
    "fiber": {"loss": ("loss_db", "db"), "phase": ("phase_rad", "angle")},
    "facet": {
        "loss_h": ("loss_db_h", "db"),
        "loss_v": ("loss_db_v", "db"),
        "xtalk": ("xtalk_amp", "plain"),
    },
    "loss": {"loss": ("loss_db", "db")},
}


@dataclass(frozen=True)
class SourceSpan:
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


@dataclass(frozen=True)
class Param:
    name: str
    value: float
    unit: str | None
    span: SourceSpan

    def structure(self):
        return ("param", self.name, self.value, self.unit)


@dataclass(frozen=True)
class Statement:
    kind: str
    name: str
    ports: tuple
    params: tuple
    span: SourceSpan

    def structure(self):
        return ("stmt", self.kind, self.name, self.ports,
                tuple(p.structure() for p in self.params))


@dataclass(frozen=True)
class ChipDecl:
    name: str
    ports: tuple
    statements: tuple
    span: SourceSpan

    def structure(self):
        return ("chip", self.name, self.ports,
                tuple(s.structure() for s in self.statements))


@dataclass(frozen=True)
class NetlistAst:
    chips: tuple

    def structure(self):
        return tuple(c.structure() for c in self.chips)


# ---------------------------------------------------------------------------
# lexer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<unit>[A-Za-z]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[{}();,=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
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
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
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

    def peek(self, ahead: int = 1) -> _Token:
        j = min(self.i + ahead, len(self.tokens) - 1)
        return self.tokens[j]

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
        if kind_tok.text not in KINDS:
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


def parse(text: str) -> NetlistAst:
    """Parse netlist source into an AST.  Raises ParseError with a span."""
    return _Parser(text).parse_netlist()


# ---------------------------------------------------------------------------
# formatter
# ---------------------------------------------------------------------------

def _fmt_number(value: float) -> str:
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

def _embed_pol_op(op: np.ndarray, port: int) -> np.ndarray:
    """Lift a 2x2 polarization operator onto one spatial port of dim 4."""
    out = np.eye(4, dtype=complex)
    out[2 * port:2 * port + 2, 2 * port:2 * port + 2] = op
    return out


_SWAP_PORTS = np.kron(np.array([[0, 1], [1, 0]], dtype=complex), np.eye(2, dtype=complex))


def _port_indices(st: Statement, chip_ports, want, span) -> list:
    if len(st.ports) not in want:
        raise CompileError(
            f"{st.kind} takes {' or '.join(map(str, sorted(want)))} port(s), "
            f"got {len(st.ports)}", span, code="bad-ports")
    return [chip_ports.index(p) for p in st.ports]


def _spec_params(st: Statement) -> dict:
    table = _PARAM_TABLE[st.kind]
    params = {}
    for p in st.params:
        if p.name not in table:
            raise CompileError(f"unknown parameter {p.name!r} for {st.kind}",
                               p.span, code="unknown-param")
        target, unit_class = table[p.name]
        if unit_class == "db" and p.unit not in (None, "dB"):
            raise CompileError(f"parameter {p.name} expects dB", p.span, code="bad-unit")
        if unit_class == "angle" and p.unit not in (None, "rad"):
            raise CompileError(f"parameter {p.name} expects an angle", p.span,
                               code="bad-unit")
        if unit_class == "plain" and p.unit is not None:
            raise CompileError(f"parameter {p.name} is unitless", p.span, code="bad-unit")
        params[target] = p.value
    return params


def _lower_statement(st: Statement, chip_ports) -> QuantumChannel:
    params = _spec_params(st)
    span = st.span
    try:
        if st.kind == "pcnot":
            idx = _port_indices(st, chip_ports, {2}, span)
            ch = devices.pcnot_channel(ComponentSpec(ComponentKind.PCNOT, params))
            return _reorient(ch, idx)
        if st.kind == "mcnot":
            idx = _port_indices(st, chip_ports, {1}, span)
            ch = devices.mcnot_channel(ComponentSpec(ComponentKind.MCNOT, params))
            return _reorient(ch, [idx[0], 1 - idx[0]])
        if st.kind in ("hwp", "qwp"):
            idx = _port_indices(st, chip_ports, {1, 2}, span)
            kind = ComponentKind.HWP if st.kind == "hwp" else ComponentKind.QWP
            j = devices.waveplate_jones(kind, params.get("angle_rad", 0.0))
            return _per_port_pol(j, idx)
        if st.kind == "phase_v":
            idx = _port_indices(st, chip_ports, {1, 2}, span)
            return _per_port_pol(devices.phase_v(params.get("phase_rad", 0.0)), idx)
        if st.kind == "polarizer":
            idx = _port_indices(st, chip_ports, {1, 2}, span)
            proj = devices.polarizer(params.get("angle_rad", 0.0)).kraus[0]
            return _per_port_pol(np.asarray(proj), idx)
        if st.kind == "bs5050":
            _port_indices(st, chip_ports, {2}, span)
            ch = QuantumChannel(4, 4, (np.kron(devices.BS_5050, np.eye(2)),))
            return _reorient(ch, [chip_ports.index(p) for p in st.ports])
        if st.kind == "mzi":
            _port_indices(st, chip_ports, {2}, span)
            u = devices.mzi_transfer(params.get("phase_rad", 0.0),
                                     params.get("input_phase_rad", 0.0))
            ch = QuantumChannel(4, 4, (np.kron(u, np.eye(2)),))
            return _reorient(ch, [chip_ports.index(p) for p in st.ports])
        if st.kind == "fiber":
            idx = _port_indices(st, chip_ports, {1, 2}, span)
            amp = devices.db_to_amplitude(params.get("loss_db", 0.0))
            op = amp * devices.phase_v(params.get("phase_rad", 0.0))
            return _per_port_pol(op, idx)
        if st.kind == "facet":
            _port_indices(st, chip_ports, {2}, span)
            return devices.facet_channel(params.get("loss_db_h", 0.0),
                                         params.get("loss_db_v", 0.0),
                                         params.get("xtalk_amp", 0.0))
        if st.kind == "loss":
            idx = _port_indices(st, chip_ports, {1, 2}, span)
            amp = devices.db_to_amplitude(params.get("loss_db", 0.0))
            return _per_port_pol(amp * np.eye(2, dtype=complex), idx)
    except (ValueError,) as exc:
        raise CompileError(str(exc), span, code="param-range") from exc
    raise CompileError(f"unhandled kind {st.kind}", span, code="unknown-kind")


def _per_port_pol(op: np.ndarray, ports: list) -> QuantumChannel:
    k = np.eye(4, dtype=complex)
    for p in ports:
        k = _embed_pol_op(op, p) @ k
    return QuantumChannel(4, 4, (k,))


def _reorient(ch: QuantumChannel, idx: list) -> QuantumChannel:
    """Conjugate a channel built in (first, second) port order when the
    statement references the chip ports in reversed order."""
    if idx == [0, 1]:
        return ch
    kraus = tuple(_SWAP_PORTS @ k @ _SWAP_PORTS for k in ch.kraus)
    return QuantumChannel(4, 4, kraus)


def compile_chip(chip: ChipDecl) -> ChipModel:
    if len(chip.ports) != 2:
        raise CompileError(
            f"this simulator models exactly 2 spatial ports, chip "
            f"{chip.name!r} declares {len(chip.ports)}", chip.span, code="port-count")
    ports = list(chip.ports)
    stages = tuple(_lower_statement(st, ports) for st in chip.statements)
    if not stages:
        stages = (devices.facet_channel(0.0, 0.0),)  # identity chip
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
