"""OpenQASM 2.0 export and a matching line-oriented parser.

Only the restricted gate set {h, x, t, tdg, s, ry, cx} is emitted; angles are
written with repr precision so a parse round-trip reproduces identical ops.
"""

from __future__ import annotations

import functools
import math
import re

from .circuit import RESTRICTED_KINDS, Circuit
from .errors import UnsupportedGateError
from .statevector import CACHE_SIZE, GateOp

_VERSION = "OPENQASM 2.0;"
_INCLUDE = 'include "qelib1.inc";'

_QUBIT_RE = re.compile(r"q\[(\d+)\]")
_QREG_RE = re.compile(r"qreg\s+q\[([1-9]\d*)\]$")
# operands are exactly comma-separated q[N] items; anything else fails the match
_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)(?:\((?P<angle>[^)]+)\))?\s+(?P<args>q\[\d+\](?:\s*,\s*q\[\d+\])*)$"
)


def export_qasm(circuit: Circuit) -> str:
    """Emit a decomposed circuit as OpenQASM 2.0 text."""
    lines = [_VERSION, _INCLUDE, f"qreg q[{circuit.n_qubits}];"]
    for op in circuit.ops:
        if op.kind == "ry":
            lines.append(f"ry({op.theta!r}) q[{op.qubits[0]}];")
        else:
            lines.append(_gate_statement(op.kind, op.qubits))
    return "\n".join(lines) + "\n"


# the angle-free statements every circuit repeats (67 of the 73 of the lowered
# experiment circuit) are written and parsed once, then looked up in two
# bounded tables; ry statements, whose angles rarely repeat, never enter them.
# A parsed op is shared by every circuit that holds it (GateOp is frozen).
@functools.lru_cache(maxsize=CACHE_SIZE)
def _gate_statement(kind: str, qubits: tuple[int, ...]) -> str:
    """The line of an angle-free gate (lru_cache keeps no failure)."""
    if kind not in RESTRICTED_KINDS:
        raise UnsupportedGateError(
            f"gate {kind!r} is not in the restricted set; decompose first"
        )
    return f"{kind} {','.join(f'q[{q}]' for q in qubits)};"


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 text produced by export_qasm back into a Circuit.

    The first statement must be ``OPENQASM 2.0;``, and ``include
    "qelib1.inc";`` may follow it once, before the qreg declaration. An angle
    must be written as export_qasm writes it: the repr of a finite float.
    Parsed ops may be objects shared with earlier results (GateOp is frozen).
    """
    lines = iter(text.splitlines())
    n_qubits = _read_header(lines)
    ops: list[GateOp] = []
    for raw in lines:
        # a line holding "(", as every ry line does, is parsed afresh each time
        op = _body_line.__wrapped__(raw) if "(" in raw else _body_line(raw)
        if op is not None:
            if max(op.qubits) >= n_qubits:
                raise ValueError(
                    f"qubit {max(op.qubits)} is outside qreg q[{n_qubits}] in line: {raw!r}"
                )
            ops.append(op)
    return Circuit(n_qubits, tuple(ops))


def _read_header(lines) -> int:
    """Consume the lines up to and including the qreg declaration; its size."""
    versioned = included = False
    for raw in lines:
        line = raw.partition("//")[0].strip()
        if not line:
            continue
        if not versioned:
            if line != _VERSION:
                raise ValueError(f"the first statement must be {_VERSION!r}, got {raw!r}")
            versioned = True
        elif line == _INCLUDE and not included:
            included = True
        else:
            statement = _statement(line, raw)
            if not statement.startswith("qreg"):
                raise ValueError(f"gate before the qreg declaration: {raw!r}")
            return _register_size(statement, raw)
    if not versioned:
        raise ValueError(f"no {_VERSION!r} version line found")
    raise ValueError("no qreg declaration found")


@functools.lru_cache(maxsize=CACHE_SIZE)
def _body_line(raw: str) -> GateOp | None:
    """The op of a line after the qreg declaration, None for a blank or
    comment line; raises ValueError for any other line (lru_cache keeps no
    failure). The register bound is the caller's to check."""
    line = raw.partition("//")[0].strip()
    if not line:
        return None
    line = _statement(line, raw)
    if line.startswith("qreg"):
        _register_size(line, raw)
        raise ValueError(f"multiple quantum registers are not supported: {raw!r}")
    m = _GATE_RE.match(line)
    if not m:
        raise ValueError(f"cannot parse line: {raw!r}")
    name, angle, args = m.groups()
    if name not in RESTRICTED_KINDS:
        raise UnsupportedGateError(f"unsupported gate {name!r} in line: {raw!r}")
    qubits = tuple(map(int, _QUBIT_RE.findall(args)))
    try:
        return GateOp(name, qubits, None if angle is None else _angle(angle))
    except ValueError as exc:
        raise ValueError(f"{exc} in line: {raw!r}") from exc


def _statement(line: str, raw: str) -> str:
    """line (raw without its comment and outer space, not blank) without its
    ';'; raises ValueError for a header line or a missing ';'."""
    if line.startswith(("OPENQASM", "include")):
        raise ValueError(
            f"unsupported header line (expected {_VERSION!r} first, then at most "
            f"one {_INCLUDE!r} before qreg): {raw!r}"
        )
    if not line.endswith(";"):
        raise ValueError(f"missing ';' in line: {raw!r}")
    return line[:-1].strip()


def _register_size(statement: str, raw: str) -> int:
    """The size that a qreg statement declares."""
    m = _QREG_RE.match(statement)
    if not m:
        raise ValueError(f"unsupported register declaration: {raw!r}")
    return int(m.group(1))


def _angle(text: str) -> float:
    """The float whose repr is text, if it is finite."""
    try:
        theta = float(text)
    except ValueError:
        theta = math.nan
    if not math.isfinite(theta) or repr(theta) != text:
        raise ValueError(f"angle {text!r} is not the repr of a finite float")
    return theta
