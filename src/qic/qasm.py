"""OpenQASM 2.0 export and a matching line-oriented parser.

Only the restricted gate set {h, x, t, tdg, s, ry, cx} is emitted; angles are
written with repr precision so a parse round-trip reproduces identical ops.
"""

from __future__ import annotations

import math
import re

from .circuit import RESTRICTED_KINDS, Circuit
from .errors import UnsupportedGateError
from .statevector import CACHE_SIZE, GateOp

_VERSION = "OPENQASM 2.0;"
_INCLUDE = 'include "qelib1.inc";'

_QUBIT_RE = re.compile(r"q\[(\d+)\]")
# operands are exactly comma-separated q[N] items; anything else fails the match
_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)(?:\((?P<angle>[^)]+)\))?\s+(?P<args>q\[\d+\](?:\s*,\s*q\[\d+\])*)$"
)

# angle-free statements already handled, so the gates every circuit repeats
# (67 of the 73 statements of the lowered experiment circuit) skip the
# per-line work. Only successful work fills them; ry statements never enter.
# A parsed op is shared by every circuit that holds it (GateOp is frozen).
_parsed: dict[str, GateOp] = {}  # raw gate line -> its op
_emitted: dict[tuple[str, tuple[int, ...]], str] = {}  # (kind, qubits) -> its line


def _remember(table: dict, key, value) -> None:
    """Keep key -> value in a statement table, dropping its oldest entry when
    the table holds CACHE_SIZE."""
    if len(table) >= CACHE_SIZE:
        del table[next(iter(table))]
    table[key] = value


def export_qasm(circuit: Circuit) -> str:
    """Emit a decomposed circuit as OpenQASM 2.0 text."""
    lines = [_VERSION, _INCLUDE, f"qreg q[{circuit.n_qubits}];"]
    for op in circuit.ops:
        line = _emitted.get((op.kind, op.qubits))
        if line is None:
            if op.kind not in RESTRICTED_KINDS:
                raise UnsupportedGateError(
                    f"gate {op.kind!r} is not in the restricted set; decompose first"
                )
            args = ",".join(f"q[{q}]" for q in op.qubits)
            if op.kind == "ry":
                line = f"ry({op.theta!r}) {args};"
            else:
                line = f"{op.kind} {args};"
                _remember(_emitted, (op.kind, op.qubits), line)
        lines.append(line)
    return "\n".join(lines) + "\n"


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 text produced by export_qasm back into a Circuit.

    The first statement must be ``OPENQASM 2.0;``, and ``include
    "qelib1.inc";`` may follow it once, before the qreg declaration. An angle
    must be written as export_qasm writes it: the repr of a finite float.
    Parsed ops may be objects shared with earlier results (GateOp is frozen).
    """
    n_qubits = None
    versioned = included = False
    ops: list[GateOp] = []
    for raw in text.splitlines():
        # a line parsed before yields the same op; after the qreg line only its
        # bound depends on this text, and a hit outside it takes the full path
        if n_qubits is not None:
            op = _parsed.get(raw)
            if op is not None and max(op.qubits) < n_qubits:
                ops.append(op)
                continue
        line = raw.partition("//")[0].strip()
        if not line:
            continue
        if not versioned:
            if line != _VERSION:
                raise ValueError(f"the first statement must be {_VERSION!r}, got {raw!r}")
            versioned = True
            continue
        if line.startswith(("OPENQASM", "include")):
            if line != _INCLUDE or included or n_qubits is not None:
                raise ValueError(
                    f"unsupported header line (expected {_VERSION!r} first, then at most "
                    f"one {_INCLUDE!r} before qreg): {raw!r}"
                )
            included = True
            continue
        if not line.endswith(";"):
            raise ValueError(f"missing ';' in line: {raw!r}")
        line = line[:-1].strip()
        if line.startswith("qreg"):
            m = re.match(r"qreg\s+q\[([1-9]\d*)\]$", line)
            if not m:
                raise ValueError(f"unsupported register declaration: {raw!r}")
            if n_qubits is not None:
                raise ValueError(f"multiple quantum registers are not supported: {raw!r}")
            n_qubits = int(m.group(1))
            continue
        if n_qubits is None:
            raise ValueError(f"gate before the qreg declaration: {raw!r}")
        m = _GATE_RE.match(line)
        if not m:
            raise ValueError(f"cannot parse line: {raw!r}")
        name, angle, args = m.groups()
        if name not in RESTRICTED_KINDS:
            raise UnsupportedGateError(f"unsupported gate {name!r} in line: {raw!r}")
        qubits = tuple(map(int, _QUBIT_RE.findall(args)))
        try:
            op = GateOp(name, qubits, None if angle is None else _angle(angle))
        except ValueError as exc:
            raise ValueError(f"{exc} in line: {raw!r}") from exc
        if max(qubits) >= n_qubits:
            raise ValueError(f"qubit {max(qubits)} is outside qreg q[{n_qubits}] in line: {raw!r}")
        if angle is None:
            _remember(_parsed, raw, op)
        ops.append(op)
    if not versioned:
        raise ValueError(f"no {_VERSION!r} version line found")
    if n_qubits is None:
        raise ValueError("no qreg declaration found")
    return Circuit(n_qubits, tuple(ops))


def _angle(text: str) -> float:
    """The float whose repr is text, if it is finite."""
    try:
        theta = float(text)
    except ValueError:
        theta = math.nan
    if not math.isfinite(theta) or repr(theta) != text:
        raise ValueError(f"angle {text!r} is not the repr of a finite float")
    return theta
