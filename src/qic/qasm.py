"""OpenQASM 2.0 export and a matching line-oriented parser.

Only the restricted gate set {h, x, t, tdg, s, ry, cx} is emitted; angles are
written with repr precision so a parse round-trip reproduces identical ops.
"""

from __future__ import annotations

import re

from .circuit import RESTRICTED_KINDS, Circuit
from .errors import UnsupportedGateError
from .statevector import GateOp

_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

_QUBIT_RE = re.compile(r"q\[(\d+)\]")
# operands are exactly comma-separated q[N] items; anything else fails the match
_GATE_RE = re.compile(
    r"^(?P<name>[a-z]+)(?:\((?P<angle>[^)]+)\))?\s+(?P<args>q\[\d+\](?:\s*,\s*q\[\d+\])*)$"
)


def export_qasm(circuit: Circuit) -> str:
    """Emit a decomposed circuit as OpenQASM 2.0 text."""
    lines = [_HEADER + f"qreg q[{circuit.n_qubits}];"]
    for op in circuit.ops:
        if op.kind not in RESTRICTED_KINDS:
            raise UnsupportedGateError(
                f"gate {op.kind!r} is not in the restricted set; decompose first"
            )
        args = ",".join(f"q[{q}]" for q in op.qubits)
        if op.kind == "ry":
            lines.append(f"ry({op.theta!r}) {args};")
        else:
            lines.append(f"{op.kind} {args};")
    return "\n".join(lines) + "\n"


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 text produced by export_qasm back into a Circuit."""
    n_qubits = None
    ops: list[GateOp] = []
    for raw in text.splitlines():
        line = raw.split("//")[0].strip()
        if not line:
            continue
        if line.startswith("OPENQASM") or line.startswith("include"):
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
        name, angle = m.group("name", "angle")
        if name not in RESTRICTED_KINDS:
            raise UnsupportedGateError(f"unsupported gate {name!r} in line: {raw!r}")
        qubits = tuple(int(q) for q in _QUBIT_RE.findall(m.group("args")))
        try:
            op = GateOp(name, qubits, None if angle is None else float(angle))
        except ValueError as exc:
            raise ValueError(f"{exc} in line: {raw!r}") from exc
        if max(qubits) >= n_qubits:
            raise ValueError(f"qubit {max(qubits)} is outside qreg q[{n_qubits}] in line: {raw!r}")
        ops.append(op)
    if n_qubits is None:
        raise ValueError("no qreg declaration found")
    return Circuit(n_qubits, tuple(ops))
