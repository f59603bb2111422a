import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic import statevector as sv
from qic.circuit import Circuit, build_experiment_circuit, decompose, with_interference
from qic.errors import UnsupportedGateError
from qic.presets import X0, X1, preset_input
from qic.qasm import export_qasm, parse_qasm


def random_restricted_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    kinds = ["h", "x", "t", "tdg", "s", "ry", "cx"]
    ops = []
    for _ in range(n_gates):
        kind = rng.choice(kinds)
        if kind == "cx":
            q = tuple(rng.choice(n_qubits, size=2, replace=False))
            ops.append(sv.cx(*q))
        elif kind == "ry":
            ops.append(sv.ry(float(rng.uniform(-math.pi, math.pi)), int(rng.integers(n_qubits))))
        else:
            ops.append(sv.GateOp(kind, (int(rng.integers(n_qubits)),)))
    return Circuit(n_qubits, tuple(ops))


def test_header_and_register():
    text = export_qasm(Circuit(3, (sv.h(0),)))
    lines = text.splitlines()
    assert lines[0] == "OPENQASM 2.0;"
    assert lines[1] == 'include "qelib1.inc";'
    assert lines[2] == "qreg q[3];"
    assert lines[3] == "h q[0];"


def test_all_restricted_gates_emit():
    circ = Circuit(
        2, (sv.h(0), sv.x(1), sv.t(0), sv.tdg(1), sv.s(0), sv.ry(0.5, 1), sv.cx(0, 1))
    )
    text = export_qasm(circ)
    assert "tdg q[1];" in text
    assert "ry(0.5) q[1];" in text
    assert "cx q[0],q[1];" in text


def test_undecomposed_gate_rejected():
    with pytest.raises(UnsupportedGateError):
        export_qasm(Circuit(3, (sv.ccx(0, 1, 2),)))


def test_experiment_circuit_fits_hardware_budget():
    circ = decompose(with_interference(build_experiment_circuit(preset_input("xprime"), X0, X1)))
    text = export_qasm(circ)
    gate_lines = [l for l in text.splitlines()[3:] if l]
    assert len(gate_lines) <= 80
    assert text.startswith("OPENQASM 2.0;")


@pytest.mark.parametrize("seed", range(20))
def test_round_trip_random_circuits(seed):
    circ = random_restricted_circuit(4, 15, seed)
    parsed = parse_qasm(export_qasm(circ))
    assert parsed.n_qubits == circ.n_qubits
    assert parsed.ops == circ.ops


@st.composite
def decomposed_circuits(draw):
    """Random circuits over every gate kind and any finite angle, decomposed."""
    n = draw(st.integers(3, 6))
    ops = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(sorted(sv.GATE_ARITY)))
        qubits = tuple(draw(st.permutations(range(n)))[: sv.GATE_ARITY[kind]])
        theta = draw(st.floats(allow_nan=False, allow_infinity=False))
        ops.append(sv.GateOp(kind, qubits, theta if kind in sv.ROTATION_KINDS else None))
    return decompose(Circuit(n, tuple(ops)))


@settings(max_examples=100, deadline=None)
@given(circ=decomposed_circuits())
def test_round_trip_is_exact_for_decomposed_circuits(circ):
    parsed = parse_qasm(export_qasm(circ))
    assert parsed.n_qubits == circ.n_qubits
    assert parsed.ops == circ.ops


def test_round_trip_experiment_circuit():
    circ = decompose(with_interference(build_experiment_circuit(preset_input("xdoubleprime"), X0, X1)))
    assert parse_qasm(export_qasm(circ)).ops == circ.ops


def test_parse_ignores_comments_and_blank_lines():
    text = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n\n// prep\nqreg q[1];\nx q[0]; // flip\n'
    circ = parse_qasm(text)
    assert circ.ops == (sv.x(0),)


def test_parse_rejects_unknown_gate():
    text = 'OPENQASM 2.0;\nqreg q[1];\nrz(0.3) q[0];\n'
    with pytest.raises(UnsupportedGateError):
        parse_qasm(text)


def test_parse_requires_register():
    with pytest.raises(ValueError):
        parse_qasm("OPENQASM 2.0;\nh q[0];\n")


@pytest.mark.parametrize(
    "body, line",
    [
        ("h q[0];\nqreg q[2];", "h q[0];"),  # a gate before the register
        ("qreg q[0];", "qreg q[0];"),
        ("qreg q[2];\nqreg q[3];", "qreg q[3];"),
    ],
)
def test_parse_register_errors_quote_the_line(body, line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        parse_qasm(f"OPENQASM 2.0;\n{body}\n")


@pytest.mark.parametrize(
    "line",
    ["h r[0], q[1];", "h q[0], junk;", "ry(0.5) q[0] extra;", "cx q[0] q[1];"],
)
def test_parse_rejects_operands_other_than_qubit_list(line):
    text = f'OPENQASM 2.0;\nqreg q[2];\n{line}\n'
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        parse_qasm(text)


@pytest.mark.parametrize(
    "line", ["rz(0.3) q[0];", "ry(pi/2) q[0];", "cx q[0],q[0];", "h q[5];", "ry(nan) q[0];"]
)
def test_parse_errors_after_the_gate_pattern_matches_quote_the_line(line):
    text = f'OPENQASM 2.0;\nqreg q[2];\n{line}\n'
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        parse_qasm(text)


def test_parse_allows_whitespace_around_operand_commas():
    text = "OPENQASM 2.0;\nqreg q[2];\ncx q[0] , q[1];\nh  q[1];\n"
    assert parse_qasm(text).ops == (sv.cx(0, 1), sv.h(1))
