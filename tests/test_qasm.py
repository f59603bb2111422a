import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic import qasm
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
    with pytest.raises(ValueError, match="^no qreg declaration found$"):
        parse_qasm("OPENQASM 2.0;\n")


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


@pytest.mark.parametrize(
    "text",
    [
        "OPENQASM 2.0;\nqreg q[1];\nh q[0];\n",
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n',
        '// header\n\nOPENQASM 2.0; // version\n\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n',
    ],
    ids=["version-only", "version-and-include", "comments-and-blank-lines"],
)
def test_parse_accepts_the_version_line_and_one_include(text):
    assert parse_qasm(text) == Circuit(1, (sv.h(0),))


@pytest.mark.parametrize(
    "text, line",
    [
        ("OPENQASM 3.0;\nqreg q[1];\n", "OPENQASM 3.0;"),
        ("OPENQASM garbage\nqreg q[1];\n", "OPENQASM garbage"),
        ("qreg q[1];\nh q[0];\n", "qreg q[1];"),
        ('include "qelib1.inc";\nOPENQASM 2.0;\nqreg q[1];\n', 'include "qelib1.inc";'),
        ("OPENQASM 2.0;\nOPENQASM 2.0;\nqreg q[1];\n", "OPENQASM 2.0;"),
        ("OPENQASM 2.0;\nqreg q[2];\ninclude_me q[1];\n", "include_me q[1];"),
        ('OPENQASM 2.0;\ninclude "other.inc";\nqreg q[1];\n', 'include "other.inc";'),
        ('OPENQASM 2.0;\ninclude "qelib1.inc";\ninclude "qelib1.inc";\nqreg q[1];\n',
         'include "qelib1.inc";'),
        ('OPENQASM 2.0;\nqreg q[1];\ninclude "qelib1.inc";\n', 'include "qelib1.inc";'),
    ],
    ids=["version-3", "version-garbage", "no-version-line", "include-first", "second-version",
         "include-prefix", "other-include", "second-include", "include-after-qreg"],
)
def test_parse_rejects_header_lines_out_of_rule_quoting_them(text, line):
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        parse_qasm(text)


@pytest.mark.parametrize("text", ["", "// nothing\n\n"])
def test_parse_rejects_text_without_a_version_line(text):
    with pytest.raises(ValueError, match="no 'OPENQASM 2.0;' version line"):
        parse_qasm(text)


@pytest.mark.parametrize(
    "angle", ["1_000", "1000", "0.50", "+0.5", " 0.5", "1E-05", "1e-5", ".5", "inf", "nan", "0x1p-2"]
)
def test_parse_rejects_angles_not_written_as_a_finite_float_repr(angle):
    line = f"ry({angle}) q[0];"
    with pytest.raises(ValueError, match=re.escape(repr(line))):
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\n{line}\n")


@pytest.mark.parametrize("theta", [0.5, -0.0, 1e-05, 1e16, 5e-324, -1.7976931348623157e308])
def test_parse_accepts_every_finite_float_repr(theta):
    text = f"OPENQASM 2.0;\nqreg q[1];\nry({theta!r}) q[0];\n"
    assert parse_qasm(text).ops == (sv.ry(theta, 0),)


def test_numpy_angle_round_trips():
    # verify_decompositions draws its angles as numpy floats
    circ = Circuit(1, (sv.GateOp("ry", (0,), np.float64(0.3)),))
    assert "ry(0.3) q[0];" in export_qasm(circ)
    assert parse_qasm(export_qasm(circ)) == circ


def _outcome(text: str):
    """What parse_qasm makes of text: its circuit, or its error and message."""
    try:
        return parse_qasm(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _clear_statement_tables():
    qasm._parsed.clear()
    qasm._emitted.clear()


def _corrupt(lines: list[str], how: str, i: int, k: int) -> list[str]:
    """Exported lines with one fault: how names it, i is the gate line it
    hits, and k the register size that shrink-register declares."""
    lines = list(lines)
    if how == "shrink-register":
        lines[2] = f"qreg q[{k}];"
    elif how == "drop-semicolon":
        lines[i] = lines[i][:-1]
    elif how == "unknown-gate":
        lines[i] = "rz" + lines[i][lines[i].index(" "):]
    elif how == "repeat-operand":
        lines[i] = f"{lines[i][:-1]},{lines[i].split()[-1]}"
    elif how == "before-register":
        lines.insert(2, lines.pop(i))
    elif how == "comment":
        lines[i] += " // note"
    return lines


class TestStatementTables:
    """export_qasm and parse_qasm reuse each angle-free statement they have
    handled; a warm table must give what a cold one gives."""

    @settings(max_examples=100, deadline=None)
    @given(circ=decomposed_circuits(), data=st.data())
    def test_warm_parse_equals_cold_parse_and_fails_the_same_way(self, circ, data):
        _clear_statement_tables()
        text = export_qasm(circ)
        cold = parse_qasm(text)
        assert export_qasm(circ) == text
        warm = parse_qasm(text)
        assert warm.n_qubits == cold.n_qubits == circ.n_qubits
        assert len(warm.ops) == len(cold.ops) == len(circ.ops)
        for w, c, op in zip(warm.ops, cold.ops, circ.ops):
            assert w == c == op

        lines = text.splitlines()
        how = data.draw(st.sampled_from(["shrink-register", "drop-semicolon", "unknown-gate",
                                         "repeat-operand", "before-register", "comment"]))
        i = data.draw(st.integers(3, len(lines) - 1))
        k = data.draw(st.integers(1, circ.n_qubits))
        corrupted = "\n".join(_corrupt(lines, how, i, k)) + "\n"
        _clear_statement_tables()
        cold_outcome = _outcome(corrupted)
        _clear_statement_tables()
        parse_qasm(text)
        assert _outcome(corrupted) == cold_outcome

    def test_cached_line_is_bounded_by_the_register_of_its_text(self):
        parse_qasm("OPENQASM 2.0;\nqreg q[5];\ncx q[4],q[0];\n")
        assert "cx q[4],q[0];" in qasm._parsed
        with pytest.raises(ValueError, match=re.escape(
                "qubit 4 is outside qreg q[3] in line: 'cx q[4],q[0];'")):
            parse_qasm("OPENQASM 2.0;\nqreg q[3];\ncx q[4],q[0];\n")

    def test_ry_statements_never_enter_either_table(self):
        _clear_statement_tables()
        circ = Circuit(2, (sv.ry(0.5, 0), sv.h(1), sv.ry(-1.25, 1), sv.cx(1, 0), sv.ry(0.5, 0)))
        text = export_qasm(circ)
        cold, warm = parse_qasm(text), parse_qasm(text)
        assert sorted(qasm._emitted) == [("cx", (1, 0)), ("h", (1,))]
        assert sorted(qasm._parsed) == ["cx q[1],q[0];", "h q[1];"]
        # angle-free ops come from the table; each ry op is built afresh
        assert [w is c for w, c in zip(warm.ops, cold.ops)] == [False, True, False, True, False]
        assert warm.ops == cold.ops == circ.ops

    def test_tables_stay_at_their_cap(self):
        n = 40  # 5n + n(n-1) = 1760 distinct angle-free statements
        assert 5 * n + n * (n - 1) > sv.CACHE_SIZE
        ops = [sv.GateOp(kind, (q,)) for kind in ("h", "x", "t", "tdg", "s") for q in range(n)]
        ops += [sv.cx(a, b) for a in range(n) for b in range(n) if a != b]
        circ = Circuit(n, tuple(ops))
        _clear_statement_tables()
        text = export_qasm(circ)
        assert parse_qasm(text) == circ
        assert len(qasm._parsed) == len(qasm._emitted) == sv.CACHE_SIZE
        # again, with the oldest statements evicted while the newest are hits
        assert export_qasm(circ) == text
        assert parse_qasm(text) == circ
        assert len(qasm._parsed) == len(qasm._emitted) == sv.CACHE_SIZE
