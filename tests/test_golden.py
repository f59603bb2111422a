"""Byte-identity gate: reproduced tables and ``classify`` readouts at fixed
seeds must match the outputs committed under tests/golden/. Only the 4- and
6-decimal text outputs are pinned, so a last-bit move in a full-precision float
cannot fail this test; a change in any printed digit does.

Regenerate a file only for an intended change of result, e.g.
``qic reproduce --table 2 --reps 25 --seed 0 > tests/golden/table2_reps25_seed0.csv``.

The lowered experiment circuits are pinned one gate a line, as its kind, its
qubits and, for ry, its angle. Kinds and qubits must match exactly, so the
order of the lowered ops is pinned; an angle is held to EXACT_TOL, since the
repr of an atan2 result may differ in its last digit between libm builds.
"""

from pathlib import Path

import pytest

from qic.circuit import build_experiment_circuit, decompose, with_interference
from qic.cli import main
from qic.presets import X0, X1, preset_input
from qic.statevector import EXACT_TOL

GOLDEN = Path(__file__).resolve().parent / "golden"
CASES = [
    (("reproduce", "--table", "2", "--reps", "1000", "--seed", "1234"),
     "table2_reps1000_seed1234.csv"),
] + [
    (("reproduce", "--table", "2", "--reps", "25", "--seed", str(seed)),
     f"table2_reps25_seed{seed}.csv")
    for seed in (0, 42, 99999)
] + [(("reproduce", "--table", "1", "--seed", "1234"), "table1_seed1234.txt")] + [
    case
    for preset in ("xprime", "xdoubleprime")
    for case in (
        (("classify", "--preset", preset), f"classify_{preset}.txt"),
        (("classify", "--preset", preset, "--shots", "8192", "--seed", "1234"),
         f"classify_{preset}_shots8192_seed1234.txt"),
    )
]


@pytest.mark.parametrize("argv, name", CASES, ids=[name for _, name in CASES])
def test_output_is_byte_identical_to_golden(argv, name, capsys):
    assert main(list(argv)) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


# file -> training pair against the xprime input: X0 = (0, 1) takes the ccx
# branch of the first load, X1 the ccry branch
LOWERED = {"lowered_xprime_x0_x1.txt": (X0, X1), "lowered_xprime_x1_x0.txt": (X1, X0)}


@pytest.mark.parametrize("name", LOWERED)
def test_lowered_experiment_circuit_matches_golden(name):
    circ = decompose(with_interference(build_experiment_circuit(preset_input("xprime"),
                                                                *LOWERED[name])))
    lines = (GOLDEN / name).read_text().splitlines()
    assert len(circ) == len(lines)
    for i, (op, line) in enumerate(zip(circ.ops, lines)):
        kind, *fields = line.split()
        arity = len(fields) - (kind == "ry")
        assert (op.kind, op.qubits) == (kind, tuple(map(int, fields[:arity]))), f"gate {i}"
        if kind == "ry":
            assert abs(op.theta - float(fields[-1])) <= EXACT_TOL, f"gate {i}"
        else:
            assert op.theta is None, f"gate {i}"
