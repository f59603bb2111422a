"""Byte-identity gate: reproduced tables and ``classify`` readouts at fixed
seeds must match the outputs committed under tests/golden/. Only the 4- and
6-decimal text outputs are pinned, so a last-bit move in a full-precision float
cannot fail this test; a change in any printed digit does.

Regenerate a file only for an intended change of result, e.g.
``qic reproduce --table 2 --reps 25 --seed 0 > tests/golden/table2_reps25_seed0.csv``.
"""

from pathlib import Path

import pytest

from qic.cli import main

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
