"""Tests of the benchmark itself: each oracle accepts the program's output
and fires on a faulted one, a fault is counted as a failed op, and the
metrics printed are the ones BENCHMARK.json declares.

    python3 -m pytest qicbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qicbench import run
from qicbench.workloads import Compile, Grid, Wide

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def qic():
    return run.import_qic()


def _ready(cls, qic, tmp_path, seed=3):
    workload = cls(seed, run.ROOT, tmp_path)
    workload.setup(qic, workload.inputs(0))
    return workload


def _records(workload, indices):
    """(input, output, ops) of each given input."""
    out = []
    for i in indices:
        inp = workload.inputs(i)
        n, output = workload.op(inp)
        out.append((inp, output, n))
    return out


def _failed(workload, records) -> int:
    return sum(run.failed_ops(workload, inp, out, n) for inp, out, n in records)


# ---------------------------------------------------------------------------
# grid


def test_grid_oracle_accepts_program_csv(qic, tmp_path):
    grid = _ready(Grid, qic, tmp_path)
    assert _failed(grid, _records(grid, range(3))) == 0


def _bump_last_digit(field: str) -> str:
    return field[:-1] + str((int(field[-1]) + 1) % 10)


@pytest.mark.parametrize("column", [2, 3, 4], ids=["mean_error", "variance", "mean_p_acc"])
def test_grid_oracle_fires_on_last_digit(qic, tmp_path, column):
    grid = _ready(Grid, qic, tmp_path)
    [(seed, (rc, text), *rest)] = _records(grid, [0])
    lines = text.splitlines()
    fields = lines[3].split(",")  # iris-2-3
    fields[column] = _bump_last_digit(fields[column])
    lines[3] = ",".join(fields)
    faulted = [(seed, (rc, "\n".join(lines) + "\n"), *rest)]
    assert _failed(grid, faulted) == Grid.REPS * grid.n_test["iris-2-3"]


def test_grid_failed_call_fails_all_its_ops(qic, tmp_path):
    grid = _ready(Grid, qic, tmp_path)
    records = [(1, RuntimeError("boom"), grid.ops_per_call),
               (2, (1, ""), grid.ops_per_call)]
    assert _failed(grid, records) == 2 * grid.ops_per_call


# ---------------------------------------------------------------------------
# compile


def test_compile_oracle_accepts_program(qic, tmp_path):
    comp = _ready(Compile, qic, tmp_path)
    assert _failed(comp, _records(comp, range(4))) == 0


def test_compile_oracle_fires_on_faulted_toffoli(qic, tmp_path, monkeypatch):
    # the fault `qic verify-decompositions --inject-fault toffoli` plants
    exact = qic.circuit._decompose_ccx

    def faulted(*qubits):
        return [qic.statevector.tdg(op.qubits[0]) if op.kind == "t" else op
                for op in exact(*qubits)]

    monkeypatch.setattr(qic.circuit, "_decompose_ccx", faulted)
    comp = _ready(Compile, qic, tmp_path)
    assert _failed(comp, _records(comp, range(4))) == 4


def test_compile_oracle_fires_on_qasm_round_trip(qic, tmp_path):
    comp = _ready(Compile, qic, tmp_path)
    [(inp, out, *rest)] = _records(comp, [1])
    ops = list(out["parsed"].ops)
    k = next(i for i, op in enumerate(ops) if op.kind == "ry")
    ops[k] = dataclasses.replace(ops[k], theta=math.nextafter(ops[k].theta, 4.0))
    out = {**out, "parsed": dataclasses.replace(out["parsed"], ops=tuple(ops))}
    assert _failed(comp, [(inp, out, *rest)]) == 1


# ---------------------------------------------------------------------------
# wide


class SmallWide(Wide):
    M = 256


def test_wide_oracle_accepts_program(qic, tmp_path):
    wide = _ready(SmallWide, qic, tmp_path)
    assert _failed(wide, _records(wide, range(5))) == 0


@pytest.mark.parametrize("sigmas", [-1.5, 1.5])
def test_wide_oracle_fires_outside_interval(qic, tmp_path, sigmas):
    wide = _ready(SmallWide, qic, tmp_path)
    [(inp, (exact, sampled, est), *rest)] = _records(wide, [0])
    # move the accepted count by 1.5 times the oracle's half-width
    half = Wide.ORACLE_Z * math.sqrt(Wide.SHOTS * 0.25)
    accepted = sampled.accepted + int(sigmas * half)
    moved = dataclasses.replace(sampled, accepted=accepted, p_acc=accepted / Wide.SHOTS)
    est = qic.stats.wilson(accepted, Wide.SHOTS, Wide.Z)
    assert _failed(wide, [(inp, (exact, moved, est), *rest)]) == 1


def test_wide_oracle_fires_on_exact_readout(qic, tmp_path):
    wide = _ready(SmallWide, qic, tmp_path)
    [(inp, (exact, sampled, est), *rest)] = _records(wide, [0])
    off = dataclasses.replace(exact, p_acc=exact.p_acc + 1e-9)
    assert _failed(wide, [(inp, (off, sampled, est), *rest)]) == 1


# ---------------------------------------------------------------------------
# the contract with BENCHMARK.json


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_run_reports_declared_metrics(workload, trace, monkeypatch):
    monkeypatch.setattr(run, "MIN_INPUTS", 2)
    record = run.run(workload, seed=5, seconds=1, trace=trace)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert record["failed"] == 0 and record["attempted"] >= 1
    assert all(np.isfinite(m["value"]) for m in record["metrics"].values())


def test_fails_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "qicbench", tmp_path / "qicbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "qicbench/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
