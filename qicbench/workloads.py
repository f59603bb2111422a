"""The three workloads. Each is closed-loop with one client in one process.

A workload makes its inputs from the seed (``inputs``), does the program's
set-up work (``setup``, timed as setup_s), runs one timed call of the program
(``op``, which returns how many ops the call completed and its output), and
checks an output against the oracles afterwards, untimed (``check``, which
returns how many of the call's ops failed).
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import numpy as np

from . import oracles


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


class Grid:
    """``qic reproduce --table 2`` in-process: all six Table-2 rows per call.

    One op is one exact test-point classification; a call of REPS
    repetitions classifies REPS x 20 test points in each of the six rows.
    Many small registers (10 to 13 qubits), so per-call overhead dominates.
    """

    name = "grid"
    REPS = 2

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        self.datasets = oracles.load_datasets(root / "src" / "qic" / "iris.csv")
        self.n_test = {k: len(r) - int(oracles.TRAIN_FRACTION * len(r))
                       for k, (r, _) in self.datasets.items()}
        self.ops_per_call = self.REPS * sum(self.n_test.values())
        self.csv_path = out_dir / f"grid-seed{seed}.csv"

    def inputs(self, i: int) -> int:
        """Master seed of call i."""
        return int(np.random.SeedSequence((self.seed, i)).generate_state(1)[0])

    def setup(self, qic, warm_input) -> None:
        self.qic = qic
        for key, *_ in oracles.TABLE2:
            qic.data.benchmark_dataset(key)
        self.op(warm_input)

    def op(self, master_seed: int):
        argv = ["reproduce", "--table", "2", "--reps", str(self.REPS),
                "--seed", str(master_seed), "-o", str(self.csv_path)]
        with contextlib.redirect_stderr(io.StringIO()):
            rc = self.qic.cli.main(argv)
        return self.ops_per_call, (rc, self.csv_path.read_text())

    def check(self, master_seed: int, output) -> int:
        rc, text = output
        if rc != 0:
            return self.ops_per_call
        bad = oracles.check_table2_csv(text, self.datasets, self.REPS, master_seed)
        return self.REPS * sum(self.n_test[key] for key in bad)


class Compile:
    """One seeded experiment circuit taken through the compiler and checked.

    build -> interference -> decompose -> connectivity -> QASM round trip ->
    unitaries of the composed and decomposed circuits -> simulate both.
    Even-numbered circuits load x0 = (0, 1), which takes the ccx branch.
    """

    name = "compile"
    ops_per_call = 1

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed

    def inputs(self, i: int):
        rng = _rng(self.seed, i)
        x_tilde, x0, x1 = (_unit(rng.normal(size=2)) for _ in range(3))
        if i % 2 == 0:
            x0 = np.array([0.0, 1.0])
        return x_tilde, x0, x1

    def setup(self, qic, warm_input) -> None:
        self.qic = qic
        self.graph = qic.circuit.ibmq5_connectivity()
        self.assignment = qic.circuit.default_assignment()
        self.op(warm_input)

    def op(self, vectors):
        circuit, statevector, qasm = self.qic.circuit, self.qic.statevector, self.qic.qasm
        full = circuit.with_interference(circuit.build_experiment_circuit(*vectors))
        lowered = circuit.decompose(full)
        violations = circuit.validate_connectivity(lowered, self.graph, self.assignment)
        text = qasm.export_qasm(lowered)
        parsed = qasm.parse_qasm(text)
        out = {
            "full": full, "lowered": lowered, "violations": violations,
            "parsed": parsed,
            "u_full": statevector.circuit_unitary(full),
            "u_lowered": statevector.circuit_unitary(lowered),
            "s_full": statevector.simulate(full).amplitudes,
            "s_lowered": statevector.simulate(lowered).amplitudes,
        }
        return 1, out

    def check(self, vectors, out) -> int:
        return 0 if self.verify(vectors, out) else 1

    @staticmethod
    def verify(vectors, out) -> bool:
        full, lowered = out["full"], out["lowered"]
        ops_full = [(op.kind, op.qubits, op.theta) for op in full.ops]
        ops_low = [(op.kind, op.qubits, op.theta) for op in lowered.ops]
        u_full = oracles.unitary(full.n_qubits, ops_full)
        u_low = oracles.unitary(lowered.n_qubits, ops_low)
        p_acc, p_class0 = oracles.experiment_readout(*vectors)
        got_acc, got_class0 = oracles.marginals(np.abs(u_full[:, 0]) ** 2)
        return (
            np.allclose(out["u_full"], u_full, atol=1e-10, rtol=0.0)
            and np.allclose(out["u_lowered"], u_low, atol=1e-10, rtol=0.0)
            and oracles.equal_up_to_phase(u_full, u_low)
            and np.allclose(out["s_full"], u_full[:, 0], atol=1e-10, rtol=0.0)
            and np.allclose(out["s_lowered"], u_low[:, 0], atol=1e-10, rtol=0.0)
            and abs(got_acc - p_acc) <= 1e-12
            and abs(got_class0 - p_class0) <= 1e-12
            and all(kind in oracles.RESTRICTED for kind, _, _ in ops_low)
            and oracles.coupling_violations(ops_low) == 0
            and len(out["violations"]) == 0
            and out["parsed"].n_qubits == lowered.n_qubits
            and out["parsed"].ops == lowered.ops
        )


class Wide:
    """One seeded unit input against a 2^14 x 16 training set (20 qubits).

    Per op: prepare_state once, then the exact readout, the sampled readout
    at SHOTS shots, and a Wilson estimate of the accepted fraction. The
    same classifier/statevector code as grid, on a few large states.
    """

    name = "wide"
    ops_per_call = 1
    M, N = 1 << 14, 16
    SHOTS = 8192
    Z = 2.58
    # the sampled estimates must fall inside a Wilson interval this wide; a
    # correct program fails it with probability about 2e-9 per estimate
    ORACLE_Z = 6.0

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.seed = seed
        rng = _rng(seed, 0)
        vectors = rng.normal(size=(self.M, self.N))
        self.vectors = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        self.labels = rng.permutation(np.repeat([-1, 1], self.M // 2))

    def inputs(self, i: int):
        return _unit(_rng(self.seed, 1, i).normal(size=self.N)), i

    def setup(self, qic, warm_input) -> None:
        self.qic = qic
        self.train = qic.classifier.TrainingSet(vectors=self.vectors, labels=self.labels)
        self.op(warm_input)

    def op(self, inp):
        x, sample_seed = inp
        classifier = self.qic.classifier
        state = classifier.prepare_state(self.train, x)
        exact = classifier.interfere_and_read(state)
        sampled = classifier.interfere_and_sample(state, self.SHOTS, sample_seed)
        estimate = self.qic.stats.wilson(sampled.accepted, self.SHOTS, self.Z)
        return 1, (exact, sampled, estimate)

    def check(self, inp, output) -> int:
        return 0 if self.verify(inp[0], output, self.vectors, self.labels) else 1

    @classmethod
    def verify(cls, x, output, vectors, labels) -> bool:
        exact, sampled, estimate = output
        p_acc, p_minus = (float(v[0]) for v in oracles.closed_form(x[None, :], vectors, labels))
        minus_count = round(sampled.p_class_minus * sampled.accepted)
        centre, half = oracles.wilson(sampled.accepted, cls.SHOTS, cls.Z)
        return (
            abs(exact.p_acc - p_acc) <= 1e-12
            and abs(exact.p_class_minus - p_minus) <= 1e-12
            and abs(exact.p_class_plus - (1.0 - p_minus)) <= 1e-12
            and exact.predicted == (-1 if p_minus > 0.5 else 1)
            and sampled.shots == cls.SHOTS
            and sampled.p_acc == sampled.accepted / cls.SHOTS
            and oracles.inside_wilson(p_acc, sampled.accepted, cls.SHOTS, cls.ORACLE_Z)
            and oracles.inside_wilson(p_minus, minus_count, sampled.accepted, cls.ORACLE_Z)
            and abs(estimate.p_hat - centre) <= 1e-12
            and abs(estimate.max_error - half) <= 1e-12
        )


WORKLOADS = {w.name: w for w in (Grid, Compile, Wide)}
