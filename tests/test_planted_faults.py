"""Planted faults: each fault is patched into the one readout core, into the
class statistics or the writable arrays of a TrainingSet, into the bound
below which the core re-reads a row directly, into prepare_state as an
allocation of the amplitudes it does not build, into the statevector gate
loop, its fused gate runs, the unitaries that circuits keep or the column
that simulate reads, into the QuantumState constructor, into the label
check, into the Wilson worst-case bound, into the link between the Table-2
rows and the batch positions of their datasets, or into the feature map of
the stacked Table-2 datasets, and the shared checks of tests/reference.py,
the goldens or the Wilson error must fail on inputs that they pass
unpatched."""

import contextlib
import functools
import io
from pathlib import Path

import numpy as np
import pytest

from qic import classifier, data, dataset, stats
from qic import statevector as sv
from qic.circuit import Circuit
from qic.classifier import TrainingSet
from qic.cli import main
from qic.presets import preset_input, training_set
from qic.statevector import QuantumState

from reference import (
    assert_gate_loop_matches_dense,
    assert_matches_statevector,
    assert_prepares_no_amplitudes,
    assert_quotes_exact_acceptance,
    assert_read_matches_gate_path,
    assert_state_is_a_read_only_copy,
    assert_training_set_is_read_only,
    near_antipodal_pair,
)

TRAIN = training_set()
INPUTS = np.array([preset_input("xprime"), preset_input("xdoubleprime")])
GOLDEN = Path(__file__).resolve().parent / "golden"


def scaled_acceptance(monkeypatch):
    core = classifier._closed_form

    def planted(train, X):
        p_acc, p_minus = core(train, X)
        return p_acc * (1 + 1e-9), p_minus

    monkeypatch.setattr(classifier, "_closed_form", planted)


def swapped_class_weights(monkeypatch):
    # the core with w_minus and w_plus swapped: the same sums, masked by
    # the opposite labels
    core = classifier._closed_form

    def planted(train, X):
        return core(TrainingSet(vectors=train.vectors, labels=-train.labels), X)

    monkeypatch.setattr(classifier, "_closed_form", planted)


def allocated_amplitudes(monkeypatch):
    # prepare_state allocates the 2^n complex amplitudes of the state it
    # encodes, as it runs the readout core
    core = classifier._closed_form

    def planted(train, X):
        n_qubits = (train.M - 1).bit_length() + (train.dimension - 1).bit_length() + 2
        np.zeros(1 << n_qubits, dtype=complex)
        return core(train, X)

    monkeypatch.setattr(classifier, "_closed_form", planted)


def untransposed_gate_loop(monkeypatch):
    # the inverse of the loop's axis order taken as the identity, so its
    # result keeps the axis order of the last matmul
    monkeypatch.setattr(sv, "sorted", lambda axes, key: list(axes), raising=False)


def reversed_fused_wires(monkeypatch):
    # each fused run's matrix laid on its wires in reverse order, as if wire
    # i were local qubit i and not k-1-i
    build = sv._fused_run.__wrapped__

    def planted(run):
        wires, matrix = build(run)
        return wires[::-1], matrix

    monkeypatch.setattr(sv, "_fused_run", planted)


def qubit_blind_fused_cache(monkeypatch):
    # fused runs kept by their ops' kinds alone, so a run of the same kinds on
    # other qubits gets the first such run's wires and matrix
    build, kept = sv._fused_run.__wrapped__, {}
    monkeypatch.setattr(sv, "_fused_run", lambda run: kept.setdefault(
        tuple(op.kind for op in run), build(run)))


def unitaries_kept_by_size(monkeypatch):
    # unitaries kept by qubit count and op count, so a circuit of the same
    # size reads the first such circuit's unitary
    build, kept = sv.gate_unitary, {}
    monkeypatch.setattr(sv, "gate_unitary", lambda n_qubits, ops: kept.setdefault(
        (n_qubits, len(ops)), build(n_qubits, ops)))


def simulate_reads_column_1(monkeypatch):
    # the state of a circuit read from column 1 of its unitary, the image of
    # |0...01>, not of |0...0>; swapped into simulate's code, so that the
    # callers that imported it by name run it too
    def planted(circuit):
        return QuantumState(circuit.n_qubits, circuit.unitary[:, 1])

    monkeypatch.setattr(sv.simulate, "__code__", planted.__code__)


def reversed_program_steps(monkeypatch):
    # each circuit's steps run last to first
    steps = sv._steps
    monkeypatch.setattr(sv, "_steps", lambda ops: reversed(list(steps(ops))))


def uncopied_state_input(monkeypatch):
    # a writable complex array is kept as the state's amplitudes, not copied
    post_init = sv.QuantumState.__post_init__

    def planted(state):
        amps = state.amplitudes
        post_init(state)
        if isinstance(amps, np.ndarray) and amps.dtype == complex and amps.flags.writeable:
            object.__setattr__(state, "amplitudes", amps)

    monkeypatch.setattr(sv.QuantumState, "__post_init__", planted)


def swapped_label_statistics(monkeypatch):
    # the class statistics of a new TrainingSet built from its labels negated
    statistics = classifier._class_statistics
    monkeypatch.setattr(classifier, "_class_statistics",
                        lambda vectors, labels, sq_norms: statistics(vectors, -labels, sq_norms))


def zero_reread_bound(monkeypatch):
    # no row re-read directly unless its class sums cancel to 0 or below
    monkeypatch.setattr(classifier, "acceptance_error", lambda M, N: 0.0)


def writable_training_set(monkeypatch):
    # a TrainingSet keeps writable copies of its vectors and labels
    post_init = TrainingSet.__post_init__

    def planted(train):
        post_init(train)
        for name in ("vectors", "labels"):
            object.__setattr__(train, name, np.array(getattr(train, name)))

    monkeypatch.setattr(TrainingSet, "__post_init__", planted)


def swapped_batch_reports(monkeypatch):
    # the reports of each batch in reverse order, so a report lands on the
    # row of another dataset of its batch
    run = data.run_benchmark
    monkeypatch.setattr(data, "run_benchmark", lambda batches, reps, seed: [
        reports[::-1] for reports in run(batches, reps, seed)])


def flipped_label(monkeypatch):
    # the label check negates the first label of every set it checks
    check = dataset.check_labels

    def planted(rows, labels):
        values = check(rows, labels).copy()
        values.flat[0] *= -1
        return values

    for module in (dataset, classifier):
        monkeypatch.setattr(module, "check_labels", planted)


def zero_wilson_bound(monkeypatch):
    # the Wilson worst-case bound read as 0 at every shot count
    monkeypatch.setattr(stats, "wilson_worst_case", lambda shots, z: 0.0)


def unmapped_featmap(monkeypatch):
    # the Table-2 datasets stacked without their feature map, into a fresh
    # cache that the patch drops again afterwards
    monkeypatch.setattr(data, "kron_power", lambda rows, copies: rows)
    monkeypatch.setattr(data, "_shared_benchmark_groups",
                        functools.cache(data._shared_benchmark_groups.__wrapped__))


def read_batch_check():
    assert_matches_statevector(TRAIN, INPUTS)


def prepared_readout_check():
    for x in INPUTS:
        assert_read_matches_gate_path(TRAIN, x)


def new_set_read_check():
    # a training set built after the fault is planted
    assert_matches_statevector(training_set(), INPUTS)


def no_amplitudes_check():
    # 4096 training rows, encoded in 18 qubits
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(1 << 12, 16))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    x = rng.normal(size=16)
    assert_prepares_no_amplitudes(TrainingSet(vectors=vectors, labels=[-1, 1] * (1 << 11)),
                                  x / np.linalg.norm(x))


def below_floor_check():
    # acceptances of 1.0e-16, where the class sums of one input leave
    # 5.6e-17 and of the other 1.1e-16
    for v in ([1.0, 2.0, 2.0], [0.6, 0.8]):
        assert_quotes_exact_acceptance(*near_antipodal_pair(v, 2e-8))


def read_only_set_check():
    assert_training_set_is_read_only(TRAIN.vectors, TRAIN.labels)


# gates that leave the axes out of their original order; two fused runs of
# the same kinds on other wires, and a fused width-3 run in 5 qubits
GATE_LOOP_OPS = (sv.h(0), sv.cx(0, 2), sv.ccry(0.5, 1, 3, 0), sv.swap(2, 1), sv.ccx(4, 1, 3),
                 sv.t(1), sv.h(4), sv.ry(0.9, 2), sv.h(3), sv.cx(3, 0))


def gate_loop_check():
    # the circuit is built here, as in every gate loop check: one built
    # before a fault keeps a unitary built without it
    assert_gate_loop_matches_dense(Circuit(5, GATE_LOOP_OPS))


def unitary_cache_check():
    # two circuits of one size, each with its own unitary
    for ops in (GATE_LOOP_OPS, GATE_LOOP_OPS[::-1]):
        assert_gate_loop_matches_dense(Circuit(5, ops))


def state_copy_check():
    source = np.full(8, np.sqrt(1 / 8), dtype=complex)
    assert_state_is_a_read_only_copy(3, source, source)


def golden_check(argv, golden: Path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    assert out.getvalue().encode() == golden.read_bytes()


def table2_golden_check():
    golden_check(["reproduce", "--table", "2", "--reps", "25", "--seed", "0"],
                 GOLDEN / "table2_reps25_seed0.csv")


def classify_golden_check():
    # the preset training set is built on each call, so under the fault
    golden_check(["classify", "--preset", "xprime"], GOLDEN / "classify_xprime.txt")


def wilson_bound_check():
    # the worst-case bound covers the Wilson error at every success count
    shots, z = 1000, 2.58
    worst = max(stats.wilson(k, shots, z).max_error for k in range(shots + 1))
    assert worst <= stats.wilson_worst_case(shots, z)


CASES = [
    (scaled_acceptance, read_batch_check),
    (scaled_acceptance, prepared_readout_check),
    (swapped_class_weights, read_batch_check),
    (swapped_class_weights, prepared_readout_check),
    (allocated_amplitudes, no_amplitudes_check),
    (swapped_label_statistics, new_set_read_check),
    (zero_reread_bound, below_floor_check),
    (writable_training_set, read_only_set_check),
    (untransposed_gate_loop, gate_loop_check),
    (reversed_fused_wires, gate_loop_check),
    (qubit_blind_fused_cache, gate_loop_check),
    (unitaries_kept_by_size, unitary_cache_check),
    (simulate_reads_column_1, gate_loop_check),
    (reversed_program_steps, gate_loop_check),
    (uncopied_state_input, state_copy_check),
    (flipped_label, classify_golden_check),
    (zero_wilson_bound, wilson_bound_check),
    (swapped_batch_reports, table2_golden_check),
    (unmapped_featmap, table2_golden_check),
]


@pytest.mark.parametrize("fault, check", CASES,
                         ids=[f"{f.__name__}-{c.__name__}" for f, c in CASES])
def test_check_passes_and_catches_its_fault(fault, check, monkeypatch):
    check()
    # untransposed_gate_loop patches sorted, which building a fused run also
    # calls: each fault starts from no fused runs, and none built under it
    # outlives it
    sv._fused_run.cache_clear()
    try:
        fault(monkeypatch)
        with pytest.raises(AssertionError):
            check()
    finally:
        monkeypatch.undo()
        sv._fused_run.cache_clear()
