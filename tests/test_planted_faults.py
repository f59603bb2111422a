"""Planted faults: each fault is patched into the one readout core, into the
blocks of training rows that it takes, into prepare_state as an allocation
of the amplitudes it does not build, into the statevector gate loop, into
the QuantumState constructor, or into the link between the Table-2 rows and
the batch positions of their datasets, and the shared checks of
tests/reference.py or the Table-2 golden must fail on inputs that they pass
unpatched."""

import contextlib
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from qic import classifier, data
from qic import statevector as sv
from qic.circuit import Circuit
from qic.classifier import TrainingSet
from qic.cli import main
from qic.dataset import LabeledDataset
from qic.presets import preset_input, training_set

from reference import (
    assert_blocks_equal_one_pass,
    assert_gate_loop_matches_dense,
    assert_matches_statevector,
    assert_prepares_no_amplitudes,
    assert_read_matches_gate_path,
    assert_state_is_a_read_only_copy,
    randomly_labelled_set,
)

TRAIN = training_set()
INPUTS = np.array([preset_input("xprime"), preset_input("xdoubleprime")])
TABLE2_GOLDEN = Path(__file__).resolve().parent / "golden" / "table2_reps25_seed0.csv"


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


def uncopied_state_input(monkeypatch):
    # a writable complex array is kept as the state's amplitudes, not copied
    post_init = sv.QuantumState.__post_init__

    def planted(state):
        amps = state.amplitudes
        post_init(state)
        if isinstance(amps, np.ndarray) and amps.dtype == complex and amps.flags.writeable:
            object.__setattr__(state, "amplitudes", amps)

    monkeypatch.setattr(sv.QuantumState, "__post_init__", planted)


def blocks_over_padded_rows(monkeypatch):
    # each block counted as ROW_BLOCK rows, past the training rows it holds
    # into the padded index branches: a lone last row that joined the block
    # before it is left out
    blocks = classifier._row_blocks
    monkeypatch.setattr(classifier, "_row_blocks", lambda n_rows: [
        (start, start + classifier.ROW_BLOCK) for start, _ in blocks(n_rows)])


def last_partial_block_skipped(monkeypatch):
    blocks = classifier._row_blocks
    monkeypatch.setattr(classifier, "_row_blocks", lambda n_rows: [
        (start, stop) for start, stop in blocks(n_rows)
        if stop - start >= classifier.ROW_BLOCK])


def lone_last_row_block(monkeypatch):
    # a last row left in a block of its own, which sums its features
    # pairwise; at four rows a block its rounding reaches the readout
    monkeypatch.setattr(classifier, "ROW_BLOCK", 4)
    monkeypatch.setattr(classifier, "_row_blocks", lambda n_rows: [
        (start, min(start + 4, n_rows)) for start in range(0, n_rows, 4)])


def reversed_pick(monkeypatch):
    # the datasets of a batch picked in reverse order, so a report lands on
    # the row of another dataset with the same copies
    pick = LabeledDataset.pick
    monkeypatch.setattr(LabeledDataset, "pick", lambda self, which: pick(self, which[::-1]))


def featmap_row_at_one_copy(monkeypatch):
    # every dataset of a batch read at one copy, the feature-map rows too
    run = data.run_benchmark
    monkeypatch.setattr(data, "run_benchmark", lambda batch, reps, copies, seed: run(
        batch, reps, [1] * len(copies), seed))


def read_batch_check():
    assert_matches_statevector(TRAIN, INPUTS)


def prepared_readout_check():
    for x in INPUTS:
        assert_read_matches_gate_path(TRAIN, x)


def no_amplitudes_check():
    # four blocks of training rows, encoded in 18 qubits
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(1 << 12, 16))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    x = rng.normal(size=16)
    assert_prepares_no_amplitudes(TrainingSet(vectors=vectors, labels=[-1, 1] * (1 << 11)),
                                  x / np.linalg.norm(x))


# a fresh seed on every call, so that a block a fault leaves unwritten cannot
# hold the values an earlier call left in the same memory
BLOCK_SEEDS = itertools.count()


def block_edge_check():
    # a last row that joins the block before it, and a last block of three rows
    rng = np.random.default_rng(next(BLOCK_SEEDS))
    for M in (classifier.ROW_BLOCK + 1, 2 * classifier.ROW_BLOCK + 3):
        assert_blocks_equal_one_pass(*randomly_labelled_set(rng, M, 3))


def gate_loop_check():
    # gates that leave the axes out of their original order
    assert_gate_loop_matches_dense(
        Circuit(4, (sv.h(0), sv.cx(0, 2), sv.ccry(0.5, 1, 3, 0), sv.swap(2, 1))))


def state_copy_check():
    source = np.full(8, np.sqrt(1 / 8), dtype=complex)
    assert_state_is_a_read_only_copy(3, source, source)


def lone_row_check():
    # five rows of 16 features, one block unpatched, and a block of four and
    # a lone row under the fault; seed 1's readout tells the two apart
    assert_blocks_equal_one_pass(*randomly_labelled_set(np.random.default_rng(1), 5, 16))


def table2_golden_check():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["reproduce", "--table", "2", "--reps", "25", "--seed", "0"]) == 0
    assert out.getvalue().encode() == TABLE2_GOLDEN.read_bytes()


CASES = [
    (scaled_acceptance, read_batch_check),
    (scaled_acceptance, prepared_readout_check),
    (swapped_class_weights, read_batch_check),
    (swapped_class_weights, prepared_readout_check),
    (allocated_amplitudes, no_amplitudes_check),
    (blocks_over_padded_rows, block_edge_check),
    (last_partial_block_skipped, block_edge_check),
    (lone_last_row_block, lone_row_check),
    (untransposed_gate_loop, gate_loop_check),
    (uncopied_state_input, state_copy_check),
    (reversed_pick, table2_golden_check),
    (featmap_row_at_one_copy, table2_golden_check),
]


@pytest.mark.parametrize("fault, check", CASES,
                         ids=[f"{f.__name__}-{c.__name__}" for f, c in CASES])
def test_check_passes_and_catches_its_fault(fault, check, monkeypatch):
    check()
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        check()
