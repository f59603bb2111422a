"""Planted faults: each fault is patched into the one readout core, or into
the handoff of the state prepare_state builds, and the shared checks of
tests/reference.py must fail on fixed inputs that they pass unpatched."""

import numpy as np
import pytest

from qic import classifier
from qic import statevector as sv
from qic.classifier import TrainingSet, prepare_state
from qic.presets import preset_input, training_set

from reference import (
    assert_built_without_a_copy,
    assert_matches_statevector,
    assert_read_matches_gate_path,
)

TRAIN = training_set()
INPUTS = np.array([preset_input("xprime"), preset_input("xdoubleprime")])


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


def writable_handoff(monkeypatch):
    # prepare_state hands its filled array over without setting it read-only
    def planted(n_qubits, amps, layout):
        amps.setflags(write=True)
        return sv.QuantumState(n_qubits, amps, layout)

    monkeypatch.setattr(classifier, "QuantumState", planted)


def read_batch_check():
    assert_matches_statevector(TRAIN, INPUTS)


def prepared_readout_check():
    for x in INPUTS:
        assert_read_matches_gate_path(prepare_state(TRAIN, x))


def no_copy_check():
    # 2^18 amplitudes: large enough that the state dominates the peak
    rng = np.random.default_rng(3)
    vectors = rng.normal(size=(1 << 12, 16))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    x = rng.normal(size=16)
    assert_built_without_a_copy(TrainingSet(vectors=vectors, labels=[-1, 1] * (1 << 11)),
                                x / np.linalg.norm(x))


CASES = [
    (scaled_acceptance, read_batch_check),
    (scaled_acceptance, prepared_readout_check),
    (swapped_class_weights, read_batch_check),
    (swapped_class_weights, prepared_readout_check),
    (writable_handoff, no_copy_check),
]


@pytest.mark.parametrize("fault, check", CASES,
                         ids=[f"{f.__name__}-{c.__name__}" for f, c in CASES])
def test_check_passes_and_catches_its_fault(fault, check, monkeypatch):
    check()
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        check()
