"""Independent references the tests hold the program to: the encoded
register's basis index, from its documented bit order, the paper's
classical kernel-sum decision rule, the statevector readout of an encoded
state, and the gate rules checked one at a time."""

import math

import numpy as np

from qic.classifier import interfere_and_read, prepare_state
from qic.statevector import GATE_ARITY, ROTATION_KINDS, QuantumState, check_unit

# bit order, least significant first: class bit, data bits, ancilla bit, index bits
CLASS_BIT = 0


def basis_index(layout, m: int, ancilla: int, i: int, class_bit: int) -> int:
    """Index of basis state |m>|ancilla>|i>|class bit> in a RegisterLayout."""
    return (
        class_bit
        | (i << 1)
        | (ancilla << (1 + layout.i_bits))
        | (m << (2 + layout.i_bits))
    )


def kernel(x, x_prime, M: int) -> float:
    """Quadratic-decay distance kernel: 1 - |x - x'|^2 / (4M)."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    if x.shape != xp.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {xp.shape}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return 1.0 - float(np.sum((x - xp) ** 2)) / (4 * M)


def classical_classify(train, x_tilde) -> tuple[float, int]:
    """Kernel-sum decision rule evaluated classically.

    Returns (score, label) with score = sum_m y^m * kernel(x~, x^m, M) and
    label = sign(score); a zero score predicts +1.
    """
    xt = np.asarray(x_tilde, dtype=float)
    if xt.shape != (train.dimension,):
        raise ValueError(f"input dimension {xt.shape} does not match ({train.dimension},)")
    check_unit(xt, "input")
    sq_dists = np.sum((train.vectors - xt) ** 2, axis=1)
    score = float(np.sum(train.labels * (1.0 - sq_dists / (4 * train.M))))
    return score, (-1 if score < 0 else +1)


def dense_read(train, x_tilde):
    """interfere_and_read of the encoded state as rebuilt by the QuantumState
    constructor, so the readout passes over its amplitudes instead of
    returning the closed form that prepare_state keeps on its state."""
    state = prepare_state(train, x_tilde)
    return interfere_and_read(QuantumState(state.n_qubits, state.amplitudes, state.layout))


def gate_op_error(kind, qubits, theta) -> str | None:
    """The ValueError message of the first gate rule these fields break, the
    rules taken one at a time in order, or None for a valid gate."""
    if kind not in GATE_ARITY:
        return f"unknown gate kind {kind!r}"
    if len(qubits) != GATE_ARITY[kind]:
        return f"{kind} expects {GATE_ARITY[kind]} qubits, got {qubits}"
    for q in qubits:
        if isinstance(q, bool) or not isinstance(q, (int, np.integer)):
            return f"qubit indices must be integers, got {qubits}"
    if len(set(qubits)) != len(qubits):
        return f"qubit indices must be distinct, got {qubits}"
    if any(q < 0 for q in qubits):
        return f"qubit indices must be non-negative, got {qubits}"
    if kind in ROTATION_KINDS:
        real = isinstance(theta, (int, float, np.integer, np.floating))
        if isinstance(theta, bool) or not real or not math.isfinite(theta):
            return f"{kind} needs a finite angle, got {theta}"
    elif theta is not None:
        return f"{kind} takes no angle"
    return None
