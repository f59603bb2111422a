"""Independent references the tests hold the program to: the encoded
register's basis index, from its documented bit order, and the amplitudes
placed by it (which the program never builds; tests pin them to the
simulated experiment circuit), the paper's classical kernel-sum decision
rule, the statevector readout of that register gate by gate (the oracle for
the program's one closed-form readout), that closed form taken over all
training rows in one pass, the gate rules checked one at a time, the full
2^n operator of one gate, built entry by entry (the oracle for the gate
loop), and the checks that hold the program to these, shared by the tests
and the planted faults."""

import math
import tracemalloc

import numpy as np
import pytest

from qic.classifier import (
    ROW_BLOCK,
    TrainingSet,
    interfere_and_read,
    interfere_and_sample,
    prepare_state,
    read_batch,
)
from qic.errors import ImpossibleBranchError
from qic.statevector import (
    BRANCH_FLOOR,
    EXACT_TOL,
    GATE_ARITY,
    ROTATION_KINDS,
    QuantumState,
    apply_gate,
    check_unit,
    circuit_unitary,
    gate_matrix,
    h,
    postselect,
    qubit_probabilities,
    simulate,
)

# bit order, least significant first: class bit, data bits, ancilla bit, index bits
CLASS_BIT = 0


def basis_index(layout, m: int, ancilla: int, i: int, class_bit: int) -> int:
    """Index of basis state |m>|ancilla>|i>|class bit> in a RegisterLayout;
    integer arrays give an array of indices."""
    return (
        class_bit
        | (i << 1)
        | (ancilla << (1 + layout.i_bits))
        | (m << (2 + layout.i_bits))
    )


def entrywise_amplitudes(train, x_tilde, layout) -> np.ndarray:
    """The encoded amplitudes of x_tilde against train in a layout, each
    placed at its basis_index: w x~_i on ancilla 0 and w x^m_i on ancilla 1,
    with w = 1/sqrt(2M), at the class bit of y^m; zero on index branches
    m >= M and data components i >= N."""
    w = 1 / math.sqrt(2 * train.M)
    amplitudes = np.zeros(1 << layout.n_qubits, dtype=complex)
    m, i = np.indices((train.M, train.dimension))
    c = np.where(train.labels == -1, 0, 1)[:, None]
    amplitudes[basis_index(layout, m, 0, i, c)] = w * np.asarray(x_tilde, dtype=float)
    amplitudes[basis_index(layout, m, 1, i, c)] = w * train.vectors
    return amplitudes


def randomly_labelled_set(rng, M: int, N: int):
    """M unit training vectors of dimension N with labels drawn one by one
    from {-1, +1}, and a unit input."""
    vectors = rng.normal(size=(M, N))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    train = TrainingSet(vectors=vectors, labels=rng.choice([-1, 1], size=M))
    x_tilde = rng.normal(size=N)
    return train, x_tilde / np.linalg.norm(x_tilde)


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


def encoded_state(train, x_tilde):
    """The encoded register of x_tilde against train, as a plain QuantumState
    of entrywise_amplitudes in the layout prepare_state reports, and that
    layout."""
    layout = prepare_state(train, x_tilde).layout
    return QuantumState(layout.n_qubits, entrywise_amplitudes(train, x_tilde, layout)), layout


def gate_path(state, layout):
    """The readout of a state in a register layout, gate by gate: ancilla
    Hadamard, postselect ancilla=0, class marginal. Returns (p_acc,
    p_class_minus, p_class_plus); postselect raises ImpossibleBranchError at
    or below its floor."""
    interfered = apply_gate(state, h(layout.ancilla_bit))
    kept, p_acc = postselect(interfered, layout.ancilla_bit, 0)
    return (p_acc, *qubit_probabilities(kept, CLASS_BIT))


def gate_read(train, x_tilde):
    """(p_acc, p_class_minus, label) of the encoded register of x_tilde, read
    by gate_path; a class -1 share of exactly 0.5 predicts +1."""
    p_acc, p_minus, _ = gate_path(*encoded_state(train, x_tilde))
    return p_acc, p_minus, (-1 if p_minus > 0.5 else +1)


def one_pass_readout(train, X):
    """read_batch's (p_acc, p_class_minus) with every training row transposed
    and summed at once: the weights w_km = |x_k + x^m|^2, summed over the
    features in order, their class sums, and p_acc floored to 0 with
    p_class_minus nan at or below BRANCH_FLOOR."""
    xs, vs = (np.ascontiguousarray(np.swapaxes(a, -1, -2)) for a in (X, train.vectors))
    sums = xs[..., :, :, None] + vs[..., :, None, :]
    w = np.square(sums, out=sums).sum(-3)
    minus = (train.labels == -1)[..., None, :]
    w_minus, w_plus = np.where(minus, w, 0.0).sum(-1), np.where(minus, 0.0, w).sum(-1)
    total = w_minus + w_plus
    p_acc = total / (4 * train.M)
    possible = p_acc > BRANCH_FLOOR
    p_minus = w_minus / np.where(possible, total, 1.0)
    return np.where(possible, p_acc, 0.0), np.where(possible, p_minus, np.nan)


def assert_blocks_equal_one_pass(train, x_tilde, shots=8192, seed=0):
    """For an input whose branch is possible: read_batch, of the input alone
    and stacked over two training rows, and both readouts of the prepared
    state equal one_pass_readout exactly, the sampled one through the draws
    it makes."""
    state = prepare_state(train, x_tilde)
    for X in (x_tilde[None], np.vstack([x_tilde, train.vectors[:2]])):
        p_acc, p_minus = read_batch(train, X)
        ref_acc, ref_minus = one_pass_readout(train, X)
        assert np.array_equal(p_acc, ref_acc)
        assert np.array_equal(p_minus, ref_minus, equal_nan=True)
    (p_acc,), (p_minus,) = one_pass_readout(train, x_tilde[None])
    outcome = interfere_and_read(state)
    assert (outcome.p_acc, outcome.p_class_minus) == (p_acc, p_minus)
    assert outcome.p_class_plus == 1.0 - p_minus
    rng = np.random.default_rng(seed)
    accepted = int(np.count_nonzero(rng.random(shots) < p_acc))
    minus_count = int(np.count_nonzero(rng.random(accepted) < p_minus))
    sampled = interfere_and_sample(state, shots, seed)
    assert (sampled.accepted, sampled.p_class_minus) == (accepted, minus_count / accepted)


def assert_matches_statevector(train, X):
    """read_batch against gate_read row by row: p_acc and p_minus to 1e-12,
    the label exactly, and (0, nan) where postselection fails."""
    p_acc, p_minus = read_batch(train, X)
    for k, x in enumerate(X):
        try:
            ref_acc, ref_minus, ref_label = gate_read(train, x)
        except ImpossibleBranchError:
            assert p_acc[k] == 0.0 and math.isnan(p_minus[k])
            continue
        assert abs(p_acc[k] - ref_acc) <= 1e-12
        assert abs(p_minus[k] - ref_minus) <= 1e-12
        assert (-1 if p_minus[k] > 0.5 else +1) == ref_label


def assert_read_matches_gate_path(train, x_tilde):
    """interfere_and_read of the prepared state of x_tilde against gate_path
    of its encoded register: p_acc, p_class_minus and p_class_plus to 1e-12,
    the label exactly, and ImpossibleBranchError from both or from neither."""
    state = prepare_state(train, x_tilde)
    try:
        p_acc, p_minus, p_plus = gate_path(*encoded_state(train, x_tilde))
    except ImpossibleBranchError:
        with pytest.raises(ImpossibleBranchError):
            interfere_and_read(state)
        return
    outcome = interfere_and_read(state)
    assert abs(outcome.p_acc - p_acc) <= 1e-12
    assert abs(outcome.p_class_minus - p_minus) <= 1e-12
    assert abs(outcome.p_class_plus - p_plus) <= 1e-12
    assert outcome.predicted == (-1 if p_minus > 0.5 else +1)


def assert_prepares_no_amplitudes(train, x_tilde):
    """prepare_state's tracemalloc peak: the weights of the M training rows
    and at most three blocks of ROW_BLOCK rows' temporaries; any amplitude
    array of the state, or a block's temporaries kept alive into the next
    block, would add more."""
    tracemalloc.start()
    try:
        prepare_state(train, x_tilde)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = ROW_BLOCK * train.dimension * train.vectors.itemsize
    assert peak <= train.M * train.vectors.itemsize + 3 * block


def embed(op, n_qubits: int) -> np.ndarray:
    """Full 2**n operator of one gate, built entry by entry from the basis
    indices (the gate's first listed qubit is its most significant local bit)."""
    m = gate_matrix(op)
    k = len(op.qubits)
    full = np.zeros((1 << n_qubits, 1 << n_qubits), dtype=complex)
    for col in range(1 << n_qubits):
        local_in = sum(((col >> q) & 1) << (k - 1 - j) for j, q in enumerate(op.qubits))
        rest = col & ~sum(1 << q for q in op.qubits)
        for local_out in range(1 << k):
            row = rest | sum(((local_out >> (k - 1 - j)) & 1) << q
                             for j, q in enumerate(op.qubits))
            full[row, col] = m[local_out, local_in]
    return full


def assert_gate_loop_matches_dense(circuit):
    """circuit_unitary of the circuit, and simulate's state as its column 0,
    against the product of each gate's embed operator, to EXACT_TOL."""
    expected = np.eye(1 << circuit.n_qubits, dtype=complex)
    for op in circuit.ops:
        expected = embed(op, circuit.n_qubits) @ expected
    assert np.allclose(circuit_unitary(circuit), expected, atol=EXACT_TOL, rtol=0.0)
    assert np.allclose(simulate(circuit).amplitudes, expected[:, 0], atol=EXACT_TOL, rtol=0.0)


def assert_state_is_a_read_only_copy(n_qubits: int, amplitudes, source: np.ndarray):
    """A QuantumState of amplitudes (the array source or a view of it) is
    complex, keeps its values when source, made writable, is overwritten,
    and refuses writes to its own amplitudes."""
    state = QuantumState(n_qubits, amplitudes)
    before = state.amplitudes.copy()
    assert state.amplitudes.dtype == complex
    source.setflags(write=True)
    source[...] = 0.0
    assert np.array_equal(state.amplitudes, before)
    with pytest.raises(ValueError, match="read-only"):
        state.amplitudes[0] = 0.5


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
