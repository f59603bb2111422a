"""Independent references the tests hold the program to: the encoded
register's basis index, from its documented bit order, and the amplitudes
placed by it (which the program never builds; tests pin them to the
simulated experiment circuit), the random training sets with balanced
labels that the tests draw, the paper's classical kernel-sum decision rule,
the |0...0> state, the statevector readout of that register gate by gate
(the oracle for the program's one closed-form readout), that closed form in
exact rational arithmetic from its class sums, the gate rules checked one
at a time, the seeded random circuits over every gate kind, the full 2^n
operator of one gate, built entry by entry (the oracle for the gate loop),
and the checks that hold the program to these,
shared by the tests and the planted faults."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qic.circuit import Circuit
from qic.classifier import (
    TrainingSet,
    acceptance_error,
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
    GateOp,
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
    """Index of basis state |m>|ancilla>|i>|class bit> in the register layout
    of a PreparedState; integer arrays give an array of indices."""
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


def random_instance(rng, M, N):
    """Training set with balanced labels plus a unit input vector."""
    vectors = rng.normal(size=(M, N))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    if M == 1:
        labels = np.array([rng.choice([-1, 1])])
    else:
        labels = np.array(([-1, 1] * ((M + 1) // 2))[:M])
        rng.shuffle(labels)
    x_tilde = rng.normal(size=N)
    x_tilde /= np.linalg.norm(x_tilde)
    return TrainingSet(vectors=vectors, labels=labels), x_tilde


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
    of entrywise_amplitudes in the layout of the PreparedState that
    prepare_state returns, and that PreparedState."""
    layout = prepare_state(train, x_tilde)
    return QuantumState(layout.n_qubits, entrywise_amplitudes(train, x_tilde, layout)), layout


def zero_state(n_qubits: int) -> QuantumState:
    """The all-qubits-|0> state."""
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def gate_path(state, layout):
    """The readout of a state in the register layout of a PreparedState,
    gate by gate: ancilla Hadamard, postselect ancilla=0, class marginal.
    Returns (p_acc, p_class_minus, p_class_plus); postselect raises
    ImpossibleBranchError at or below its floor."""
    interfered = apply_gate(state, h(layout.ancilla_bit))
    kept, p_acc = postselect(interfered, layout.ancilla_bit, 0)
    return (p_acc, *qubit_probabilities(kept, CLASS_BIT))


def gate_read(train, x_tilde):
    """(p_acc, p_class_minus, label) of the encoded register of x_tilde, read
    by gate_path; a class -1 share of exactly 0.5 predicts +1."""
    p_acc, p_minus, _ = gate_path(*encoded_state(train, x_tilde))
    return p_acc, p_minus, (-1 if p_minus > 0.5 else +1)


def exact_class_sums(train):
    """Per class of one training set, -1 then +1, in exact rational arithmetic
    on its float values (every float is a dyadic rational): the row count, the
    sum of the rows' squared norms and the sum of the rows."""
    sums = []
    for label in (-1, 1):
        rows = [[Fraction(v) for v in row]
                for row, y in zip(train.vectors.tolist(), train.labels.tolist()) if y == label]
        sums.append((len(rows), sum((v * v for row in rows for v in row), Fraction(0)),
                     [sum(column, Fraction(0)) for column in zip(*rows)]
                     or [Fraction(0)] * train.dimension))
    return sums


def exact_readout(train, x_tilde, class_sums=None):
    """(p_acc, p_class_minus) of one input against one training set, exact:
    each class weight sum_m |x + x^m|^2 taken as M_c |x|^2 + S_c + 2 <x, V_c>
    from exact_class_sums (or the class_sums given), with p_class_minus None
    where p_acc is 0."""
    x = [Fraction(v) for v in np.asarray(x_tilde, dtype=float).tolist()]
    sq_norm = sum((v * v for v in x), Fraction(0))
    weights = [count * sq_norm + sq_sum + 2 * sum(a * b for a, b in zip(x, vector_sum))
               for count, sq_sum, vector_sum in class_sums or exact_class_sums(train)]
    total = sum(weights)
    return total / (4 * train.M), (weights[0] / total if total else None)


def assert_within_rounding_bound(train, X):
    """read_batch of the rows of X, and prepare_state of each, against
    exact_readout, with e = acceptance_error(M, N): p_acc within e, and
    within e of itself where the class sums must have put it at or below
    sqrt(e), so that the row was re-read directly; p_class_minus within
    2 e / p_acc; and the branch impossible exactly where the exact acceptance
    is at or below BRANCH_FLOOR, unless it lies within e * BRANCH_FLOOR of
    the floor, where the direct sums may round to either side."""
    e = acceptance_error(train.M, train.dimension)
    p_acc, p_minus = read_batch(train, X)
    class_sums = exact_class_sums(train)
    for k, x in enumerate(X):
        exact_acc, exact_minus = exact_readout(train, x, class_sums)
        state = prepare_state(train, x)
        tol = e * exact_acc if exact_acc + e <= math.sqrt(e) else e
        assert abs(Fraction(state.p_acc) - exact_acc) <= tol
        if abs(exact_acc - Fraction(BRANCH_FLOOR)) <= e * BRANCH_FLOOR:
            continue
        if exact_acc <= BRANCH_FLOOR:
            assert p_acc[k] == 0.0 and math.isnan(p_minus[k])
            assert math.isnan(state.p_class_minus)
            continue
        assert abs(Fraction(p_acc[k]) - exact_acc) <= tol
        for got in (p_minus[k], state.p_class_minus):
            assert abs(Fraction(got) - exact_minus) <= 2 * e / p_acc[k]


def near_antipodal_pair(v, eps: float):
    """A training set of the one unit row v/|v| in class -1, and the unit
    input a step eps from its opposite, orthogonal to it, towards the first
    axis: an acceptance of about eps^2/4."""
    v = np.asarray(v, dtype=float) / np.linalg.norm(v)
    step = np.eye(len(v))[0] - v[0] * v
    x = -v + eps * step / np.linalg.norm(step)
    return TrainingSet(vectors=[v], labels=[-1]), x / np.linalg.norm(x)


def assert_quotes_exact_acceptance(train, x_tilde):
    """For an input whose exact acceptance is below half of BRANCH_FLOOR: the
    readout of its prepared state raises ImpossibleBranchError quoting that
    exact acceptance to the three digits of the message."""
    exact_acc, _ = exact_readout(train, x_tilde)
    assert exact_acc < BRANCH_FLOOR / 2
    with pytest.raises(ImpossibleBranchError) as read:
        interfere_and_read(prepare_state(train, x_tilde))
    assert str(read.value).endswith(f" has probability {float(exact_acc):.3e}")


def assert_training_set_is_read_only(vectors, labels):
    """TrainingSets of writable arrays of vectors and labels that own their
    memory, and of writable views of such arrays: assigning to a field
    raises, every array a set holds refuses writes and refuses to be made
    writable, and a set never follows a write to its source: an owning
    source was taken over, so the write raises, and a view was copied."""
    for owning in (True, False):
        sources = [np.array(vectors, dtype=float), np.array(labels)]
        if not owning:
            sources = [source.view() for source in sources]
        train = TrainingSet(vectors=sources[0], labels=sources[1])
        with pytest.raises(dataclasses.FrozenInstanceError):
            train.vectors = sources[0]
        arrays = {field.name: getattr(train, field.name) for field in dataclasses.fields(train)}
        before = {name: array.copy() for name, array in arrays.items()}
        for name, array in arrays.items():
            assert not array.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 0
            with pytest.raises(ValueError):
                array.setflags(write=True)
        for source in sources:
            if owning:
                with pytest.raises(ValueError, match="read-only"):
                    source.flat[0] = 0
            else:
                source[...] = 0
        for name, array in arrays.items():
            assert np.array_equal(array, before[name]), name


def assert_same_label(train, x_tilde, p_acc, p_minus, ref_label):
    """The label of a readout (p_acc, p_minus) is ref_label, the gate path's,
    unless the exact class -1 share is within the readout's rounding bound
    2 e / p_acc of the 0.5 tie, where the two may round to either side."""
    if (-1 if p_minus > 0.5 else +1) != ref_label:
        _, exact_minus = exact_readout(train, x_tilde)
        e = acceptance_error(train.M, train.dimension)
        assert abs(exact_minus - Fraction(1, 2)) <= 2 * e / p_acc


def assert_matches_statevector(train, X):
    """read_batch against gate_read row by row: p_acc and p_minus to 1e-12,
    the label as assert_same_label holds it, and (0, nan) where
    postselection fails."""
    p_acc, p_minus = read_batch(train, X)
    for k, x in enumerate(X):
        try:
            ref_acc, ref_minus, ref_label = gate_read(train, x)
        except ImpossibleBranchError:
            assert p_acc[k] == 0.0 and math.isnan(p_minus[k])
            continue
        assert abs(p_acc[k] - ref_acc) <= 1e-12
        assert abs(p_minus[k] - ref_minus) <= 1e-12
        assert_same_label(train, x, p_acc[k], p_minus[k], ref_label)


def assert_read_matches_gate_path(train, x_tilde):
    """interfere_and_read of the prepared state of x_tilde against gate_path
    of its encoded register: p_acc, p_class_minus and p_class_plus to 1e-12,
    the label as assert_same_label holds it, and ImpossibleBranchError from
    both or from neither."""
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
    assert outcome.predicted == (-1 if outcome.p_class_minus > 0.5 else +1)
    assert_same_label(train, x_tilde, outcome.p_acc, outcome.p_class_minus,
                      -1 if p_minus > 0.5 else +1)


# the tracemalloc peak of reading inputs, past their (K x 2 x N) products:
# array headers and scalars, under 3 KiB for one input
READ_OVERHEAD = 4096


def read_peak(read, train, X) -> int:
    """The tracemalloc peak of read(train, X)."""
    tracemalloc.start()
    try:
        read(train, X)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_prepares_no_amplitudes(train, x_tilde):
    """prepare_state's tracemalloc peak: a few (2 x N) products of the input
    with the class sums, and nothing that grows with M; any amplitude array of
    the state, or any weight per training row, would add more."""
    peak = read_peak(prepare_state, train, x_tilde)
    assert peak <= 4 * 2 * train.dimension * train.vectors.itemsize + READ_OVERHEAD


def random_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    """n_gates seeded gates of any kind in GATE_ARITY on distinct random
    qubits. An angle in [-2pi, 2pi) is drawn for every gate and kept for a
    rotation, so the draws per gate do not depend on its kind."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_gates):
        kind = rng.choice(list(GATE_ARITY))
        qubits = tuple(rng.choice(n_qubits, size=GATE_ARITY[kind], replace=False))
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        ops.append(GateOp(kind, qubits, theta if kind in ROTATION_KINDS else None))
    return Circuit(n_qubits, tuple(ops))


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
