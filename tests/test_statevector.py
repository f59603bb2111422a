import math
from dataclasses import FrozenInstanceError
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic import statevector as sv
from qic.circuit import Circuit
from qic.errors import CapacityError, ImpossibleBranchError, NormalizationError

from reference import (
    assert_gate_loop_matches_dense,
    assert_state_is_a_read_only_copy,
    embed,
    gate_op_error,
    random_circuit,
    zero_state,
)

SQRT2_INV = 1 / math.sqrt(2)


def random_state(n_qubits: int, seed: int) -> sv.QuantumState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return sv.QuantumState(n_qubits, amps / np.linalg.norm(amps))


def entangling_prefix(n_qubits: int, seed: int) -> tuple[sv.GateOp, ...]:
    """Ops that take |0...0> to a generic entangled state: a seeded ry on
    each qubit, then a seeded random circuit."""
    rng = np.random.default_rng(seed)
    layer = tuple(sv.ry(float(rng.uniform(0.3, 2.8)), q) for q in range(n_qubits))
    return layer + random_circuit(n_qubits, 3 * n_qubits, seed).ops


def assert_column_is_gate_chain(u, j: int, ops) -> None:
    """Column j of the unitary u against the ops applied to basis state j one
    apply_gate at a time, to EXACT_TOL."""
    n = u.shape[0].bit_length() - 1
    state = sv.QuantumState(n, np.eye(1 << n)[j])
    for op in ops:
        state = sv.apply_gate(state, op)
    assert np.allclose(u[:, j], state.amplitudes, atol=sv.EXACT_TOL, rtol=0.0)


@st.composite
def circuits(draw, min_qubits=3, max_qubits=7):
    """Random circuits over every gate kind that fits, on min_qubits to
    max_qubits qubits."""
    n = draw(st.integers(min_qubits, max_qubits))
    kinds = sorted(kind for kind, arity in sv.GATE_ARITY.items() if arity <= n)
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(kinds))
        qubits = tuple(draw(st.permutations(range(n)))[: sv.GATE_ARITY[kind]])
        theta = draw(st.floats(-2 * math.pi, 2 * math.pi))
        ops.append(sv.GateOp(kind, qubits, theta if kind in sv.ROTATION_KINDS else None))
    return Circuit(n, tuple(ops))


@st.composite
def angle_free_runs(draw):
    """Random circuits on 3 to 7 qubits, one gate in six a rotation, on 3 or
    4 wires drawn per circuit: runs of angle-free gates that fuse, runs broken
    at the width bound by a fourth wire, and both inside wider registers."""
    n = draw(st.integers(3, 7))
    wires = draw(st.permutations(range(n)))[: draw(st.integers(3, min(n, 4)))]
    angle_free = sorted(set(sv.GATE_ARITY) - sv.ROTATION_KINDS)
    ops = []
    for _ in range(draw(st.integers(2, 24))):
        rotation = draw(st.integers(0, 5)) == 0
        kind = draw(st.sampled_from(sorted(sv.ROTATION_KINDS) if rotation else angle_free))
        qubits = tuple(draw(st.permutations(wires))[: sv.GATE_ARITY[kind]])
        theta = draw(st.floats(-2 * math.pi, 2 * math.pi)) if rotation else None
        ops.append(sv.GateOp(kind, qubits, theta))
    return Circuit(n, tuple(ops))


def assert_equals_gate_chain(amplitudes, state, ops):
    """amplitudes against the ops applied to state one apply_gate at a time,
    and against the product of their embed operators, to EXACT_TOL."""
    dense, stepped = state.amplitudes, state
    for op in ops:
        dense = embed(op, state.n_qubits) @ dense
        stepped = sv.apply_gate(stepped, op)
    assert np.allclose(amplitudes, stepped.amplitudes, atol=sv.EXACT_TOL, rtol=0.0)
    assert np.allclose(amplitudes, dense, atol=sv.EXACT_TOL, rtol=0.0)


@st.composite
def gate_fields(draw):
    """Fields of a gate, often valid: a known or unknown kind with 0-4 qubits
    (often the kind's arity), in a tuple or a list, some replaced by a repeat,
    a negative, a bool, a float or a numpy int; and an angle that may be
    absent, non-finite, bool, an int or a numpy float."""
    kind = draw(st.one_of(st.sampled_from(sorted(sv.GATE_ARITY) + ["rz", "CX", ""]),
                          st.sampled_from(sorted(sv.ROTATION_KINDS))))
    size = draw(st.one_of(st.just(sv.GATE_ARITY.get(kind, 1)), st.integers(0, 4)))
    qubits = draw(st.permutations(range(7)))[:size]
    odd_qubit = st.one_of(st.integers(-2, 6), st.booleans(), st.floats(-2, 6),
                          st.integers(0, 6).map(np.int64), st.integers(0, 6).map(np.int32))
    for i in draw(st.lists(st.integers(0, max(size - 1, 0)), max_size=size)):
        qubits[i] = draw(odd_qubit)
    fitting_theta = st.floats(-10, 10) if kind in sv.ROTATION_KINDS else st.none()
    theta = draw(st.one_of(
        fitting_theta, fitting_theta, st.none(), st.sampled_from([math.nan, math.inf, -math.inf]),
        st.just(True), st.floats(-10, 10).map(np.float64), st.integers(-3, 3),
    ))
    return kind, draw(st.sampled_from([tuple, tuple, list]))(qubits), theta


class TestZeroState:
    """simulate of an empty circuit is |0...0>."""

    def test_single_qubit(self):
        assert np.array_equal(sv.simulate(Circuit(1, ())).amplitudes, [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(sv.simulate(Circuit(2, ())).amplitudes, [1, 0, 0, 0])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError, match=f"at most {sv.MAX_UNITARY_QUBITS} qubits, got 11"):
            sv.simulate(Circuit(11, ()))


# every function that returns a state, each run on a small input
PRODUCERS = {
    "apply_gate": lambda: sv.apply_gate(random_state(2, 1), sv.h(0)),
    "postselect": lambda: sv.postselect(random_state(2, 2), 1, 0)[0],
    "simulate": lambda: sv.simulate(Circuit(2, (sv.h(1), sv.cx(1, 0)))),
    "simulate-empty": lambda: sv.simulate(Circuit(2, ())),
    "constructor": lambda: sv.QuantumState(1, [1.0, 0.0]),
}


class TestQuantumState:
    @pytest.mark.parametrize("producer", PRODUCERS.values(), ids=PRODUCERS.keys())
    def test_producers_return_frozen_read_only_states(self, producer):
        state = producer()
        amps = state.amplitudes.copy()
        for field, value in [("amplitudes", np.zeros_like(amps)),
                             ("n_qubits", state.n_qubits + 1)]:
            with pytest.raises(FrozenInstanceError):
                setattr(state, field, value)
        with pytest.raises(ValueError, match="read-only"):
            state.amplitudes[0] = 0.5
        with pytest.raises(ValueError):
            state.amplitudes.setflags(write=True)
        assert np.array_equal(state.amplitudes, amps)

    @pytest.mark.parametrize("source", ["buffer", "view", "read-only view", "float owner",
                                        "read-only owner"])
    def test_state_does_not_follow_later_writes_to_its_source(self, source):
        # every input is copied, a read-only owner too, so the state keeps
        # its values when its source is made writable again and overwritten
        buffer = random_state(3, 5).amplitudes.copy()
        if source == "float owner":
            buffer = buffer.real.copy()
        if source in ("float owner", "read-only owner"):
            buffer.setflags(write=False)
        amps = buffer if source in ("buffer", "float owner", "read-only owner") else buffer[:]
        if source == "read-only view":
            amps.setflags(write=False)
        assert_state_is_a_read_only_copy(3, amps, buffer)

    def test_amplitude_count_must_match(self):
        with pytest.raises(ValueError, match=r"expected 8 amplitudes, got \(4,\)"):
            sv.QuantumState(3, np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("n, rule", [
        (True, "an integer"), (np.bool_(True), "an integer"), (1.0, "an integer"),
        ("1", "an integer"), (0, ">= 1"), (-1, ">= 1"),
    ], ids=["bool", "numpy-bool", "float", "string", "zero", "negative"])
    def test_n_qubits_is_an_integer_of_at_least_one_as_for_a_circuit(self, n, rule):
        for build in (lambda: sv.QuantumState(n, [1, 0]), lambda: Circuit(n, ())):
            with pytest.raises(ValueError, match=f"n_qubits must be {rule}"):
                build()

    def test_numpy_integer_n_qubits_is_stored_as_int(self):
        state = sv.QuantumState(np.int64(1), [1, 0])
        assert type(state.n_qubits) is int and state.n_qubits == 1


class TestGateOp:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            sv.cx(1, 1)

    def test_rotation_needs_finite_angle(self):
        with pytest.raises(ValueError):
            sv.ry(float("nan"), 0)

    def test_non_rotation_rejects_angle(self):
        with pytest.raises(ValueError):
            sv.GateOp("h", (0,), 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            sv.GateOp("rz", (0,))

    @pytest.mark.parametrize("qubits", [(1.5,), (True,), (np.float64(1.0),), (np.bool_(True),)])
    def test_qubit_must_be_an_integer_and_not_bool(self, qubits):
        with pytest.raises(ValueError, match="qubit indices must be integers"):
            sv.GateOp("h", qubits)

    def test_fields_are_stored_as_python_types(self):
        op = sv.GateOp("cry", [np.int64(2), np.int32(0)], np.float64(0.3))
        assert op == sv.cry(0.3, 2, 0)
        assert type(op.qubits) is tuple
        assert [type(q) for q in op.qubits] == [int, int]
        assert type(op.theta) is float

    @settings(max_examples=300, deadline=None)
    @given(fields=gate_fields())
    def test_fused_check_agrees_with_step_by_step_rules(self, fields):
        kind, qubits, theta = fields
        expected = gate_op_error(kind, qubits, theta)
        if expected is not None:
            with pytest.raises(ValueError) as info:
                sv.GateOp(kind, qubits, theta)
            assert str(info.value) == expected
            return
        op = sv.GateOp(kind, qubits, theta)
        assert (op.kind, op.qubits, op.theta) == (kind, tuple(qubits), theta)
        assert type(op.qubits) is tuple and all(type(q) is int for q in op.qubits)
        assert type(op.theta) is (type(None) if theta is None else float)


class TestGateMatrix:
    @pytest.mark.parametrize("op", [sv.h(0), sv.x(0), sv.t(0), sv.tdg(0), sv.s(0),
                                    sv.cx(0, 1), sv.swap(0, 1), sv.ccx(0, 1, 2),
                                    sv.ry(0.3, 0), sv.cry(0.5, 0, 1), sv.ccry(0.7, 0, 1, 2)],
                             ids=lambda op: op.kind)
    def test_shared_matrices_are_read_only(self, op):
        m = sv.gate_matrix(op)
        before = m.copy()
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        assert np.array_equal(sv.gate_matrix(op), before)

    def test_fused_matrices_are_read_only(self):
        run = (sv.h(4), sv.cx(4, 1), sv.t(1), sv.ccx(1, 4, 6), sv.swap(6, 4))
        wires, m = sv._fused_run(run)
        assert wires == (4, 1, 6) and m.shape == (8, 8)
        before = m.copy()
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        assert sv._fused_run(run)[1] is m
        assert np.array_equal(m, before)

    def test_rotation_matrix_is_built_once_per_circuit(self, monkeypatch):
        built = []
        exact = sv._ry_matrix

        def counting(theta):
            built.append(theta)
            return exact(theta)

        monkeypatch.setattr(sv, "_ry_matrix", counting)
        ops = (sv.ry(0.3, 0), sv.h(1), sv.cry(0.5, 0, 1), sv.ccry(0.7, 2, 0, 1), sv.ry(0.3, 0))
        circ = Circuit(3, ops)
        for _ in range(2):
            sv.simulate(circ)
            sv.circuit_unitary(circ)
        assert built == [0.3, 0.5, 0.7, 0.3]
        # an equal circuit keeps its own unitary, so it builds its own matrices
        fresh = Circuit(3, tuple(sv.GateOp(op.kind, op.qubits, op.theta) for op in ops))
        assert fresh == circ
        sv.simulate(fresh)
        sv.circuit_unitary(fresh)
        assert built == [0.3, 0.5, 0.7, 0.3] * 2


class TestApplyGate:
    def test_hadamard_on_zero(self):
        state = sv.apply_gate(zero_state(1), sv.h(0))
        assert np.allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV])

    def test_ry_loads_target_vector(self):
        # ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
        state = sv.apply_gate(zero_state(1), sv.ry(1.325, 0))
        assert np.allclose(state.amplitudes.real, [0.789, 0.615], atol=1e-3)

    def test_cnot_flips_target_when_control_set(self):
        state = zero_state(2)
        state = sv.apply_gate(state, sv.x(0))  # control qubit 0 -> |1>
        state = sv.apply_gate(state, sv.cx(0, 1))
        expected = np.zeros(4)
        expected[0b11] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_swap_exchanges_qubits(self):
        state = sv.apply_gate(zero_state(2), sv.x(0))
        state = sv.apply_gate(state, sv.swap(0, 1))
        expected = np.zeros(4)
        expected[0b10] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_toffoli_truth_table(self):
        state = zero_state(3)
        for q in (0, 1):
            state = sv.apply_gate(state, sv.x(q))
        state = sv.apply_gate(state, sv.ccx(0, 1, 2))
        expected = np.zeros(8)
        expected[0b111] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            sv.apply_gate(zero_state(1), sv.h(1))

    def test_input_not_mutated(self):
        state = zero_state(1)
        sv.apply_gate(state, sv.x(0))
        assert state.amplitudes[0] == 1.0

    @pytest.mark.parametrize("op", ["h", ("h", (0,)), None,
                                    SimpleNamespace(kind="h", qubits=(0,), theta=None)],
                             ids=["string", "tuple", "none", "look-alike"])
    def test_rejects_an_op_that_is_not_a_gate_op(self, op):
        with pytest.raises(ValueError, match="op is not a GateOp"):
            sv.apply_gate(zero_state(1), op)

    @pytest.mark.parametrize("seed", range(12))
    def test_norm_preserved_on_random_states(self, seed):
        rng = np.random.default_rng(seed + 1000)
        state = random_state(4, seed)
        for op in random_circuit(4, 15, seed).ops:
            state = sv.apply_gate(state, op)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


    @pytest.mark.parametrize("kind", sorted(sv.GATE_ARITY))
    def test_one_dimensional_input_matches_full_operator(self, kind):
        # the kernel also takes a batch axis; a lone state must keep its
        # (2**n,) shape and the values of the gate's full 2**n operator
        n = 4
        theta = 1.1 if kind in sv.ROTATION_KINDS else None
        for qubits in [(3, 0, 2), (1, 3, 0), (0, 1, 2)]:
            op = sv.GateOp(kind, qubits[: sv.GATE_ARITY[kind]], theta)
            state = random_state(n, 40 + len(kind))
            out = sv.apply_gate(state, op)
            assert out.amplitudes.shape == (1 << n,)
            assert out.amplitudes.flags.c_contiguous
            assert np.allclose(out.amplitudes, embed(op, n) @ state.amplitudes,
                               atol=1e-12, rtol=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_simulate_equals_gate_by_gate(self, seed):
        # simulate fuses runs of angle-free gates, apply_gate takes one gate
        # at a time: the same unitaries, multiplied in another order
        circ = random_circuit(5, 25, seed + 500)
        prefix = entangling_prefix(5, seed + 600)
        state = sv.simulate(Circuit(5, prefix))
        assert np.all(state.amplitudes != 0)
        got = sv.simulate(Circuit(5, prefix + circ.ops))
        assert got.amplitudes.shape == (32,)
        assert_equals_gate_chain(got.amplitudes, state, circ.ops)


class TestGateLoop:
    """simulate and circuit_unitary keep the state in the axis order of the
    last matmul and restore the original order after the last gate."""

    @settings(max_examples=60, deadline=None)
    @given(circ=circuits(1, 2))
    def test_one_and_two_qubit_circuits_match_dense_product(self, circ):
        assert_gate_loop_matches_dense(circ)

    @pytest.mark.parametrize("ops", [
        # each gate after the first acts on the qubits the previous one left
        # leading, so its matmul reads the previous product in place
        (sv.h(2), sv.ry(0.3, 2), sv.t(2), sv.x(2)),
        (sv.cx(1, 3), sv.cry(-0.7, 1, 3), sv.swap(1, 3), sv.cx(1, 3)),
        (sv.h(0), sv.ccx(0, 4, 2), sv.ccry(1.9, 0, 4, 2), sv.ccx(0, 4, 2), sv.s(0)),
        (sv.swap(0, 3), sv.swap(3, 0), sv.tdg(2), sv.tdg(2), sv.cx(3, 0)),
    ], ids=["one-qubit", "two-qubit", "three-qubit", "reordered"])
    def test_repeated_qubits_equal_apply_gate_chain(self, ops):
        prefix = entangling_prefix(5, 77)
        got = sv.simulate(Circuit(5, prefix + ops)).amplitudes
        assert_equals_gate_chain(got, sv.simulate(Circuit(5, prefix)), ops)

    def test_unfused_steps_equal_apply_gate_chain_bit_for_bit(self):
        # a rotation before and after each angle-free gate: every step is one
        # gate, as in apply_gate, so only the axis-order bookkeeping differs
        ops = (sv.ry(0.3, 2), sv.h(2), sv.cry(-0.7, 1, 3), sv.cx(1, 3), sv.ry(1.2, 4),
               sv.swap(0, 3), sv.ccry(1.9, 0, 4, 2), sv.ccx(0, 4, 2), sv.ry(-0.4, 0),
               sv.tdg(1), sv.cry(0.8, 3, 1), sv.cx(3, 0), sv.ry(0.6, 3))
        assert len(list(sv._steps(ops))) == len(ops)
        prefix = entangling_prefix(5, 78)
        stepped = sv.simulate(Circuit(5, prefix))
        for op in ops:
            stepped = sv.apply_gate(stepped, op)
        assert np.array_equal(sv.simulate(Circuit(5, prefix + ops)).amplitudes,
                              stepped.amplitudes)

    @settings(max_examples=80, deadline=None)
    @given(circ=angle_free_runs())
    def test_angle_free_runs_match_dense_product(self, circ):
        assert all(len(qubits) <= 3 for qubits, _ in sv._steps(circ.ops))
        assert_gate_loop_matches_dense(circ)

    def test_out_of_range_qubit_after_valid_gates_raises_every_time(self):
        # simulate and circuit_unitary of such ops: TestKeptUnitary
        state = zero_state(3)
        for op in (sv.h(0), sv.cx(0, 1), sv.ry(0.4, 2), sv.cx(2, 0)):
            state = sv.apply_gate(state, op)
        for _ in range(2):
            with pytest.raises(IndexError, match="qubit 3 out of range"):
                sv.apply_gate(state, sv.h(3))

    @pytest.mark.parametrize("ops", [
        (),
        (sv.h(3),),  # the most significant qubit already leads: no reorder
        (sv.h(0),),
        (sv.cx(0, 2), sv.ccry(0.5, 1, 3, 0), sv.swap(2, 1)),
        # leaves the axes in their original order, so nothing is transposed back
        (sv.h(0), sv.ry(0.3, 1), sv.cx(2, 3), sv.cx(3, 2)),
    ], ids=["empty", "leading", "trailing", "mixed", "ends-in-order"])
    def test_outputs_are_c_contiguous_in_the_input_shape(self, ops):
        # from |0...0>, so that each case leaves the axis order it names
        circ = Circuit(4, ops)
        state = sv.simulate(circ)
        u = sv.circuit_unitary(circ)
        assert state.amplitudes.shape == (16,)
        assert u.shape == (16, 16)
        assert state.amplitudes.flags.c_contiguous
        assert u.flags.c_contiguous


class TestKeptUnitary:
    """A Circuit builds the unitary that simulate and circuit_unitary read on
    its first use, and keeps it read-only."""

    def test_simulate_and_unitary_build_the_unitary_once(self, monkeypatch):
        built, build = [], sv.gate_unitary
        monkeypatch.setattr(sv, "gate_unitary",
                            lambda n, ops: built.append(ops) or build(n, ops))
        circ = Circuit(4, (sv.h(0), sv.cx(0, 1), sv.ry(0.3, 2), sv.ccx(2, 0, 3), sv.swap(1, 3)))
        sv.simulate(circ)
        sv.circuit_unitary(circ)
        sv.simulate(circ)
        assert built == [circ.ops]
        with pytest.raises(ValueError, match="read-only"):
            circ.unitary[0, 0] = 5.0

    def test_repeated_and_equal_circuits_give_bit_identical_arrays(self):
        circ = random_circuit(5, 30, 900)
        state, u = sv.simulate(circ).amplitudes, sv.circuit_unitary(circ)
        expected = u.copy()
        u[0, 0] = 5.0  # a returned unitary is the caller's own copy
        assert not np.shares_memory(u, circ.unitary)
        rebuilt = Circuit(5, tuple(sv.GateOp(op.kind, op.qubits, op.theta) for op in circ.ops))
        assert rebuilt == circ and rebuilt.unitary is not circ.unitary
        for again in (circ, circ, rebuilt):
            assert np.array_equal(sv.simulate(again).amplitudes, state)
            assert np.array_equal(sv.circuit_unitary(again), expected)

    @settings(max_examples=80, deadline=None)
    @given(circ=circuits(1, 5))
    def test_kept_unitaries_match_dense_product(self, circ):
        # each check reads the unitary twice, built once
        assert_gate_loop_matches_dense(circ)
        assert_gate_loop_matches_dense(circ)

    def test_out_of_range_qubit_raises_every_call_and_keeps_no_unitary(self):
        # a Circuit rejects the op itself, so this one is built past its check
        ops = (sv.h(0), sv.cx(0, 1), sv.ry(0.4, 2), sv.cx(2, 0), sv.h(3))
        bad = object.__new__(Circuit)
        object.__setattr__(bad, "n_qubits", 3)
        object.__setattr__(bad, "ops", ops)
        for _ in range(2):
            for run in (sv.simulate, sv.circuit_unitary):
                with pytest.raises(IndexError, match="qubit 3 out of range"):
                    run(bad)
            assert "unitary" not in vars(bad)


class TestQubitProbabilities:
    def test_uniform_superposition(self):
        state = sv.apply_gate(zero_state(1), sv.h(0))
        p0, p1 = sv.qubit_probabilities(state, 0)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_basis_state(self):
        state = sv.apply_gate(zero_state(1), sv.x(0))
        assert sv.qubit_probabilities(state, 0) == (0.0, 1.0)

    def test_sums_to_one(self):
        state = random_state(5, 7)
        for q in range(5):
            p0, p1 = sv.qubit_probabilities(state, q)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            sv.qubit_probabilities(zero_state(2), 2)

    @pytest.mark.parametrize("qubit", [True, False, np.bool_(True), 1.0, "1", None])
    def test_qubit_must_be_an_integer_and_not_bool(self, qubit):
        with pytest.raises(ValueError, match="qubit must be an integer") as info:
            sv.qubit_probabilities(random_state(2, 8), qubit)
        assert repr(qubit) in str(info.value)

    def test_numpy_integer_qubit_is_accepted(self):
        state = random_state(2, 8)
        assert sv.qubit_probabilities(state, np.int64(1)) == sv.qubit_probabilities(state, 1)

    def test_unnormalized_state_rejected(self):
        state = random_state(3, 11)
        scaled = sv.QuantumState(3, 2 * state.amplitudes)
        with pytest.raises(NormalizationError, match="total probability 4"):
            sv.qubit_probabilities(scaled, 1)


class TestPostselect:
    def test_already_in_branch(self):
        kept, p = sv.postselect(zero_state(1), 0, 0)
        assert p == pytest.approx(1.0)
        assert np.allclose(kept.amplitudes, [1, 0])

    def test_accept_probability_is_branch_mass(self):
        state = sv.apply_gate(zero_state(2), sv.ry(1.0, 0))
        _, p = sv.postselect(state, 0, 1)
        assert p == pytest.approx(math.sin(0.5) ** 2, abs=1e-12)

    def test_renormalizes(self):
        state = random_state(3, 3)
        kept, _ = sv.postselect(state, 1, 0)
        assert abs(np.linalg.norm(kept.amplitudes) - 1.0) < 1e-12
        bits = (np.arange(8) >> 1) & 1
        assert np.all(kept.amplitudes[bits == 1] == 0)

    def test_impossible_branch(self):
        with pytest.raises(ImpossibleBranchError):
            sv.postselect(zero_state(1), 0, 1)

    @pytest.mark.parametrize("qubit", [True, 0.0, np.float64(1.0), None])
    def test_qubit_must_be_an_integer_and_not_bool(self, qubit):
        with pytest.raises(ValueError, match="qubit must be an integer") as info:
            sv.postselect(random_state(2, 9), qubit, 0)
        assert repr(qubit) in str(info.value)

    @pytest.mark.parametrize("outcome", [True, False, 1.0, 0.0, np.float64(1.0), 2, -1, "0"])
    def test_outcome_must_be_integer_0_or_1(self, outcome):
        with pytest.raises(ValueError, match="outcome must be 0 or 1") as info:
            sv.postselect(random_state(2, 9), 0, outcome)
        assert repr(outcome) in str(info.value)

    def test_numpy_integers_are_accepted(self):
        state = random_state(2, 9)
        kept, p = sv.postselect(state, np.int64(1), np.uint8(1))
        ref, p_ref = sv.postselect(state, 1, 1)
        assert p == p_ref
        assert np.array_equal(kept.amplitudes, ref.amplitudes)


class TestCheckUnit:
    def test_unit_vector_and_rows_pass(self):
        sv.check_unit(np.array([0.6, 0.8]), "v")
        sv.check_unit(np.array([[0.6, 0.8], [1.0, 0.0]]), "rows")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_fails(self, bad):
        with pytest.raises(NormalizationError, match="rows must be finite"):
            sv.check_unit(np.array([[0.6, 0.8], [bad, 0.0]]), "rows")

    def test_deviation_beyond_unit_tol_fails(self):
        sv.check_unit(np.array([0.6, 0.8]) * (1 + 0.5 * sv.UNIT_TOL), "v")
        with pytest.raises(NormalizationError, match="worst deviation 1.00e-09"):
            sv.check_unit(np.array([0.6, 0.8]) * (1 + 1e-9), "v")


class TestSimulate:
    def test_empty_circuit_returns_a_copy_of_initial(self):
        # the initial state |0...0> is column 0 of the kept unitary, the identity
        circ = Circuit(2, ())
        out = sv.simulate(circ)
        assert np.array_equal(out.amplitudes, [1, 0, 0, 0])
        assert not np.shares_memory(out.amplitudes, circ.unitary)


class TestCircuitUnitary:
    def test_single_hadamard(self):
        u = sv.circuit_unitary(Circuit(1, (sv.h(0),)))
        assert np.allclose(u, np.array([[1, 1], [1, -1]]) / math.sqrt(2))

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            sv.circuit_unitary(Circuit(11, ()))

    @pytest.mark.parametrize("seed", range(8))
    def test_unitarity_random_circuits(self, seed):
        circ = random_circuit(6, 40, seed + 100)
        u = sv.circuit_unitary(circ)
        assert np.allclose(u @ u.conj().T, np.eye(64), atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_gate_by_gate_application(self, seed):
        circ = random_circuit(4, 20, seed + 200)
        u = sv.circuit_unitary(circ)
        prefix = entangling_prefix(4, seed + 300)
        expected = u @ sv.simulate(Circuit(4, prefix)).amplitudes
        got = sv.simulate(Circuit(4, prefix + circ.ops))
        assert np.allclose(got.amplitudes, expected, atol=1e-10)


    @settings(max_examples=60, deadline=None)
    @given(circ=circuits())
    def test_columns_are_simulated_basis_states(self, circ):
        u = sv.circuit_unitary(circ)
        dim = 1 << circ.n_qubits
        assert u.shape == (dim, dim)
        for j in range(dim):
            assert_column_is_gate_chain(u, j, circ.ops)

    def test_unitary_at_qubit_cap(self):
        n = sv.MAX_UNITARY_QUBITS
        circ = Circuit(n, (sv.h(0), sv.ccry(0.9, 9, 4, 1), sv.cx(1, 9),
                           sv.swap(2, 7), sv.ry(-1.3, 5), sv.ccx(8, 0, 3)))
        u = sv.circuit_unitary(circ)
        assert u.shape == (1 << n, 1 << n)
        assert np.allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-12, rtol=0.0)
        for j in (0, 1 << 9, (1 << n) - 1):
            assert_column_is_gate_chain(u, j, circ.ops)
