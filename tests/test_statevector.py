import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic import statevector as sv
from qic.circuit import Circuit
from qic.errors import CapacityError, ImpossibleBranchError, NormalizationError

SQRT2_INV = 1 / math.sqrt(2)


def random_state(n_qubits: int, seed: int) -> sv.QuantumState:
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return sv.QuantumState(n_qubits, amps / np.linalg.norm(amps))


def random_circuit(n_qubits: int, n_gates: int, seed: int) -> Circuit:
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_gates):
        kind = rng.choice(list(sv.GATE_ARITY))
        qubits = tuple(rng.choice(n_qubits, size=sv.GATE_ARITY[kind], replace=False))
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        ops.append(
            sv.GateOp(kind, qubits, theta if kind in sv.ROTATION_KINDS else None)
        )
    return Circuit(n_qubits, tuple(ops))


def embed(op: sv.GateOp, n_qubits: int) -> np.ndarray:
    """Full 2**n operator of one gate, built entry by entry from the basis
    indices (the gate's first listed qubit is its most significant local bit)."""
    m = sv.gate_matrix(op)
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


@st.composite
def circuits(draw):
    """Random circuits over every gate kind on 3 to 7 qubits."""
    n = draw(st.integers(3, 7))
    ops = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(sorted(sv.GATE_ARITY)))
        qubits = tuple(draw(st.permutations(range(n)))[: sv.GATE_ARITY[kind]])
        theta = draw(st.floats(-2 * math.pi, 2 * math.pi))
        ops.append(sv.GateOp(kind, qubits, theta if kind in sv.ROTATION_KINDS else None))
    return Circuit(n, tuple(ops))


class TestZeroState:
    def test_single_qubit(self):
        assert np.allclose(sv.zero_state(1).amplitudes, [1, 0])

    def test_two_qubits(self):
        assert np.allclose(sv.zero_state(2).amplitudes, [1, 0, 0, 0])

    def test_capacity_cap(self):
        with pytest.raises(CapacityError):
            sv.zero_state(25)
        with pytest.raises(CapacityError):
            sv.zero_state(0)


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


class TestGateMatrix:
    @pytest.mark.parametrize("op", [sv.h(0), sv.x(0), sv.t(0), sv.tdg(0), sv.s(0),
                                    sv.cx(0, 1), sv.swap(0, 1), sv.ccx(0, 1, 2)],
                             ids=lambda op: op.kind)
    def test_shared_matrices_are_read_only(self, op):
        m = sv.gate_matrix(op)
        before = m.copy()
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
        assert np.array_equal(sv.gate_matrix(op), before)


class TestApplyGate:
    def test_hadamard_on_zero(self):
        state = sv.apply_gate(sv.zero_state(1), sv.h(0))
        assert np.allclose(state.amplitudes, [SQRT2_INV, SQRT2_INV])

    def test_ry_loads_target_vector(self):
        # ry(theta)|0> = cos(theta/2)|0> + sin(theta/2)|1>
        state = sv.apply_gate(sv.zero_state(1), sv.ry(1.325, 0))
        assert np.allclose(state.amplitudes.real, [0.789, 0.615], atol=1e-3)

    def test_cnot_flips_target_when_control_set(self):
        state = sv.zero_state(2)
        state = sv.apply_gate(state, sv.x(0))  # control qubit 0 -> |1>
        state = sv.apply_gate(state, sv.cx(0, 1))
        expected = np.zeros(4)
        expected[0b11] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_swap_exchanges_qubits(self):
        state = sv.apply_gate(sv.zero_state(2), sv.x(0))
        state = sv.apply_gate(state, sv.swap(0, 1))
        expected = np.zeros(4)
        expected[0b10] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_toffoli_truth_table(self):
        state = sv.zero_state(3)
        for q in (0, 1):
            state = sv.apply_gate(state, sv.x(q))
        state = sv.apply_gate(state, sv.ccx(0, 1, 2))
        expected = np.zeros(8)
        expected[0b111] = 1
        assert np.allclose(state.amplitudes, expected)

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            sv.apply_gate(sv.zero_state(1), sv.h(1))

    def test_input_not_mutated(self):
        state = sv.zero_state(1)
        sv.apply_gate(state, sv.x(0))
        assert state.amplitudes[0] == 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_norm_preserved_on_random_states(self, seed):
        rng = np.random.default_rng(seed + 1000)
        state = random_state(4, seed)
        for op in random_circuit(4, 15, seed).ops:
            state = sv.apply_gate(state, op)
        assert abs(state.norm() - 1.0) < 1e-12


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
        circ = random_circuit(5, 25, seed + 500)
        state = random_state(5, seed + 600)
        expected = state.amplitudes
        for op in circ.ops:
            expected = embed(op, 5) @ expected
        stepped = state
        for op in circ.ops:
            stepped = sv.apply_gate(stepped, op)
        got = sv.simulate(circ, state)
        assert got.amplitudes.shape == (32,)
        assert np.array_equal(got.amplitudes, stepped.amplitudes)
        assert np.allclose(got.amplitudes, expected, atol=1e-12, rtol=0.0)


class TestQubitProbabilities:
    def test_uniform_superposition(self):
        state = sv.apply_gate(sv.zero_state(1), sv.h(0))
        p0, p1 = sv.qubit_probabilities(state, 0)
        assert p0 == pytest.approx(0.5, abs=1e-12)
        assert p1 == pytest.approx(0.5, abs=1e-12)

    def test_basis_state(self):
        state = sv.apply_gate(sv.zero_state(1), sv.x(0))
        assert sv.qubit_probabilities(state, 0) == (0.0, 1.0)

    def test_sums_to_one(self):
        state = random_state(5, 7)
        for q in range(5):
            p0, p1 = sv.qubit_probabilities(state, q)
            assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            sv.qubit_probabilities(sv.zero_state(2), 2)

    def test_unnormalized_state_rejected(self):
        state = random_state(3, 11)
        scaled = sv.QuantumState(3, 2 * state.amplitudes)
        with pytest.raises(NormalizationError, match="total probability 4"):
            sv.qubit_probabilities(scaled, 1)


class TestPostselect:
    def test_already_in_branch(self):
        kept, p = sv.postselect(sv.zero_state(1), 0, 0)
        assert p == pytest.approx(1.0)
        assert np.allclose(kept.amplitudes, [1, 0])

    def test_accept_probability_is_branch_mass(self):
        state = sv.apply_gate(sv.zero_state(2), sv.ry(1.0, 0))
        _, p = sv.postselect(state, 0, 1)
        assert p == pytest.approx(math.sin(0.5) ** 2, abs=1e-12)

    def test_renormalizes(self):
        state = random_state(3, 3)
        kept, _ = sv.postselect(state, 1, 0)
        assert abs(kept.norm() - 1.0) < 1e-12
        bits = (np.arange(8) >> 1) & 1
        assert np.all(kept.amplitudes[bits == 1] == 0)

    def test_impossible_branch(self):
        with pytest.raises(ImpossibleBranchError):
            sv.postselect(sv.zero_state(1), 0, 1)


class TestSampleShots:
    def test_deterministic_state(self):
        state = sv.apply_gate(sv.zero_state(1), sv.x(0))
        assert sv.sample_shots(state, [0], 8192, seed=1) == {"1": 8192}

    def test_same_seed_same_histogram(self):
        state = random_state(3, 11)
        a = sv.sample_shots(state, [0, 2], 500, seed=42)
        b = sv.sample_shots(state, [0, 2], 500, seed=42)
        assert a == b

    def test_totals_equal_shots(self):
        state = random_state(3, 12)
        hist = sv.sample_shots(state, [0, 1, 2], 1000, seed=5)
        assert sum(hist.values()) == 1000

    def test_empty_qubit_list(self):
        with pytest.raises(ValueError):
            sv.sample_shots(sv.zero_state(1), [], 10, seed=0)

    def test_empirical_frequencies_match_marginal(self):
        # 1e5 seeded shots against the exact distribution, 3-sigma per outcome
        state = random_state(3, 21)
        shots = 100_000
        hist = sv.sample_shots(state, [0, 1, 2], shots, seed=9)
        probs = state.probabilities()
        for i in range(8):
            key = format(i, "03b")[::-1]  # character j holds qubit j's bit
            p = float(probs[i])
            freq = hist.get(key, 0) / shots
            bound = 3 * math.sqrt(p * (1 - p) / shots)
            assert abs(freq - p) <= bound + 1e-12


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
        initial = random_state(2, 0)
        before = initial.amplitudes.copy()
        out = sv.simulate(Circuit(2, ()), initial)
        assert out.amplitudes is not initial.amplitudes
        out.amplitudes[0] = 0.0
        assert np.array_equal(initial.amplitudes, before)


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
        state = random_state(4, seed + 300)
        expected = u @ state.amplitudes
        got = sv.simulate(circ, state)
        assert np.allclose(got.amplitudes, expected, atol=1e-10)


    @settings(max_examples=60, deadline=None)
    @given(circ=circuits())
    def test_columns_are_simulated_basis_states(self, circ):
        u = sv.circuit_unitary(circ)
        dim = 1 << circ.n_qubits
        assert u.shape == (dim, dim)
        for j in range(dim):
            basis = np.zeros(dim, dtype=complex)
            basis[j] = 1.0
            col = sv.simulate(circ, sv.QuantumState(circ.n_qubits, basis)).amplitudes
            assert np.allclose(u[:, j], col, atol=1e-12, rtol=0.0)

    def test_unitary_at_qubit_cap(self):
        n = sv.MAX_UNITARY_QUBITS
        circ = Circuit(n, (sv.h(0), sv.ccry(0.9, 9, 4, 1), sv.cx(1, 9),
                           sv.swap(2, 7), sv.ry(-1.3, 5), sv.ccx(8, 0, 3)))
        u = sv.circuit_unitary(circ)
        assert u.shape == (1 << n, 1 << n)
        assert np.allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-12, rtol=0.0)
        for j in (0, 1 << 9, (1 << n) - 1):
            basis = np.zeros(1 << n, dtype=complex)
            basis[j] = 1.0
            col = sv.simulate(circ, sv.QuantumState(n, basis)).amplitudes
            assert np.allclose(u[:, j], col, atol=1e-12, rtol=0.0)
