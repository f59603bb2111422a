import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic import circuit
from qic import statevector as sv
from qic.circuit import (
    ANCILLA_WIRE,
    CLASS_WIRE,
    DATA_WIRE,
    INDEX_WIRE,
    Circuit,
    build_experiment_circuit,
    decompose,
    default_assignment,
    ibmq5_connectivity,
    validate_connectivity,
    verify_decompositions,
    with_interference,
)
from qic.errors import AssignmentError, NormalizationError, UnsupportedGateError
from qic.presets import X0, X1, preset_input

from reference import encoded_state, random_circuit

EXTENDED_KINDS = ("swap", "ccx", "cry", "ccry")


@st.composite
def extended_circuits(draw):
    """Random swap, ccx, cry and ccry gates in any qubit order on 3 to 5 qubits."""
    n = draw(st.integers(3, 5))
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(EXTENDED_KINDS))
        qubits = tuple(draw(st.permutations(range(n)))[: sv.GATE_ARITY[kind]])
        theta = draw(st.floats(-4 * math.pi, 4 * math.pi))
        ops.append(sv.GateOp(kind, qubits, theta if kind in sv.ROTATION_KINDS else None))
    return Circuit(n, tuple(ops))


class TestCircuit:
    def test_rejects_out_of_range_op(self):
        with pytest.raises(ValueError):
            Circuit(1, (sv.cx(0, 1),))

    @pytest.mark.parametrize("ops, index", [
        (("h",), 0),
        ((sv.h(0), None), 1),
        ((sv.h(0), sv.cx(0, 1), ("cx", (0, 1))), 2),
        # has qubits, so the qubit loop alone would keep it
        ((sv.h(0), SimpleNamespace(qubits=(0,))), 1),
    ], ids=["string", "none", "tuple", "qubits-only"])
    def test_rejects_an_op_that_is_not_a_gate_op(self, ops, index):
        with pytest.raises(ValueError, match=f"op {index} is not a GateOp"):
            Circuit(2, ops)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.bool_(True), "2"])
    def test_n_qubits_must_be_an_integer_and_not_bool(self, n):
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            Circuit(n, (sv.h(0),))

    def test_fields_are_stored_as_int_and_tuple(self):
        circ = Circuit(np.int64(2), [sv.h(0), sv.cx(0, 1)])
        assert type(circ.n_qubits) is int and type(circ.ops) is tuple
        assert circ == Circuit(2, (sv.h(0), sv.cx(0, 1)))
        assert hash(circ) == hash(Circuit(2, (sv.h(0), sv.cx(0, 1))))


class TestBuildExperimentCircuit:
    def test_input_load_angle(self):
        circ = build_experiment_circuit(preset_input("xprime"), X0, X1)
        cry_ops = [op for op in circ.ops if op.kind == "cry"]
        assert len(cry_ops) == 1
        assert cry_ops[0].theta == pytest.approx(4.304, abs=1e-3)

    def test_second_training_load_angle(self):
        circ = build_experiment_circuit(preset_input("xprime"), X0, X1)
        ccry_ops = [op for op in circ.ops if op.kind == "ccry"]
        assert len(ccry_ops) == 1
        assert ccry_ops[0].theta == pytest.approx(1.325, abs=1e-3)

    def test_alternate_input_half_angle(self):
        # theta = 2*atan2(0.999, 0.053) ~ 3.036, so the decomposed rotations
        # come in +-1.518 halves
        circ = decompose(build_experiment_circuit(preset_input("xdoubleprime"), X0, X1))
        angles = {round(op.theta, 3) for op in circ.ops if op.kind == "ry"}
        assert any(abs(a - 1.518) < 1e-3 for a in angles)
        assert any(abs(a + 1.518) < 1e-3 for a in angles)

    def test_basis_loadable_first_vector_uses_double_controlled_flip(self):
        circ = build_experiment_circuit(preset_input("xprime"), X0, X1)
        assert any(op.kind == "ccx" for op in circ.ops)

    def test_general_first_vector_uses_rotation(self):
        v0 = np.array([0.6, 0.8])
        circ = build_experiment_circuit(preset_input("xprime"), v0, X1)
        assert sum(op.kind == "ccry" for op in circ.ops) == 2

    def test_non_unit_input_rejected(self):
        with pytest.raises(NormalizationError):
            build_experiment_circuit([0.5, 0.5], X0, X1)

    @pytest.mark.parametrize("which, name", [(0, "x_tilde"), (1, "x0"), (2, "x1")])
    def test_three_vector_rejected(self, which, name):
        vectors = [preset_input("xprime"), X0, X1]
        vectors[which] = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=f"^{name} must be a 2-vector, got shape \\(3,\\)$"):
            build_experiment_circuit(*vectors)

    def test_non_finite_input_rejected(self):
        with pytest.raises(NormalizationError):
            build_experiment_circuit([math.nan, 1.0], X0, X1)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_norm_off_by_1e_9_rejected(self, which):
        # build_experiment_circuit holds its inputs to the package's one unit
        # tolerance, statevector.UNIT_TOL (1e-10)
        vectors = [preset_input("xprime"), X0, X1]
        vectors[which] = vectors[which] * (1 + 1e-9)
        with pytest.raises(NormalizationError, match="must be finite with unit norm"):
            build_experiment_circuit(*vectors)

    @pytest.mark.parametrize("preset", ["xprime", "xdoubleprime"])
    def test_matches_direct_state_construction(self, preset):
        # the encoded register, placed by its bit order, is the circuit's state
        from qic.presets import training_set

        circ = build_experiment_circuit(preset_input(preset), X0, X1)
        simulated = sv.simulate(circ)
        direct, _ = encoded_state(training_set(), preset_input(preset))
        assert np.allclose(simulated.amplitudes, direct.amplitudes, atol=1e-10)


class TestDecompose:
    def test_each_kind_is_restricted_or_expands_to_restricted_ops(self):
        restricted, expanded = circuit.RESTRICTED_KINDS, set(circuit._EXPANSIONS)
        assert set(sv.GATE_ARITY) == restricted | expanded
        assert not restricted & expanded
        for kind, expand in circuit._EXPANSIONS.items():
            qubits = tuple(range(sv.GATE_ARITY[kind]))
            op = sv.GateOp(kind, qubits, 0.7 if kind in sv.ROTATION_KINDS else None)
            assert {sub.kind for sub in expand(op)} <= restricted, kind

    def test_swap_expansion(self):
        circ = decompose(Circuit(2, (sv.swap(0, 1),)))
        assert len(circ) == 7
        assert sum(op.kind == "cx" for op in circ.ops) == 3
        assert sum(op.kind == "h" for op in circ.ops) == 4
        ideal = sv.circuit_unitary(Circuit(2, (sv.swap(0, 1),)))
        assert np.abs(sv.circuit_unitary(circ) - ideal).max() <= sv.EXACT_TOL

    def test_toffoli_expansion(self):
        circ = decompose(Circuit(3, (sv.ccx(0, 1, 2),)))
        assert len(circ) == 16
        assert sum(op.kind == "cx" for op in circ.ops) == 6
        assert sum(len(op.qubits) == 1 for op in circ.ops) == 10
        ideal = sv.circuit_unitary(Circuit(3, (sv.ccx(0, 1, 2),)))
        assert np.abs(sv.circuit_unitary(circ) - ideal).max() <= sv.EXACT_TOL

    def test_toffoli_t_depth(self):
        # layers of t/tdg gates separated by entangling gates
        circ = decompose(Circuit(3, (sv.ccx(0, 1, 2),)))
        depth = 0
        in_layer = False
        for op in circ.ops:
            if op.kind in ("t", "tdg"):
                if not in_layer:
                    depth += 1
                    in_layer = True
            elif op.kind == "cx":
                in_layer = False
        assert depth == 4

    def test_cry_half_angles(self):
        circ = decompose(Circuit(2, (sv.cry(4.304, 0, 1),)))
        angles = sorted(op.theta for op in circ.ops if op.kind == "ry")
        assert angles == pytest.approx([-2.152, 2.152])

    def test_ccry_quarter_angles(self):
        circ = decompose(Circuit(3, (sv.ccry(1.324, 0, 1, 2),)))
        angles = sorted(op.theta for op in circ.ops if op.kind == "ry")
        assert angles == pytest.approx([-0.331, -0.331, 0.331, 0.331])

    def test_output_restricted_to_target_set(self):
        circ = decompose(random_circuit(4, 12, seed=5))
        assert all(op.kind in {"h", "x", "t", "tdg", "s", "ry", "cx"} for op in circ.ops)

    @pytest.mark.parametrize("seed", range(100))
    def test_preserves_unitary_up_to_phase(self, seed):
        circ = random_circuit(4, 10, seed)
        ideal = sv.circuit_unitary(circ)
        lowered = sv.circuit_unitary(decompose(circ))
        # exact, global phase included, which is tighter than up to a phase
        assert np.abs(lowered - ideal).max() <= sv.EXACT_TOL

    @settings(max_examples=60, deadline=None)
    @given(circ=extended_circuits())
    def test_preserves_unitary_exactly(self, circ):
        lowered = decompose(circ)
        assert all(op.kind in {"h", "x", "t", "tdg", "s", "ry", "cx"} for op in lowered.ops)
        err = np.abs(sv.circuit_unitary(lowered) - sv.circuit_unitary(circ)).max()
        assert err <= sv.EXACT_TOL

    def test_decomposed_experiment_matches_composed_state(self):
        circ = with_interference(build_experiment_circuit(preset_input("xprime"), X0, X1))
        got = sv.simulate(decompose(circ)).amplitudes
        assert np.abs(got - sv.simulate(circ).amplitudes).max() <= sv.EXACT_TOL

    def test_gate_budget(self):
        circ = with_interference(build_experiment_circuit(preset_input("xprime"), X0, X1))
        assert len(decompose(circ)) <= 80


class TestExpansionCache:
    """swap and ccx expansions are built once per (function, qubits) and shared."""

    def test_repeated_calls_return_equal_circuits_sharing_expansions(self):
        circ = Circuit(4, (sv.ccx(0, 1, 2), sv.swap(3, 0), sv.ccx(0, 1, 2)))
        first, second = decompose(circ), decompose(circ)
        assert first == second
        assert all(a is b for a, b in zip(first.ops, second.ops))
        assert all(a is b for a, b in zip(first.ops[:16], first.ops[-16:]))
        rotated = Circuit(4, (sv.ccry(0.3, 1, 2, 3), sv.cry(-0.7, 3, 0)))
        assert decompose(rotated) == decompose(rotated)

    def test_patched_expansion_is_used_after_the_cache_is_warm(self, monkeypatch):
        circ = Circuit(3, (sv.ccx(2, 0, 1),))
        exact = decompose(circ)
        exact_ccx = circuit._decompose_ccx

        def faulted(*qubits):
            return [sv.tdg(op.qubits[0]) if op.kind == "t" else op for op in exact_ccx(*qubits)]

        monkeypatch.setattr(circuit, "_decompose_ccx", faulted)
        planted = decompose(circ)
        assert planted.ops == tuple(faulted(2, 0, 1)) != exact.ops
        monkeypatch.undo()
        assert decompose(circ) == exact

    def test_patched_expansion_changes_the_lowered_unitary_after_fused_runs_are_cached(
            self, monkeypatch):
        # the gate loop keeps each fused run's matrix by the run's op values,
        # so the patched expansion's ops miss that cache and build their own
        full = with_interference(build_experiment_circuit(preset_input("xprime"), X0, X1))
        exact = sv.circuit_unitary(decompose(full))
        exact_ccx = circuit._decompose_ccx

        def faulted(*qubits):
            return [sv.tdg(op.qubits[0]) if op.kind == "t" else op for op in exact_ccx(*qubits)]

        monkeypatch.setattr(circuit, "_decompose_ccx", faulted)
        planted = sv.circuit_unitary(decompose(full))
        assert np.max(np.abs(planted - exact)) > 0.1
        monkeypatch.undo()
        assert np.array_equal(sv.circuit_unitary(decompose(full)), exact)

    def test_cache_is_bounded(self):
        size = sv.CACHE_SIZE
        n = 12  # 1320 ordered qubit triples, more than the cache keeps
        assert n * (n - 1) * (n - 2) > size
        ops = tuple(sv.ccx(*q) for q in itertools.permutations(range(n), 3))
        lowered = decompose(Circuit(n, ops))
        assert len(lowered) == 16 * len(ops)
        info = circuit._fixed_expansion.cache_info()
        assert info.maxsize == size and info.currsize == size


class TestConnectivity:
    def test_device_graph_shape(self):
        edges = ibmq5_connectivity()
        assert type(edges) is frozenset and len(edges) == 6
        degree = [sum(q in edge for edge in edges) for q in range(5)]
        assert degree[2] == 4
        # the hub is the only qubit coupled to all four others
        assert [q for q in range(5) if degree[q] == 4] == [2]

    def test_experiment_circuit_is_placeable(self):
        circ = decompose(
            with_interference(build_experiment_circuit(preset_input("xprime"), X0, X1))
        )
        violations = validate_connectivity(circ, ibmq5_connectivity(), default_assignment())
        assert violations == []

    def test_uncoupled_pair_is_reported(self):
        # ancilla on Q0 and class on Q4 sit on opposite leaves
        circ = Circuit(4, (sv.cx(ANCILLA_WIRE, 1),))
        assignment = {ANCILLA_WIRE: 0, INDEX_WIRE: 2, DATA_WIRE: 3, CLASS_WIRE: 4}
        violations = validate_connectivity(circ, ibmq5_connectivity(), assignment)
        assert len(violations) == 1
        assert violations[0].physical_pair == (0, 4)

    def test_either_direction_of_an_edge_is_coupled(self):
        # every CNOT of the lowered experiment runs low to high physical qubit,
        # so only this case reaches a pair that is not sorted
        edges, assignment = ibmq5_connectivity(), default_assignment()
        circ = Circuit(4, (sv.cx(DATA_WIRE, ANCILLA_WIRE), sv.cx(CLASS_WIRE, ANCILLA_WIRE)))
        violations = validate_connectivity(circ, edges, assignment)
        assert [(v.op_index, v.physical_pair) for v in violations] == [(1, (3, 0))]

    def test_empty_circuit_clean(self):
        assert validate_connectivity(
            Circuit(4, ()), ibmq5_connectivity(), default_assignment()
        ) == []

    def test_undecomposed_circuit_rejected(self):
        circ = Circuit(4, (sv.swap(0, 1),))
        with pytest.raises(UnsupportedGateError):
            validate_connectivity(circ, ibmq5_connectivity(), default_assignment())

    def test_missing_assignment_entry(self):
        circ = Circuit(5, (sv.cx(4, 0),))
        with pytest.raises(AssignmentError):
            validate_connectivity(circ, ibmq5_connectivity(), default_assignment())

    def test_device_edges_are_sorted_distinct_pairs(self):
        # validate_connectivity looks a pair up sorted, so an unsorted or
        # self-edge here would never match
        for a, b in ibmq5_connectivity():
            assert type(a) is int and type(b) is int
            assert 0 <= a < b <= 4


class TestVerifyDecompositions:
    def test_every_check_passes(self):
        assert all(ok for _, ok, _ in verify_decompositions())

    def test_one_check_per_expansion_kind(self):
        names = [name for name, _, _ in verify_decompositions()]
        kinds = [name.split()[0] for name in names if " decomposition " in name]
        assert kinds == list(circuit._EXPANSIONS)

    def test_injected_fault_fails_every_check_that_uses_it(self, faulted_toffoli):
        failed = [name for name, ok, _ in verify_decompositions() if not ok]
        assert failed == faulted_toffoli
