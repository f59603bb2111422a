import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic import statevector as sv
from qic.circuit import build_experiment_circuit
from qic.classifier import (
    RegisterLayout,
    TrainingSet,
    classical_classify,
    classify,
    interfere_and_read,
    interfere_and_sample,
    kernel,
    prepare_state,
    read_batch,
)
from qic.errors import (
    EstimationFailedError,
    ImpossibleBranchError,
    NormalizationError,
)
from qic.presets import X1, preset_input, training_set


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_instance(rng, M, N):
    """Training set with balanced labels plus a unit input vector."""
    vectors = rng.normal(size=(M, N))
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    if M == 1:
        labels = np.array([rng.choice([-1, 1])])
    else:
        labels = np.array(([-1, 1] * ((M + 1) // 2))[:M])
        rng.shuffle(labels)
    x_tilde = unit(rng.normal(size=N))
    return TrainingSet(vectors=vectors, labels=labels), x_tilde


def gate_path(state):
    """The readout gate by gate: ancilla Hadamard, postselect ancilla=0, class
    marginal. Returns (p_acc, p_class_minus, p_class_plus)."""
    layout = state.layout
    interfered = sv.apply_gate(state, sv.h(layout.ancilla_bit))
    kept, p_acc = sv.postselect(interfered, layout.ancilla_bit, 0)
    return (p_acc, *sv.qubit_probabilities(kept, layout.class_bit))


def formula_outcome(train, x_tilde):
    """Independent oracle: acceptance and class masses from the sum vectors."""
    sums = np.sum((train.vectors + x_tilde) ** 2, axis=1)
    p_acc = sums.sum() / (4 * train.M)
    p_minus = sums[train.labels == -1].sum() / (4 * train.M * p_acc)
    return p_acc, p_minus


class TestRegisterLayout:
    def test_bit_positions(self):
        layout = RegisterLayout(m_bits=2, i_bits=3)
        assert layout.n_qubits == 7
        assert layout.class_bit == 0
        assert layout.ancilla_bit == 4
        assert layout.basis_index(m=1, ancilla=1, i=2, class_bit=1) == (
            1 | (2 << 1) | (1 << 4) | (1 << 5)
        )


class TestTrainingSet:
    def test_rejects_non_unit_vectors(self):
        with pytest.raises(NormalizationError):
            TrainingSet(vectors=[[0.5, 0.5]], labels=[-1])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            TrainingSet(vectors=[[1.0, 0.0]], labels=[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_vectors(self, bad):
        with pytest.raises(NormalizationError):
            TrainingSet(vectors=[[bad, 1.0]], labels=[-1])


class TestPrepareState:
    def test_single_identical_point(self):
        train = TrainingSet(vectors=[[1.0, 0.0]], labels=[-1])
        state = prepare_state(train, [1.0, 0.0])
        # both ancilla branches carry the same vector at amplitude 1/sqrt(2)
        layout = state.layout
        i0a0 = layout.basis_index(m=0, ancilla=0, i=0, class_bit=0)
        i0a1 = layout.basis_index(m=0, ancilla=1, i=0, class_bit=0)
        expected = np.zeros(state.amplitudes.size)
        expected[i0a0] = expected[i0a1] = 1 / math.sqrt(2)
        assert np.allclose(state.amplitudes, expected)

    def test_amplitudes_follow_encoding(self):
        rng = np.random.default_rng(0)
        train, x_tilde = random_instance(rng, M=4, N=4)
        state = prepare_state(train, x_tilde)
        layout = state.layout
        w = 1 / math.sqrt(2 * train.M)
        for m in range(train.M):
            c = 0 if train.labels[m] == -1 else 1
            for i in range(4):
                a0 = layout.basis_index(m, 0, i, c)
                a1 = layout.basis_index(m, 1, i, c)
                assert state.amplitudes[a0] == pytest.approx(w * x_tilde[i])
                assert state.amplitudes[a1] == pytest.approx(w * train.vectors[m, i])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), N=st.integers(1, 7))
    def test_amplitudes_equal_entrywise_build(self, seed, M, N):
        train, x_tilde = random_instance(np.random.default_rng(seed), M, N)
        state = prepare_state(train, x_tilde)
        layout = state.layout
        w = 1 / math.sqrt(2 * M)
        expected = np.zeros(1 << layout.n_qubits, dtype=complex)
        for m in range(M):
            c = 0 if train.labels[m] == -1 else 1
            for i in range(N):
                expected[layout.basis_index(m, 0, i, c)] = w * x_tilde[i]
                expected[layout.basis_index(m, 1, i, c)] = w * train.vectors[m, i]
        assert np.array_equal(state.amplitudes, expected)

    def test_unused_index_branches_are_zero(self):
        rng = np.random.default_rng(1)
        train, x_tilde = random_instance(rng, M=3, N=2)
        train = TrainingSet(vectors=train.vectors, labels=np.array([-1, 1, -1]))
        state = prepare_state(train, x_tilde)
        layout = state.layout
        assert layout.m_bits == 2
        m_vals = np.arange(state.amplitudes.size) >> (2 + layout.i_bits)
        assert np.all(state.amplitudes[m_vals == 3] == 0)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        train = TrainingSet(vectors=[[1.0, 0.0]], labels=[-1])
        with pytest.raises(ValueError):
            prepare_state(train, [1.0, 0.0, 0.0])

    def test_non_unit_input(self):
        train = TrainingSet(vectors=[[1.0, 0.0]], labels=[-1])
        with pytest.raises(NormalizationError):
            prepare_state(train, [0.9, 0.1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, bad):
        train = TrainingSet(vectors=[[1.0, 0.0]], labels=[-1])
        with pytest.raises(NormalizationError):
            prepare_state(train, [bad, 1.0])


class TestInterfereAndRead:
    def test_reference_inputs(self):
        outcome = classify(training_set(), preset_input("xprime"))
        assert outcome.p_acc == pytest.approx(0.729, abs=1e-3)
        assert outcome.p_class_minus == pytest.approx(0.629, abs=1e-3)
        assert outcome.predicted == -1

        outcome = classify(training_set(), preset_input("xdoubleprime"))
        assert outcome.p_acc == pytest.approx(0.913, abs=1e-3)
        assert outcome.p_class_minus == pytest.approx(0.547, abs=1e-3)
        assert outcome.predicted == -1

    def test_identical_single_point(self):
        train = TrainingSet(vectors=[[0.0, 1.0]], labels=[-1])
        outcome = classify(train, [0.0, 1.0])
        assert outcome.p_acc == pytest.approx(1.0, abs=1e-12)
        assert outcome.p_class_minus == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_input_is_impossible_branch(self):
        train = TrainingSet(vectors=[[0.0, 1.0]], labels=[-1])
        with pytest.raises(ImpossibleBranchError):
            classify(train, [0.0, -1.0])

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_formula_oracle(self, seed):
        rng = np.random.default_rng(seed)
        M = int(rng.choice([1, 2, 4, 8]))
        N = int(rng.choice([2, 4]))
        train, x_tilde = random_instance(rng, M, N)
        p_acc, p_minus = formula_outcome(train, x_tilde)
        if p_acc <= 1e-6:
            pytest.skip("vanishing acceptance")
        outcome = interfere_and_read(prepare_state(train, x_tilde))
        assert outcome.p_acc == pytest.approx(p_acc, abs=1e-10)
        assert outcome.p_class_minus == pytest.approx(p_minus, abs=1e-10)
        assert outcome.p_class_minus + outcome.p_class_plus == pytest.approx(1.0, abs=1e-10)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), N=st.integers(1, 7))
    def test_matches_gate_path(self, seed, M, N):
        # non-powers of two leave unused index branches and padded data bits
        train, x_tilde = random_instance(np.random.default_rng(seed), M, N)
        state = prepare_state(train, x_tilde)
        try:
            p_acc, p_minus, p_plus = gate_path(state)
        except ImpossibleBranchError:
            with pytest.raises(ImpossibleBranchError):
                interfere_and_read(state)
            return
        outcome = interfere_and_read(state)
        assert outcome.p_acc == p_acc
        assert abs(outcome.p_class_minus - p_minus) <= 1e-12
        assert abs(outcome.p_class_plus - p_plus) <= 1e-12

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_below_floor_is_impossible_branch(self, eps):
        # acceptance eps^2/4: zero, and 2.5e-17 under the floor but not zero
        train = TrainingSet(vectors=[[0.0, 1.0]], labels=[-1])
        state = prepare_state(train, [math.sin(eps), -math.cos(eps)])
        with pytest.raises(ImpossibleBranchError) as gate:
            gate_path(state)
        with pytest.raises(ImpossibleBranchError) as read:
            interfere_and_read(state)
        assert str(read.value) == str(gate.value)
        with pytest.raises(EstimationFailedError) as sampled:
            interfere_and_sample(state, shots=1000, seed=0)
        assert sampled.value.accepted == 0

    def test_probability_difference_tracks_score_for_balanced_labels(self):
        rng = np.random.default_rng(99)
        for _ in range(40):
            train, x_tilde = random_instance(rng, int(rng.choice([2, 4, 8])), 2)
            outcome = interfere_and_read(prepare_state(train, x_tilde))
            score, _ = classical_classify(train, x_tilde)
            diff = outcome.p_class_minus - outcome.p_class_plus
            assert diff == pytest.approx(-score / outcome.p_acc, abs=1e-10)


class TestThreeWayEquivalence:
    @pytest.mark.parametrize("seed", range(60))
    def test_labels_agree(self, seed):
        rng = np.random.default_rng(10_000 + seed)
        M = int(rng.choice([1, 2, 4, 8]))
        N = int(rng.choice([2, 4]))
        train, x_tilde = random_instance(rng, M, N)
        state = prepare_state(train, x_tilde)
        try:
            quantum = interfere_and_read(state)
        except ImpossibleBranchError:
            pytest.skip("vanishing acceptance")
        score, label = classical_classify(train, x_tilde)
        assert quantum.predicted == label

    @pytest.mark.parametrize("seed", range(30))
    def test_gate_circuit_agrees_for_two_point_case(self, seed):
        rng = np.random.default_rng(20_000 + seed)
        train, x_tilde = random_instance(rng, M=2, N=2)
        if train.labels[0] == 1:  # circuit fixes class -1 at index 0
            train = TrainingSet(vectors=train.vectors[::-1], labels=train.labels[::-1])
        direct = prepare_state(train, x_tilde)
        circ = build_experiment_circuit(x_tilde, train.vectors[0], train.vectors[1])
        simulated = sv.simulate(circ)
        simulated.layout = direct.layout
        a = interfere_and_read(direct)
        b = interfere_and_read(simulated)
        assert a.p_acc == pytest.approx(b.p_acc, abs=1e-10)
        assert a.p_class_minus == pytest.approx(b.p_class_minus, abs=1e-10)
        assert a.predicted == b.predicted


class TestInterfereAndSample:
    def test_deterministic_given_seed(self):
        state = prepare_state(training_set(), preset_input("xprime"))
        a = interfere_and_sample(state, shots=2000, seed=3)
        b = interfere_and_sample(state, shots=2000, seed=3)
        assert (a.p_acc, a.p_class_minus, a.accepted) == (b.p_acc, b.p_class_minus, b.accepted)

    def test_deterministic_state_gives_exact_probabilities(self):
        train = TrainingSet(vectors=[[0.0, 1.0]], labels=[-1])
        outcome = classify(train, [0.0, 1.0], shots=100, seed=0)
        assert outcome.p_acc == 1.0
        assert outcome.p_class_minus == 1.0
        assert outcome.accepted == 100

    def test_estimates_near_exact_values(self):
        state = prepare_state(training_set(), preset_input("xdoubleprime"))
        outcome = interfere_and_sample(state, shots=8192, seed=11)
        assert outcome.p_acc == pytest.approx(0.913, abs=0.02)
        assert outcome.p_class_minus == pytest.approx(0.547, abs=0.02)
        assert outcome.shots == 8192

    def test_error_shrinks_with_shot_count(self):
        state = prepare_state(training_set(), preset_input("xprime"))
        exact = interfere_and_read(state)
        levels = [100, 1000, 10_000, 100_000]
        mean_err = []
        for shots in levels:
            errs = [
                abs(interfere_and_sample(state, shots, seed).p_class_minus
                    - exact.p_class_minus)
                for seed in range(60)
            ]
            mean_err.append(np.mean(errs))
        slope = np.polyfit(np.log10(levels), np.log10(mean_err), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), N=st.integers(2, 7),
           shots=st.integers(1, 5000))
    def test_counts_are_draws_from_gate_path(self, seed, M, N, shots):
        train, x_tilde = random_instance(np.random.default_rng(seed), M, N)
        state = prepare_state(train, x_tilde)
        p_acc, p_minus, _ = gate_path(state)
        rng = np.random.default_rng(seed)
        accepted = int(np.count_nonzero(rng.random(shots) < p_acc))
        if accepted == 0:
            with pytest.raises(EstimationFailedError):
                interfere_and_sample(state, shots, seed)
            return
        minus_count = int(np.count_nonzero(rng.random(accepted) < p_minus))
        outcome = interfere_and_sample(state, shots, seed)
        assert outcome.accepted == accepted
        assert outcome.p_class_minus == minus_count / accepted
        assert outcome.p_acc == accepted / shots

    def test_histogram_of_interfered_ancilla(self):
        # 8192 raw shots of the ancilla reproduce the acceptance probability
        state = prepare_state(training_set(), preset_input("xdoubleprime"))
        interfered = sv.apply_gate(state, sv.h(state.layout.ancilla_bit))
        hist = sv.sample_shots(interfered, [state.layout.ancilla_bit], 8192, seed=4)
        assert hist.get("0", 0) / 8192 == pytest.approx(0.913, abs=0.02)

    def test_no_accepted_shots(self):
        # force the impossible branch through a hand-built state: all mass on
        # ancilla=1 after interference cannot happen via prepare_state, so use
        # a nearly-orthogonal input giving a tiny acceptance probability
        train = TrainingSet(vectors=[[0.0, 1.0]], labels=[-1])
        eps = 2e-7
        x = unit([math.sin(eps), -math.cos(eps)])
        state = prepare_state(train, x)
        with pytest.raises(EstimationFailedError) as info:
            interfere_and_sample(state, shots=1, seed=0)
        assert info.value.accepted == 0


class TestKernel:
    def test_zero_distance(self):
        v = unit([1.0, 2.0])
        assert kernel(v, v, 3) == pytest.approx(1.0)

    def test_antipodal_unit_vectors(self):
        assert kernel([1.0, 0.0], [-1.0, 0.0], 1) == pytest.approx(0.0)

    def test_reference_value(self):
        got = kernel(preset_input("xprime"), X1, 2)
        assert got == pytest.approx(0.770, abs=1e-3)

    def test_range_for_unit_vectors(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u, v = unit(rng.normal(size=3)), unit(rng.normal(size=3))
            for M in (1, 2, 5):
                k = kernel(u, v, M)
                assert 1 - 1 / M - 1e-12 <= k <= 1 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel([1.0, 0.0], [1.0, 0.0, 0.0], 1)


class TestClassicalClassify:
    def test_reference_score(self):
        score, label = classical_classify(training_set(), preset_input("xprime"))
        assert score == pytest.approx(-0.189, abs=1e-3)
        assert label == -1

    def test_single_class_always_wins(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(4, 2))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        train = TrainingSet(vectors=vectors, labels=np.array([-1, -1, -1, -1]))
        _, label = classical_classify(train, unit(rng.normal(size=2)))
        assert label == -1

    def test_tie_predicts_plus_one(self):
        # input equidistant from one +1 and one -1 point
        train = TrainingSet(vectors=[[1.0, 0.0], [-1.0, 0.0]], labels=[-1, 1])
        score, label = classical_classify(train, [0.0, 1.0])
        assert score == pytest.approx(0.0, abs=1e-12)
        assert label == +1

    def test_quantum_tie_predicts_plus_one(self):
        train = TrainingSet(vectors=[[1.0, 0.0], [-1.0, 0.0]], labels=[-1, 1])
        outcome = classify(train, [0.0, 1.0])
        assert outcome.p_class_minus == pytest.approx(0.5, abs=1e-12)
        assert outcome.predicted == +1


def assert_matches_statevector(train, X):
    """read_batch against the per-row statevector readout: p_acc and p_minus
    to 1e-12, the label exactly, and (0, nan) where postselection fails."""
    p_acc, p_minus = read_batch(train, X)
    for k, x in enumerate(X):
        try:
            ref = interfere_and_read(prepare_state(train, x))
        except ImpossibleBranchError:
            assert p_acc[k] == 0.0 and math.isnan(p_minus[k])
            continue
        assert abs(p_acc[k] - ref.p_acc) <= 1e-12
        assert abs(p_minus[k] - ref.p_class_minus) <= 1e-12
        assert (-1 if p_minus[k] > 0.5 else +1) == ref.predicted


class TestReadBatch:
    """The closed-form batch readout against the statevector reference path."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9),
           N=st.integers(1, 7), k=st.integers(1, 6),
           stretch=st.floats(-5e-11, 5e-11))
    def test_matches_statevector_path(self, seed, M, N, k, stretch):
        # M and N range over non-powers of two: unused index branches and a
        # padded data register. Inputs are off unit norm by up to half the
        # accepted tolerance, which the readout must follow as the state does.
        rng = np.random.default_rng(seed)
        train, _ = random_instance(rng, M, N)
        X = rng.normal(size=(k, N))
        X *= (1.0 + stretch) / np.linalg.norm(X, axis=1, keepdims=True)
        assert_matches_statevector(train, X)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(1, 4),
           N=st.integers(2, 6), offset=st.floats(1e-9, 1e-3),
           side=st.sampled_from([-1.0, 1.0]))
    def test_near_ties_from_mirrored_pairs(self, seed, pairs, N, offset, side):
        # each -1 point has its +1 mirror image across the hyperplane normal to
        # n; an input in that hyperplane ties, and a small step along n leans
        # towards one class
        rng = np.random.default_rng(seed)
        n = unit(rng.normal(size=N))
        left = rng.normal(size=(pairs, N))
        left /= np.linalg.norm(left, axis=1, keepdims=True)
        right = left - 2.0 * np.outer(left @ n, n)
        train = TrainingSet(vectors=np.vstack([left, right]),
                            labels=[-1] * pairs + [+1] * pairs)
        on_plane = rng.normal(size=N)
        on_plane -= (on_plane @ n) * n
        x = unit(unit(on_plane) + side * offset * n)
        p_acc, p_minus = read_batch(train, x[None, :])
        # the class weights sum_m |x + x^m|^2 differ by 4 <x, n> sum_m <x^m, n>
        weight_gap = abs(p_minus[0] - 0.5) * 8 * train.M * p_acc[0]
        assert 0.0 < weight_gap <= 4 * offset * pairs
        assert_matches_statevector(train, x[None, :])

    def test_antipodal_input_is_reported_impossible(self):
        v = unit([1.0, 2.0, 2.0])
        train = TrainingSet(vectors=[v, v, v], labels=[-1, +1, -1])
        X = np.array([-v, v])
        p_acc, p_minus = read_batch(train, X)
        assert p_acc[0] == 0.0 and math.isnan(p_minus[0])
        assert p_acc[1] == pytest.approx(1.0, abs=1e-12)
        assert p_minus[1] == pytest.approx(2 / 3, abs=1e-12)
        with pytest.raises(ImpossibleBranchError):
            interfere_and_read(prepare_state(train, -v))
        assert_matches_statevector(train, X)

    def test_reference_inputs(self):
        X = np.array([preset_input("xprime"), preset_input("xdoubleprime")])
        p_acc, p_minus = read_batch(training_set(), X)
        assert p_acc == pytest.approx([0.729, 0.913], abs=1e-3)
        assert p_minus == pytest.approx([0.629, 0.547], abs=1e-3)

    def test_rejects_wrong_shape(self):
        train = TrainingSet(vectors=[[1.0, 0.0]], labels=[-1])
        with pytest.raises(ValueError):
            read_batch(train, [1.0, 0.0])
        with pytest.raises(ValueError):
            read_batch(train, [[1.0, 0.0, 0.0]])

    def test_rejects_non_unit_rows(self):
        train = TrainingSet(vectors=[[1.0, 0.0]], labels=[-1])
        with pytest.raises(NormalizationError):
            read_batch(train, [[1.0, 0.0], [0.9, 0.1]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, bad):
        train = TrainingSet(vectors=[[1.0, 0.0]], labels=[-1])
        with pytest.raises(NormalizationError):
            read_batch(train, [[1.0, 0.0], [bad, 1.0]])
