import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qic import classifier
from qic import statevector as sv
from qic.circuit import build_experiment_circuit
from qic.classifier import (
    SAMPLE_BLOCK,
    TrainingSet,
    acceptance_error,
    classify,
    interfere_and_read,
    interfere_and_sample,
    prepare_state,
    read_batch,
)
from qic.errors import (
    EstimationFailedError,
    ImpossibleBranchError,
    NormalizationError,
)
from qic.presets import X1, preset_input, training_set

from reference import (
    CLASS_BIT,
    READ_OVERHEAD,
    assert_matches_statevector,
    assert_prepares_no_amplitudes,
    assert_quotes_exact_acceptance,
    assert_read_matches_gate_path,
    assert_training_set_is_read_only,
    assert_within_rounding_bound,
    basis_index,
    classical_classify,
    encoded_state,
    exact_class_sums,
    gate_path,
    gate_read,
    kernel,
    near_antipodal_pair,
    random_instance,
    read_peak,
)

# the start of the ValueError both readouts raise for a state that
# prepare_state did not build
NOT_PREPARED = "only a state from prepare_state can be read"


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def antipodal_instance(seed, M, N, antipodal):
    """random_instance, with the input exactly opposite no training vector
    ("none"), the first one ("one"), or every one, all equal ("all"), where
    the acceptance is exactly 0."""
    train, x_tilde = random_instance(np.random.default_rng(seed), M, N)
    v = train.vectors[0]
    if antipodal == "all":
        train = TrainingSet(vectors=np.tile(v, (M, 1)), labels=train.labels)
    return train, (x_tilde if antipodal == "none" else -v)


def formula_outcome(train, x_tilde):
    """Independent oracle: acceptance and class masses from the sum vectors."""
    sums = np.sum((train.vectors + x_tilde) ** 2, axis=1)
    p_acc = sums.sum() / (4 * train.M)
    p_minus = sums[train.labels == -1].sum() / (4 * train.M * p_acc)
    return p_acc, p_minus


def test_unknown_preset_names_the_presets():
    with pytest.raises(KeyError, match=re.escape(
            "unknown preset 'nope'; choose from xprime, xdoubleprime")):
        preset_input("nope")


class TestTrainingSet:
    def test_rejects_non_unit_vectors(self):
        with pytest.raises(NormalizationError):
            TrainingSet(vectors=[[0.5, 0.5]], labels=[-1])

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            TrainingSet(vectors=[[1.0, 0.0]], labels=[0])

    @pytest.mark.parametrize("labels", [[1.5, -1], [0.9, -1]])
    def test_rejects_non_integer_labels(self, labels):
        # casting first would truncate these to a valid-looking [1, -1] or [0, -1]
        with pytest.raises(ValueError, match="labels must be -1 or"):
            TrainingSet(vectors=[[1.0, 0.0], [0.0, 1.0]], labels=labels)

    @pytest.mark.parametrize("vectors, shape", [(np.zeros((0, 2)), "(0, 2)"),
                                                ([1.0, 0.0], "(2,)")],
                             ids=["no rows", "1-D"])
    def test_rejects_vectors_that_are_not_a_nonempty_matrix(self, vectors, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"vectors must be a nonempty matrix, got {shape}")):
            TrainingSet(vectors=vectors, labels=[])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="2 rows but 1 labels"):
            TrainingSet(vectors=[[1.0, 0.0], [0.0, 1.0]], labels=[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_vectors(self, bad):
        with pytest.raises(NormalizationError):
            TrainingSet(vectors=[[bad, 1.0]], labels=[-1])

    @pytest.mark.parametrize("shape", [(5, 3), (2, 4, 3)], ids=["one set", "batch"])
    def test_is_read_only(self, shape):
        vectors = np.random.default_rng(0).normal(size=shape)
        vectors /= np.linalg.norm(vectors, axis=-1, keepdims=True)
        assert_training_set_is_read_only(vectors, np.where(vectors[..., 0] < 0, -1, 1))

    @pytest.mark.parametrize("M, N", [(1, 1), (7, 3), (64, 16)])
    def test_class_statistics_are_the_exact_class_sums(self, M, N):
        # each sum is off by rounding alone, within acceptance_error(M, N)
        # times the M unit-bounded terms it adds
        train, _ = random_instance(np.random.default_rng(M + N), M, N)
        tol = acceptance_error(M, N) * M
        for c, (count, sq_sum, vector_sum) in enumerate(exact_class_sums(train)):
            assert train.class_counts[c] == count
            assert abs(Fraction(float(train.class_sq_norms[c])) - sq_sum) <= tol
            for got, exact in zip(train.class_sums[c].tolist(), vector_sum):
                assert abs(Fraction(got) - exact) <= tol


class TestPrepareState:
    def test_bit_positions(self):
        # 3 training rows take 2 index bits, and 5 data components 3 data bits
        rng = np.random.default_rng(0)
        layout = prepare_state(*random_instance(rng, 3, 5))
        assert (layout.m_bits, layout.i_bits) == (2, 3)
        assert layout.n_qubits == 7
        assert layout.ancilla_bit == 4
        assert basis_index(layout, m=0, ancilla=1, i=0, class_bit=0) == 1 << layout.ancilla_bit
        assert basis_index(layout, m=0, ancilla=0, i=0, class_bit=1) == 1 << CLASS_BIT
        assert basis_index(layout, m=1, ancilla=1, i=2, class_bit=1) == (
            1 | (2 << 1) | (1 << 4) | (1 << 5)
        )

    def test_holds_no_amplitudes(self):
        train, x_tilde = random_instance(np.random.default_rng(3), M=1 << 12, N=16)
        assert_prepares_no_amplitudes(train, x_tilde)

    def test_reads_a_register_over_the_state_cap_without_allocating(self):
        # 13 index bits, 10 data bits, ancilla and class: 25 qubits, a 512 MiB
        # register that prepare_state never builds
        train, x_tilde = random_instance(np.random.default_rng(4), M=(1 << 12) + 1,
                                         N=(1 << 9) + 1)
        state = prepare_state(train, x_tilde)
        assert state.n_qubits == 25
        (p_acc,), (p_minus,) = read_batch(train, x_tilde[None])
        outcome = classify(train, x_tilde)
        assert (state.p_acc, state.p_class_minus) == (p_acc, p_minus)
        assert (outcome.p_acc, outcome.p_class_minus) == (p_acc, p_minus)
        assert_prepares_no_amplitudes(train, x_tilde)

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


class AcceptEveryShot:
    """A stand-in rng whose every uniform draw is 0; it records each draw's size."""

    def __init__(self, draws: list):
        self.draws = draws

    def random(self, n: int) -> np.ndarray:
        self.draws.append(n)
        return np.zeros(n)


class TestInterfereAndRead:
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
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), N=st.integers(1, 7),
           antipodal=st.sampled_from(["none", "one", "all"]))
    def test_matches_gate_path(self, seed, M, N, antipodal):
        # non-powers of two leave unused index branches and padded data bits
        assert_read_matches_gate_path(*antipodal_instance(seed, M, N, antipodal))

    @pytest.mark.parametrize("M, N", [(5000, 3), (2, 8193)], ids=["5000x3", "2x8193"])
    def test_large_states_match_gate_path(self, M, N):
        # 17 qubits each: 13 index bits, or 14 data bits
        train, x_tilde = random_instance(np.random.default_rng(M + N), M, N)
        assert prepare_state(train, x_tilde).n_qubits == 17
        assert_read_matches_gate_path(train, x_tilde)

    @pytest.mark.parametrize("eps", [0.0, 1e-8])
    def test_below_floor_is_impossible_branch(self, eps, monkeypatch):
        # acceptance eps^2/4: zero, and 2.5e-17 under the floor but not zero
        train = TrainingSet(vectors=[[0.0, 1.0]], labels=[-1])
        x_tilde = [math.sin(eps), -math.cos(eps)]
        state = prepare_state(train, x_tilde)
        with pytest.raises(ImpossibleBranchError) as gate:
            gate_read(train, x_tilde)
        with pytest.raises(ImpossibleBranchError) as read:
            interfere_and_read(state)
        # both name the branch; the closed form quotes its own acceptance, not
        # floored to 0, and the gate path's Hadamard rounds (to 5.0e-34 at 0)
        prefix = "branch qubit 2=0 has probability "
        assert str(read.value) == f"{prefix}{eps ** 2 / 4:.3e}"
        assert str(gate.value).startswith(prefix)
        assert abs(float(str(gate.value)[len(prefix):]) - eps ** 2 / 4) <= 1e-30
        # an rng whose every draw is 0 accepts every shot, and would then
        # compare each class draw with the state's nan class share: the
        # sampler refuses with the same message before it draws at all
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda seed: AcceptEveryShot(draws))
        with pytest.raises(ImpossibleBranchError) as sample:
            interfere_and_sample(state, shots=1000, seed=0)
        assert str(sample.value) == str(read.value)
        assert draws == []

    @pytest.mark.parametrize("v", [[1.0, 2.0, 2.0], [0.6, 0.8], [1.0, 2.0, 3.0, 4.0]])
    @pytest.mark.parametrize("eps", [3e-9, 1e-8, 2e-8])
    def test_near_antipodal_quotes_exact_acceptance(self, v, eps):
        # acceptance about eps^2/4, where the class sums cancel to 0 or to a
        # rounding error of up to 1.1e-16; the row is re-read directly
        assert_quotes_exact_acceptance(*near_antipodal_pair(v, eps))

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
        circ = build_experiment_circuit(x_tilde, train.vectors[0], train.vectors[1])
        simulated = sv.simulate(circ)
        reference, layout = encoded_state(train, x_tilde)
        assert np.allclose(simulated.amplitudes, reference.amplitudes, atol=1e-10)
        a = interfere_and_read(prepare_state(train, x_tilde))
        p_acc, p_minus, _ = gate_path(simulated, layout)
        assert a.p_acc == pytest.approx(p_acc, abs=1e-10)
        assert a.p_class_minus == pytest.approx(p_minus, abs=1e-10)
        assert a.predicted == (-1 if p_minus > 0.5 else +1)


class TestReadoutsOfAPreparedState:
    """Both readouts report the two numbers that prepare_state computed in
    its one closed-form pass. A state built any other way holds no readout:
    both readouts reject it, and the gate path reads it."""

    def test_exact_and_sampled_readouts_share_one_pass(self, monkeypatch):
        # the one pass is prepare_state's run of the closed-form core
        calls, core = [], classifier._closed_form

        def counting(train, X):
            calls.append(X.shape)
            return core(train, X)

        monkeypatch.setattr(classifier, "_closed_form", counting)
        state = prepare_state(training_set(), preset_input("xprime"))
        interfere_and_read(state)
        interfere_and_sample(state, shots=100, seed=0)
        interfere_and_read(state)
        assert calls == [(1, 2)]

    def test_only_a_prepared_state_is_read(self):
        train, x_tilde = training_set(), preset_input("xprime")
        prepared = prepare_state(train, x_tilde)
        encoded, _ = encoded_state(train, x_tilde)
        circ = build_experiment_circuit(x_tilde, *train.vectors)
        states = {
            "encoded": encoded,
            "simulated": sv.simulate(circ),
            "gate applied": sv.apply_gate(encoded, sv.x(0)),
            "from a list": sv.QuantumState(4, list(encoded.amplitudes)),
            "from a writable array": sv.QuantumState(4, np.array(encoded.amplitudes)),
        }
        for state in states.values():
            with pytest.raises(ValueError, match=NOT_PREPARED):
                interfere_and_read(state)
            with pytest.raises(ValueError, match=NOT_PREPARED):
                interfere_and_sample(state, 100, 0)
        # the prepared state still reads its closed form
        (p_acc,), (p_minus,) = read_batch(train, x_tilde[None])
        outcome = interfere_and_read(prepared)
        assert (outcome.p_acc, outcome.p_class_minus) == (p_acc, p_minus)


class TestKeptBranchReadOnce:
    """The gate path reads the kept branch of a register whose amplitudes
    fit its layout; a register of any other length is refused when built."""

    @pytest.mark.parametrize("size", [8, 32])
    def test_amplitude_count_must_fit_the_layout(self, size):
        state, _ = encoded_state(training_set(), preset_input("xprime"))
        message = f"expected 16 amplitudes, got \\({size},\\)"
        with pytest.raises(ValueError, match=message):
            sv.QuantumState(4, np.resize(state.amplitudes, size))
        with pytest.raises(ValueError, match=message):
            replace(state, amplitudes=np.resize(state.amplitudes, size))


class TestPreparedReadout:
    """prepare_state keeps read_batch's closed form on its state, and both
    readouts report it."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), N=st.integers(1, 7),
           shots=st.integers(1, 3000), antipodal=st.sampled_from(["none", "one", "all"]))
    def test_equals_read_batch_bit_for_bit(self, seed, M, N, shots, antipodal):
        # M and N range over non-powers of two, as in TestReadBatch
        train, x_tilde = antipodal_instance(seed, M, N, antipodal)
        state = prepare_state(train, x_tilde)
        (p_acc,), (p_minus,) = read_batch(train, x_tilde[None])
        if p_acc == 0.0:
            assert math.isnan(p_minus)
            with pytest.raises(ImpossibleBranchError):
                interfere_and_read(state)
            with pytest.raises(ImpossibleBranchError):
                interfere_and_sample(state, shots, seed)
            return
        outcome = interfere_and_read(state)
        assert (outcome.p_acc, outcome.p_class_minus) == (p_acc, p_minus)
        assert outcome.p_class_plus == 1.0 - p_minus
        assert outcome.predicted == (-1 if p_minus > 0.5 else +1)
        # the sampler draws from the same two numbers
        rng = np.random.default_rng(seed)
        accepted = int(np.count_nonzero(rng.random(shots) < p_acc))
        if accepted == 0:
            with pytest.raises(EstimationFailedError):
                interfere_and_sample(state, shots, seed)
            return
        minus_count = int(np.count_nonzero(rng.random(accepted) < p_minus))
        sampled = interfere_and_sample(state, shots, seed)
        assert (sampled.accepted, sampled.p_class_minus) == (accepted, minus_count / accepted)


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

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), N=st.integers(2, 7),
           shots=st.integers(1, 5000))
    def test_counts_are_draws_from_gate_path(self, seed, M, N, shots):
        train, x_tilde = random_instance(np.random.default_rng(seed), M, N)
        state = prepare_state(train, x_tilde)
        p_acc, p_minus, _ = gate_read(train, x_tilde)
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

    @pytest.mark.parametrize("shots", [1, SAMPLE_BLOCK, 3 * SAMPLE_BLOCK + 5])
    def test_blocked_draws_equal_one_call(self, shots, monkeypatch):
        state = prepare_state(training_set(), preset_input("xprime"))
        p_acc, p_minus, _ = gate_read(training_set(), preset_input("xprime"))
        rng = np.random.default_rng(7)
        accepted = int(np.count_nonzero(rng.random(shots) < p_acc))
        minus_count = int(np.count_nonzero(rng.random(accepted) < p_minus))

        sizes, make_rng = [], np.random.default_rng

        class RecordingRng:
            def __init__(self, seed):
                self.rng = make_rng(seed)

            def random(self, size):
                sizes.append(size)
                return self.rng.random(size)

        monkeypatch.setattr(np.random, "default_rng", RecordingRng)
        outcome = interfere_and_sample(state, shots, seed=7)
        assert outcome.accepted == accepted
        assert outcome.p_class_minus == minus_count / accepted
        assert max(sizes) <= SAMPLE_BLOCK
        assert sum(sizes) == shots + accepted

    def test_rejects_zero_shots(self):
        state = prepare_state(training_set(), preset_input("xprime"))
        with pytest.raises(ValueError, match=r"^shots must be >= 1, got 0$"):
            interfere_and_sample(state, 0, 1)

    @pytest.mark.parametrize("shots", [True, False, np.bool_(True), 10.5, 100.0, "100"])
    def test_rejects_non_integer_shots(self, shots):
        state = prepare_state(training_set(), preset_input("xprime"))
        with pytest.raises(ValueError, match="shots must be an integer") as info:
            interfere_and_sample(state, shots, seed=0)
        assert repr(shots) in str(info.value)

    @pytest.mark.parametrize("seed", [True, False, np.bool_(False), None, 1.0, 3.0, "3"])
    def test_rejects_non_integer_seed(self, seed):
        train, x_tilde = training_set(), preset_input("xprime")
        with pytest.raises(ValueError, match="seed must be an integer") as sampled:
            interfere_and_sample(prepare_state(train, x_tilde), 100, seed)
        with pytest.raises(ValueError, match="seed must be an integer") as classified:
            classify(train, x_tilde, shots=100, seed=seed)
        assert repr(seed) in str(sampled.value)
        assert str(classified.value) == str(sampled.value)

    def test_rejects_negative_seed(self):
        # numpy would reject it with an error of its own
        train, x_tilde = training_set(), preset_input("xprime")
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            interfere_and_sample(prepare_state(train, x_tilde), 100, -1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            classify(train, x_tilde, shots=100, seed=-1)

    def test_accepts_numpy_integer_seed(self):
        state = prepare_state(training_set(), preset_input("xprime"))
        assert interfere_and_sample(state, 500, np.int64(3)) == interfere_and_sample(state, 500, 3)

    @pytest.mark.parametrize("shots", [np.int64(500), np.uint16(500)])
    def test_accepts_numpy_integer_shots(self, shots):
        state = prepare_state(training_set(), preset_input("xprime"))
        assert interfere_and_sample(state, shots, seed=3) == interfere_and_sample(state, 500, 3)

    def test_no_accepted_shots(self):
        # an input near-antipodal to the one training vector, through
        # prepare_state: acceptance about 1e-14, so one shot is rejected
        train = TrainingSet(vectors=[[0.0, 1.0]], labels=[-1])
        eps = 2e-7
        x = unit([math.sin(eps), -math.cos(eps)])
        state = prepare_state(train, x)
        with pytest.raises(EstimationFailedError, match="no shots accepted out of 1$"):
            interfere_and_sample(state, shots=1, seed=0)


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
        assert_within_rounding_bound(train, x[None, :])

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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), R=st.integers(1, 4), M=st.integers(1, 9),
           N=st.integers(1, 7), k=st.integers(1, 6), antipodal=st.booleans())
    def test_batch_of_sets_equals_one_set_at_a_time(self, seed, R, M, N, k, antipodal):
        # with antipodal, set 0 repeats one vector and its first input points
        # the other way, so that row reads (0, nan) in both forms
        rng = np.random.default_rng(seed)
        sets = [random_instance(rng, M, N)[0] for _ in range(R)]
        X = rng.normal(size=(R, k, N))
        X /= np.linalg.norm(X, axis=-1, keepdims=True)
        if antipodal:
            v = sets[0].vectors[0]
            sets[0] = TrainingSet(vectors=np.tile(v, (M, 1)), labels=sets[0].labels)
            X[0, 0] = -v
        batch = TrainingSet(vectors=np.stack([s.vectors for s in sets]),
                            labels=np.stack([s.labels for s in sets]))
        p_acc, p_minus = read_batch(batch, X)
        assert p_acc.shape == p_minus.shape == (R, k)
        for r, train in enumerate(sets):
            one_acc, one_minus = read_batch(train, X[r])
            np.testing.assert_array_equal(p_acc[r], one_acc)
            np.testing.assert_array_equal(p_minus[r], one_minus)
        if antipodal:
            assert p_acc[0, 0] == 0.0 and math.isnan(p_minus[0, 0])

    def test_batch_needs_matching_input_batch(self):
        v = unit([1.0, 2.0])
        batch = TrainingSet(vectors=[[v, v], [v, -v]], labels=[[-1, 1], [1, -1]])
        assert (batch.M, batch.dimension) == (2, 2)
        with pytest.raises(ValueError):
            read_batch(batch, [v])
        with pytest.raises(ValueError):
            read_batch(batch, [[v], [v], [v]])
        with pytest.raises(ValueError, match="one training set"):
            prepare_state(batch, v)

    @pytest.mark.parametrize("M", [1 << 12, 1 << 14])
    def test_holds_blocks_of_rows_not_the_whole_set(self, M):
        # an input is read from the class sums: a few (2 x N) products, and
        # no term that grows with M (a weight per training row would add
        # 8 M bytes, the old blocks of 1024 rows 128 KiB each)
        train, x_tilde = random_instance(np.random.default_rng(5), M, N=16)
        peak = read_peak(read_batch, train, x_tilde[None])
        assert peak <= 4 * 2 * train.dimension * train.vectors.itemsize + READ_OVERHEAD

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


class TestExactOracle:
    """read_batch and prepare_state against the exact rational readout, within
    acceptance_error(M, N); TestReadBatch holds its mirrored near-ties to it
    too."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), M=st.integers(1, 9), N=st.integers(1, 7),
           spread=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1.0]),
           offset=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]))
    def test_near_antipodal_inputs(self, seed, M, N, spread, offset):
        # training rows within spread of one direction v, and inputs within
        # offset of -v: acceptances from exactly 0 up to about 1/2
        rng = np.random.default_rng(seed)
        train, _ = random_instance(rng, M, N)
        v = train.vectors[0]
        vectors = v + spread * rng.normal(size=(M, N))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        train = TrainingSet(vectors=vectors, labels=train.labels)
        X = -v + offset * rng.normal(size=(3, N))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        assert_within_rounding_bound(train, X)

    @pytest.mark.parametrize("M, N", [(1023, 1), (1025, 3), (2051, 16)])
    def test_large_sets(self, M, N):
        # one random input, and one within 1e-6 of the opposite of row 0
        train, x_tilde = random_instance(np.random.default_rng(M * 100 + N), M, N)
        near_opposite = unit(1e-6 * x_tilde - train.vectors[0])
        assert_within_rounding_bound(train, np.array([x_tilde, near_opposite]))
