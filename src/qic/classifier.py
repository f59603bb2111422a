"""Interference-based distance classifier.

The encoded start state superposes, for every training vector x^m, the new
input x~ (ancilla branch 0) against x^m (branch 1), tagged with the index m
and the class bit of x^m:

    (1/sqrt(2M)) sum_m |m> ( |0>|x~> + |1>|x^m> ) |y^m>

A Hadamard on the ancilla turns the branches into sum and difference vectors;
keeping ancilla=0 leaves the class qubit weighted by |x~ + x^m|^2, so its
outcome statistics realize the kernel decision rule

    y = sgn( sum_m y^m [1 - |x~ - x^m|^2 / (4M)] )

for balanced training labels, with acceptance probability
p_acc = (1/4M) sum_m |x~ + x^m|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailedError, ImpossibleBranchError, NormalizationError
from .statevector import BRANCH_FLOOR, UNIT_TOL, QuantumState, gate_matrix, h, zero_state


def _check_unit_rows(rows: np.ndarray, what: str) -> None:
    """Raise unless every row is finite with unit norm; NaN fails the test."""
    deviation = np.abs(np.linalg.norm(rows, axis=-1) - 1.0)
    if not np.all(deviation <= UNIT_TOL):
        raise NormalizationError(
            f"{what} must be finite with unit norm "
            f"(worst deviation {float(np.max(deviation)):.2e})"
        )


@dataclass(frozen=True)
class RegisterLayout:
    """Bit positions of the encoded registers.

    Ordering (least significant first): class bit, data bits, ancilla bit,
    index bits.
    """

    m_bits: int
    i_bits: int

    @property
    def n_qubits(self) -> int:
        return self.m_bits + self.i_bits + 2

    @property
    def class_bit(self) -> int:
        return 0

    @property
    def ancilla_bit(self) -> int:
        return 1 + self.i_bits

    def basis_index(self, m: int, ancilla: int, i: int, class_bit: int) -> int:
        return (
            class_bit
            | (i << 1)
            | (ancilla << (1 + self.i_bits))
            | (m << (2 + self.i_bits))
        )


@dataclass
class TrainingSet:
    """Unit-norm training vectors of a common dimension with labels in {-1,+1}."""

    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        if self.vectors.ndim != 2 or len(self.vectors) < 1:
            raise ValueError(f"vectors must be a nonempty matrix, got {self.vectors.shape}")
        if len(self.vectors) != len(self.labels):
            raise ValueError("one label per training vector required")
        if not np.all(np.isin(self.labels, (-1, 1))):
            raise ValueError("labels must be -1 or +1")
        _check_unit_rows(self.vectors, "training vectors")

    @property
    def M(self) -> int:
        return len(self.vectors)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


@dataclass
class ClassificationOutcome:
    """Acceptance probability, class-conditional probabilities, and the label.

    shots is None for the exact (analytic) readout; accepted counts the
    postselected shots in sampled mode.
    """

    p_acc: float
    p_class_minus: float
    p_class_plus: float
    predicted: int
    shots: int | None = None
    accepted: int | None = None


def _check_input(train: TrainingSet, x_tilde) -> np.ndarray:
    xt = np.asarray(x_tilde, dtype=float)
    if xt.shape != (train.dimension,):
        raise ValueError(
            f"input dimension {xt.shape} does not match training dimension "
            f"({train.dimension},)"
        )
    _check_unit_rows(xt, "input")
    return xt


def prepare_state(train: TrainingSet, x_tilde) -> QuantumState:
    """Build the encoded superposition state for a training set and one input.

    Amplitude of basis (m, a, i, c): x~_i/sqrt(2M) for a=0 and x^m_i/sqrt(2M)
    for a=1, with c the class bit of y^m (0 for -1, 1 for +1). Index branches
    m >= M and padded data components carry zero amplitude.
    """
    xt = _check_input(train, x_tilde)
    M, N = train.M, train.dimension
    m_bits = max(1, (M - 1).bit_length())
    i_bits = max(1, (N - 1).bit_length()) if N > 1 else 1
    layout = RegisterLayout(m_bits=m_bits, i_bits=i_bits)

    state = zero_state(layout.n_qubits)
    amps = state.amplitudes
    amps[0] = 0.0

    weight = 1.0 / math.sqrt(2 * M)
    # axes (m, ancilla, i, class bit), most significant first
    view = amps.reshape(1 << m_bits, 2, 1 << i_bits, 2)
    m_idx, c_bits = np.arange(M), (train.labels + 1) // 2
    view[m_idx, 0, :N, c_bits] = weight * xt
    view[m_idx, 1, :N, c_bits] = weight * train.vectors

    state.layout = layout
    return state


def _read_kept_branch(state: QuantumState) -> tuple[float, float, float]:
    """Masses of ancilla=0 in all, and with class bit 0 and 1, after the
    ancilla Hadamard.

    Only row 0 of the Hadamard is applied, to the (above, ancilla, below)
    view of the amplitudes, so the discarded ancilla=1 half is never built.
    """
    layout = _require_layout(state)
    below = 1 << layout.ancilla_bit
    kept = gate_matrix(h(layout.ancilla_bit))[0] @ state.amplitudes.reshape(-1, 2, below)
    probs = np.abs(kept) ** 2
    by_class = probs.reshape(-1, 2)  # class bit is the least significant
    return float(np.sum(probs)), float(by_class[:, 0].sum()), float(by_class[:, 1].sum())


def interfere_and_read(state: QuantumState) -> ClassificationOutcome:
    """Interfere the branches and read the class qubit exactly.

    Applies the ancilla Hadamard, postselects ancilla=0 (capturing the
    acceptance probability) and computes the class-qubit marginal. Class bit
    0 encodes label -1; ties at 0.5 predict +1. Raises ImpossibleBranchError
    when the acceptance is at or below BRANCH_FLOOR.
    """
    p_acc, minus, plus = _read_kept_branch(state)
    if p_acc <= BRANCH_FLOOR:
        raise ImpossibleBranchError(
            f"branch qubit {state.layout.ancilla_bit}=0 has probability {p_acc:.3e}"
        )
    p_minus, p_plus = minus / (minus + plus), plus / (minus + plus)
    return ClassificationOutcome(
        p_acc=p_acc,
        p_class_minus=p_minus,
        p_class_plus=p_plus,
        predicted=-1 if p_minus > 0.5 else +1,
        shots=None,
    )


def interfere_and_sample(
    state: QuantumState, shots: int, seed: int
) -> ClassificationOutcome:
    """Shot-based version of interfere_and_read.

    Each shot measures the ancilla; only on outcome 0 is the class qubit
    measured. p_acc is estimated as accepted/shots and the class
    probabilities from the accepted shots alone.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    p_acc_true, minus, _ = _read_kept_branch(state)
    p_minus_true = minus / p_acc_true if p_acc_true > 0.0 else 0.0

    rng = np.random.default_rng(seed)
    accepted = int(np.count_nonzero(rng.random(shots) < p_acc_true))
    if accepted == 0:
        raise EstimationFailedError(
            f"no shots accepted out of {shots}", accepted=0
        )
    minus_count = int(np.count_nonzero(rng.random(accepted) < p_minus_true))

    p_minus = minus_count / accepted
    return ClassificationOutcome(
        p_acc=accepted / shots,
        p_class_minus=p_minus,
        p_class_plus=1.0 - p_minus,
        predicted=-1 if p_minus > 0.5 else +1,
        shots=shots,
        accepted=accepted,
    )


def read_batch(train: TrainingSet, X) -> tuple[np.ndarray, np.ndarray]:
    """Exact readout of every row of X at once, without building a state.

    Returns the (p_acc, p_class_minus) arrays that interfere_and_read gives
    row by row, from the sum-vector weights w_km = |x_k + x^m|^2. (For unit
    rows w_km = 2 + 2<x_k, x^m>, but that Gram form cancels badly where x_k
    is nearly opposite x^m.) Rows at or below the postselection floor, where
    that path raises ImpossibleBranchError, get p_acc = 0 and
    p_class_minus = nan. Holds a (rows x M x N) temporary.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != train.dimension:
        raise ValueError(f"inputs {X.shape} must be rows of dimension {train.dimension}")
    _check_unit_rows(X, "inputs")
    w = ((X[:, None, :] + train.vectors[None, :, :]) ** 2).sum(2)
    minus = train.labels == -1
    w_minus, w_plus = w[:, minus].sum(1), w[:, ~minus].sum(1)
    total = w_minus + w_plus
    p_acc = total / (4 * train.M)
    possible = p_acc > BRANCH_FLOOR
    p_minus = w_minus / np.where(possible, total, 1.0)
    return np.where(possible, p_acc, 0.0), np.where(possible, p_minus, np.nan)


def _require_layout(state: QuantumState) -> RegisterLayout:
    if state.layout is None:
        raise ValueError("state has no register layout; build it with prepare_state")
    return state.layout


def kernel(x, x_prime, M: int) -> float:
    """Quadratic-decay distance kernel: 1 - |x - x'|^2 / (4M)."""
    x = np.asarray(x, dtype=float)
    xp = np.asarray(x_prime, dtype=float)
    if x.shape != xp.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {xp.shape}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    return 1.0 - float(np.sum((x - xp) ** 2)) / (4 * M)


def classical_classify(train: TrainingSet, x_tilde) -> tuple[float, int]:
    """Kernel-sum decision rule evaluated classically.

    Returns (score, label) with score = sum_m y^m * kernel(x~, x^m, M) and
    label = sign(score); a zero score predicts +1.
    """
    xt = _check_input(train, x_tilde)
    sq_dists = np.sum((train.vectors - xt) ** 2, axis=1)
    score = float(np.sum(train.labels * (1.0 - sq_dists / (4 * train.M))))
    return score, (-1 if score < 0 else +1)


def classify(train: TrainingSet, x_tilde, shots: int | None = None,
             seed: int = 0) -> ClassificationOutcome:
    """Full pipeline: encode, interfere, read out (exactly or with shots)."""
    state = prepare_state(train, x_tilde)
    if shots is None:
        return interfere_and_read(state)
    return interfere_and_sample(state, shots, seed)
