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

import numbers
from dataclasses import dataclass

import numpy as np

from .dataset import check_labels
from .errors import EstimationFailedError, ImpossibleBranchError
from .statevector import BRANCH_FLOOR, check_unit

# interfere_and_sample draws its uniforms this many at a time, so its memory
# stays bounded whatever the shot count; a Generator gives the same stream in
# blocks as in one call
SAMPLE_BLOCK = 1 << 20

# the closed-form readout takes the training rows this many at a time, so
# each block's transpose and sums stay in cache (a block of 16 features is
# 128 KiB of sums)
ROW_BLOCK = 1 << 10


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
    def ancilla_bit(self) -> int:
        return 1 + self.i_bits


@dataclass(frozen=True)
class PreparedState:
    """An encoded state as prepare_state returns it: its register layout, the
    acceptance of ancilla=0 after the ancilla Hadamard, and the class -1
    share of that branch (nan at or below BRANCH_FLOOR)."""

    layout: RegisterLayout
    p_acc: float
    p_class_minus: float

    @property
    def n_qubits(self) -> int:
        return self.layout.n_qubits


@dataclass
class TrainingSet:
    """Unit-norm training vectors of a common dimension with labels in {-1,+1},
    or a batch of such sets stacked along leading axes (vectors (..., M, N),
    labels (..., M)), which only read_batch takes."""

    vectors: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=float)
        if self.vectors.ndim < 2 or self.vectors.shape[-2] < 1:
            raise ValueError(f"vectors must be a nonempty matrix, got {self.vectors.shape}")
        self.labels = check_labels(self.vectors, self.labels)
        check_unit(self.vectors, "training vectors")

    @property
    def M(self) -> int:
        return self.vectors.shape[-2]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[-1]


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
    if train.vectors.ndim != 2:
        raise ValueError(f"expected one training set, got a batch {train.vectors.shape}")
    xt = np.asarray(x_tilde, dtype=float)
    if xt.shape != (train.dimension,):
        raise ValueError(
            f"input dimension {xt.shape} does not match training dimension "
            f"({train.dimension},)"
        )
    check_unit(xt, "input")
    return xt


def prepare_state(train: TrainingSet, x_tilde) -> PreparedState:
    """Encode one input against a training set as its register layout and its
    closed-form readout.

    The encoded state gives basis (m, a, i, c) the amplitude x~_i/sqrt(2M)
    for a=0 and x^m_i/sqrt(2M) for a=1, with c the class bit of y^m (0 for
    -1, 1 for +1), and zero on index branches m >= M and padded data
    components. No readout reads those 2^n amplitudes, so none is allocated
    and no qubit cap applies: the readout is the core that read_batch runs,
    on this one input.
    """
    xt = _check_input(train, x_tilde)
    # a lone index or data component still takes one qubit
    layout = RegisterLayout(m_bits=max(1, (train.M - 1).bit_length()),
                            i_bits=max(1, (train.dimension - 1).bit_length()))
    (p_acc,), (p_minus,) = _closed_form(train, xt[None])
    return PreparedState(layout, float(p_acc), float(p_minus))


def _row_blocks(n_rows: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of ROW_BLOCK training rows. A lone last row
    joins the block before it: a block of one row, read for one input, would
    sum its features pairwise, not in order, and round unlike one pass."""
    stops = [*range(ROW_BLOCK, n_rows - 1, ROW_BLOCK), n_rows]
    return list(zip([0, *stops[:-1]], stops))


def _prepared_readout(state: PreparedState) -> tuple[float, float]:
    """The (p_acc, p_class_minus) pair of a state that prepare_state built."""
    if not isinstance(state, PreparedState):
        raise ValueError(
            "only a state from prepare_state can be read; read any other state with "
            "apply_gate, postselect and qubit_probabilities"
        )
    return state.p_acc, state.p_class_minus


def interfere_and_read(state: PreparedState) -> ClassificationOutcome:
    """Interfere the branches and read the class qubit exactly.

    Reports the acceptance of ancilla=0 after the ancilla Hadamard and the
    class-qubit marginal of that branch, as prepare_state computed them
    (read_batch's values bit for bit). Class bit 0 encodes label -1;
    ties at 0.5 predict +1. Raises ImpossibleBranchError when the acceptance
    is at or below BRANCH_FLOOR, and ValueError for any state that
    prepare_state did not build.
    """
    p_acc, p_minus = _prepared_readout(state)
    if p_acc <= BRANCH_FLOOR:
        raise ImpossibleBranchError(
            f"branch qubit {state.layout.ancilla_bit}=0 has probability {p_acc:.3e}"
        )
    return ClassificationOutcome(
        p_acc=p_acc,
        p_class_minus=p_minus,
        p_class_plus=1.0 - p_minus,
        predicted=-1 if p_minus > 0.5 else +1,
        shots=None,
    )


def interfere_and_sample(
    state: PreparedState, shots: int, seed: int
) -> ClassificationOutcome:
    """Shot-based version of interfere_and_read.

    Each shot measures the ancilla; only on outcome 0 is the class qubit
    measured. p_acc is estimated as accepted/shots and the class
    probabilities from the accepted shots alone. The shots are drawn from the
    two numbers interfere_and_read reports, so only a prepared state is taken.
    """
    if isinstance(shots, bool) or not isinstance(shots, numbers.Integral):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    p_acc_true, p_minus_true = _prepared_readout(state)

    rng = np.random.default_rng(seed)
    accepted = _count_below(rng, shots, p_acc_true)
    if accepted == 0:
        raise EstimationFailedError(
            f"no shots accepted out of {shots}", accepted=0
        )
    minus_count = _count_below(rng, accepted, p_minus_true)

    p_minus = minus_count / accepted
    return ClassificationOutcome(
        p_acc=accepted / shots,
        p_class_minus=p_minus,
        p_class_plus=1.0 - p_minus,
        predicted=-1 if p_minus > 0.5 else +1,
        shots=shots,
        accepted=accepted,
    )


def _count_below(rng: np.random.Generator, n: int, p: float) -> int:
    """How many of n uniform draws from rng fall below p, drawn in blocks of
    SAMPLE_BLOCK."""
    count = 0
    for start in range(0, n, SAMPLE_BLOCK):
        count += int(np.count_nonzero(rng.random(min(SAMPLE_BLOCK, n - start)) < p))
    return count


def read_batch(train: TrainingSet, X) -> tuple[np.ndarray, np.ndarray]:
    """Exact readout of every row of X at once, without building a state.

    Returns the (p_acc, p_class_minus) arrays that interfere_and_read gives
    row by row, from the sum-vector weights w_km = |x_k + x^m|^2; prepare_state
    runs this one readout core too. Rows at or below the postselection
    floor, where interfere_and_read raises ImpossibleBranchError, get
    p_acc = 0 and p_class_minus = nan. A batch of
    training sets (vectors (..., M, N)) reads the matching batch of inputs
    (..., K, N) set by set. Holds a (... x K x M) array of weights and, for
    one block of ROW_BLOCK training rows at a time, a (... x K x ROW_BLOCK x N)
    temporary.
    """
    X = np.asarray(X, dtype=float)
    lead = train.vectors.shape[:-2]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != train.dimension:
        raise ValueError(
            f"inputs {X.shape} must be rows of dimension {train.dimension}, batched as {lead}"
        )
    check_unit(X, "inputs")
    p_acc, p_minus = _closed_form(train, X)
    return np.where(p_acc > BRANCH_FLOOR, p_acc, 0.0), p_minus


def _closed_form(train: TrainingSet, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance of each checked row of X, not floored, and its class -1
    share, nan where the acceptance is at or below BRANCH_FLOOR.

    Both come from the class sums of the weights w_km = |x_k + x^m|^2. (For
    unit rows w_km = 2 + 2<x_k, x^m>, but that Gram form cancels badly where
    x_k is nearly opposite x^m.) The weights are summed over the features
    one block of training rows at a time, in the same order as in one pass.
    """
    # features outermost, so each broadcast step runs over a whole (K x block) plane
    xs = np.ascontiguousarray(np.swapaxes(X, -1, -2))
    w = np.empty(X.shape[:-1] + (train.M,))
    for start, stop in _row_blocks(train.M):
        vs = np.ascontiguousarray(np.swapaxes(train.vectors[..., start:stop, :], -1, -2))
        sums = xs[..., :, :, None] + vs[..., :, None, :]
        np.square(sums, out=sums).sum(-3, out=w[..., start:stop])
        # freed here, or both stay alive while the next block's are built
        del vs, sums
    minus = (train.labels == -1)[..., None, :]
    w_minus, w_plus = np.where(minus, w, 0.0).sum(-1), np.where(minus, 0.0, w).sum(-1)
    total = w_minus + w_plus
    p_acc = total / (4 * train.M)
    possible = p_acc > BRANCH_FLOOR
    p_minus = w_minus / np.where(possible, total, 1.0)
    return p_acc, np.where(possible, p_minus, np.nan)


def classify(train: TrainingSet, x_tilde, shots: int | None = None,
             seed: int = 0) -> ClassificationOutcome:
    """Full pipeline: encode, interfere, read out (exactly or with shots)."""
    state = prepare_state(train, x_tilde)
    if shots is None:
        return interfere_and_read(state)
    return interfere_and_sample(state, shots, seed)
