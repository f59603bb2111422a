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
from dataclasses import dataclass, field

import numpy as np

from .encoding import check_labels
from .errors import EstimationFailedError, ImpossibleBranchError, check_count
from .statevector import BRANCH_FLOOR, check_unit

# interfere_and_sample draws its uniforms this many at a time, so its memory
# stays bounded whatever the shot count; a Generator gives the same stream in
# blocks as in one call
SAMPLE_BLOCK = 1 << 20


def acceptance_error(M: int, N: int) -> float:
    """Bound on the rounding error of p_acc as read_batch returns it, for M
    unit training rows of dimension N: 2 (N + M + 5) u, u the unit roundoff.

    A class weight M_c |x|^2 + S_c + 2 <x, V_c> adds three terms, each a sum
    of at most N + M products off by at most gamma_{N+M+1} (gamma_k =
    k u / (1 - k u)) times the sum of their magnitudes: M_c rho, M_c rho and
    2 M_c rho for unit rows (Cauchy-Schwarz; rho bounds a squared norm
    within UNIT_TOL). Two additions, the class sum and the division by 4M
    give |p_acc - exact| <= gamma_{N+M+5} rho, under 2 (N + M + 5) u while
    (N + M + 5) u <= 1/4. Direct sums of |x + x^m|^2, all terms nonnegative,
    keep a relative error of gamma_{N+M+4}, within the same bound as
    p_acc <= rho.
    """
    return (N + M + 5) * np.finfo(float).eps


@dataclass(frozen=True)
class PreparedState:
    """An encoded state as prepare_state returns it: the widths of its index
    and data registers, laid out (least significant first) as class bit,
    i_bits data bits, ancilla bit, m_bits index bits; the acceptance of
    ancilla=0 after the ancilla Hadamard; and the class -1 share of that
    branch (nan at or below BRANCH_FLOOR)."""

    m_bits: int
    i_bits: int
    p_acc: float
    p_class_minus: float

    @property
    def n_qubits(self) -> int:
        return self.m_bits + self.i_bits + 2

    @property
    def ancilla_bit(self) -> int:
        return 1 + self.i_bits


@dataclass(frozen=True)
class TrainingSet:
    """Unit-norm training vectors of a common dimension with labels in {-1,+1},
    or a batch of such sets stacked along leading axes (vectors (..., M, N),
    labels (..., M)), which only read_batch takes.

    Immutable, so the class statistics every readout reads never go stale:
    an array that owns its memory is taken over and made read-only in place
    (a write to it raises, though numpy lets its owner, or a view made
    before, still write), and any other input is copied once. Each array is
    held as a view that numpy refuses to make writable again. Per set, class
    -1 then +1: class_counts (..., 2), class_sq_norms (..., 2), the sums of
    the rows' squared norms, and class_sums (..., 2, N), the rows' sums.
    """

    vectors: np.ndarray
    labels: np.ndarray
    class_counts: np.ndarray = field(init=False, repr=False)
    class_sq_norms: np.ndarray = field(init=False, repr=False)
    class_sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=float)
        if vectors.ndim < 2 or vectors.shape[-2] < 1:
            raise ValueError(f"vectors must be a nonempty matrix, got {vectors.shape}")
        labels = check_labels(vectors, self.labels)
        sq_norms = check_unit(vectors, "training vectors")
        values = (vectors, labels, *_class_statistics(vectors, labels, sq_norms))
        for name, value in zip(("vectors", "labels", "class_counts", "class_sq_norms",
                                "class_sums"), values):
            value = value if value.flags.owndata else value.copy()
            value.setflags(write=False)
            object.__setattr__(self, name, value.view())

    @property
    def M(self) -> int:
        return self.vectors.shape[-2]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[-1]


def _class_statistics(vectors, labels, sq_norms):
    """Per set, class -1 then +1: row counts, sums of squared norms, row sums."""
    indicators = np.stack([labels == -1, labels == 1], axis=-2).astype(float)
    return (indicators.sum(-1), np.einsum("...cm,...m->...c", indicators, sq_norms),
            np.einsum("...cm,...mn->...cn", indicators, vectors))


@dataclass
class ClassificationOutcome:
    """Acceptance probability, class-conditional probabilities, and the label.

    shots is None for the exact (analytic) readout; accepted counts the
    postselected shots in sampled mode. Class +1's probability and the label
    are read from p_class_minus, so both readouts share one tie rule: a tie at
    0.5 predicts +1.
    """

    p_acc: float
    p_class_minus: float
    shots: int | None = None
    accepted: int | None = None

    @property
    def p_class_plus(self) -> float:
        return 1.0 - self.p_class_minus

    @property
    def predicted(self) -> int:
        return -1 if self.p_class_minus > 0.5 else +1


def _checked_rows(train: TrainingSet, X) -> np.ndarray:
    """X as float rows of unit norm and the training dimension, batched as
    the training sets are."""
    X = np.asarray(X, dtype=float)
    lead = train.vectors.shape[:-2]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != train.dimension:
        raise ValueError(
            f"inputs {X.shape} must be rows of dimension {train.dimension}, batched as {lead}"
        )
    check_unit(X, "inputs")
    return X


def prepare_state(train: TrainingSet, x_tilde) -> PreparedState:
    """Encode one input against a training set as its register widths and its
    closed-form readout.

    The encoded state gives basis (m, a, i, c) the amplitude x~_i/sqrt(2M)
    for a=0 and x^m_i/sqrt(2M) for a=1, with c the class bit of y^m (0 for
    -1, 1 for +1), and zero on index branches m >= M and padded data
    components. No readout reads those 2^n amplitudes, so none is allocated
    and no qubit cap applies: the readout is the core that read_batch runs,
    on this one input.
    """
    if train.vectors.ndim != 2:
        raise ValueError(f"expected one training set, got a batch {train.vectors.shape}")
    X = _checked_rows(train, np.asarray(x_tilde, dtype=float)[None])
    (p_acc,), (p_minus,) = _closed_form(train, X)
    # a lone index or data component still takes one qubit
    return PreparedState(m_bits=max(1, (train.M - 1).bit_length()),
                         i_bits=max(1, (train.dimension - 1).bit_length()),
                         p_acc=float(p_acc), p_class_minus=float(p_minus))


def _prepared_readout(state: PreparedState) -> tuple[float, float]:
    """The (p_acc, p_class_minus) pair of a state that prepare_state built.
    Raises ImpossibleBranchError when the acceptance is at or below
    BRANCH_FLOOR, where p_class_minus is nan."""
    if not isinstance(state, PreparedState):
        raise ValueError(
            "only a state from prepare_state can be read; read any other state with "
            "apply_gate, postselect and qubit_probabilities"
        )
    if state.p_acc <= BRANCH_FLOOR:
        raise ImpossibleBranchError(
            f"branch qubit {state.ancilla_bit}=0 has probability {state.p_acc:.3e}"
        )
    return state.p_acc, state.p_class_minus


def interfere_and_read(state: PreparedState) -> ClassificationOutcome:
    """Interfere the branches and read the class qubit exactly.

    Reports the acceptance of ancilla=0 after the ancilla Hadamard and the
    class-qubit marginal of that branch, as prepare_state computed them
    (read_batch's values bit for bit). Class bit 0 encodes label -1. Raises
    ImpossibleBranchError when the acceptance is at or below BRANCH_FLOOR,
    and ValueError for any state that prepare_state did not build.
    """
    p_acc, p_minus = _prepared_readout(state)
    return ClassificationOutcome(p_acc=p_acc, p_class_minus=p_minus)


def interfere_and_sample(
    state: PreparedState, shots: int, seed: int
) -> ClassificationOutcome:
    """Shot-based version of interfere_and_read.

    Each shot measures the ancilla; only on outcome 0 is the class qubit
    measured. p_acc is estimated as accepted/shots and the class
    probabilities from the accepted shots alone. The shots are drawn from the
    two numbers interfere_and_read reports, so only a prepared state is taken,
    and one that interfere_and_read refuses raises the same error before any
    shot is drawn.
    """
    check_count(shots, "shots", 1)
    check_count(seed, "seed", 0)
    p_acc_true, p_minus_true = _prepared_readout(state)

    rng = np.random.default_rng(seed)
    accepted = _count_below(rng, shots, p_acc_true)
    if accepted == 0:
        raise EstimationFailedError(f"no shots accepted out of {shots}")
    minus_count = _count_below(rng, accepted, p_minus_true)

    return ClassificationOutcome(p_acc=accepted / shots, p_class_minus=minus_count / accepted,
                                 shots=shots, accepted=accepted)


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
    row by row, each row read in O(N) from the class statistics by the one
    core that prepare_state runs too (_closed_form); p_acc is within
    acceptance_error(M, N) of its exact value. Rows at or below the
    postselection floor get p_acc = 0 and p_class_minus = nan. A batch of
    training sets (vectors (..., M, N)) reads the matching batch of inputs
    (..., K, N) set by set.
    """
    p_acc, p_minus = _closed_form(train, _checked_rows(train, X))
    return np.where(p_acc > BRANCH_FLOOR, p_acc, 0.0), p_minus


def _closed_form(train: TrainingSet, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Acceptance of each checked row of X, not floored, and its class -1
    share, nan where the acceptance is at or below BRANCH_FLOOR.

    Each class weight W_c = sum_{m in c} |x_k + x^m|^2 is read as M_c |x_k|^2
    + S_c + 2 <x_k, V_c> (a negative one is rounding, and reads 0). That
    form cancels where x_k is nearly opposite the rows. With e =
    acceptance_error(M, N), a row read above sqrt(e) has p_acc to a relative
    error under sqrt(e), and p_class_minus, whose weights are each off by at
    most 4M e, within 2 e / p_acc. A row at or below sqrt(e) (> 3e-8) is
    re-read with the direct sums over its set's rows, which keep a relative
    error of e, so every impossible-branch decision, and the acceptance it
    quotes, comes from the direct sums.
    """
    sq_norms = np.einsum("...i,...i->...", X, X)[..., None]
    dots = (X[..., :, None, :] * train.class_sums[..., None, :, :]).sum(-1)
    # (... x K x 2) class weights, class -1 first
    w = train.class_counts[..., None, :] * sq_norms + train.class_sq_norms[..., None, :]
    w += 2 * dots
    np.maximum(w, 0.0, out=w)
    reread = w.sum(-1) / (4 * train.M) <= math.sqrt(acceptance_error(train.M, train.dimension))
    for index in zip(*np.nonzero(reread)):
        rows = np.square(X[index] + train.vectors[index[:-1]]).sum(-1)
        w[index] = np.bincount((train.labels[index[:-1]] + 1) // 2, rows, minlength=2)
    total = w.sum(-1)
    p_acc = total / (4 * train.M)
    possible = p_acc > BRANCH_FLOOR
    p_minus = w[..., 0] / np.where(possible, total, 1.0)
    return p_acc, np.where(possible, p_minus, np.nan)


def classify(train: TrainingSet, x_tilde, shots: int | None = None,
             seed: int = 0) -> ClassificationOutcome:
    """Full pipeline: encode, interfere, read out (exactly or with shots)."""
    state = prepare_state(train, x_tilde)
    if shots is None:
        return interfere_and_read(state)
    return interfere_and_sample(state, shots, seed)
