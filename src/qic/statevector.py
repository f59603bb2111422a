"""Dense statevector simulation.

A state over n qubits is a complex array of 2**n amplitudes. Qubit k is bit k
of the basis index, with qubit 0 as the least significant bit. Multi-qubit
gate matrices are written in the basis where the first listed qubit is the
most significant bit of the gate's local index, e.g. CNOT acts on |control,
target> ordered 00, 01, 10, 11.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import CapacityError, ImpossibleBranchError, NormalizationError

if TYPE_CHECKING:
    from .classifier import RegisterLayout

MAX_QUBITS = 24
MAX_UNITARY_QUBITS = 10
# a kept branch of at most this mass is rounding noise of a unit-norm state,
# not an outcome: renormalizing it would amplify that noise, so it is impossible
BRANCH_FLOOR = 1e-15
# a unit norm misses 1 by rounding alone at about 1e-15 per operation; 1e-10
# leaves room for long chains of them and still catches any real rescaling
UNIT_TOL = 1e-10
# an exact decomposition misses its reference unitary or state by rounding
# alone, under 1e-15 per entry over tens of gates; 1e-12 leaves room for that
# and still fails any wrong gate, which moves some entry by far more
EXACT_TOL = 1e-12

_SQRT2_INV = 1 / math.sqrt(2)

# kind -> arity; rotation kinds additionally carry an angle
GATE_ARITY = {
    "h": 1,
    "x": 1,
    "t": 1,
    "tdg": 1,
    "s": 1,
    "ry": 1,
    "cx": 2,
    "swap": 2,
    "ccx": 3,
    "cry": 2,
    "ccry": 3,
}
ROTATION_KINDS = frozenset({"ry", "cry", "ccry"})


@dataclass(frozen=True)
class GateOp:
    """A single gate: kind, target/control qubit indices, optional angle.

    For controlled gates the controls come first and the target last.
    """

    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != GATE_ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} expects {GATE_ARITY[self.kind]} qubits, got {self.qubits}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"qubit indices must be distinct, got {self.qubits}")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"qubit indices must be non-negative, got {self.qubits}")
        if self.kind in ROTATION_KINDS:
            if self.theta is None or not math.isfinite(self.theta):
                raise ValueError(f"{self.kind} needs a finite angle, got {self.theta}")
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")


def h(q: int) -> GateOp:
    return GateOp("h", (q,))


def x(q: int) -> GateOp:
    return GateOp("x", (q,))


def t(q: int) -> GateOp:
    return GateOp("t", (q,))


def tdg(q: int) -> GateOp:
    return GateOp("tdg", (q,))


def s(q: int) -> GateOp:
    return GateOp("s", (q,))


def ry(theta: float, q: int) -> GateOp:
    return GateOp("ry", (q,), float(theta))


def cx(control: int, target: int) -> GateOp:
    return GateOp("cx", (control, target))


def swap(a: int, b: int) -> GateOp:
    return GateOp("swap", (a, b))


def ccx(control1: int, control2: int, target: int) -> GateOp:
    return GateOp("ccx", (control1, control2, target))


def cry(theta: float, control: int, target: int) -> GateOp:
    return GateOp("cry", (control, target), float(theta))


def ccry(theta: float, control1: int, control2: int, target: int) -> GateOp:
    return GateOp("ccry", (control1, control2, target), float(theta))


def _ry_matrix(theta: float) -> np.ndarray:
    c, sn = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -sn], [sn, c]], dtype=complex)


def _controlled(u: np.ndarray, n_controls: int) -> np.ndarray:
    dim = u.shape[0] << n_controls
    m = np.eye(dim, dtype=complex)
    m[-u.shape[0]:, -u.shape[0]:] = u
    return m


_H = np.array([[_SQRT2_INV, _SQRT2_INV], [_SQRT2_INV, -_SQRT2_INV]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_T = np.diag([1, np.exp(1j * math.pi / 4)]).astype(complex)
_S = np.diag([1, 1j]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_FIXED = {"h": _H, "x": _X, "t": _T, "tdg": _T.conj(), "s": _S,
          "cx": _controlled(_X, 1), "swap": _SWAP, "ccx": _controlled(_X, 2)}
for _m in _FIXED.values():  # shared by every gate_matrix caller, so read-only
    _m.setflags(write=False)


def gate_matrix(op: GateOp) -> np.ndarray:
    """Dense unitary of the op over its listed qubits (read-only for fixed gates)."""
    fixed = _FIXED.get(op.kind)
    if fixed is not None:
        return fixed
    u = _ry_matrix(op.theta)
    return u if op.kind == "ry" else _controlled(u, len(op.qubits) - 1)


@dataclass
class QuantumState:
    """Length-2**n complex amplitude vector with optional register layout."""

    n_qubits: int
    amplitudes: np.ndarray
    layout: "RegisterLayout | None" = None

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got {self.amplitudes.shape}"
            )

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "QuantumState":
        return QuantumState(self.n_qubits, self.amplitudes.copy(), self.layout)


def zero_state(n_qubits: int) -> QuantumState:
    """All-qubits-|0> state. Capped at MAX_QUBITS to keep memory desk-scale."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise CapacityError(f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    amps[0] = 1.0
    return QuantumState(n_qubits, amps)


def check_unit(v, what: str) -> None:
    """Raise unless v, or each row of v, is finite with unit norm; NaN fails."""
    deviation = np.abs(np.linalg.norm(v, axis=-1) - 1.0)
    if not np.all(deviation <= UNIT_TOL):
        raise NormalizationError(
            f"{what} must be finite with unit norm "
            f"(worst deviation {float(np.max(deviation)):.2e})"
        )


def _check_indices(n_qubits: int, qubits: tuple[int, ...]):
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range for {n_qubits}-qubit state")


def _apply_matrix(
    amps: np.ndarray, n_qubits: int, matrix: np.ndarray, qubits: tuple[int, ...]
) -> np.ndarray:
    """Apply the matrix to the listed qubits of amplitudes shaped (2**n,) or
    (2**n, B); any trailing axis is a batch of states. Returns the input's shape."""
    # numpy axis 0 is the most significant bit; qubit q lives on axis n-1-q
    axes = [n_qubits - 1 - q for q in qubits]
    perm = axes + [a for a in range(n_qubits + amps.ndim - 1) if a not in axes]
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    psi = amps.reshape((2,) * n_qubits + amps.shape[1:]).transpose(perm)
    psi = (matrix @ psi.reshape(matrix.shape[0], -1)).reshape(psi.shape)
    return psi.transpose(inverse).reshape(amps.shape)


def apply_gate(state: QuantumState, op: GateOp) -> QuantumState:
    """Return the state transformed by the op's unitary; input is not mutated."""
    _check_indices(state.n_qubits, op.qubits)
    amps = _apply_matrix(state.amplitudes, state.n_qubits, gate_matrix(op), op.qubits)
    return QuantumState(state.n_qubits, amps, state.layout)


def qubit_probabilities(state: QuantumState, qubit: int) -> tuple[float, float]:
    """Marginal (p0, p1) of measuring one qubit of a unit-norm state."""
    _check_indices(state.n_qubits, (qubit,))
    probs = state.probabilities()
    bits = (np.arange(probs.size) >> qubit) & 1
    p1 = float(probs[bits == 1].sum())
    p0 = float(probs[bits == 0].sum())
    total = p0 + p1
    if not abs(total - 1.0) <= UNIT_TOL:
        raise NormalizationError(f"state has total probability {total:.6g}, not 1")
    return p0 / total, p1 / total


def postselect(
    state: QuantumState, qubit: int, outcome: int
) -> tuple[QuantumState, float]:
    """Project onto qubit==outcome and renormalize.

    Returns the renormalized state and the pre-renormalization mass of the
    kept branch (the acceptance probability).
    """
    _check_indices(state.n_qubits, (qubit,))
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    bits = (np.arange(state.amplitudes.size) >> qubit) & 1
    keep = bits == outcome
    accept = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
    if accept <= BRANCH_FLOOR:
        raise ImpossibleBranchError(
            f"branch qubit {qubit}={outcome} has probability {accept:.3e}"
        )
    amps = np.where(keep, state.amplitudes, 0.0) / math.sqrt(accept)
    return QuantumState(state.n_qubits, amps, state.layout), accept


def sample_shots(
    state: QuantumState, qubits: list[int] | tuple[int, ...], shots: int, seed: int
) -> dict[str, int]:
    """Sample a histogram of measurement outcomes over the listed qubits.

    Keys are bitstrings where character j is the measured bit of qubits[j];
    outcomes with zero counts are omitted. Sampling is seeded and draws from
    the exact marginal distribution.
    """
    if len(qubits) == 0:
        raise ValueError("qubit list must not be empty")
    _check_indices(state.n_qubits, tuple(qubits))
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubit indices must be distinct, got {qubits}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")

    probs = state.probabilities()
    idx = np.arange(probs.size)
    k = len(qubits)
    # outcome index: first listed qubit is the most significant bit
    out_idx = np.zeros(probs.size, dtype=np.int64)
    for j, q in enumerate(qubits):
        out_idx |= (((idx >> q) & 1) << (k - 1 - j)).astype(np.int64)
    marginal = np.bincount(out_idx, weights=probs, minlength=1 << k)
    marginal = marginal / marginal.sum()

    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, marginal)
    return {
        format(o, f"0{k}b"): int(c) for o, c in enumerate(counts) if c > 0
    }


def _run(circuit, amps: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates in order to amplitudes shaped (2**n,) or (2**n, B)."""
    for op in circuit.ops:
        _check_indices(circuit.n_qubits, op.qubits)
        amps = _apply_matrix(amps, circuit.n_qubits, gate_matrix(op), op.qubits)
    return amps


def simulate(circuit, initial: QuantumState | None = None) -> QuantumState:
    """Run a circuit on |0...0> (or on the given initial state)."""
    state = zero_state(circuit.n_qubits) if initial is None else initial.copy()
    state.amplitudes = _run(circuit, state.amplitudes)
    return state


def circuit_unitary(circuit) -> np.ndarray:
    """Unitary of a circuit: column j is the image of basis state j.

    Each gate is applied once to the whole matrix, its columns as a batch.
    """
    if circuit.n_qubits > MAX_UNITARY_QUBITS:
        raise CapacityError(
            f"circuit_unitary supports at most {MAX_UNITARY_QUBITS} qubits, "
            f"got {circuit.n_qubits}"
        )
    return _run(circuit, np.eye(1 << circuit.n_qubits, dtype=complex))
