"""Dense statevector simulation.

A state over n qubits is a complex array of 2**n amplitudes. Qubit k is bit k
of the basis index, with qubit 0 as the least significant bit. Multi-qubit
gate matrices are written in the basis where the first listed qubit is the
most significant bit of the gate's local index, e.g. CNOT acts on |control,
target> ordered 00, 01, 10, 11.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ImpossibleBranchError, NormalizationError, check_count

# gate_unitary's bound, 16 MiB of unitary: a Circuit has no qubit cap, so
# without it simulate or circuit_unitary of a wide circuit would allocate
# 4**n amplitudes
MAX_UNITARY_QUBITS = 10
# bound on the entries of each memo table on the compile path: _step_plan and
# _fused_run here, circuit._fixed_expansion, and qasm's two statement tables.
# The benchmark's 2000 compile inputs fill 55 step plans, 14 fused runs, 2
# expansions and 15 statements per statement table, and verify-decompositions
# adds 12 entries in all; the bound only stops circuits on ever new qubits
# from growing a table without end
CACHE_SIZE = 1024
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

    For controlled gates the controls come first and the target last. Qubits
    are stored as a tuple of int and a rotation's angle as a float.
    """

    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        kind, qubits, theta = self.kind, self.qubits, self.theta
        arity = GATE_ARITY.get(kind)
        # the valid, already-normalized case, tested first and cheaply; the
        # step-by-step checks, which name the first rule broken, run only when
        # it fails
        if (
            type(qubits) is tuple and len(qubits) == arity and len(set(qubits)) == arity
            and (type(theta) is float and math.isfinite(theta) if kind in ROTATION_KINDS
                 else theta is None)
        ):
            for q in qubits:
                if type(q) is not int or q < 0:
                    break
            else:
                return
        if kind not in GATE_ARITY:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(qubits) != arity:
            raise ValueError(f"{kind} expects {arity} qubits, got {qubits}")
        if not all(isinstance(q, numbers.Integral) and not isinstance(q, bool) for q in qubits):
            raise ValueError(f"qubit indices must be integers, got {qubits}")
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"qubit indices must be distinct, got {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"qubit indices must be non-negative, got {qubits}")
        if kind in ROTATION_KINDS:
            if not (isinstance(theta, numbers.Real) and not isinstance(theta, bool)
                    and math.isfinite(theta)):
                raise ValueError(f"{kind} needs a finite angle, got {theta}")
            object.__setattr__(self, "theta", float(theta))
        elif theta is not None:
            raise ValueError(f"{kind} takes no angle")
        object.__setattr__(self, "qubits", tuple(map(int, qubits)))


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
    return GateOp("ry", (q,), theta)


def cx(control: int, target: int) -> GateOp:
    return GateOp("cx", (control, target))


def swap(a: int, b: int) -> GateOp:
    return GateOp("swap", (a, b))


def ccx(control1: int, control2: int, target: int) -> GateOp:
    return GateOp("ccx", (control1, control2, target))


def cry(theta: float, control: int, target: int) -> GateOp:
    return GateOp("cry", (control, target), theta)


def ccry(theta: float, control1: int, control2: int, target: int) -> GateOp:
    return GateOp("ccry", (control1, control2, target), theta)


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
    """Dense unitary of the op over its listed qubits, read-only: a fixed
    gate's is shared by kind, a rotation's is built on each call, which is
    once per circuit that holds it."""
    m = _FIXED.get(op.kind)
    if m is None:
        u = _ry_matrix(op.theta)
        m = u if op.kind == "ry" else _controlled(u, len(op.qubits) - 1)
        m.setflags(write=False)
    return m


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Immutable length-2**n complex amplitude vector.

    The input is copied once into a complex array that is made read-only, so
    a state never follows later writes to its source. The field holds a view
    of that copy, which numpy refuses to make writable again (its .base, the
    copy itself, still can be).
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = check_count(self.n_qubits, "n_qubits", 1)
        object.__setattr__(self, "n_qubits", n)
        amps = np.array(self.amplitudes, dtype=complex)
        amps.setflags(write=False)
        if amps.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps.view())

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def check_unit(v, what: str) -> np.ndarray:
    """Raise unless v, or each row of v, is finite with unit norm (NaN fails);
    return the squared norms it checked."""
    sq_norms = np.einsum("...i,...i->...", v, v)
    deviation = np.abs(np.sqrt(sq_norms) - 1.0)
    if not np.all(deviation <= UNIT_TOL):
        raise NormalizationError(
            f"{what} must be finite with unit norm "
            f"(worst deviation {float(np.max(deviation)):.2e})"
        )
    return sq_norms


def _check_indices(n_qubits: int, qubits: tuple[int, ...]):
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise IndexError(f"qubit {q} out of range for {n_qubits}-qubit state")


def _check_qubit(n_qubits: int, qubit) -> None:
    """Raise ValueError for a bool or non-integer qubit, IndexError for one
    out of range."""
    check_count(qubit, "qubit")
    _check_indices(n_qubits, (qubit,))


# a fused run's wires: never wider than a ccx step, which the loop already takes
_FUSED_WIDTH = max(GATE_ARITY.values())


@functools.lru_cache(maxsize=CACHE_SIZE)
def _step_plan(
    n_qubits: int, order: tuple[int, ...], qubits: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Transpose that brings the qubits' axes to the front of an array whose
    position p holds original axis order[p], and the axis order it leaves.
    Raises IndexError for an out-of-range qubit (lru_cache keeps no failure)."""
    _check_indices(n_qubits, qubits)
    # numpy axis 0 is the most significant bit; qubit q lives on axis n-1-q
    front = [order.index(n_qubits - 1 - q) for q in qubits]
    perm = tuple(front + [p for p in range(len(order)) if p not in front])
    return perm, tuple(order[p] for p in perm)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _fused_run(run: tuple[GateOp, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """The run's wires, in order of first use, and its read-only unitary over
    them: the gate loop run once on the 2**k identity, wire i as local qubit
    k-1-i (the first wire is the most significant bit, as for a gate).
    Keyed by the ops' values, so a run built from new expansions is new."""
    wires = tuple(dict.fromkeys(q for op in run for q in op.qubits))
    local = {q: len(wires) - 1 - i for i, q in enumerate(wires)}
    steps = ((tuple(local[q] for q in op.qubits), gate_matrix(op)) for op in run)
    matrix = _run(len(wires), steps, np.eye(1 << len(wires), dtype=complex))
    matrix.setflags(write=False)
    return wires, matrix


def _steps(ops):
    """(qubits, matrix) of each step of the ops: a rotation alone, and each
    maximal run of consecutive angle-free gates on at most _FUSED_WIDTH
    qubits, a lone gate included, as one fused step."""
    run: list[GateOp] = []
    wires: set[int] = set()
    for op in ops:
        if op.kind in ROTATION_KINDS:
            if run:
                yield _fused_run(tuple(run))
            run, wires = [], set()
            yield op.qubits, gate_matrix(op)
            continue
        wires.update(op.qubits)
        if len(wires) > _FUSED_WIDTH:
            yield _fused_run(tuple(run))
            run, wires = [], set(op.qubits)
        run.append(op)
    if run:
        yield _fused_run(tuple(run))


def _run(n_qubits: int, steps, amps: np.ndarray) -> np.ndarray:
    """Apply (qubits, matrix) steps in order to amplitudes shaped (2**n,) or
    (2**n, B), a trailing batch axis that no step moves; returns the input's
    shape. Raises IndexError for an out-of-range qubit.

    Each step takes its transpose from the _step_plan cache and copies the
    state once, into the operand of its matmul (not at all when its qubits
    already lead). The product stays in that axis order, and the original
    order is restored once, at the end.
    """
    psi = amps.reshape((2,) * n_qubits + (-1,))
    order = tuple(range(n_qubits + 1))
    for qubits, matrix in steps:
        perm, order = _step_plan(n_qubits, order, qubits)
        psi = psi.transpose(perm)
        psi = matrix.dot(psi.reshape(matrix.shape[0], -1)).reshape(psi.shape)
    inverse = tuple(sorted(range(len(order)), key=order.__getitem__))
    return np.ascontiguousarray(psi.transpose(inverse)).reshape(amps.shape)


def gate_unitary(n_qubits: int, ops) -> np.ndarray:
    """Read-only unitary of the ops in order on n qubits: column j is the
    image of basis state j. The ops run once on the identity, its columns as
    a batch.

    Each rotation is one step. Each maximal run of consecutive angle-free
    gates (h, x, t, tdg, s, cx, swap, ccx) whose qubits number at most
    _FUSED_WIDTH is one step too: its unitary over those qubits is built
    once per run of op values by the same loop and kept read-only in a
    bounded cache, so a lowered ccx's sixteen gates cost one transpose and one
    matmul. Raises CapacityError, before allocating, above MAX_UNITARY_QUBITS,
    and IndexError for an out-of-range qubit.
    """
    if n_qubits > MAX_UNITARY_QUBITS:
        raise CapacityError(f"unitaries are built for at most {MAX_UNITARY_QUBITS} "
                            f"qubits, got {n_qubits}")
    u = _run(n_qubits, _steps(ops), np.eye(1 << n_qubits, dtype=complex))
    u.setflags(write=False)
    return u


def apply_gate(state: QuantumState, op: GateOp) -> QuantumState:
    """Return the state transformed by the op's unitary; input is not mutated.
    Raises ValueError for an op that is not a GateOp."""
    if type(op) is not GateOp:
        raise ValueError(f"op is not a GateOp: {op!r}")
    amps = _run(state.n_qubits, ((op.qubits, gate_matrix(op)),), state.amplitudes)
    return QuantumState(state.n_qubits, amps)


def qubit_probabilities(state: QuantumState, qubit: int) -> tuple[float, float]:
    """Marginal (p0, p1) of measuring one qubit of a unit-norm state."""
    _check_qubit(state.n_qubits, qubit)
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
    _check_qubit(state.n_qubits, qubit)
    if check_count(outcome, "outcome") not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    bits = (np.arange(state.amplitudes.size) >> qubit) & 1
    keep = bits == outcome
    accept = float(np.sum(np.abs(state.amplitudes[keep]) ** 2))
    if accept <= BRANCH_FLOOR:
        raise ImpossibleBranchError(
            f"branch qubit {qubit}={outcome} has probability {accept:.3e}"
        )
    amps = np.where(keep, state.amplitudes, 0.0) / math.sqrt(accept)
    return QuantumState(state.n_qubits, amps), accept


def simulate(circuit) -> QuantumState:
    """State of a Circuit run on |0...0>: column 0 of its kept unitary."""
    return QuantumState(circuit.n_qubits, circuit.unitary[:, 0])


def circuit_unitary(circuit) -> np.ndarray:
    """Unitary of a Circuit, column j the image of basis state j: the
    caller's own copy of the one the circuit keeps."""
    return circuit.unitary.copy()
