"""Circuit IR, the 4-qubit two-training-point experiment, decomposition to the
restricted gate set {h, x, t, tdg, s, ry, cx}, and connectivity validation
against the 5-qubit device coupling map."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import statevector as sv
from .errors import AssignmentError, UnsupportedGateError, check_count
from .presets import X0, X1, preset_input
from .statevector import GateOp

RESTRICTED_KINDS = frozenset({"h", "x", "t", "tdg", "s", "ry", "cx"})

# wire roles of the experiment circuit; after the swap in step E the class
# label ends up on the DATA_WIRE, which is why it sits at bit 0
DATA_WIRE = 0
CLASS_WIRE = 1
ANCILLA_WIRE = 2
INDEX_WIRE = 3

# a first training vector whose components are each within this of |1> is
# loaded by a plain ccx: in place of the exact ccry, that moves each loaded
# amplitude by at most this much, so the circuit's state stays within
# statevector.EXACT_TOL of the one its rotation would give
_BASIS_LOAD_TOL = 1e-12


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence over n_qubits, stored as an int and a tuple."""

    n_qubits: int
    ops: tuple[GateOp, ...]

    def __post_init__(self):
        n = check_count(self.n_qubits, "n_qubits", 1)
        object.__setattr__(self, "n_qubits", n)
        if type(self.ops) is not tuple:
            object.__setattr__(self, "ops", tuple(self.ops))
        for i, op in enumerate(self.ops):
            if type(op) is not GateOp:
                raise ValueError(f"op {i} is not a GateOp: {op!r}")
            for q in op.qubits:
                if q >= n:
                    raise ValueError(f"op {op} references qubit {q} on a {n}-qubit circuit")

    def __len__(self) -> int:
        return len(self.ops)

    @functools.cached_property
    def unitary(self) -> np.ndarray:
        """The read-only unitary that simulate and circuit_unitary read,
        built on first use and kept, so the ops run once per circuit."""
        return sv.gate_unitary(self.n_qubits, self.ops)


def _load_angle(v) -> float:
    """Rotation angle theta with ry(theta)|0> = v[0]|0> + v[1]|1>."""
    return 2.0 * math.atan2(v[1], v[0])


def build_experiment_circuit(x_tilde, x0, x1) -> Circuit:
    """State-preparation circuit entangling a new input with two training vectors.

    Wires: data={0}, class={1}, ancilla={2}, index={3}. Steps:
      A  uniform superposition on ancilla and index
      B  controlled load of the input onto the data wire (ancilla branch 1),
         then an ancilla flip so the input sits in branch 0
      C  first training vector into branch (ancilla=1, index=0)
      D  second training vector into branch (ancilla=1, index=1)
      E  swap data and class wires, then flip the class conditioned on index
    The interference Hadamard (step F) is appended by the readout code.
    """
    xt, v0, v1 = (np.asarray(v, dtype=float) for v in (x_tilde, x0, x1))
    for name, v in (("x_tilde", xt), ("x0", v0), ("x1", v1)):
        if v.shape != (2,):
            raise ValueError(f"{name} must be a 2-vector, got shape {v.shape}")
        sv.check_unit(v, name)

    if abs(v0[0]) < _BASIS_LOAD_TOL and abs(v0[1] - 1.0) < _BASIS_LOAD_TOL:
        # basis-loadable first training vector: plain double-controlled flip
        load_v0 = sv.ccx(ANCILLA_WIRE, INDEX_WIRE, DATA_WIRE)
    else:
        load_v0 = sv.ccry(_load_angle(v0), ANCILLA_WIRE, INDEX_WIRE, DATA_WIRE)
    return Circuit(4, (
        sv.h(ANCILLA_WIRE), sv.h(INDEX_WIRE),                                     # A
        sv.cry(_load_angle(xt), ANCILLA_WIRE, DATA_WIRE), sv.x(ANCILLA_WIRE),     # B
        load_v0, sv.x(INDEX_WIRE),                                                # C
        sv.ccry(_load_angle(v1), ANCILLA_WIRE, INDEX_WIRE, DATA_WIRE),            # D
        sv.swap(DATA_WIRE, CLASS_WIRE), sv.cx(INDEX_WIRE, DATA_WIRE),             # E
    ))


def with_interference(circuit: Circuit) -> Circuit:
    """Append the ancilla Hadamard that interferes input and training branches."""
    return Circuit(circuit.n_qubits, circuit.ops + (sv.h(ANCILLA_WIRE),))


# ---------------------------------------------------------------------------
# decomposition to the restricted gate set


def _decompose_swap(a: int, b: int) -> list[GateOp]:
    # middle CNOT reversed through four Hadamards; 7 gates total
    return [
        sv.cx(a, b),
        sv.h(a), sv.h(b),
        sv.cx(a, b),
        sv.h(a), sv.h(b),
        sv.cx(a, b),
    ]


def _decompose_ccx(c1: int, c2: int, t: int) -> list[GateOp]:
    # ten single-qubit gates (T-depth 4) and six CNOTs; exact, no global phase
    return [
        sv.h(t),
        sv.cx(c2, t),
        sv.tdg(t),
        sv.cx(c1, t),
        sv.t(t),
        sv.cx(c2, t),
        sv.tdg(c2), sv.tdg(t),
        sv.cx(c1, t),
        sv.cx(c1, c2),
        sv.t(c1), sv.tdg(c2), sv.t(t),
        sv.cx(c1, c2),
        sv.s(c2), sv.h(t),
    ]


def _decompose_cry(theta: float, c: int, t: int) -> list[GateOp]:
    # half-angle sandwich: the two rotations cancel when the control is 0
    return [
        sv.cx(c, t),
        sv.ry(-theta / 2, t),
        sv.cx(c, t),
        sv.ry(theta / 2, t),
    ]


def _decompose_ccry(theta: float, c1: int, c2: int, t: int) -> list[GateOp]:
    # quarter-angle ladder: both controls fire -> four rotations add to theta,
    # any other branch cancels pairwise; each Toffoli is its restricted
    # expansion, _decompose_ccx looked up by name on each call
    g = theta / 4
    toffoli = _fixed_expansion(_decompose_ccx, (c1, c2, t))
    return [
        *toffoli,
        sv.cx(c2, t), sv.ry(g, t),
        sv.cx(c2, t), sv.ry(-g, t),
        *toffoli,
        sv.cx(c2, t), sv.ry(-g, t),
        sv.cx(c2, t), sv.ry(g, t),
    ]


@functools.lru_cache(maxsize=sv.CACHE_SIZE)
def _fixed_expansion(expand, qubits: tuple[int, ...]) -> tuple[GateOp, ...]:
    """expand(*qubits), built once per function and qubits; the frozen ops are
    shared by every circuit that holds them."""
    return tuple(expand(*qubits))


# kind -> restricted expansion of one op. The names resolve at call time, and
# the cache is keyed by the function, so a patched _decompose_* (a planted
# fault) is used even after the cache is warm
_EXPANSIONS = {
    "swap": lambda op: _fixed_expansion(_decompose_swap, op.qubits),
    "ccx": lambda op: _fixed_expansion(_decompose_ccx, op.qubits),
    "cry": lambda op: _decompose_cry(op.theta, *op.qubits),
    "ccry": lambda op: _decompose_ccry(op.theta, *op.qubits),
}


def decompose(circuit: Circuit) -> Circuit:
    """Expand extended gates so only {h, x, t, tdg, s, ry, cx} remain.

    The output's unitary equals the input's exactly, global phase included.
    """
    out: list[GateOp] = []
    for op in circuit.ops:
        expand = _EXPANSIONS.get(op.kind)
        if expand is None:
            out.append(op)
        else:
            out.extend(expand(op))
    return Circuit(circuit.n_qubits, tuple(out))


# ---------------------------------------------------------------------------
# connectivity: a coupling map is a frozenset of sorted physical pairs, and a
# placement a dict from each wire of a circuit to its physical qubit


class ConnectivityViolation(NamedTuple):
    op_index: int
    op: GateOp
    physical_pair: tuple[int, int]


def ibmq5_connectivity() -> frozenset[tuple[int, int]]:
    """Coupling map of the 5-qubit device: Q2 is the hub adjacent to all four
    others (the only such qubit), plus the two outer pairs Q0-Q1 and Q3-Q4."""
    return frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)})


def default_assignment() -> dict[int, int]:
    """Data wire on the hub Q2; ancilla and index on the adjacent pair Q0-Q1."""
    return {ANCILLA_WIRE: 0, INDEX_WIRE: 1, DATA_WIRE: 2, CLASS_WIRE: 3}


def validate_connectivity(
    circuit: Circuit, edges: frozenset[tuple[int, int]], assignment: dict[int, int]
) -> list[ConnectivityViolation]:
    """List every CNOT whose physical pair, sorted, is not one of the edges.

    The circuit must already be decomposed (two-qubit gates are cx only).
    """
    violations = []
    for i, op in enumerate(circuit.ops):
        if len(op.qubits) == 1:
            continue
        if op.kind != "cx":
            raise UnsupportedGateError(
                f"circuit not decomposed: found {op.kind} at position {i}"
            )
        try:
            a, b = assignment[op.qubits[0]], assignment[op.qubits[1]]
        except KeyError as exc:
            raise AssignmentError(f"no physical qubit assigned to wire {exc}") from exc
        if ((a, b) if a < b else (b, a)) not in edges:
            violations.append(ConnectivityViolation(i, op, (a, b)))
    return violations


# ---------------------------------------------------------------------------
# decomposition checks


def verify_decompositions() -> list[tuple[str, bool, str]]:
    """Check the expansion of every kind in _EXPANSIONS against its one-gate
    unitary (rotations at 50 seeded angles), and the lowered experiment circuit
    against its gate budget, the coupling map and its final state; every
    deviation is held to statevector.EXACT_TOL. One (name, passed, detail) each.
    """
    angles = np.random.default_rng(20240101).uniform(-2 * np.pi, 2 * np.pi, 50)
    checks: list[tuple[str, bool, str]] = []
    for kind in _EXPANSIONS:
        n = sv.GATE_ARITY[kind]
        thetas = angles if kind in sv.ROTATION_KINDS else (None,)
        err = 0.0
        for theta in thetas:
            one_gate = Circuit(n, (GateOp(kind, tuple(range(n)), theta),))
            lowered = decompose(one_gate)
            got, ideal = sv.circuit_unitary(lowered), sv.circuit_unitary(one_gate)
            err = max(err, float(np.abs(got - ideal).max()))
        note = f", {len(thetas)} random angles" if kind in sv.ROTATION_KINDS else ""
        checks.append((f"{kind} decomposition ({len(lowered)} gates{note})",
                       err <= sv.EXACT_TOL, f"max dev {err:.2e}"))

    full = with_interference(build_experiment_circuit(preset_input("xprime"), X0, X1))
    lowered = decompose(full)
    checks.append((f"experiment circuit gate budget ({len(lowered)} gates)",
                   len(lowered) <= 80, "<= 80"))
    violations = validate_connectivity(lowered, ibmq5_connectivity(), default_assignment())
    checks.append(("experiment circuit connectivity (data wire on hub)",
                   not violations, f"{len(violations)} bad CNOTs"))
    err = float(np.abs(sv.simulate(full).amplitudes - sv.simulate(lowered).amplitudes).max())
    checks.append(("composed vs decomposed final state", err <= sv.EXACT_TOL,
                   f"max dev {err:.2e}"))
    return checks
