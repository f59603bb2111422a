"""Reference computations the benchmark checks the program against.

Nothing here imports qic. Each oracle recomputes a program output from its
definition with plain numpy:

* grid    -- the Table-2 CSV, from the same seeded splits and the same
             preprocessing order, read out with the closed form
             w = 2 + 2 X_test X_train^T (|x + x_m|^2 for unit vectors);
* compile -- dense unitaries built gate by gate from Kronecker embeddings,
             the coupling map, and the paper identity for p_acc;
* wide    -- p_acc and class weights from the closed form, and Wilson
             intervals for the sampled estimates.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# grid: Table 2

IRIS_SHA256 = "c8a2fdaf394fc79fd145487203d7d69163f0e6d0053ea46afe97fa3542d12822"
TRAIN_FRACTION = 0.8
# p_acc at or below this is an impossible branch: counted wrong, no p_acc
IMPOSSIBLE_P_ACC = 1e-15

# key, feature-map copies, expected error, tolerance, p_acc checked
TABLE2 = (
    ("iris-1-2", 1, 0.00, 0.01, True),
    ("iris-1-3", 1, 0.00, 0.01, True),
    ("iris-2-3", 1, 0.07, 0.04, True),
    ("iris-2-3-featmap", 2, 0.00, 0.01, True),
    ("circles", 1, 0.62, 0.22, False),
    ("circles-featmap", 2, 0.00, 0.02, False),
)
CSV_HEADER = "dataset,reps,mean_error,variance,mean_p_acc,expected,tolerance,pass"


def load_datasets(iris_csv: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Rows and +-1 labels of every Table-2 dataset, keyed by row key."""
    text = iris_csv.read_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    if digest != IRIS_SHA256:
        raise RuntimeError(f"iris.csv checksum mismatch: got {digest}")
    table = np.array(
        [[float(v) for v in line.split(",")] for line in text.strip().splitlines()[1:]]
    )
    feats, species = table[:, :4], table[:, 4].astype(int)

    out = {}
    for key, *_ in TABLE2:
        if key.startswith("iris"):
            a, b = (int(p) for p in key.split("-")[1:3])
            rows = np.vstack([feats[species == a], feats[species == b]])
            labels = np.repeat([-1, 1], [np.sum(species == a), np.sum(species == b)])
        else:
            rows, labels = _circles(n_per_class=50, radius_ratio=0.5, noise_std=0.05, seed=0)
        out[key] = (rows, labels)
    return out


def _circles(n_per_class, radius_ratio, noise_std, seed):
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, 2 * n_per_class)
    radii = np.repeat([1.0, radius_ratio], n_per_class)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    pts = pts + rng.normal(0.0, noise_std, pts.shape)
    return pts, np.repeat([-1, 1], n_per_class)


def _embed(rows: np.ndarray, copies: int) -> np.ndarray:
    out = rows
    for _ in range(copies - 1):
        out = (out[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return out


def closed_form(x_test: np.ndarray, x_train: np.ndarray, y_train: np.ndarray):
    """(p_acc, p_minus) per test row: p_acc = sum_m w_m / 4M and
    p_minus = sum_{y_m=-1} w_m / sum_m w_m, with w_m = |x + x_m|^2."""
    w = 2.0 + 2.0 * (x_test @ x_train.T)
    total = w.sum(axis=1)
    p_acc = total / (4 * len(x_train))
    with np.errstate(invalid="ignore", divide="ignore"):
        p_minus = w[:, y_train == -1].sum(axis=1) / total
    return p_acc, p_minus


def table2_row(rows, labels, copies: int, reps: int, master_seed: int):
    """(mean_error, variance, mean_p_acc) of one Table-2 row."""
    n = len(rows)
    n_train = int(TRAIN_FRACTION * n)
    errors, p_accs = [], []
    for rep in range(reps):
        perm = np.random.default_rng(np.random.SeedSequence((master_seed, rep))).permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        mapped_tr, mapped_te = _embed(rows[tr], copies), _embed(rows[te], copies)
        mean, std = mapped_tr.mean(axis=0), mapped_tr.std(axis=0)
        x_tr, x_te = (mapped_tr - mean) / std, (mapped_te - mean) / std
        x_tr /= np.linalg.norm(x_tr, axis=1, keepdims=True)
        x_te /= np.linalg.norm(x_te, axis=1, keepdims=True)

        p_acc, p_minus = closed_form(x_te, x_tr, labels[tr])
        possible = p_acc > IMPOSSIBLE_P_ACC
        predicted = np.where(p_minus > 0.5, -1, 1)
        wrong = np.sum(~possible | (predicted != labels[te]))
        errors.append(wrong / len(te))
        if possible.any():
            p_accs.append(math.fsum(p_acc[possible]) / int(possible.sum()))
    mean_error = math.fsum(errors) / len(errors)
    variance = math.fsum((e - mean_error) ** 2 for e in errors) / len(errors)
    mean_p_acc = math.fsum(p_accs) / len(p_accs) if p_accs else 0.0
    return mean_error, variance, mean_p_acc


def check_table2_csv(text: str, datasets, reps: int, master_seed: int) -> list[str]:
    """Row keys of the CSV that disagree with the oracle.

    mean_error and variance must match as printed; mean_p_acc must agree to
    the printed precision (half a unit in the sixth decimal). A malformed
    CSV fails every row.
    """
    lines = text.splitlines()
    if len(lines) != len(TABLE2) + 1 or lines[0] != CSV_HEADER:
        return [key for key, *_ in TABLE2]
    bad = []
    for line, (key, copies, expected, tol, check_p) in zip(lines[1:], TABLE2):
        fields = line.split(",")
        rows, labels = datasets[key]
        err, var, p_acc = table2_row(rows, labels, copies, reps, master_seed)
        passes = abs(err - expected) <= tol and (not check_p or abs(p_acc - 0.50) <= 0.05)
        want = [key, str(reps), f"{err:.6f}", f"{var:.6f}", None,
                f"{expected:.2f}", f"{tol:.2f}", str(passes).lower()]
        ok = len(fields) == len(want) and all(
            w is None or f == w for f, w in zip(fields, want)
        )
        if ok:
            try:
                ok = abs(float(fields[4]) - p_acc) <= 0.5e-6 + 1e-12
            except ValueError:
                ok = False
        if not ok:
            bad.append(key)
    return bad


# ---------------------------------------------------------------------------
# compile: dense unitaries, coupling map

_SQ = 1 / math.sqrt(2)
_FIXED = {
    "h": np.array([[_SQ, _SQ], [_SQ, -_SQ]], dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "t": np.diag([1, np.exp(1j * math.pi / 4)]),
    "tdg": np.diag([1, np.exp(-1j * math.pi / 4)]),
    "s": np.diag([1, 1j]),
    "swap": np.eye(4, dtype=complex)[[0, 2, 1, 3]],
}
# kind -> (number of controls, base kind)
_CONTROLLED = {"cx": (1, "x"), "ccx": (2, "x"), "cry": (1, "ry"), "ccry": (2, "ry")}

RESTRICTED = frozenset({"h", "x", "t", "tdg", "s", "ry", "cx"})
# the 5-qubit device: Q2 is the hub; wire -> physical qubit of the default
# assignment (data 0 -> Q2, class 1 -> Q3, ancilla 2 -> Q0, index 3 -> Q1)
COUPLING = frozenset({(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)})
WIRE_TO_PHYSICAL = {0: 2, 1: 3, 2: 0, 3: 1}
ANCILLA_WIRE, CLASS_WIRE_AFTER_SWAP = 2, 0


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def gate_matrix(kind: str, theta: float | None) -> np.ndarray:
    """Local matrix; the first listed qubit is the most significant bit."""
    if kind == "ry":
        return _ry(theta)
    if kind in _FIXED:
        return _FIXED[kind]
    n_ctrl, base = _CONTROLLED[kind]
    u = _ry(theta) if base == "ry" else _FIXED["x"]
    m = np.eye(2 << n_ctrl, dtype=complex)
    m[-2:, -2:] = u
    return m


def embed(matrix: np.ndarray, qubits, n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n operator of a gate on the listed qubits (qubit k = bit k)."""
    idx = np.arange(1 << n_qubits)
    k = len(qubits)
    local = np.zeros_like(idx)
    mask = 0
    for j, q in enumerate(qubits):
        local |= ((idx >> q) & 1) << (k - 1 - j)
        mask |= 1 << q
    rest = idx & ~mask
    return matrix[local[:, None], local[None, :]] * (rest[:, None] == rest[None, :])


def unitary(n_qubits: int, ops) -> np.ndarray:
    """Product of embedded gate operators; ops are (kind, qubits, theta)."""
    u = np.eye(1 << n_qubits, dtype=complex)
    for kind, qubits, theta in ops:
        u = embed(gate_matrix(kind, theta), qubits, n_qubits) @ u
    return u


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, atol: float = 1e-10) -> bool:
    overlap = np.vdot(a.reshape(-1), b.reshape(-1))
    if abs(overlap) < 1e-12:
        return False
    return bool(np.allclose(a * (overlap / abs(overlap)), b, atol=atol, rtol=0.0))


def coupling_violations(ops) -> int:
    """CNOTs whose physical pair, under the default assignment, is no edge."""
    bad = 0
    for kind, qubits, _ in ops:
        if kind == "cx":
            a, b = sorted(WIRE_TO_PHYSICAL[q] for q in qubits)
            bad += (a, b) not in COUPLING
    return bad


def experiment_readout(x_tilde, x0, x1) -> tuple[float, float]:
    """(p_acc, p_class0) of the two-point experiment: p_acc = sum_m |x + x_m|^2
    / 8 and the class weights |x + x_m|^2, with x0 labelled class 0."""
    w0 = float(np.sum((x_tilde + x0) ** 2))
    w1 = float(np.sum((x_tilde + x1) ** 2))
    return (w0 + w1) / 8, w0 / (w0 + w1)


def marginals(probs: np.ndarray) -> tuple[float, float]:
    """(p_acc, p_class0) read from final probabilities of the experiment."""
    idx = np.arange(probs.size)
    keep = ((idx >> ANCILLA_WIRE) & 1) == 0
    p_acc = float(probs[keep].sum())
    zero = keep & (((idx >> CLASS_WIRE_AFTER_SWAP) & 1) == 0)
    return p_acc, float(probs[zero].sum()) / p_acc


# ---------------------------------------------------------------------------
# wide and stats


def wilson(successes: int, shots: int, z: float) -> tuple[float, float]:
    """Wilson score interval as (centre, half-width)."""
    p = successes / shots
    damp = 1.0 + z * z / shots
    centre = (p + z * z / (2 * shots)) / damp
    half = (z / damp) * math.sqrt(p * (1 - p) / shots + z * z / (4 * shots * shots))
    return centre, half


def inside_wilson(true_p: float, successes: int, shots: int, z: float) -> bool:
    centre, half = wilson(successes, shots, z)
    return abs(true_p - centre) <= half
