"""Spans and counts recorded from outside the program.

The tracer replaces every binding of each traced public function in the
loaded ``qic`` modules with a wrapper, so a call is recorded whichever
module it was reached through (``qic.data.prepare_state`` and
``qic.classifier.prepare_state`` are one function). Spans are kept in memory
as (name, start, end, parent, op id) and written out when the run ends.

The counts are computed from array sizes at the layer boundaries, not
measured: ``bytes_moved`` assumes each gate reads and writes every complex128
amplitude once.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path

AMP_BYTES = 16  # complex128


def _amplitudes(state) -> int:
    return 1 << state.n_qubits


def _encoding(c, args, out):
    c["encoding.rows"] += args[1].n_samples
    c["encoding.width_out"] += out.n_features


def _prepare(c, args, out):
    c["classifier.amplitudes"] += _amplitudes(out)


def _sample(c, args, out):
    c["classifier.accepted"] += out.accepted
    c["classifier.shots"] += out.shots


def _apply_gate(c, args, out):
    c["statevector.bytes_moved"] += 2 * AMP_BYTES * _amplitudes(out)


def _postselect(c, args, out):
    c["statevector.bytes_moved"] += 2 * AMP_BYTES * _amplitudes(out[0])


def _marginal(c, args, out):
    c["statevector.bytes_moved"] += AMP_BYTES * _amplitudes(args[0])


def _unitary(c, args, out):
    circ = args[0]
    columns = len(circ.ops) << circ.n_qubits
    c["statevector.unitary_columns"] += columns
    c["statevector.bytes_moved"] += 2 * AMP_BYTES * (columns << circ.n_qubits)


def _simulate(c, args, out):
    c["statevector.bytes_moved"] += 2 * AMP_BYTES * len(args[0].ops) * _amplitudes(out)


def _decompose(c, args, out):
    c["circuit.gates_out"] += len(out)


def _validate(c, args, out):
    c["circuit.violations"] += len(out)


def _export(c, args, out):
    c["qasm.bytes"] += len(out.encode())


# traced function -> count hook, called as hook(counts, args, result)
TRACED = {
    "cli.main": None,
    "data.split": None,
    "data.run_benchmark": None,
    "encoding.Pipeline.fit_transform": _encoding,
    "encoding.Pipeline.transform": _encoding,
    "classifier.prepare_state": _prepare,
    "classifier.interfere_and_read": None,
    "classifier.interfere_and_sample": _sample,
    "statevector.apply_gate": _apply_gate,
    "statevector.postselect": _postselect,
    "statevector.qubit_probabilities": _marginal,
    "statevector.circuit_unitary": _unitary,
    "statevector.simulate": _simulate,
    "stats.wilson": None,
    "circuit.build_experiment_circuit": None,
    "circuit.decompose": _decompose,
    "circuit.validate_connectivity": _validate,
    "qasm.export_qasm": _export,
    "qasm.parse_qasm": None,
}
LAYERS = ("data", "encoding", "classifier", "statevector", "circuit", "qasm", "stats", "cli")
# computed counts and their units
COUNTS = {
    "encoding.rows": "count",
    "encoding.width_out": "count",
    "classifier.amplitudes": "count",
    "classifier.impossible_branch": "count",
    "classifier.accept_ratio": "ratio",
    "statevector.unitary_columns": "count",
    "statevector.bytes_moved": "B",
    "circuit.gates_out": "count",
    "circuit.violations": "count",
    "qasm.bytes": "B",
}


def _resolve(name: str):
    """(owner object, attribute) of a traced name such as
    'encoding.Pipeline.fit_transform'."""
    module, *path = name.split(".")
    owner = sys.modules[f"qic.{module}"]
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


class Tracer:
    """Wraps the traced functions while installed; one instance per run."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        from qic.errors import ImpossibleBranchError

        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except ImpossibleBranchError:
                counts["classifier.impossible_branch"] += name == "classifier.interfere_and_read"
                raise
            finally:
                spans[idx] = (name, start, time.perf_counter(), parent, self.op_id)
                stack.pop()
            if hook is not None:
                hook(counts, args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every module attribute and class attribute that holds a
        traced function to its wrapper."""
        originals = {}
        for name, hook in TRACED.items():
            owner, attr = _resolve(name)
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn, hook)
            originals[id(fn)] = wrapper
            self._rebind(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "qic" and not modname.startswith("qic."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and getattr(module, attr) is not wrapper:
                    self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def report(self, wall_s: float, ops: int) -> dict[str, tuple[float, str]]:
        """Per-function calls and self time, per-layer self time, the
        computed counts, and the share of wall time outside any span."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent, _ in self.spans:
            if parent < 0:
                top += end - start
            else:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]

        out: dict[str, tuple[float, str]] = {}
        for name in TRACED:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
            out[f"layer.{layer}.self_s"] = (total, "s")
        c = self.counts
        shots = c["classifier.shots"]
        c["classifier.accept_ratio"] = c["classifier.accepted"] / shots if shots else 0.0
        for name, unit in COUNTS.items():
            out[name] = (c[name], unit)
        out["trace.ops"] = (ops, "count")
        out["trace.spans"] = (len(self.spans), "count")
        out["trace.outside_share"] = ((wall_s - top) / wall_s if wall_s else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        names = list(TRACED)
        index = {n: i for i, n in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "fields": ["name", "start_s", "end_s", "parent", "op"],
                "names": names,
                "spans": [[index[n], round(s, 7), round(e, 7), p, op]
                          for n, s, e, p, op in self.spans],
            }, fh, separators=(",", ":"))
