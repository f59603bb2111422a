"""The benchmark's traced run (``qicbench/run.py --trace 1``) rebinds qic
functions by name and reads attributes off their arguments and results: a
dataset's rows, len() of the connectivity violations, a prepared state's
n_qubits and a sampled outcome's accepted count. A refactor that renames a
traced function or changes one of those fails here rather than only in the
traced benchmark run."""

from pathlib import Path

import pytest

import qic
from qic import cli

ROOT = Path(__file__).resolve().parents[1]


def test_traced_table2_run_reaches_every_data_and_encoding_hook(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from qicbench.trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(["reproduce", "--table", "2", "--reps", "2", "--seed", "7",
                       "-o", str(tmp_path / "table2.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.counts["encoding.rows"] > 0
    called = {span[0] for span in tracer.spans}
    assert {"cli.main", "data.split", "data.run_benchmark",
            "encoding.Pipeline.fit_transform", "encoding.Pipeline.transform"} <= called


@pytest.mark.parametrize("name, spans, counts", [
    ("compile",
     {"circuit.decompose", "circuit.validate_connectivity", "qasm.export_qasm",
      "statevector.circuit_unitary", "statevector.simulate"},
     # input 1 loads a random x0 by a ccry, so 24 gates more than the 73 of x0 = (0, 1)
     {"circuit.gates_out": 97, "circuit.violations": 0}),
    ("wide",
     {"classifier.prepare_state", "classifier.interfere_and_read",
      "classifier.interfere_and_sample", "stats.wilson"},
     {"classifier.amplitudes": 1 << 20, "classifier.shots": 8192}),
], ids=["compile", "wide"])
def test_traced_op_reaches_its_hooks_and_passes_its_check(name, spans, counts, tmp_path,
                                                          monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from qicbench.trace import Tracer
    from qicbench.workloads import WORKLOADS

    workload = WORKLOADS[name](1, ROOT, tmp_path)
    workload.setup(qic, workload.inputs(0))
    inp = workload.inputs(1)
    tracer = Tracer()
    tracer.install()
    try:
        n, output = workload.op(inp)
    finally:
        tracer.uninstall()
    assert n == 1
    assert workload.check(inp, output) == 0
    assert spans <= {span[0] for span in tracer.spans}
    assert {key: tracer.counts[key] for key in counts} == counts
