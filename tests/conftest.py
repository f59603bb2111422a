import pytest

from qic import circuit
from qic import statevector as sv

pytest_plugins = ["pytester"]


@pytest.fixture
def faulted_toffoli(monkeypatch):
    """Swap each T of the Toffoli expansion for a T-dagger. Returns the names of
    the verify_decompositions checks that must fail: ccx, ccry (which expands
    through ccx) and the experiment circuit's final state (which holds both)."""
    exact = circuit._decompose_ccx

    def faulted(*qubits):
        return [sv.tdg(op.qubits[0]) if op.kind == "t" else op for op in exact(*qubits)]

    monkeypatch.setattr(circuit, "_decompose_ccx", faulted)
    return [
        "ccx decomposition (16 gates)",
        "ccry decomposition (40 gates, 50 random angles)",
        "composed vs decomposed final state",
    ]
