"""Statevector simulator with an amplitude-encoded interference classifier,
gate decomposition to a restricted hardware set, shot statistics, and a
benchmark harness."""

__version__ = "0.1.0"

from .circuit import (
    Circuit,
    ConnectivityGraph,
    QubitAssignment,
    build_experiment_circuit,
    decompose,
    default_assignment,
    ibmq5_connectivity,
    validate_connectivity,
    verify_decompositions,
    with_interference,
)
from .classifier import (
    ClassificationOutcome,
    TrainingSet,
    classify,
    interfere_and_read,
    interfere_and_sample,
    prepare_state,
)
from .data import (
    BenchmarkReport,
    circles,
    iris,
    run_benchmark,
    run_table2,
    split,
)
from .dataset import LabeledDataset
from .encoding import Pipeline, normalize
from .qasm import export_qasm, parse_qasm
from .statevector import (
    GateOp,
    QuantumState,
    apply_gate,
    circuit_unitary,
    postselect,
    qubit_probabilities,
    simulate,
    zero_state,
)
from .stats import (
    IntervalEstimate,
    shots_for_error,
    wald_worst_case,
    wilson,
    wilson_worst_case,
)
