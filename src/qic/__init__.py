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
    RegisterLayout,
    TrainingSet,
    classical_classify,
    classify,
    interfere_and_read,
    interfere_and_sample,
    kernel,
    prepare_state,
)
from .data import (
    BenchmarkOptions,
    BenchmarkReport,
    circles,
    iris,
    run_benchmark,
    run_table2,
    split,
)
from .dataset import LabeledDataset
from .encoding import (
    Pipeline,
    PipelineOptions,
    normalize,
    pad_to_power_of_two,
    pipeline,
    standardize,
    tensor_copy_map,
)
from .qasm import export_qasm, parse_qasm
from .statevector import (
    GateOp,
    QuantumState,
    apply_gate,
    circuit_unitary,
    postselect,
    qubit_probabilities,
    sample_shots,
    simulate,
    zero_state,
)
from .stats import (
    IntervalEstimate,
    shots_for_error,
    wald,
    wald_worst_case,
    wilson,
    wilson_worst_case,
)
