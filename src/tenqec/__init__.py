"""Stabilizer codes from contracted code tensors, with exact decoding."""

from .decoder import (
    DecodeResult,
    LikelihoodTable,
    Likelihoods,
    NoiseModel,
    OpCounter,
    decode,
    leaf_probabilities,
    likelihoods_network,
)
from .harness import (
    McPoint,
    ThresholdFit,
    crossing_point,
    fit_threshold,
    read_points,
    run_mc,
    run_point,
    write_points,
)
from .holographic import (
    HolographicLayout,
    LayoutNode,
    build_layout,
    chain_layout,
    predicted_op_count,
    schedule_for,
)
from .oracle import (
    DuplicateEntryError,
    ExhaustiveDecoder,
    exhaustive_contract,
    exhaustive_failure_rate,
)
from .pauli import PauliString
from .stabilizer import (
    DependentGeneratorsError,
    StabilizerCode,
    Syndrome,
    code_to_json_dict,
    six_qubit_code,
    seven_qubit_state,
    solve_pure_errors,
)
from .tensor import (
    CodeTensor,
    ContractionPreconditionError,
    LegBinding,
    class_labels,
    contract,
)

__version__ = "0.1.0"
