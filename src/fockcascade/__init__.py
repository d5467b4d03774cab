"""Linear-optical networks on multimode Fock states.

States are polynomials in creation operators applied to vacuum.  The package
simulates unitary mode mixing, photon-number-resolving measurement cascades
with conditioning, and verifies numerically that auxiliary photons cannot
improve complete distinguishability of orthogonal photon-number states.
"""

from .errors import (
    FockCascadeError,
    PhotonCapError,
    RegistryMismatchError,
    SchemaError,
    StrategyError,
    UnitarityViolation,
    ZeroStateError,
)
from .modes import ModeRegistry
from .poly import (
    CreationPolynomial,
    contract_annihilators,
    normal_order_pair,
    vacuum_inner_product,
    vacuum_norm_sq,
)
from .network import (
    LinearNetwork,
    beam_splitter,
    compose,
    from_matrix,
    haar_random_unitary,
    identity,
    phase_shifter,
    random_network,
    substitute,
)
from .measurement import (
    CascadeStage,
    ConditionalState,
    ModeExpansion,
    OutcomeNode,
    condition,
    expand_by_mode,
    outcome_distribution,
    run_cascade,
    validate_strategy,
)
from .instancefile import network_from_dict, strategy_from_dict
from .fockdense import (
    FockBasis,
    apply_network_dense,
    embed,
    fock_unitary,
    project_outcome_dense,
)
from .nogo import (
    NoGoReport,
    OverlapTransfer,
    aux_transfer_tables,
    coefficient_overlap_vector,
    conditional_overlap_vector,
    overlap_component,
    overlap_component_recursive,
    system_expansions,
    transfer_matrix,
    verify_no_go,
)
from .discriminate import (
    CascadeReport,
    DiscriminationInstance,
    ProbeReport,
    StageReport,
    cascade_discrimination,
    necessity_probe,
    stage_orthogonality,
)
from .sampling import NoGoInstance, random_homogeneous_state, random_nogo_instance
from .suites import run_nogo_suite, run_oracle_suite

__version__ = "0.1.0"

__all__ = [
    "CascadeReport",
    "CascadeStage",
    "ConditionalState",
    "CreationPolynomial",
    "DiscriminationInstance",
    "FockBasis",
    "FockCascadeError",
    "LinearNetwork",
    "ModeExpansion",
    "ModeRegistry",
    "NoGoInstance",
    "NoGoReport",
    "OutcomeNode",
    "OverlapTransfer",
    "PhotonCapError",
    "ProbeReport",
    "RegistryMismatchError",
    "SchemaError",
    "StageReport",
    "StrategyError",
    "UnitarityViolation",
    "ZeroStateError",
    "apply_network_dense",
    "aux_transfer_tables",
    "beam_splitter",
    "cascade_discrimination",
    "coefficient_overlap_vector",
    "compose",
    "condition",
    "conditional_overlap_vector",
    "contract_annihilators",
    "embed",
    "expand_by_mode",
    "fock_unitary",
    "from_matrix",
    "haar_random_unitary",
    "identity",
    "necessity_probe",
    "network_from_dict",
    "normal_order_pair",
    "outcome_distribution",
    "overlap_component",
    "overlap_component_recursive",
    "phase_shifter",
    "project_outcome_dense",
    "random_homogeneous_state",
    "random_network",
    "random_nogo_instance",
    "run_cascade",
    "run_nogo_suite",
    "run_oracle_suite",
    "stage_orthogonality",
    "strategy_from_dict",
    "substitute",
    "system_expansions",
    "transfer_matrix",
    "vacuum_inner_product",
    "vacuum_norm_sq",
    "validate_strategy",
    "verify_no_go",
]
