"""Networked linear systems: structure checks, composition, and control.

The package models discrete-time state-space systems whose nodes sit on
a directed graph.  A realization is compatible with the graph when every
coupling block lives on an edge and the input/output channels stay
local; compatibility is what lets each node run its own slice of the
dynamics.  On top of that sit certified witnesses (compatibility plus
stabilizability/detectability rank tests), closure of the compatible
family under sum, series, inversion, and feedback, internal-model
controllers, and simulators that respect the communication structure.
"""

from .algebra import add, invert, multiply, node_major_indices
from .demos import packaged_system, run_demo_remark1, run_demo_river
from .errors import (
    InputError,
    InversionError,
    NetRealError,
    NumericalError,
    PoleError,
    StabilityWarning,
)
from .graphs import NetworkGraph, NodeDims, build_graph
from .imc import ideal_maps, imc_controller, simulate_imc_loop
from .loops import ClosedLoop, IdentityReport, close_loop, q_param, verify_identities
from .realization import (
    BlockRealization,
    CertificationResult,
    CompatibilityReport,
    DMode,
    OffendingMode,
    PbhReport,
    PbhTestResult,
    TransferComparison,
    Violation,
    certify_witness,
    check_compatibility,
    eval_transfer,
    pbh_detectable,
    pbh_stabilizable,
    scaled_deviation,
    spectral_radius,
    transfer_equal,
)
from .sim import (
    SignalTrajectory,
    simulate_distributed,
    simulate_lti,
)
from .sysio import (
    Report,
    Stage,
    read_system,
    read_trajectory,
    system_from_obj,
    system_to_obj,
    write_system,
    write_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "BlockRealization",
    "CertificationResult",
    "ClosedLoop",
    "CompatibilityReport",
    "DMode",
    "IdentityReport",
    "InputError",
    "InversionError",
    "NetRealError",
    "NetworkGraph",
    "NodeDims",
    "NumericalError",
    "OffendingMode",
    "PbhReport",
    "PbhTestResult",
    "PoleError",
    "Report",
    "SignalTrajectory",
    "StabilityWarning",
    "Stage",
    "TransferComparison",
    "Violation",
    "add",
    "build_graph",
    "certify_witness",
    "check_compatibility",
    "close_loop",
    "eval_transfer",
    "ideal_maps",
    "imc_controller",
    "invert",
    "multiply",
    "node_major_indices",
    "packaged_system",
    "pbh_detectable",
    "pbh_stabilizable",
    "q_param",
    "read_system",
    "read_trajectory",
    "run_demo_remark1",
    "run_demo_river",
    "scaled_deviation",
    "simulate_distributed",
    "simulate_imc_loop",
    "simulate_lti",
    "spectral_radius",
    "system_from_obj",
    "system_to_obj",
    "transfer_equal",
    "verify_identities",
    "write_system",
    "write_trajectory",
]
