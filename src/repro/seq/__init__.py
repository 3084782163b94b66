"""SEQ — the sequential permission machine and behavioral refinement."""

from .labels import (
    AcqFenceLabel,
    AcqReadLabel,
    ChooseLabel,
    RelFenceLabel,
    RelWriteLabel,
    RlxReadLabel,
    RlxWriteLabel,
    SeqLabel,
    SyscallLabel,
    is_acquire,
    label_leq,
    strip,
    trace_leq,
)
from .machine import (
    SeqConfig,
    SeqSpace,
    SeqUniverse,
    SeqUnsupportedError,
    seq_steps,
    universe_for,
)
from .behavior import (
    Behavior,
    Bot,
    Prt,
    Trm,
    behavior_leq,
    enumerate_behaviors,
    iter_initial_configs,
    result_of,
)
from .oracle import OracleDefaults, TraceOracle, default_oracle_family
from .certificate import (
    Certificate,
    CertificateError,
    produce_certificate,
    verify_certificate,
)
from .simulation import (
    SimulationResult,
    check_simulation,
    if_compose,
    seq_compose,
    while_compose,
)
from .refinement import (
    Counterexample,
    Limits,
    TransformationVerdict,
    Verdict,
    check_advanced_refinement,
    check_simple_refinement,
    check_transformation,
)

__all__ = [
    "AcqFenceLabel", "AcqReadLabel", "ChooseLabel", "RelFenceLabel",
    "RelWriteLabel", "RlxReadLabel", "RlxWriteLabel", "SeqLabel",
    "SyscallLabel", "is_acquire", "label_leq", "strip", "trace_leq",
    "SeqConfig", "SeqSpace", "SeqUniverse", "SeqUnsupportedError",
    "seq_steps",
    "universe_for",
    "Behavior", "Bot", "Prt", "Trm", "behavior_leq", "enumerate_behaviors",
    "iter_initial_configs", "result_of",
    "OracleDefaults", "TraceOracle", "default_oracle_family",
    "Counterexample", "Limits", "TransformationVerdict", "Verdict",
    "check_advanced_refinement", "check_simple_refinement",
    "check_transformation",
    "SimulationResult", "check_simulation", "if_compose", "seq_compose",
    "while_compose",
    "Certificate", "CertificateError", "produce_certificate",
    "verify_certificate",
]
