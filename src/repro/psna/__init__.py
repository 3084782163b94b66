"""PS^na — the promising semantics with non-atomics (§5) and baselines."""

from .view import BOT, Time, View, ZERO, join_opt, view_leq_opt
from .memory import AnyMessage, Memory, Message, NAMessage
from .semantics import SEMANTICS_VERSION
from .certstore import CertStore, cert_digest, config_fingerprint
from .thread import (
    PsConfig,
    ThreadLts,
    ThreadStep,
    is_racy,
    thread_steps,
)
from .machine import (
    CertCache,
    MachineState,
    PsSpace,
    canonical_key,
    certifiable,
    certification_key,
    initial_state,
    intern_cert,
    intern_state,
    machine_steps,
    written_locations,
)
from .explore import (
    Exploration,
    PsBehavior,
    PsBottom,
    PsResult,
    behavior_leq,
    explore,
)
from .refinement import PsVerdict, check_psna_refinement
from .drf import ScExploration, explore_sc, promise_free_config

__all__ = [
    "BOT", "Time", "View", "ZERO", "join_opt", "view_leq_opt",
    "AnyMessage", "Memory", "Message", "NAMessage",
    "SEMANTICS_VERSION",
    "CertStore", "cert_digest", "config_fingerprint",
    "PsConfig", "ThreadLts", "ThreadStep", "is_racy", "thread_steps",
    "CertCache", "MachineState", "PsSpace", "canonical_key",
    "certifiable", "certification_key", "initial_state", "intern_cert",
    "intern_state", "machine_steps", "written_locations",
    "Exploration", "PsBehavior", "PsBottom", "PsResult", "behavior_leq",
    "explore",
    "PsVerdict", "check_psna_refinement",
    "ScExploration", "explore_sc", "promise_free_config",
]
