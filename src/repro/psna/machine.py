"""Machine states and machine steps of PS^na (Fig 5, bottom right).

A machine state maps thread identifiers to thread states and holds the
shared memory.  ``machine: normal`` steps require *certification*: after
taking its steps, the thread must be able to fulfill all its outstanding
promises by running alone.  ``machine: failure`` propagates a thread's ⊥.

This implementation takes machine steps at single-thread-step granularity
with certification after each step, which generates the same reachable
configurations as the paper's multi-step rule: any multi-step sequence
splits into single steps, and the certification run of an intermediate
state can replay the remaining steps of the sequence.

Timestamps are dense per-location ranks (:mod:`repro.psna.view`), so
every reachable state is already the canonical representative of its
timestamp-renaming class: exploration deduplicates states as values.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterator, Optional

from .. import obs
from ..lang.ast import Stmt, walk
from ..lang.ast import Rmw as RmwStmt
from ..lang.ast import Store as StoreStmt
from ..lang.interp import WhileThread
from ..lang.itree import FenceAction, SyscallAction, ThreadState
from ..lang.events import FenceKind
from ..lang.values import Value
from .certstore import CertStore, cert_digest, config_fingerprint
from .memory import AnyMessage, Memory, NAMessage
from .thread import PsConfig, ThreadLts, thread_steps
from .view import Time, View


@dataclass(frozen=True)
class MachineState:
    """``⟨T, M⟩`` plus the SC-fence view and the observable syscall trace."""

    threads: tuple[ThreadLts, ...]
    memory: Memory
    sc_view: View = View()
    syscalls: tuple[tuple[str, Value], ...] = ()
    bottom: bool = False

    def all_terminated(self) -> bool:
        return all(thread.is_terminated() for thread in self.threads)

    def return_values(self) -> tuple[Value, ...]:
        return tuple(thread.return_value() for thread in self.threads)

    def evolve(self, **changes) -> "MachineState":
        """``dataclasses.replace`` without the per-call field
        introspection (see :meth:`ThreadLts.evolve`)."""
        return MachineState(
            changes.get("threads", self.threads),
            changes.get("memory", self.memory),
            changes.get("sc_view", self.sc_view),
            changes.get("syscalls", self.syscalls),
            changes.get("bottom", self.bottom))

    def shift(self, loc: str, k: Time) -> "MachineState":
        """Every thread and the SC view renumbered for an insertion at
        ``loc@k`` (the memory is renumbered by :meth:`Memory.insert`)."""
        return self.evolve(
            threads=tuple(thread.shift(loc, k) for thread in self.threads),
            sc_view=self.sc_view.shift(loc, k))


def written_locations(program: Stmt) -> tuple[str, ...]:
    """Locations a program may write — the promise candidates for it."""
    locs = set()
    for node in walk(program):
        if isinstance(node, (StoreStmt, RmwStmt)):
            locs.add(node.loc)
    return tuple(sorted(locs))


def initial_state(programs: list[Stmt | ThreadState],
                  config: PsConfig,
                  locations: Optional[set[str]] = None) -> MachineState:
    """The initial machine state: zero views, initialization messages."""
    threads = []
    locs: set[str] = set(locations or set())
    for program in programs:
        if isinstance(program, Stmt):
            from ..lang.ast import shared_locations

            locs |= shared_locations(program)
            promise_locs = written_locations(program)
            state: ThreadState = WhileThread.start(program)
        else:
            promise_locs = ()
            state = program
        threads.append(ThreadLts(
            program=state,
            promise_budget=config.promise_budget,
            promise_locs=promise_locs if config.allow_promises else ()))
    return MachineState(tuple(threads), Memory.initial(locs))


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------


class CertCache:
    """Per-exploration memoization of :func:`certifiable` outcomes.

    Keyed on the ``(thread, memory.messages)`` pair itself
    (:func:`intern_cert`): with dense timestamps every pair is already
    canonical, so candidate successors that reach the same pair by
    different insertions share one certification search.  Entries are
    never evicted: ``ThreadLts`` and ``Memory`` are immutable, and
    certification is a pure function of the pair for a fixed
    :class:`PsConfig` — the in-memory cache is therefore only valid for
    the single exploration (single config) that owns it.

    ``store`` optionally backs the cache with the persistent cross-run
    verdict store (:class:`repro.psna.certstore.CertStore`).  A store
    hit is accounted as an in-memory *miss* (the miss happened; the
    search was skipped), so ``hits``/``misses`` — and everything
    derived from them, like ``--graph-stats`` output — are identical
    with a cold store, a warm store, or no store at all.
    """

    __slots__ = ("entries", "steps", "hits", "misses", "monitor", "store",
                 "fingerprint")

    def __init__(self, store: Optional[CertStore] = None) -> None:
        self.entries: dict[object, bool] = {}
        #: Cross-search memo of certification successor expansions:
        #: ``(thread, memory.messages) -> ((thread', memory'), ...)``.
        #: Distinct certification searches launched from neighbouring
        #: machine states revisit largely the same thread-local frontier
        #: (~4x redundancy on the litmus catalog); successor sets are a
        #: pure function of the pair under the fixed certifying config,
        #: so they are shared for the lifetime of the exploration.
        self.steps: dict = {}
        self.hits = 0
        self.misses = 0
        #: Optional :class:`repro.obs.monitor.MonitorProbe`: when set,
        #: a sampled fraction of in-memory and store hits is re-certified
        #: uncached and compared against the memoized verdict.
        self.monitor = None
        self.store = store
        self.fingerprint: Optional[str] = None  # lazily, from the config

    def digest(self, thread: ThreadLts, memory: Memory,
               config: PsConfig) -> Optional[str]:
        """The persistent-store digest for a pair (``None`` when the
        pair has no stable cross-process encoding)."""
        if self.fingerprint is None:
            self.fingerprint = config_fingerprint(config)
        return cert_digest(certification_key(thread, memory),
                           self.fingerprint)


@lru_cache(maxsize=64)
def _certifying(config: PsConfig) -> PsConfig:
    """The config certification runs under: built once per config."""
    return replace(config, certifying=True,
                   allow_promises=config.cert_promises
                   and config.allow_promises)


def certifiable(thread: ThreadLts, memory: Memory, config: PsConfig,
                cache: Optional[CertCache] = None) -> bool:
    """Can the thread, running alone, fulfill all its promises?

    Searches thread-local runs for a state with an empty promise set.
    Promise steps during certification follow ``config.cert_promises``
    (off by default; see DESIGN.md).

    ``cache`` is an optional :class:`CertCache` owned by the exploration
    run driving this check; see its docstring for the memoization
    contract.  Cache hits still fire the ``rule.psna.cert.*`` coverage
    counters (the side-condition *was* resolved), but not
    ``psna.cert.attempts``/``psna.cert.states``, which count actual
    search work.
    """
    if not thread.promises:
        return True
    key: object = None
    store = None
    digest = None
    if cache is not None:
        key = intern_cert(thread, memory)
        cached = cache.entries.get(key)
        if cached is not None:
            cache.hits += 1
            if cache.monitor is not None:
                cache.monitor.cert_hit(thread, memory, cached)
            registry = obs.metrics()
            if registry is not None:
                registry.inc("rule.psna.cert.success" if cached
                             else "rule.psna.cert.failure")
            return cached
        cache.misses += 1
        store = cache.store
        if store is not None:
            digest = cache.digest(thread, memory, config)
            if digest is not None:
                cached = store.get(digest)
                registry = obs.metrics()
                if cached is not None:
                    # A disk hit: adopt the verdict into the in-memory
                    # cache (so later lookups count as ordinary hits,
                    # exactly as after a cold search) and skip the search.
                    cache.entries[key] = cached
                    if cache.monitor is not None:
                        cache.monitor.store_hit(thread, memory, cached)
                    if registry is not None:
                        registry.inc("psna.cert.store_hits")
                        registry.inc("rule.psna.cert.success" if cached
                                     else "rule.psna.cert.failure")
                    return cached
                if registry is not None:
                    registry.inc("psna.cert.store_misses")
    cert_config = _certifying(config)
    seen: set = set()
    stack: list[tuple[ThreadLts, Memory, int]] = [
        (thread, memory, config.cert_depth)]
    certified = False
    steps_memo = cache.steps if cache is not None else None
    with obs.span("psna.cert"):
        while stack:
            current, mem, depth = stack.pop()
            if not current.promises:
                certified = True
                break
            if depth == 0 or current.is_bottom() or current.is_terminated():
                continue
            seen_key = (current, mem.messages)
            if seen_key in seen:
                continue
            seen.add(seen_key)
            if steps_memo is not None:
                succ = steps_memo.get(seen_key)
                if succ is None:
                    succ = tuple(
                        (step.thread, step.memory)
                        for step in thread_steps(current, mem, cert_config)
                        if not step.thread.is_bottom())  # UB does not certify
                    steps_memo[seen_key] = succ
                for nxt, nxt_mem in succ:
                    stack.append((nxt, nxt_mem, depth - 1))
            else:
                for step in thread_steps(current, mem, cert_config):
                    if step.thread.is_bottom():
                        continue  # UB does not certify
                    stack.append((step.thread, step.memory, depth - 1))
    if cache is not None:
        cache.entries[key] = certified
        if store is not None and digest is not None \
                and store.put(digest, certified):
            registry = obs.metrics()
            if registry is not None:
                registry.inc("psna.cert.store_writes")
    registry = obs.metrics()
    if registry is not None:
        registry.inc("psna.cert.attempts")
        registry.inc("psna.cert.states", len(seen))
        registry.inc("rule.psna.cert.success" if certified
                     else "rule.psna.cert.failure")
        if not certified:
            registry.inc("psna.cert.failures")
    return certified


# ---------------------------------------------------------------------------
# Machine steps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MachineStepInfo:
    """One machine step annotated for inspection and witness explanation.

    ``tag`` is the thread-level rule that fired (the :class:`ThreadStep`
    tag), or ``"sc-fence"`` / ``"machine-failure"`` for the two
    machine-level rules without a thread-step counterpart.  For failure
    steps ``cause`` names the thread rule that reached ⊥ (typically a
    ``racy-*`` access).  ``shifts`` are the step's timestamp
    renumberings (:attr:`ThreadStep.shifts`): the predecessor, shifted
    by them, is directly comparable with ``state``.
    """

    thread: int
    tag: str
    state: MachineState
    cause: Optional[str] = None
    shifts: tuple[tuple[str, Time], ...] = ()


#: Machine-level rule IDs (``psna.machine.*`` / ``psna.cert.*``) for the
#: semantic-coverage layer.
MACHINE_RULE_TAGS: tuple[str, ...] = (
    "normal", "failure", "sc-fence")

#: Certification outcomes (``psna.cert.*``) — the two ways the
#: ``machine: normal`` side-condition can resolve.
CERT_RULE_TAGS: tuple[str, ...] = ("success", "failure")


def machine_steps(state: MachineState, config: PsConfig,
                  cert_cache: Optional[CertCache] = None,
                  ) -> Iterator[MachineState]:
    """Enumerate certified machine steps and failure steps."""
    for info in labeled_machine_steps(state, config, cert_cache):
        yield info.state


def labeled_machine_steps(state: MachineState, config: PsConfig,
                          cert_cache: Optional[CertCache] = None,
                          ) -> Iterator[MachineStepInfo]:
    """Like :func:`machine_steps`, but each successor carries the index of
    the thread that stepped and the rule tag that fired — the raw material
    of witness timelines (:mod:`repro.obs.explain`).

    ``cert_cache`` memoizes the ``machine: normal`` certification
    side-condition across the run that owns it (see :class:`CertCache`).

    When an observability session is active, the machine-level rules
    (``machine: normal``, ``machine: failure``, SC fences) count into
    ``rule.psna.machine.*`` counters.
    """
    if state.bottom:
        return
    registry = obs.metrics()
    for index, thread in enumerate(state.threads):
        action = thread.program.peek()
        if isinstance(action, FenceAction) and action.kind is FenceKind.SC:
            # SC fences need the machine's global view.
            view = thread.view.join(state.sc_view)
            updated = thread.evolve(program=thread.program.resume(None),
                              view=view)
            if registry is not None:
                registry.inc("rule.psna.machine.sc-fence")
            yield MachineStepInfo(
                index, "sc-fence",
                state.evolve(
                        threads=_set(state.threads, index, updated),
                        sc_view=view))
            continue
        for step in thread_steps(thread, state.memory, config):
            if step.thread.is_bottom():
                if registry is not None:
                    registry.inc("rule.psna.machine.failure")
                yield MachineStepInfo(
                    index, "machine-failure",
                    state.evolve(bottom=True),
                    cause=step.tag)  # machine: failure
                continue
            if not certifiable(step.thread, step.memory, config, cert_cache):
                continue  # machine: normal requires certification
            syscalls = state.syscalls
            if isinstance(action, SyscallAction) and step.tag == "syscall":
                syscalls = syscalls + ((action.name, action.value),)
            if registry is not None:
                registry.inc("rule.psna.machine.normal")
            moved = state
            for loc, k in step.shifts:
                moved = moved.shift(loc, k)
            yield MachineStepInfo(
                index, step.tag,
                moved.evolve(
                        threads=_set(moved.threads, index, step.thread),
                        memory=step.memory,
                        syscalls=syscalls),
                shifts=step.shifts)


def _set(threads: tuple[ThreadLts, ...], index: int,
         thread: ThreadLts) -> tuple[ThreadLts, ...]:
    return threads[:index] + (thread,) + threads[index + 1:]


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def intern_state(state: MachineState):
    """The explorer's dedup key: the state itself (dense timestamps make
    it canonical), and one key for every ⊥ state with the same trace."""
    return ("⊥", state.syscalls) if state.bottom else state


def intern_cert(thread: ThreadLts, memory: Memory):
    """The :class:`CertCache` key of a certification pair."""
    return (thread, memory.messages)


def _value_key(value: Value):
    """A hashable, totally-ordered encoding of a value (no ``repr``)."""
    if isinstance(value, int):
        return (0, value)
    return (1, 0)  # undef — the only non-int value


def _view_key(view: Optional[View]):
    if view is None:
        return ("bot",)
    return ("view",) + view.items


def _message_key(message: AnyMessage):
    if isinstance(message, NAMessage):
        return ("na", message.loc, message.ts)
    attach = -1 if message.attach is None else message.attach
    return ("msg", message.loc, message.ts, _value_key(message.value),
            _view_key(message.view), attach)


def _thread_key(thread: ThreadLts):
    return (thread.program, _view_key(thread.view),
            tuple(sorted(_message_key(m) for m in thread.promises)),
            _view_key(thread.acq_pending), _view_key(thread.rel_view),
            tuple((loc, _view_key(view))
                  for loc, view in thread.rel_views.items),
            thread.promise_budget)


def _memory_key(memory: Memory):
    return tuple(sorted(_message_key(m) for m in memory.messages))


def certification_key(thread: ThreadLts, memory: Memory):
    """The structural form of a certification pair — what the persistent
    store digests (:func:`repro.psna.certstore.cert_digest`).

    A timestamp's rank is the timestamp itself.  ``promise_locs`` is
    included because promise steps (``config.cert_promises``) depend on
    it.
    """
    return (_thread_key(thread), thread.promise_locs, _memory_key(memory))


def canonical_key(state: MachineState):
    """The structural form of a state: plain tuples, strings and ints.

    Equal exactly when the states are equal as dedup keys
    (:func:`intern_state`); the explainer and the property tests use it.
    """
    if state.bottom:
        return ("⊥", state.syscalls)
    return (tuple(_thread_key(thread) for thread in state.threads),
            _memory_key(state.memory), _view_key(state.sc_view),
            state.syscalls)
