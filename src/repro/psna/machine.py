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
An exploration steps them through one :class:`PsSpace`, which gives each
thread configuration and memory a dense int id and expands each pair
once.
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
from ..lang.itree import ErrAction, FenceAction, RetAction, \
    SyscallAction, ThreadState
from ..lang.events import FenceKind
from ..lang.values import Value
from .certstore import CertStore, cert_digest, config_fingerprint
from .memory import AnyMessage, Memory, NAMessage
from .thread import _RULE_COUNTERS, PsConfig, ThreadLts, \
    _thread_steps, thread_steps
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

    Keyed on the certification pair: its :class:`PsSpace` pair id when
    the exploration's space asks, else the ``(thread, memory.messages)``
    pair itself (:func:`intern_cert`).  A cache serves one space or none,
    never both.  With dense timestamps every pair is already canonical,
    so candidate successors that reach the same pair by different
    insertions share one certification search.  Entries are never
    evicted: ``ThreadLts`` and ``Memory`` are immutable, and
    certification is a pure function of the pair for a fixed
    :class:`PsConfig` — the in-memory cache is therefore only valid for
    the single exploration (single config) that owns it.  The thread
    steps a search expands are memoized by the space, not here.

    ``store`` optionally backs the cache with the persistent cross-run
    verdict store (:class:`repro.psna.certstore.CertStore`).  A store
    hit is accounted as an in-memory *miss* (the miss happened; the
    search was skipped), so ``hits``/``misses`` — and everything
    derived from them, like ``--graph-stats`` output — are identical
    with a cold store, a warm store, or no store at all.
    """

    __slots__ = ("entries", "hits", "misses", "monitor", "store",
                 "fingerprint")

    def __init__(self, store: Optional[CertStore] = None) -> None:
        self.entries: dict[object, bool] = {}
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
                cache: Optional[CertCache] = None, *,
                space: Optional["PsSpace"] = None) -> bool:
    """Can the thread, running alone, fulfill all its promises?

    Searches thread-local runs for a state with an empty promise set.
    Promise steps during certification follow ``config.cert_promises``
    (off by default; see DESIGN.md).

    ``cache`` is an optional :class:`CertCache` owned by the exploration
    run driving this check; see its docstring for the memoization
    contract.  Cache hits still fire the ``rule.psna.cert.*`` coverage
    counters (the side-condition *was* resolved), but not
    ``psna.cert.attempts``/``psna.cert.states``, which count actual
    search work.  With ``space`` (a :class:`PsSpace` under ``config``
    that has interned the pair) the cache keys on the pair's id and the
    search runs over ids; without it the search steps with
    :func:`thread_steps`.
    """
    if not thread.promises:
        return True
    pair = space.pair(thread, memory) if space is not None else None
    key: object = None
    store = None
    digest = None
    if cache is not None:
        key = intern_cert(thread, memory) if pair is None else pair
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
    with obs.span("psna.cert"):
        if space is not None:
            certified, visited = space.search(pair)
        else:
            certified, visited = _search(thread, memory, config)
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
        registry.inc("psna.cert.states", visited)
        registry.inc("rule.psna.cert.success" if certified
                     else "rule.psna.cert.failure")
        if not certified:
            registry.inc("psna.cert.failures")
    return certified


def _search(thread: ThreadLts, memory: Memory,
            config: PsConfig) -> tuple[bool, int]:
    """The certification search by :func:`thread_steps` — the table-free
    path the monitor's uncached oracles take.  Returns the verdict and
    the number of pairs expanded."""
    cert_config = _certifying(config)
    seen: set = set()
    stack: list[tuple[ThreadLts, Memory, int]] = [
        (thread, memory, config.cert_depth)]
    while stack:
        current, mem, depth = stack.pop()
        if not current.promises:
            return True, len(seen)
        if depth == 0 or current.is_bottom() or current.is_terminated():
            continue
        seen_key = (current, mem.messages)
        if seen_key in seen:
            continue
        seen.add(seen_key)
        for step in thread_steps(current, mem, cert_config):
            if step.thread.is_bottom():
                continue  # UB does not certify
            stack.append((step.thread, step.memory, depth - 1))
    return False, len(seen)


# ---------------------------------------------------------------------------
# The step table
# ---------------------------------------------------------------------------

#: A thread id and a memory id pack into one int pair id.
_PAIR_BITS = 32
_MEMORY_MASK = (1 << _PAIR_BITS) - 1

#: ``PsSpace.returns`` entry of a thread that has not terminated.
_RUNNING = object()


class PsSpace:
    """The thread configurations one exploration visits, as dense int ids.

    Each :class:`ThreadLts` and each memory message set gets an id the
    first time it is interned, so it is hashed once; a ``(thread id,
    memory id)`` pair packs into one int.  Machine states are then keys
    ``(thread ids, memory id, sc_view, syscalls)``, or ``("⊥",
    syscalls)`` for every ⊥ state (:func:`intern_state` on ids), and
    :meth:`decode` rebuilds a :class:`MachineState` where a consumer
    needs objects.

    Each pair is expanded once under the exploration's config, as
    entries ``(tag, succ thread id, succ memory id, shifts, syscall)``
    (thread id ``-1`` for a step to ⊥), and once more under the
    certifying config for the certification search, which runs on pair
    ids (:meth:`search`).  With a :class:`CertCache`, each successor's
    verdict is memoized with the entry, and a later expansion serves it
    as a cache hit.  Without one, every verdict is re-certified; the
    table memoizes steps, not verdicts.

    Counters are those of stepping without the table:
    ``rule.psna.thread.*`` fires on every machine expansion, every
    served verdict counts as a :class:`CertCache` hit (firing
    ``rule.psna.cert.*`` and reaching the monitor's ``cert_hit``
    oracle), and a certification expansion fires its thread rules once
    per exploration, or on every search when verdicts are not cached.
    A space covers one config and lives for one exploration: the caller
    that creates it drops it with the result.
    """

    __slots__ = ("config", "cert_config", "cache", "threads", "memories",
                 "promised", "halted", "returns", "fences", "_thread_ids",
                 "_memory_ids", "_steps", "_cert_steps", "_shifted")

    def __init__(self, config: PsConfig,
                 cache: Optional[CertCache] = None) -> None:
        self.config = config
        self.cert_config = _certifying(config)
        self.cache = cache
        self.threads: list[ThreadLts] = []  # id -> thread
        self.memories: list[Memory] = []  # id -> memory
        #: thread id -> outstanding promises; -> bottom or terminated;
        #: -> return value (or ``_RUNNING``); -> pending SC fence
        self.promised: list[bool] = []
        self.halted: list[bool] = []
        self.returns: list = []
        self.fences: list[bool] = []
        self._thread_ids: dict[ThreadLts, int] = {}
        self._memory_ids: dict[frozenset, int] = {}
        #: pair id -> [entries, rule counters, verdict checks, kept]
        self._steps: dict[int, list] = {}
        #: pair id -> (rule counters, non-⊥ successor pair ids)
        self._cert_steps: dict[int, tuple] = {}
        self._shifted: dict[tuple, int] = {}

    # -- ids ---------------------------------------------------------------

    def thread_id(self, thread: ThreadLts) -> int:
        """The id of ``thread``, assigning the next one on first sight."""
        tid = self._thread_ids.setdefault(thread, len(self.threads))
        if tid == len(self.threads):
            self.threads.append(thread)
            action = thread.program.peek()
            terminated = isinstance(action, RetAction)
            self.promised.append(bool(thread.promises))
            self.halted.append(terminated or isinstance(action, ErrAction))
            self.returns.append(thread.return_value() if terminated
                                else _RUNNING)
            self.fences.append(isinstance(action, FenceAction)
                               and action.kind is FenceKind.SC)
        return tid

    def memory_id(self, memory: Memory) -> int:
        """The id of ``memory``'s message set, assigned on first sight."""
        mid = self._memory_ids.setdefault(memory.messages,
                                          len(self.memories))
        if mid == len(self.memories):
            self.memories.append(memory)
        return mid

    def pair(self, thread: ThreadLts, memory: Memory) -> int:
        """The pair id of a thread configuration."""
        return self.thread_id(thread) << _PAIR_BITS | self.memory_id(memory)

    def encode(self, state: MachineState):
        """The key of ``state``."""
        if state.bottom:
            return ("⊥", state.syscalls)
        return (tuple(map(self.thread_id, state.threads)),
                self.memory_id(state.memory), state.sc_view, state.syscalls)

    def decode(self, key) -> MachineState:
        """The state of a non-⊥ key."""
        tids, mid, sc_view, syscalls = key
        threads = self.threads
        return MachineState(tuple(threads[tid] for tid in tids),
                            self.memories[mid], sc_view, syscalls)

    def behavior_returns(self, tids: tuple[int, ...]):
        """The return values of threads that all terminated, else None."""
        values = tuple(self.returns[tid] for tid in tids)
        return None if _RUNNING in values else values

    def shift(self, tid: int, loc: str, k: Time) -> int:
        """:meth:`ThreadLts.shift` on ids, memoized."""
        key = (tid, loc, k)
        shifted = self._shifted.get(key)
        if shifted is None:
            shifted = self._shifted[key] = self.thread_id(
                self.threads[tid].shift(loc, k))
        return shifted

    # -- machine steps -----------------------------------------------------

    def steps(self, tid: int, mid: int) -> tuple:
        """The ``machine: normal`` and ``machine: failure`` candidates of
        thread ``tid`` on memory ``mid`` that pass certification, as
        entries ``(tag, succ tid, succ mid, shifts, syscall)``."""
        pair = tid << _PAIR_BITS | mid
        expansion = self._steps.get(pair)
        if expansion is None:
            expansion = self._steps[pair] = self._expand(tid, mid)
        entries, rules, checks, kept = expansion
        registry = obs.metrics()
        if kept is None:
            return self._certify_all(expansion, registry)
        if registry is not None:
            for rule in rules:
                registry.inc(rule)
        if checks:
            # Every memoized verdict is a CertCache hit, as a lookup in
            # ``cache.entries`` would have been.
            cache = self.cache
            cache.hits += len(checks)
            monitor = cache.monitor
            if monitor is not None or registry is not None:
                threads, memories = self.threads, self.memories
                for stid, smid, verdict in checks:
                    if monitor is not None:
                        monitor.cert_hit(threads[stid], memories[smid],
                                         verdict)
                    if registry is not None:
                        registry.inc("rule.psna.cert.success" if verdict
                                     else "rule.psna.cert.failure")
        return kept

    def _expand(self, tid: int, mid: int) -> list:
        thread = self.threads[tid]
        action = thread.program.peek()
        syscall = ((action.name, action.value)
                   if isinstance(action, SyscallAction) else None)
        entries = []
        rules = []
        for step in _thread_steps(thread, self.memories[mid], self.config):
            rules.append(_RULE_COUNTERS[step.tag])
            if step.thread.is_bottom():
                entries.append((step.tag, -1, -1, (), None))
            else:
                entries.append((
                    step.tag, self.thread_id(step.thread),
                    self.memory_id(step.memory), step.shifts,
                    syscall if step.tag == "syscall" else None))
        return [tuple(entries), tuple(rules), None, None]

    def _certify_all(self, expansion: list, registry) -> tuple:
        """Certify every candidate of an expansion (in step order, each
        through :func:`certifiable`), memoizing the verdicts when the
        space has a :class:`CertCache`."""
        entries, rules, _checks, _kept = expansion
        promised = self.promised
        kept = []
        checks = []
        for entry, rule in zip(entries, rules):
            if registry is not None:
                registry.inc(rule)
            stid = entry[1]
            if stid >= 0 and promised[stid]:
                smid = entry[2]
                verdict = self._certify(stid, smid)
                checks.append((stid, smid, verdict))
                if not verdict:
                    continue  # machine: normal requires certification
            kept.append(entry)
        kept = tuple(kept)
        if self.cache is not None:
            expansion[2] = tuple(checks)
            expansion[3] = kept
        return kept

    def _certify(self, tid: int, mid: int) -> bool:
        """One certification verdict, through the module-level
        :func:`certifiable` (which tracing tools may patch)."""
        return certifiable(self.threads[tid], self.memories[mid],
                           self.config, self.cache, space=self)

    def successors(self, key):
        """The machine steps of the non-⊥ state ``key``: tuples ``(thread
        index, tag, cause, successor key, shifts)``.  ``cause`` is the
        thread rule of a ``machine-failure`` step, else None.  Machine
        rules count into ``rule.psna.machine.*``."""
        tids, mid, sc_view, syscalls = key
        registry = obs.metrics()
        for index, tid in enumerate(tids):
            if self.fences[tid]:
                # SC fences need the machine's global view.
                thread = self.threads[tid]
                view = thread.view.join(sc_view)
                fenced = self.thread_id(thread.evolve(
                    program=thread.program.resume(None), view=view))
                if registry is not None:
                    registry.inc("rule.psna.machine.sc-fence")
                yield (index, "sc-fence", None,
                       (tids[:index] + (fenced,) + tids[index + 1:], mid,
                        view, syscalls), ())
                continue
            for tag, stid, smid, shifts, call in self.steps(tid, mid):
                if stid < 0:
                    if registry is not None:
                        registry.inc("rule.psna.machine.failure")
                    yield index, "machine-failure", tag, ("⊥", syscalls), ()
                    continue
                if registry is not None:
                    registry.inc("rule.psna.machine.normal")
                if shifts:
                    moved = list(tids)
                    view = sc_view
                    shift = self.shift
                    for loc, k in shifts:
                        moved = [shift(other, loc, k) for other in moved]
                        view = view.shift(loc, k)
                    moved[index] = stid
                    threads = tuple(moved)
                else:
                    threads = tids[:index] + (stid,) + tids[index + 1:]
                    view = sc_view
                yield (index, tag, None,
                       (threads, smid, view,
                        syscalls if call is None else syscalls + (call,)),
                       shifts)

    # -- certification -----------------------------------------------------

    def search(self, pair: int) -> tuple[bool, int]:
        """The certification search from pair id ``pair``: can its
        thread, running alone, reach an empty promise set within
        ``cert_depth`` steps?  Returns the verdict and the number of
        pairs expanded (the ``psna.cert.states`` count)."""
        promised, halted = self.promised, self.halted
        successors = self._cert_successors
        registry = obs.metrics()
        seen: set[int] = set()
        stack = [(pair, self.config.cert_depth)]
        while stack:
            pair, depth = stack.pop()
            tid = pair >> _PAIR_BITS
            if not promised[tid]:
                return True, len(seen)
            if depth == 0 or halted[tid] or pair in seen:
                continue
            seen.add(pair)
            depth -= 1
            for succ in successors(pair, registry):
                stack.append((succ, depth))
        return False, len(seen)

    def _cert_successors(self, pair: int, registry) -> tuple[int, ...]:
        expansion = self._cert_steps.get(pair)
        if expansion is None:
            rules = []
            succ = []
            for step in _thread_steps(self.threads[pair >> _PAIR_BITS],
                                      self.memories[pair & _MEMORY_MASK],
                                      self.cert_config):
                rules.append(_RULE_COUNTERS[step.tag])
                if not step.thread.is_bottom():  # UB does not certify
                    succ.append(self.pair(step.thread, step.memory))
            expansion = self._cert_steps[pair] = (tuple(rules), tuple(succ))
        elif self.cache is not None:
            return expansion[1]
        if registry is not None:
            for rule in expansion[0]:
                registry.inc(rule)
        return expansion[1]


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


def machine_steps(state: MachineState, config: PsConfig, *,
                  space: Optional[PsSpace] = None,
                  ) -> Iterator[MachineState]:
    """Enumerate certified machine steps and failure steps."""
    for info in labeled_machine_steps(state, config, space=space):
        yield info.state


def labeled_machine_steps(state: MachineState, config: PsConfig, *,
                          space: Optional[PsSpace] = None,
                          ) -> Iterator[MachineStepInfo]:
    """Like :func:`machine_steps`, but each successor carries the index of
    the thread that stepped and the rule tag that fired — the raw material
    of witness timelines (:mod:`repro.obs.explain`).

    The steps come from ``space`` (a :class:`PsSpace` under ``config``,
    whose :class:`CertCache`, if any, memoizes the ``machine: normal``
    certification side-condition), or from a throwaway space without a
    cache.  A caller that steps many states passes one space for all.

    When an observability session is active, the machine-level rules
    (``machine: normal``, ``machine: failure``, SC fences) count into
    ``rule.psna.machine.*`` counters.
    """
    if state.bottom:
        return
    if space is None:
        space = PsSpace(config)
    for index, tag, cause, key, shifts in space.successors(
            space.encode(state)):
        successor = (state.evolve(bottom=True) if cause is not None
                     else space.decode(key))
        yield MachineStepInfo(index, tag, successor, cause, shifts)


# ---------------------------------------------------------------------------
# Keys
# ---------------------------------------------------------------------------


def intern_state(state: MachineState):
    """The dedup key of a state object: the state itself (dense
    timestamps make it canonical), and one key for every ⊥ state with the
    same trace.  The explorer uses the same keys on ids
    (:meth:`PsSpace.encode`)."""
    return ("⊥", state.syscalls) if state.bottom else state


def intern_cert(thread: ThreadLts, memory: Memory):
    """The :class:`CertCache` key of a certification pair outside a
    :class:`PsSpace` (inside one, the pair id)."""
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
