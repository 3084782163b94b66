"""Persistent, cross-run certification verdict store.

:class:`~repro.psna.machine.CertCache` memoizes certification verdicts
for one exploration; this module spills those verdicts to disk so they
survive the process and are shared by every CLI subcommand, the bench
suite, the fuzz nightly, and ``--jobs`` spawn workers.

Keying
    An entry is ``(canonical state digest, semantics version, PsConfig
    fingerprint)``.  The digest (:func:`cert_digest`) is a BLAKE2b hash
    of the *structural* certification key — the plain-tuple form from
    :func:`repro.psna.machine.certification_key` (dense timestamps make
    it renaming-invariant), with
    thread programs replaced by their deterministic ``repr`` — mixed
    with the config fingerprint (:func:`config_fingerprint`, every
    semantics-relevant ``PsConfig`` field).  The semantics version
    (:data:`repro.psna.semantics.SEMANTICS_VERSION`) lives in each
    segment file's header: a segment written under another semantics is
    ignored on load and reaped by ``gc``.  Only programs with a
    process-independent ``repr`` (``WhileThread``) are digested; other
    thread shapes bypass the store rather than risk an unstable key.

Files
    Segment files live in the cache directory (``.repro-cache/`` by
    default, ``REPRO_CACHE_DIR`` overrides, ``off`` disables) beside the
    service's verdict store; their format and lifecycle (temp-file
    creation, header check, tolerant loading, compaction, reaping) are
    :mod:`repro.util.segments`.  This module adds the record parser,
    the open-time snapshot, and one buffered segment write at close::

        segment-<pid>-<n>.seg   one header line, then "<digest> <0|1>"
        history.jsonl           one JSON line per close / gc / clear
"""

from __future__ import annotations

import dataclasses
import os
from hashlib import blake2b
from typing import Optional, Sequence

from ..lang.interp import WhileThread
from ..obs.schemas import CERTSTORE_SCHEMA as STORE_SCHEMA
from ..util.segments import (  # noqa: F401  (re-exported)
    COMPACT_SEGMENTS, DEFAULT_DIR, ENV_DIR, SegmentFamily, append_jsonl,
    read_jsonl, resolve_dir)
from .semantics import SEMANTICS_VERSION
from .thread import PsConfig

SEGMENT_HEADER = "repro-cert-store/1"

#: ``PsConfig`` fields that cannot change a certification verdict —
#: cache toggles and exploration bounds.  Everything else (including
#: fields future PRs add) lands in the fingerprint automatically, so a
#: new semantic knob invalidates old entries by construction.
_FINGERPRINT_SKIP = frozenset({
    "enable_cert_cache", "enable_cert_store", "certifying", "max_states",
    "max_depth",
})

_DIGEST_SIZE = 16  # bytes; 32 hex chars per entry line


def config_fingerprint(config: PsConfig) -> str:
    """Every semantics-relevant config field, stably ordered."""
    parts = []
    for field in sorted(dataclasses.fields(config), key=lambda f: f.name):
        if field.name in _FINGERPRINT_SKIP:
            continue
        parts.append(f"{field.name}={getattr(config, field.name)!r}")
    return ";".join(parts)


def stable_program_repr(program) -> Optional[str]:
    """A process-independent encoding of a thread program, or ``None``
    when the program's ``repr`` cannot be trusted across processes.

    ``WhileThread`` is a pure dataclass tree (statements, registers,
    values with deterministic reprs); arbitrary ``ThreadState``
    implementations may close over objects whose ``repr`` embeds memory
    addresses, which would make digests collide across runs — those
    thread shapes must bypass the store.
    """
    if isinstance(program, WhileThread):
        return repr(program)
    return None


def cert_digest(structural_key, fingerprint: str) -> Optional[str]:
    """The on-disk key for one certification verdict, or ``None`` when
    the pair has no stable cross-process encoding.

    ``structural_key`` is the form from
    :func:`repro.psna.machine.certification_key`.
    """
    thread_key, promise_locs, memory_key = structural_key
    program = stable_program_repr(thread_key[0])
    if program is None:
        return None
    stable = ((program,) + thread_key[1:], promise_locs, memory_key)
    payload = f"{stable!r}\x00{fingerprint}"
    return blake2b(payload.encode("utf-8"),
                   digest_size=_DIGEST_SIZE).hexdigest()


def _parse_entry(line: str) -> Optional[str]:
    """The digest of one ``"<digest> <0|1>"`` record, or ``None``."""
    fields = line.split(" ")
    if len(fields) != 2 or fields[1] not in ("0", "1"):
        return None
    digest = fields[0]
    if len(digest) != 2 * _DIGEST_SIZE \
            or not all(c in "0123456789abcdef" for c in digest):
        return None
    return digest


class CertStore:
    """One open handle on the on-disk store; see the module docstring.

    ``get`` consults only the entries loaded at :meth:`open` time —
    never this run's own pending writes — so a sweep's store hits are
    identical whether its cases run serially or across ``--jobs``
    workers (each worker opens the same on-disk snapshot).
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.segments = SegmentFamily(
            directory, "segment-", ".seg",
            f"{SEGMENT_HEADER} {SEMANTICS_VERSION}", _parse_entry)
        self.history_path = os.path.join(directory, "history.jsonl")
        self.entries: dict[str, bool] = {}
        self.pending: dict[str, bool] = {}
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._closed = False
        for path in self.segments.paths():
            for digest, line, _ in self.segments.records(path):
                self.entries[digest] = line.endswith("1")

    # -- lookup / update --------------------------------------------------

    def get(self, digest: str) -> Optional[bool]:
        verdict = self.entries.get(digest)
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def put(self, digest: str, verdict: bool) -> bool:
        """Queue a verdict for the close-time segment write; returns
        whether it was new to this handle."""
        if digest in self.entries or digest in self.pending:
            return False
        self.pending[digest] = verdict
        self.writes += 1
        return True

    def drain(self) -> dict:
        """Ship this handle's pending writes and counters (the spawn
        worker → parent handoff), resetting them locally."""
        shipped = {"entries": self.pending, "hits": self.hits,
                   "misses": self.misses, "writes": self.writes}
        self.pending = {}
        self.hits = self.misses = self.writes = 0
        return shipped

    def absorb(self, shipped: Optional[dict]) -> None:
        """Fold a worker's :meth:`drain` result into this handle."""
        if not shipped:
            return
        for digest, verdict in shipped["entries"].items():
            if digest not in self.entries and digest not in self.pending:
                self.pending[digest] = verdict
        self.hits += shipped["hits"]
        self.misses += shipped["misses"]
        self.writes += shipped["writes"]

    # -- lifecycle --------------------------------------------------------

    def close(self) -> None:
        """Flush pending entries to a fresh segment, compact if the
        segment count has grown, and append a history line."""
        if self._closed:
            return
        self._closed = True
        self.segments.write(f"{digest} {1 if self.pending[digest] else 0}"
                            for digest in sorted(self.pending))
        if len(self.segments.paths()) > COMPACT_SEGMENTS:
            self.segments.compact()
        if self.hits or self.misses or self.writes or self.pending:
            append_jsonl(self.history_path, {
                "hits": self.hits, "misses": self.misses,
                "writes": self.writes,
                "entries": len(self.entries) + len(self.pending)})
        self.pending = {}

    # -- maintenance (the ``repro cache`` subcommand) ---------------------

    def stats(self) -> dict:
        return {
            "schema": STORE_SCHEMA,
            "directory": self.directory,
            "semantics": SEMANTICS_VERSION,
            "entries": len(self.entries),
            "segments": len(self.segments.paths()),
            "size_bytes": self.segments.size_bytes(),
            "history": self.read_history()[-50:],
        }

    def read_history(self) -> list[dict]:
        return read_jsonl(self.history_path)

    def clear(self) -> int:
        """Drop every segment; returns how many entries were removed."""
        removed = len(self.entries)
        self.segments.clear()
        self.entries = {}
        self.pending = {}
        append_jsonl(self.history_path, {"event": "clear",
                                         "removed": removed})
        return removed

    def gc(self, max_mb: float, siblings: Sequence = ()) -> dict:
        """Reap stale-semantics segments, compact, and enforce the size
        cap (a cache over budget is dropped wholesale — every entry is
        recomputable).  ``siblings`` are other store handles in this
        directory (``repro cache gc`` passes the verdict store); their
        segments are reaped, compacted, capped and dropped alongside."""
        families = [self.segments] + [store.segments for store in siblings]
        stale = sum(family.reap_stale() for family in families)
        for family in families:
            family.compact()
        dropped = 0
        if sum(family.size_bytes() for family in families) \
                > max_mb * 1024 * 1024:
            dropped = len(self.entries) \
                + sum(store.clear() for store in siblings)
            self.segments.clear()
            self.entries = {}
        result = {"event": "gc", "stale_segments": stale,
                  "dropped_entries": dropped,
                  "size_bytes": sum(family.size_bytes()
                                    for family in families)}
        append_jsonl(self.history_path, result)
        return result


# ---------------------------------------------------------------------------
# Process-wide binding (the CLI / spawn-worker handle)
# ---------------------------------------------------------------------------

_ACTIVE: Optional[CertStore] = None


def open_default() -> Optional[CertStore]:
    directory = resolve_dir()
    return None if directory is None else CertStore(directory)


def bind(store: Optional[CertStore]) -> Optional[CertStore]:
    global _ACTIVE
    _ACTIVE = store
    return store


def active() -> Optional[CertStore]:
    return _ACTIVE


def unbind() -> None:
    global _ACTIVE
    _ACTIVE = None
