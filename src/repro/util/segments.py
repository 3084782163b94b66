"""Segment files: the one on-disk format under both verdict caches.

The certification store (:mod:`repro.psna.certstore`) and the service's
verdict store (:mod:`repro.serve.store`) share a cache directory and
this file discipline.  A store is a :class:`SegmentFamily` of files
``<prefix><pid>-<n><suffix>``, each one header line (format tag and
semantics version) followed by record lines this module never
interprets: the store's ``parse(line) -> digest | None`` does.

- A segment is written under a temp name and renamed once its header
  (and any initial records) are on disk; every writer makes its own
  segment, and loading folds them all.
- Scanning skips a truncated final line and every line ``parse``
  rejects — corruption degrades to a miss, never a crash or a wrong
  verdict.  A segment with another header is *stale*: it yields
  nothing, and :meth:`SegmentFamily.reap_stale` deletes it.
- Compaction keeps the last raw line per digest (segments in name
  order), sorted by digest, so it needs no codec.  A crash mid-way
  leaves duplicates, which the loading fold dedups.

:func:`append_jsonl` / :func:`read_jsonl` serve the JSONL ledgers
beside the segments (``history.jsonl``, ``audit.jsonl``); a failed
append is swallowed, since a ledger is evidence, not a dependency.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Optional

DEFAULT_DIR = ".repro-cache"
ENV_DIR = "REPRO_CACHE_DIR"

#: Stores compact at close once a family holds more segments than this.
COMPACT_SEGMENTS = 16


def resolve_dir(env: Optional[str] = None) -> Optional[str]:
    """The cache directory per ``REPRO_CACHE_DIR``, or ``None`` when the
    caches are disabled (``off``/``none``/``0``/empty)."""
    value = os.environ.get(ENV_DIR) if env is None else env
    if value is None:
        return DEFAULT_DIR
    if value.strip().lower() in ("", "off", "none", "0"):
        return None
    return value


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


@dataclass(frozen=True)
class SegmentFamily:
    """The segment files of one store in ``directory``.

    ``header`` is the full first line (format tag and semantics
    version); ``parse`` maps one record line (without its newline) to
    its digest, or ``None`` when the line is malformed.
    """

    directory: str
    prefix: str
    suffix: str
    header: str
    parse: Callable[[str], Optional[str]]

    def paths(self) -> list[str]:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return sorted(os.path.join(self.directory, name) for name in names
                      if name.startswith(self.prefix)
                      and name.endswith(self.suffix))

    # -- creation ---------------------------------------------------------

    def create(self, lines: Iterable[str] = ()) -> tuple[str, IO[str]]:
        """A new segment holding the header and ``lines``, renamed into
        place; returns its path and the still-open handle for appends.
        Raises ``OSError`` when the directory is not writable."""
        os.makedirs(self.directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=self.prefix, suffix=".tmp",
                                   dir=self.directory)
        handle = os.fdopen(fd, "w", encoding="utf-8")
        try:
            handle.write(self.header + "\n")
            for line in lines:
                handle.write(line + "\n")
            handle.flush()
            unique = os.path.basename(tmp)[len(self.prefix):-len(".tmp")]
            final = os.path.join(
                self.directory,
                f"{self.prefix}{os.getpid()}-{unique}{self.suffix}")
            os.replace(tmp, final)
        except OSError:
            handle.close()
            _unlink(tmp)
            raise
        return final, handle

    def write(self, lines: Iterable[str]) -> Optional[str]:
        """Write ``lines`` as one complete segment; returns its path, or
        ``None`` when there was nothing to write or the write failed."""
        lines = list(lines)
        if not lines:
            return None
        try:
            path, handle = self.create(lines)
            handle.close()
        except OSError:
            return None
        return path

    # -- scanning ---------------------------------------------------------

    def _current(self, header: bytes) -> bool:
        return (header.decode("utf-8", errors="replace").rstrip("\n")
                == self.header)

    def is_stale(self, path: str) -> bool:
        """Whether ``path`` is unreadable or carries another header."""
        try:
            with open(path, "rb") as fh:
                return not self._current(fh.readline())
        except OSError:
            return True

    def records(self, path: str) -> Iterator[tuple[str, str, int]]:
        """``(digest, line, byte offset)`` per accepted record line of
        one segment; nothing at all for a stale segment."""
        try:
            with open(path, "rb") as fh:
                header = fh.readline()
                if not self._current(header):
                    return
                offset = len(header)
                for raw in fh:
                    line_offset, offset = offset, offset + len(raw)
                    if not raw.endswith(b"\n"):
                        continue  # truncated final line (killed writer)
                    line = raw[:-1].decode("utf-8", errors="replace")
                    digest = self.parse(line)
                    if digest is not None:
                        yield digest, line, line_offset
        except OSError:
            return

    # -- maintenance ------------------------------------------------------

    def compact(self) -> None:
        """Rewrite the family as one segment (see the module docstring);
        on a failed write the old segments stay."""
        paths = self.paths()
        latest: dict[str, str] = {}
        for path in paths:
            for digest, line, _ in self.records(path):
                latest[digest] = line
        if latest and self.write(latest[digest]
                                 for digest in sorted(latest)) is None:
            return
        for path in paths:
            _unlink(path)

    def reap_stale(self) -> int:
        """Delete stale segments; returns how many went."""
        stale = [path for path in self.paths() if self.is_stale(path)]
        for path in stale:
            _unlink(path)
        return len(stale)

    def clear(self) -> None:
        for path in self.paths():
            _unlink(path)

    def size_bytes(self) -> int:
        total = 0
        for path in self.paths():
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
        return total


# ---------------------------------------------------------------------------
# Append-only JSONL side files
# ---------------------------------------------------------------------------

_APPEND_LOCK = threading.Lock()


def append_jsonl(path: str, record: dict) -> None:
    """Append one JSON line to ``path``; a failed write is swallowed."""
    line = json.dumps(record, sort_keys=True, default=repr) + "\n"
    with _APPEND_LOCK:
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(line)
        except OSError:
            pass


def read_jsonl(path: str) -> list[dict]:
    """Every JSON-object line of ``path``; partial or garbled lines (a
    crashed writer) are skipped, a missing file reads as empty."""
    records: list[dict] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        pass
    return records
