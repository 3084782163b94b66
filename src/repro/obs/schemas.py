"""The artifact schema table: every ``repro-*/N`` schema id, once.

Every artifact the toolchain writes names its schema: a JSON document
in its ``schema`` field, a JSONL stream in its first line.
:data:`SCHEMAS` maps each id to plain data: the fields a document (or
every line of a stream) must hold and their types, plus at most one
named cross-field check.  Two functions read it:

* :func:`validate` — the problems (empty = valid) of parsed data;
* :func:`load` — read a file, JSON document or JSONL stream, and
  validate it.

Neither raises on malformed input.  Every artifact reader and writer
guard goes through them, including ``python -m repro.obs FILE ...``.
This module imports nothing from :mod:`repro`, so any module can use it
without loading a feature package.

Field types in the table:

``"any"``                          present, any value (null included)
``"str"`` / ``"name"``             a string / a non-empty string
``"bool"``                         true or false
``"int"`` / ``"count"``            an integer / an integer >= 0
``"num"`` / ``"nonneg"``           a number / a number >= 0
``"ratio"``                        a number in [0, 1]
``"list"`` / ``"object"``          any list / any object
``("list", T)`` / ``("list+", T)`` a list / a non-empty list of T
``("map", T)``                     an object whose values are T
``("one of", a, b, ...)``          one of the listed values
``{"field": T, "field?": T}``      an object with these fields; ``?``
                                   marks one that may be absent or null
"""

from __future__ import annotations

import json

STATS_SCHEMA = "repro-stats/1"
BENCH_SCHEMA = "repro-bench/1"
COVERAGE_SCHEMA = "repro-coverage/1"
ATTRIB_SCHEMA = "repro-attrib/1"
GRAPH_SCHEMA = "repro-graph/1"
MONITOR_SCHEMA = "repro-monitor/1"
CERTSTORE_SCHEMA = "repro-certstore/1"
VERDICT_SCHEMA = "repro-verdict/1"
SERVE_SCHEMA = "repro-serve/1"
SERVEMETRICS_SCHEMA = "repro-servemetrics/1"
EVENTS_SCHEMA = "repro-events/1"
TRACE_SCHEMA = "repro-trace/1"
HISTORY_SCHEMA = "repro-history/1"


# ---------------------------------------------------------------------------
# Cross-field checks (run only once every field has its type)
# ---------------------------------------------------------------------------


def _uncovered_matches_zero_counts(payload: dict) -> list[str]:
    zero = [row["id"] for row in payload["rules"] if not row["count"]]
    declared = payload["uncovered"]
    if sorted(declared) != sorted(zero):
        return [f"uncovered list {declared!r} does not match the "
                f"zero-count rules {zero!r}"]
    return []


def _bucket_counts_match(payload: dict) -> list[str]:
    problems = []
    for name, summary in payload["histograms"].items():
        bounds, counts = summary["le"], summary["counts"]
        if [float(b) for b in bounds] != sorted({float(b) for b in bounds}):
            problems.append(f"histograms.{name}: le bounds do not "
                            f"strictly increase")
        if len(counts) != len(bounds) + 1:
            problems.append(f"histograms.{name}: counts length is not "
                            f"len(le) + 1")
        if summary["count"] != sum(counts):
            problems.append(f"histograms.{name}: count does not equal "
                            f"sum(counts)")
    return problems


def _meta_head(lines: list, schema: str) -> list[str]:
    head = lines[0] if lines else {}
    if head.get("ev") != "meta" or head.get("schema") != schema:
        return [f"first line is not a {schema} meta line"]
    return []


def _trace_meta_head(lines: list) -> list[str]:
    return _meta_head(lines, TRACE_SCHEMA)


def _events_meta_head_and_seq(lines: list) -> list[str]:
    problems = _meta_head(lines, EVENTS_SCHEMA)
    last_seq = -1
    for number, event in enumerate(lines, start=1):
        seq = event["seq"]
        if isinstance(seq, int):
            if seq <= last_seq:
                problems.append(f"line {number}: seq {seq} not monotonic "
                                f"(after {last_seq})")
            last_seq = seq
    return problems


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

_VERDICT_FIELDS = {
    "directory": "str", "semantics": "str", "entries": "int",
    "segments": "int", "size_bytes": "int", "hits": "int", "misses": "int",
    "writes": "int", "hit_rate": "ratio",
}

_STACK = ("list+", "name")

#: schema id -> ``fields`` (the per-document, or for a ``stream`` the
#: per-line, field types) and an optional cross-field ``check``.
SCHEMAS: dict[str, dict] = {
    STATS_SCHEMA: {"fields": {
        "counters": ("map", "int"),
        "gauges": ("map", "num"),
        "histograms": ("map", {"count": "any"}),
    }},
    BENCH_SCHEMA: {"fields": {
        "bench": "name",
        "entries": ("list+", {"name": "any", "rounds": "any",
                              "min_s": "nonneg", "mean_s": "nonneg",
                              "max_s": "nonneg"}),
    }},
    COVERAGE_SCHEMA: {"fields": {
        "rules": ("list+", {"id": "str", "layer": "str",
                            "description": "str", "count": "count"}),
        "uncovered": ("list", "str"),
    }, "check": _uncovered_matches_zero_counts},
    ATTRIB_SCHEMA: {"fields": {
        "total_s": "nonneg",
        "frames": ("list", {"stack": _STACK, "self_s": "any",
                            "total_s": "any", "visits": "any"}),
        "rules": ("list", {"stack": _STACK, "est_s": "any",
                           "visits": "any"}),
    }},
    GRAPH_SCHEMA: {"fields": {
        "graphs": ("map", {
            **{field: "count" for field in (
                "instances", "states", "edges", "dedup_hits",
                "dedup_misses", "terminal_states", "bottom_states",
                "stuck_states", "truncations", "depth_max",
                "peak_frontier")},
            **{f"{field}?": ("map", "int") for field in (
                "rules", "branching_hist", "depth_hist", "cert_cache")},
            "elements?": {"nodes": "list", "edges": "list"},
        }),
    }},
    MONITOR_SCHEMA: {"fields": {
        "mode": ("one of", "strict", "sample"),
        "invariants": ("map", {"checks": "count", "violations": "count",
                               "injected": "count",
                               "witness?": {"detail": "str"}}),
    }},
    CERTSTORE_SCHEMA: {"fields": {
        "directory": "str", "semantics": "str", "entries": "int",
        "segments": "int", "size_bytes": "int",
        "history": ("list", "object"),
    }},
    VERDICT_SCHEMA: {"fields": _VERDICT_FIELDS},
    SERVE_SCHEMA: {"fields": {
        "version": "str", "semantics": "str", "jobs": "count",
        "uptime_s": "nonneg", "submitted": "count", "deduped": "count",
        "executed": "count", "failed": "count",
        "states": ("map", "count"), "closed": "bool",
        "store?": _VERDICT_FIELDS,
    }},
    SERVEMETRICS_SCHEMA: {"fields": {
        "semantics": "str",
        "counters": ("map", "count"),
        "gauges": ("map", "num"),
        "histograms": ("map", {"le": ("list+", "num"),
                               "counts": ("list", "count"),
                               "count": "count", "sum": "num",
                               "p50": "num", "p95": "num", "p99": "num"}),
        "samples?": ("map", ("list", "num")),
    }, "check": _bucket_counts_match},
    EVENTS_SCHEMA: {"stream": True, "fields": {
        "ev": "any", "seq": "any", "t": "any",
    }, "check": _events_meta_head_and_seq},
    TRACE_SCHEMA: {"stream": True, "fields": {
        "ev": "str",
    }, "check": _trace_meta_head},
    HISTORY_SCHEMA: {"stream": True, "fields": {
        "schema": ("one of", HISTORY_SCHEMA),
        **{field: "any" for field in (
            "git_sha", "created_at", "bench", "entry", "min_s",
            "median_s", "digest", "incomplete")},
    }},
}


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_num(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_TYPES = {
    "any": (lambda value: True, "any value"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "name": (lambda value: isinstance(value, str) and value != "",
             "a non-empty string"),
    "bool": (lambda value: isinstance(value, bool), "a boolean"),
    "int": (_is_int, "an integer"),
    "count": (lambda value: _is_int(value) and value >= 0,
              "a non-negative integer"),
    "num": (_is_num, "a number"),
    "nonneg": (lambda value: _is_num(value) and value >= 0,
               "a non-negative number"),
    "ratio": (lambda value: _is_num(value) and 0 <= value <= 1,
              "a number in [0, 1]"),
    "list": (lambda value: isinstance(value, list), "a list"),
    "object": (lambda value: isinstance(value, dict), "an object"),
}


def _clip(value) -> str:
    text = repr(value)
    return text if len(text) <= 40 else text[:37] + "..."


def _field_problems(value, spec, where: str) -> list[str]:
    """Problems of one value against one field type; ``where`` names it."""
    if isinstance(spec, str):
        test, what = _TYPES[spec]
        return [] if test(value) else [f"{where} = {_clip(value)} is not "
                                       f"{what}"]
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            return [f"{where} is not an object"]
        problems = []
        for key, field_spec in spec.items():
            name = key.rstrip("?")
            path = f"{where}.{name}" if where else name
            if value.get(name) is None and key.endswith("?"):
                continue
            if name not in value:
                problems.append(f"{path} is missing")
            else:
                problems += _field_problems(value[name], field_spec, path)
        return problems
    form, *args = spec
    if form == "one of":
        return [] if value in args else [f"{where} = {_clip(value)} is not "
                                         f"one of {args!r}"]
    if form in ("list", "list+"):
        if not isinstance(value, list) or (form == "list+" and not value):
            return [f"{where} is not a "
                    f"{'non-empty ' if form == 'list+' else ''}list"]
        items = enumerate(value)
        return [problem for index, item in items
                for problem in _field_problems(item, args[0],
                                               f"{where}[{index}]")]
    if not isinstance(value, dict):  # ("map", T)
        return [f"{where} is not an object"]
    return [problem for key, item in value.items()
            for problem in _field_problems(item, args[0], f"{where}.{key}")]


def _schema_of(document):
    # The service stats body names its schema in ``service``.
    if isinstance(document, dict):
        found = document.get("schema") or document.get("service")
        if isinstance(found, str):
            return found
    return None


def _stream_problems(lines: list, schema, numbers) -> list[str]:
    if schema is None:
        if not lines:
            return ["empty stream (no meta line)"]
        schema = _schema_of(lines[0])
    entry = SCHEMAS.get(schema)
    if entry is None or not entry.get("stream"):
        return [f"unknown stream schema {schema!r}"]
    problems = []
    for number, line in zip(numbers, lines):
        issues = (_field_problems(line, entry["fields"], "")
                  if isinstance(line, dict) else ["not an object"])
        if issues:
            problems.append(f"line {number}: " + "; ".join(issues))
    if not problems and entry.get("check"):
        problems += entry["check"](lines)
    return problems


def validate(data, schema=None) -> list[str]:
    """Problems with parsed artifact data (empty = valid).

    ``data`` is a document (an object) or a stream (a list of lines).
    Its schema is read from the data unless ``schema`` names the one it
    must have.
    """
    if isinstance(data, list):
        return _stream_problems(data, schema, range(1, len(data) + 1))
    if not isinstance(data, dict):
        return ["top level is not an object"]
    found = _schema_of(data)
    entry = SCHEMAS.get(schema or found)
    if entry is None:
        return [f"unknown schema {found!r}"]
    if entry.get("stream"):
        return _stream_problems([data], schema or found, [1])
    if schema is not None and found != schema:
        return [f"schema is {found!r}, expected {schema!r}"]
    problems = _field_problems(data, entry["fields"], "")
    if not problems and entry.get("check"):
        problems += entry["check"](data)
    return problems


def load(path: str, schema=None) -> tuple:
    """Read and validate one artifact file: ``(schema, data, problems)``.

    A file that parses as one JSON object is a document; otherwise each
    non-blank line is one JSON value of a stream, and a line that does
    not parse is reported and skipped.  A document whose schema is a
    stream schema (or not in the table) is read as a one-line stream.
    ``data`` is the document, the list of stream lines, or ``None`` when
    nothing usable was read.  ``schema`` names the schema the file must
    have; by default it is read from the file.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        return schema, None, [f"unreadable ({error})"]
    problems: list[str] = []
    try:
        data = json.loads(text)
        numbers = [1]
    except (ValueError, RecursionError) as error:
        data, numbers = [], []
        for number, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                data.append(json.loads(line))
                numbers.append(number)
            except (ValueError, RecursionError) as line_error:
                problems.append(f"line {number}: not JSON ({line_error})")
        if problems and not data:
            return schema, None, [f"not JSON ({error})"]
    else:
        if not isinstance(data, dict):
            return schema, None, ["top level is not an object"]
        found = schema or _schema_of(data)
        if found in SCHEMAS and not SCHEMAS[found].get("stream"):
            return found, data, validate(data, schema)
        data = [data]
    found = schema or (_schema_of(data[0]) if data else None)
    return found, data, problems + _stream_problems(data, schema, numbers)
