"""The service client: ``repro client`` and the CI smoke's code path.

A thin :mod:`urllib` wrapper over the ``/v1`` endpoints — no third-party
HTTP stack, mirroring the server.  The one substantive piece is
:func:`run_litmus`: it submits the whole litmus catalog as one batch,
waits for every job, and renders the rows through
:func:`repro.runner.render_litmus`, the renderer ``repro litmus`` uses,
so both print the same bytes (which the CI smoke also byte-compares).
The batch response also reports how many submissions were answered
straight from the verdict store (``served_from == "store"``), which
:func:`run_litmus` can export for the warm-hit-rate gate.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import IO, Optional

DEFAULT_BASE = "http://127.0.0.1:8642"

#: How often :func:`wait_job` re-polls a job that is not done yet.
POLL_INTERVAL_S = 0.05


class ServiceError(Exception):
    """An error response (``repro-error/1``) or transport failure."""

    def __init__(self, status: int, code: str, detail: str) -> None:
        super().__init__(f"{code}: {detail}")
        self.status = status
        self.code = code
        self.detail = detail


def request(base: str, method: str, path: str,
            body: Optional[dict] = None,
            timeout: float = 120.0,
            headers: Optional[dict] = None) -> dict:
    """One JSON request/response round-trip; raises ServiceError on any
    HTTP error (decoding the ``repro-error/1`` body) or socket failure."""
    data = None
    send_headers = {"Accept": "application/json"}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        send_headers["Content-Type"] = "application/json"
    if headers:
        send_headers.update(headers)
    req = urllib.request.Request(base.rstrip("/") + path, data=data,
                                 headers=send_headers, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read().decode("utf-8"))
        except ValueError:
            payload = {}
        raise ServiceError(error.code,
                           payload.get("error", "http-error"),
                           payload.get("detail", str(error)))
    except urllib.error.URLError as error:
        raise ServiceError(0, "unreachable",
                           f"cannot reach {base}: {error.reason}")


def stream_events(base: str, job_id: str, since: int = 0,
                  out: Optional[IO[str]] = None,
                  timeout: float = 300.0) -> int:
    """Copy a job's NDJSON event stream to ``out`` as it grows; returns
    the number of lines written.  The server closes the stream after the
    ``stream-end`` sentinel, so this terminates without client-side
    idle logic."""
    sink = out if out is not None else sys.stdout
    req = urllib.request.Request(
        base.rstrip("/") + f"/v1/jobs/{job_id}/events?since={since}",
        headers={"Accept": "application/x-ndjson"})
    lines = 0
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            for raw in response:
                sink.write(raw.decode("utf-8"))
                sink.flush()
                lines += 1
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read().decode("utf-8"))
        except ValueError:
            payload = {}
        raise ServiceError(error.code,
                           payload.get("error", "http-error"),
                           payload.get("detail", str(error)))
    except urllib.error.URLError as error:
        raise ServiceError(0, "unreachable",
                           f"cannot reach {base}: {error.reason}")
    return lines


def wait_job(base: str, job_id: str, timeout: float = 300.0,
             poll_s: float = POLL_INTERVAL_S) -> dict:
    """Poll until the job is ``done``/``failed``; returns its status
    body.  Raises ServiceError(0, "timeout", ...) past the deadline."""
    deadline = time.monotonic() + timeout
    while True:
        status = request(base, "GET", f"/v1/jobs/{job_id}")
        if status.get("state") in ("done", "failed"):
            return status
        if time.monotonic() >= deadline:
            raise ServiceError(0, "timeout",
                               f"job {job_id} still "
                               f"{status.get('state')!r} after "
                               f"{timeout:.0f}s")
        time.sleep(poll_s)


def submit(base: str, spec: dict, timeout: float = 120.0,
           trace_id: Optional[str] = None) -> dict:
    headers = {"X-Repro-Trace": trace_id} if trace_id else None
    return request(base, "POST", "/v1/jobs", body=spec, timeout=timeout,
                   headers=headers)


def submit_batch(base: str, specs: list,
                 timeout: float = 300.0,
                 trace_id: Optional[str] = None) -> dict:
    headers = {"X-Repro-Trace": trace_id} if trace_id else None
    return request(base, "POST", "/v1/batch", body={"jobs": specs},
                   timeout=timeout, headers=headers)


def fetch_metrics(base: str, as_json: bool = True,
                  timeout: float = 60.0):
    """``GET /v1/metrics``: the ``repro-servemetrics/1`` payload
    (``as_json=True``) or the raw Prometheus exposition text."""
    if as_json:
        return request(base, "GET", "/v1/metrics?format=json",
                       timeout=timeout)
    req = urllib.request.Request(
        base.rstrip("/") + "/v1/metrics",
        headers={"Accept": "text/plain"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        raise ServiceError(error.code, "http-error", str(error))
    except urllib.error.URLError as error:
        raise ServiceError(0, "unreachable",
                           f"cannot reach {base}: {error.reason}")


def fetch_trace(base: str, job_id: str, timeout: float = 60.0) -> list:
    """``GET /v1/jobs/<id>/trace``: the job's span records, parsed."""
    req = urllib.request.Request(
        base.rstrip("/") + f"/v1/jobs/{job_id}/trace",
        headers={"Accept": "application/x-ndjson"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            text = response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        try:
            payload = json.loads(error.read().decode("utf-8"))
        except ValueError:
            payload = {}
        raise ServiceError(error.code,
                           payload.get("error", "http-error"),
                           payload.get("detail", str(error)))
    except urllib.error.URLError as error:
        raise ServiceError(0, "unreachable",
                           f"cannot reach {base}: {error.reason}")
    return [json.loads(line) for line in text.splitlines() if line]


def run_litmus(base: str, extended: bool = False,
               as_json: bool = True,
               out: Optional[IO[str]] = None,
               cache_stats: Optional[dict] = None,
               timeout: float = 600.0) -> int:
    """The service-backed litmus table, byte-identical to the CLI's.

    Submits the catalog as one batch, waits for every job in catalog
    order, and prints what ``repro litmus --format json|table`` prints.
    When ``cache_stats`` (a dict) is given, it is filled with the batch
    submission accounting: ``total``, ``cached`` (answered from the
    verdict store without executing), and ``hit_rate`` — the CI warm
    gate reads these.  Returns the CLI's exit status (1 on mismatch).
    """
    from ..litmus import ALL_TRANSFORMATION_CASES, EXTENDED_CASES
    from ..runner import render_litmus

    cases = EXTENDED_CASES if extended else ALL_TRANSFORMATION_CASES
    specs = [{"kind": "litmus", "case": case.name} for case in cases]
    batch = submit_batch(base, specs, timeout=timeout)
    if cache_stats is not None:
        total = batch["total"]
        cached = batch["cached"]
        cache_stats.update(total=total, cached=cached,
                           hit_rate=cached / total if total else 0.0)
    rows = []
    for entry in batch["jobs"]:
        status = wait_job(base, entry["job"], timeout=timeout)
        if status.get("state") != "done":
            raise ServiceError(0, "job-failed",
                               f"job {entry['job']} "
                               f"{status.get('state')}: "
                               f"{status.get('error')}")
        rows.append(status["result"])
    mismatches = render_litmus(rows, as_json, out)
    return 1 if mismatches else 0


def shutdown(base: str, timeout: float = 60.0) -> dict:
    return request(base, "POST", "/v1/shutdown", timeout=timeout)
