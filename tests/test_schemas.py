"""The artifact schema table: one validator and one loader for every
``repro-*/N`` artifact.

Every writer's real output validates clean, the writers together emit
exactly the table's schemas, and malformed input from outside the
program is reported, never a crash.
"""

import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.cli import main as cli_main
from repro.lang import parse
from repro.obs import history
from repro.obs.__main__ import main as obs_main
from repro.obs.attrib import attrib_payload
from repro.obs.coverage import coverage_payload
from repro.obs.monitor import monitor_payload
from repro.obs.report import bench_payload, stats_payload
from repro.obs.schemas import EVENTS_SCHEMA, SCHEMAS, load, validate
from repro.obs.statespace import graph_payload
from repro.psna import explore, promise_free_config
from repro.psna.certstore import CertStore
from repro.serve import client
from repro.serve.http import make_server
from repro.serve.metrics import ServiceMetrics
from repro.serve.service import VerificationService
from repro.serve.store import VerdictStore

SB = ["x_rlx := 1; a := y_rlx; return a;",
      "y_rlx := 1; b := x_rlx; return b;"]

ENTRY = {"name": "case", "rounds": 3, "min_s": 0.1, "mean_s": 0.2,
         "max_s": 0.3, "extra": {"states": 7}}


def _session_artifacts() -> dict:
    with obs.session(attrib=True, graph=True, monitor="strict") as session:
        explore([parse(source) for source in SB], promise_free_config())
    snapshot = session.metrics.snapshot()
    return {
        "stats_payload": stats_payload(snapshot, meta={"command": "t"}),
        "coverage_payload": coverage_payload(snapshot),
        "attrib_payload": attrib_payload(session.attrib,
                                         snapshot["counters"]),
        "graph_payload": graph_payload(session.graph),
        "monitor_payload": monitor_payload(session.monitor),
    }


def _service_artifacts(directory) -> dict:
    """The service's own outputs, through a real HTTP socket."""
    service = VerificationService(jobs=1, store_dir=str(directory / "vs"))
    server = make_server("127.0.0.1", 0, service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    try:
        metrics = ServiceMetrics()
        metrics.inc("requests.total", 3)
        metrics.observe("request.latency_s", 0.02)
        metrics.sample("queue.depth", 1)
        job = client.submit(base, {"kind": "litmus", "case": "slf-basic"},
                            trace_id="schema-test")["job"]
        client.wait_job(base, job, timeout=60.0)
        trace_path = directory / "job-trace.ndjson"
        with urllib.request.urlopen(f"{base}/v1/jobs/{job}/trace",
                                    timeout=30.0) as response:
            trace_path.write_bytes(response.read())
        return {
            "ServiceMetrics.snapshot": metrics.snapshot(),
            "GET /v1/jobs/<id>/trace": str(trace_path),
            "GET /v1/stats": client.request(base, "GET", "/v1/stats"),
        }
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.shutdown(drain=True, timeout=30.0)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Writer name -> its output: a payload, or the path of a file."""
    directory = tmp_path_factory.mktemp("artifacts")
    found = _session_artifacts()
    found["bench_payload"] = bench_payload("demo", [ENTRY])
    store = CertStore(str(directory / "cert"))
    store.put("ab" * 32, True)
    store.close()
    found["CertStore.stats"] = CertStore(str(directory / "cert")).stats()
    found["VerdictStore.stats"] = VerdictStore(str(directory / "vs")).stats()
    stream, trace = directory / "litmus.ndjson", directory / "litmus.jsonl"
    assert cli_main(["litmus", "--stream", str(stream),
                     "--trace", str(trace)]) == 0
    found["litmus --stream"] = str(stream)
    found["litmus --trace"] = str(trace)
    ledger = str(directory / "ledger.jsonl")
    history.append_records(ledger, history.ledger_records(
        found["bench_payload"], sha="abc", stamp="2026-01-01T00:00:00Z"))
    found["history ledger"] = ledger
    found.update(_service_artifacts(directory))
    return found


WRITERS = ("stats_payload", "bench_payload", "graph_payload",
           "monitor_payload", "coverage_payload", "attrib_payload",
           "CertStore.stats", "VerdictStore.stats", "ServiceMetrics.snapshot",
           "litmus --stream", "litmus --trace", "GET /v1/jobs/<id>/trace",
           "GET /v1/stats", "history ledger")


def _checked(output) -> tuple:
    """``(schema, problems)`` of one writer's output."""
    if isinstance(output, str):
        schema, _data, problems = load(output)
        return schema, problems
    return (output.get("schema") or output.get("service"),
            validate(output))


class TestWritersRoundTrip:
    @pytest.mark.parametrize("writer", WRITERS)
    def test_output_validates_clean(self, artifacts, writer):
        schema, problems = _checked(artifacts[writer])
        assert schema in SCHEMAS
        assert problems == []

    def test_writers_emit_exactly_the_table(self, artifacts):
        assert set(artifacts) == set(WRITERS)
        emitted = {_checked(output)[0] for output in artifacts.values()}
        assert emitted == set(SCHEMAS)

    def test_validator_cli_accepts_litmus_stream_and_trace(self, artifacts,
                                                          capsys):
        assert obs_main([artifacts["litmus --stream"],
                         artifacts["litmus --trace"]]) == 0
        assert "2/2 report files valid" in capsys.readouterr().out


class TestMalformedInput:
    @pytest.mark.parametrize("text, problem", [
        ("[1, 2]", "top level is not an object"),
        ('"x"', "top level is not an object"),
        ('{"schema": "repro-graph/1", "graphs": {"g": {"elements": 5}}}',
         "graphs.g.elements is not an object"),
    ])
    def test_validator_cli_reports_instead_of_crashing(self, tmp_path,
                                                       capsys, text,
                                                       problem):
        path = tmp_path / "artifact.json"
        path.write_text(text)
        assert obs_main([str(path)]) == 1
        assert f"{path}: {problem}" in capsys.readouterr().out

    def test_backwards_seq_fails_the_validator_cli(self, tmp_path, capsys):
        path = tmp_path / "events.ndjson"
        lines = [{"ev": "meta", "schema": EVENTS_SCHEMA, "seq": 0, "t": 0},
                 {"ev": "state", "seq": 2, "t": 0},
                 {"ev": "state", "seq": 1, "t": 0}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert obs_main([str(path)]) == 1
        assert "seq 1 not monotonic" in capsys.readouterr().out

    def test_unparsable_stream_lines_are_reported_and_skipped(self,
                                                              tmp_path):
        path = tmp_path / "events.ndjson"
        path.write_text(json.dumps({"ev": "meta", "schema": EVENTS_SCHEMA,
                                    "seq": 0, "t": 0}) + "\n{truncated\n")
        schema, data, problems = load(str(path))
        assert schema == EVENTS_SCHEMA and len(data) == 1
        assert len(problems) == 1 and problems[0].startswith("line 2: ")

    def test_ledger_skips_non_object_lines(self, tmp_path, capsys):
        ledger = str(tmp_path / "ledger.jsonl")
        history.append_records(ledger, history.ledger_records(
            bench_payload("demo", [ENTRY]), sha="abc",
            stamp="2026-01-01T00:00:00Z"))
        with open(ledger, "a") as handle:
            handle.write("[1]\n")
        records, problems = history.read_ledger(ledger)
        assert len(records) == 1
        assert problems == [f"{ledger}: line 2: not an object"]
        for command in ("show", "trend"):
            assert history.main([command, "--ledger", ledger]) == 0
        assert "warning:" in capsys.readouterr().out

    def test_dashboard_shows_no_data_for_malformed_inputs(self, tmp_path,
                                                          capsys):
        (tmp_path / "monitor.json").write_text(json.dumps(
            {"schema": "repro-monitor/1", "mode": "strict",
             "invariants": [1]}))
        (tmp_path / "graph-stats.json").write_text(json.dumps(
            {"schema": "repro-graph/1", "graphs": {"g": 5}}))
        out = tmp_path / "dashboard.html"
        assert obs_main(["dashboard", "--out", str(out),
                         "--root", str(tmp_path)]) == 0
        printed = capsys.readouterr().out
        assert "monitor.json: invariants is not an object" in printed
        assert "graph-stats.json: graphs.g is not an object" in printed
        page = out.read_text()
        assert "no monitor report" in page and "no graph report" in page
