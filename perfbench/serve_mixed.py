"""The ``serve-mixed`` workload: a ``repro serve --jobs 2`` subprocess and
two closed-loop client threads sending ``litmus`` and ``validate`` jobs.

Each thread owns its op list.  Cold ops are distinct across both threads,
and a repeat names an earlier op of the *same* thread, which has finished
by then (closed loop).  So a cold op is always executed (``served_from``
``queue``) and a repeat is always answered from the verdict store
(``store``): the tallies are a function of the seed, never of timing.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Optional

from common import (BENCH_DIR, SETUP_REPEATS, Failed, OpLog, Result,
                    child_env, digest, loop_result, notion_reference,
                    round_count, run_cap_s, run_op)
from inproc import GEN_CONFIG, GEN_LENGTH

SERVE_JOBS = 2
CLIENT_THREADS = 2
REPEAT_SHARE = 0.5
LITMUS_SHARE = 0.25  # of cold ops, until the catalog is used up
#: Ops per client thread per second of nominal run length, as measured
#: on a 2-core Linux VM: a run's op lists have this many ops per thread
#: for every second of ``--seconds``.
OPS_PER_THREAD_PER_S = 60.0
TRACE_OPS_PER_THREAD = 40
SERVE_LIMIT_S = 30.0
READY_TIMEOUT_S = 60.0
#: Two trivially valid jobs, one per pool worker, that end the set-up:
#: the spawn workers' imports land in ``setup_s``, not in op latencies.
WARMUP_SPECS = ({"kind": "validate", "source": "x_na := 1; return 0;",
                 "target": "x_na := 1; return 0;"},
                {"kind": "validate", "source": "y_rlx := 1; return 0;",
                 "target": "y_rlx := 1; return 0;"})


class ServeInputs:
    """Per-thread op lists: ``(spec, reference)`` pairs."""

    def __init__(self, seed: int, per_thread: int) -> None:
        from repro.lang.pretty import to_source
        from repro.litmus import (EXTENDED_CASES, GeneratorConfig,
                                  ProgramGenerator)
        from repro.opt import DEFAULT_PASSES

        rng = random.Random(seed)
        cases = list(EXTENDED_CASES)
        rng.shuffle(cases)
        generator = ProgramGenerator(GeneratorConfig(**GEN_CONFIG), seed=seed)
        seen: set = set()

        def cold_validate() -> tuple[dict, tuple]:
            while True:
                program = generator.straightline(GEN_LENGTH)
                name, pass_fn = rng.choice(DEFAULT_PASSES)
                rewritten = pass_fn(program)
                if rewritten == program:
                    continue
                pair = (to_source(program), to_source(rewritten))
                if pair not in seen:
                    seen.add(pair)
                    return ({"kind": "validate", "source": pair[0],
                             "target": pair[1]}, ("validate", name))

        self.threads: list[list[tuple[dict, tuple]]] = []
        for index in range(CLIENT_THREADS):
            litmus = cases[index::CLIENT_THREADS]
            ops: list[tuple[dict, tuple]] = []
            for _ in range(per_thread):
                if ops and rng.random() < REPEAT_SHARE:
                    ops.append(ops[rng.randrange(len(ops))])
                elif litmus and rng.random() < LITMUS_SHARE:
                    case = litmus.pop()
                    ops.append(({"kind": "litmus", "case": case.name},
                                ("litmus", case.expected)))
                else:
                    ops.append(cold_validate())
            self.threads.append(ops)
        self.digest = digest(json.dumps(spec, sort_keys=True)
                             for ops in self.threads for spec, _ in ops)


def check_result(reference: tuple, result: dict) -> None:
    if reference[0] == "litmus":
        notion_reference(reference[1], result["measured"],
                         result["complete"])
    elif not result["valid"] or not result["complete"]:
        raise Failed(f"sound pass {reference[1]} rejected or incomplete")


class _Sink:
    """Collects a job's event stream and stamps the ``stream-end`` line."""

    def __init__(self) -> None:
        self.result: Optional[dict] = None
        self.state: Optional[str] = None
        self.ended: Optional[float] = None

    def write(self, text: str) -> None:
        event = json.loads(text)
        if event.get("ev") == "stream-end":
            self.ended = time.perf_counter()
            self.state = event.get("state")
        elif event.get("name") == "result":
            self.result = event

    def flush(self) -> None:
        pass


def submit_and_wait(base: str, spec: dict, timeout: float
                    ) -> tuple[dict, float, float, _Sink]:
    """POST the job, then read its event stream to ``stream-end``.
    Returns the submit response, the start and answer times of the
    submit (``perf_counter``), and the stream (``sink.ended``)."""
    from repro.serve import client

    started = time.perf_counter()
    submitted = client.submit(base, spec, timeout=timeout)
    answered = time.perf_counter()
    sink = _Sink()
    client.stream_events(base, submitted["job"], out=sink, timeout=timeout)
    if sink.ended is None:
        raise Failed("event stream closed without stream-end")
    if sink.state != "done":
        raise Failed(f"job ended {sink.state}")
    if sink.result is None:
        raise Failed("no result event")
    return submitted, started, answered, sink


class Server:
    """One ``repro serve`` subprocess with fresh store and cache dirs."""

    def __init__(self, scratch, traced_spans: Optional[str] = None,
                 hash_seed: Optional[int] = None) -> None:
        run_dir = scratch.fresh("serve")
        ready = os.path.join(run_dir, "ready")
        self.base: Optional[str] = None
        if traced_spans is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, os.path.join(BENCH_DIR,
                                                 "serve_traced.py"),
                    traced_spans]
        argv += ["serve", "--port", "0", "--jobs", str(SERVE_JOBS),
                 "--store", os.path.join(run_dir, "store"),
                 "--ready-file", ready]
        self.log = open(os.path.join(run_dir, "server.log"), "w")
        started = time.perf_counter()
        # its own process group, so a forced stop takes the pool workers too
        self.proc = subprocess.Popen(
            argv, cwd=run_dir, stdout=self.log, stderr=subprocess.STDOUT,
            env=child_env(os.path.join(run_dir, "cache"), hash_seed),
            start_new_session=True)
        try:
            self.base = self._wait_ready(ready)
            threads = [threading.Thread(target=submit_and_wait,
                                        args=(self.base, spec, 60.0))
                       for spec in WARMUP_SPECS]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _wait_ready(self, path: str) -> str:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            try:
                with open(path) as handle:
                    text = handle.read()
            except FileNotFoundError:
                text = ""
            if text.endswith("\n"):
                return text.strip()
            time.sleep(0.002)
        raise RuntimeError("repro serve never became ready")

    def stats(self) -> dict:
        from repro.serve import client

        return client.request(self.base, "GET", "/v1/stats")

    def peak_rss_mb(self) -> float:
        """Sum of each process's peak RSS over the server's process tree."""
        total_kb = 0
        for pid in _tree(self.proc.pid):
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                pass  # exited meanwhile
        return total_kb / 1024.0

    def stop(self) -> None:
        from repro.serve import client

        if self.proc.poll() is None and self.base is not None:
            try:
                client.shutdown(self.base, timeout=30)
                self.proc.wait(timeout=60)  # drains, then joins the pool
            except (client.ServiceError, subprocess.TimeoutExpired):
                pass  # forced below
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.log.close()


def _tree(pid: int) -> list[int]:
    pids = [pid]
    for current in pids:
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as h:
                    pids.extend(int(child) for child in h.read().split())
            except OSError:
                pass
    return pids


def drive(server: Server, threads: list, cap_s: Optional[float],
          tracer=None) -> tuple[OpLog, dict]:
    """Run every thread's op list against ``server`` in a closed loop, to
    the end of each list (or, with ``cap_s``, until that many seconds
    have passed).  Returns the merged op log and the ``served_from``
    tallies."""
    logs = [OpLog(SERVE_LIMIT_S) for _ in threads]
    tallies: dict[str, int] = {}
    lock = threading.Lock()
    started = time.perf_counter()
    stop = threading.Event()  # set when the run unwinds early

    def worker(ops, log) -> None:
        for index, (spec, reference) in enumerate(ops, 1):
            if stop.is_set():
                break
            if cap_s is not None and time.perf_counter() - started > cap_s:
                print(f"perfbench: client stopped after {index - 1} of "
                      f"{len(ops)} ops, past the {cap_s:.0f} s cap",
                      file=sys.stderr)
                break

            def op() -> None:
                submitted, sent, answered, sink = submit_and_wait(
                    server.base, spec, SERVE_LIMIT_S)
                served = submitted["served_from"]
                with lock:
                    tallies[served] = tallies.get(served, 0) + 1
                if tracer is not None:
                    tracer.add_span(f"serve.submit.{served}", "serve",
                                    sent, answered - sent,
                                    job=submitted["job"])
                    tracer.add_span(f"serve.stream.{served}", "serve",
                                    answered, sink.ended - answered,
                                    job=submitted["job"])
                check_result(reference, sink.result)

            run_op(log, f"{spec['kind']}:{index}", op)

    workers = [threading.Thread(target=worker, args=(ops, log))
               for ops, log in zip(threads, logs)]
    for thread in workers:
        thread.start()
    try:
        for thread in workers:
            thread.join()
    finally:
        stop.set()
    merged = OpLog(SERVE_LIMIT_S)
    for log in logs:
        merged.latencies += log.latencies
        merged.failures += log.failures
        merged.unsound += log.unsound
    merged.elapsed_s = time.perf_counter() - started
    return merged, tallies


def layer_metrics(tracer, tallies: dict, executed: int,
                  attempted: int) -> dict:
    """The ``serve`` metrics from client-side spans and the tallies, and
    the ``lang`` metrics from the traced server's own spans."""
    def median_ms(name: str) -> float:
        durations = [r["dur_s"] for r in tracer.records if r["name"] == name]
        return statistics.median(durations) * 1e3

    return {
        "serve.submit.store_ms": (median_ms("serve.submit.store"), "ms"),
        "serve.submit.queue_ms": (median_ms("serve.submit.queue"), "ms"),
        "serve.stream.store_ms": (median_ms("serve.stream.store"), "ms"),
        "serve.stream.queue_ms": (median_ms("serve.stream.queue"), "ms"),
        "serve.store_share": (tallies.get("store", 0) / attempted, "ratio"),
        "serve.dedup_share": (tallies.get("dedup", 0) / attempted, "ratio"),
        "serve.store_served": (tallies.get("store", 0), "count"),
        "serve.queue_served": (tallies.get("queue", 0), "count"),
        "serve.executed": (executed, "count"),
        "lang.parse.ms": (tracer.self_s("lang.parse") * 1e3, "ms"),
        "lang.parse.calls": (tracer.calls("lang.parse"), "count"),
        "lang.to_source.ms": (tracer.self_s("lang.to_source") * 1e3, "ms"),
    }


def measure(seed: int, seconds: float, scratch) -> Result:
    inputs = ServeInputs(seed, round_count(seconds, OPS_PER_THREAD_PER_S))
    setups: list[float] = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(scratch)
        setups.append(server.setup_s)
        server.stop()
    server = Server(scratch)
    setups.append(server.setup_s)
    try:
        log, tallies = drive(server, inputs.threads, run_cap_s(seconds))
        rss = server.peak_rss_mb()
        executed = server.stats()["executed"]
    finally:
        server.stop()
    return loop_result("serve-mixed", log, statistics.median(setups), rss,
                       {"digest": inputs.digest, "served_from": tallies,
                        "executed": executed,
                        "setup_samples": [round(s, 4) for s in setups]})
