"""Time-to-verdict benchmark for the reproduction, end to end and by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all --seed N --seconds S

``--trace 0`` measures one workload and prints its end-to-end metrics.
A run does a fixed amount of seeded work, sized to take about ``S``
seconds on a 2-core Linux VM, so that two runs with the same seed attempt
the same ops (see ``common.round_count``).  ``--trace 1`` runs the
traced op sets of every workload (the same for any ``--workload``) and
prints the per-layer metrics, including the tracing overhead per
workload; the spans go to
``.perfbench-out/trace-seed<N>.jsonl`` in ``repro-trace/1`` shape.
``--all`` runs the four workloads untraced, one after another, and prints
every end-to-end metric with its unit.  The last line of standard output
is always one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is 1 when a verdict accepted what its
reference rejects, 2 on a usage or set-up error.

See ``perfbench/README.md`` for the workloads and what each one loads.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

from common import (BENCH_DIR, OUT_DIR, SETUP_REPEATS, SRC, OpLog, Result,
                    Scratch, child_env, closed_loop, loop_result, round_count,
                    run_cap_s, run_child, run_op, self_peak_rss_mb,
                    setup_probe)

WORKLOADS = ("seq-validate", "psna-adequacy", "serve-mixed", "cli-oneshot")
LAYERS = ("cli", "lang", "opt", "seq", "psna", "adequacy", "serve")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up for the setup_s probe / one traced op set
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace-part", choices=WORKLOADS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None and args.trace_part is None:
        parser.error("--workload or --all is required")
    return args


# -- untraced: end-to-end metrics ----------------------------------------------


def measure(workload: str, seed: int, seconds: float, scratch) -> Result:
    if workload == "serve-mixed":
        import serve_mixed

        return serve_mixed.measure(seed, seconds, scratch)
    setup_s = statistics.median(setup_probe(workload, seed, scratch.cache)
                                for _ in range(SETUP_REPEATS))
    if workload == "cli-oneshot":
        from cli_oneshot import CLI_LIMIT_S, ROUNDS_PER_S, CliOneshot

        bench = CliOneshot(seed, scratch)
        log = closed_loop(bench.rounds(), round_count(seconds, ROUNDS_PER_S),
                          CLI_LIMIT_S, run_cap_s(seconds))
        rss = bench.peak_rss_mb
    else:
        import inproc

        bench = inproc.make(workload, seed)
        bench.warm_up()
        log = closed_loop(bench.rounds(),
                          round_count(seconds, bench.rounds_per_s),
                          inproc.limit_for(workload), run_cap_s(seconds))
        rss = self_peak_rss_mb()
    return loop_result(workload, log, setup_s, rss, {"digest": bench.digest})


def setup_only(workload: str, seed: int, scratch) -> None:
    if workload == "cli-oneshot":
        from cli_oneshot import CliOneshot

        CliOneshot(seed, scratch)
    else:
        import inproc

        inproc.make(workload, seed).warm_up()


# -- traced: per-layer metrics -------------------------------------------------


def trace_part(workload: str, seed: int, traced: bool, spans_path: str,
               scratch) -> dict:
    """Run one workload's fixed traced op set, traced or not; returns its
    wall time, per-layer metrics and op counts, and writes its spans."""
    from tracing import Tracer

    tracer = Tracer(f"perfbench-{seed}") if traced else None
    metrics: dict = {}
    if workload == "serve-mixed":
        import serve_mixed

        inputs = serve_mixed.ServeInputs(
            seed, per_thread=serve_mixed.TRACE_OPS_PER_THREAD)
        server_spans = os.path.join(scratch.path, "server-spans.jsonl")
        server = serve_mixed.Server(
            scratch, traced_spans=server_spans if traced else None,
            hash_seed=seed)
        try:
            log, tallies = serve_mixed.drive(server, inputs.threads, None,
                                             tracer)
            executed = server.stats()["executed"]
        finally:
            server.stop()
        if traced:
            with open(server_spans) as handle:
                tracer.records += [json.loads(line) for line in handle]
            metrics = serve_mixed.layer_metrics(tracer, tallies, executed,
                                                log.attempted)
        digest = inputs.digest
    else:
        if workload == "cli-oneshot":
            from cli_oneshot import CLI_LIMIT_S, CliOneshot

            bench, limit = CliOneshot(seed, scratch), CLI_LIMIT_S
        else:
            import inproc

            bench = inproc.make(workload, seed)
            bench.warm_up()
            if traced:
                bench.patch(tracer)
            limit = inproc.limit_for(workload)
        ops = bench.trace_round(tracer)
        log = OpLog(limit)
        started = time.perf_counter()
        for label, fn in ops:
            if traced:
                fn = _in_span(tracer, label, fn)
            run_op(log, label, fn)
        log.elapsed_s = time.perf_counter() - started
        if traced:
            if workload == "cli-oneshot":
                metrics = bench.layer_metrics(scratch.fresh("probe"), tracer)
            else:
                tracer.unpatch()
                metrics = bench.layer_metrics(tracer)
        digest = bench.digest
    if traced:
        with open(spans_path, "w") as handle:
            for record in tracer.records:
                # one id space and one trace across parts and processes
                record["workload"] = workload
                record["trace"] = tracer.trace_id
                for key in ("span", "parent"):
                    if key in record:
                        record[key] = f"{workload}/{record[key]}"
                handle.write(json.dumps(record, default=repr) + "\n")
    return {"wall_s": log.elapsed_s, "metrics": metrics,
            "attempted": log.attempted, "failed": log.failed,
            "failures": log.failures, "unsound": log.unsound,
            "digest": digest}


def _in_span(tracer, label: str, fn):
    layer = "cli" if label.startswith(("validate", "optimize", "litmus")) \
        else "bench"

    def op() -> None:
        with tracer.span(f"op.{label.split(':')[0]}", layer, op=label):
            fn()
    return op


def traced(seed: int, scratch) -> Result:
    """Every workload's traced op set, each in a fresh interpreter, run
    untraced and then traced; the difference is the tracing overhead."""
    metrics: dict = {}
    records: list[dict] = []
    digests = {}
    attempted = failed = 0
    failures: list[str] = []
    correct = True
    for workload in WORKLOADS:
        walls = {}
        for flag in (0, 1):
            spans = os.path.join(scratch.path, f"spans-{workload}.jsonl")
            argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                    "--trace-part", workload, "--seed", str(seed),
                    "--traced", str(flag), "--spans", spans]
            code, out = run_child(argv, child_env(scratch.cache, seed),
                                  timeout=170)
            if code != 0:
                raise RuntimeError(f"traced part {workload} failed")
            part = json.loads(out.strip().splitlines()[-1])
            walls[flag] = part["wall_s"]
            correct = correct and not part["unsound"]
        attempted += part["attempted"]
        failed += part["failed"]
        failures += part["failures"]
        digests[workload] = part["digest"]
        metrics.update({k: tuple(v) for k, v in part["metrics"].items()})
        metrics[f"overhead.{workload}_ms"] = (
            (walls[1] - walls[0]) * 1e3, "ms")
        with open(spans) as handle:
            records += [json.loads(line) for line in handle]
    for layer in LAYERS:
        metrics[f"self.{layer}_ms"] = (
            sum(r["self_s"] for r in records if r["layer"] == layer) * 1e3,
            "ms")
    from tracing import write_trace

    os.makedirs(OUT_DIR, exist_ok=True)
    trace_path = os.path.join(OUT_DIR, f"trace-seed{seed}.jsonl")
    write_trace(trace_path, f"perfbench-{seed}", records, seed=seed,
                digests=digests)
    return Result("trace", correct, attempted, failed,
                  dict(sorted(metrics.items())),
                  {"digests": digests, "trace": trace_path,
                   "failures": failures})


# -- all workloads -------------------------------------------------------------


def run_all(seed: int, seconds: float) -> int:
    status = 0
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        code, out = run_child(argv)
        status = max(status, code)
        lines = out.strip().splitlines()
        if not lines:
            totals["correct"] = False
            continue
        result = json.loads(lines[-1])
        totals["correct"] = totals["correct"] and result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        print(f"{workload}: attempted {result['attempted']}, failed "
              f"{result['failed']}, correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<18} {metric['value']:>12.4f} {metric['unit']}")
            totals["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(totals))
    return status


def _terminate(signum, frame) -> None:
    # SIGTERM unwinds like an error: servers are shut down, subprocesses
    # killed and scratch directories removed on the way out.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    args = parse_args(argv)
    hash_seed = str(args.seed % 4294967296)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        # The seed fixes the hash seed too, so set and dict orders inside
        # the program, and with them its verdicts and counts, repeat.
        os.environ["PYTHONHASHSEED"] = hash_seed
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)]
                 + (sys.argv[1:] if argv is None else list(argv)))
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: {SRC}/repro not found; run from the root of a "
              f"full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.all:
        return run_all(args.seed, args.seconds)
    with Scratch() as scratch:
        if args.setup_probe:
            setup_only(args.workload, args.seed, scratch)
            print("ready")
            return 0
        if args.trace_part:
            part = trace_part(args.trace_part, args.seed, bool(args.traced),
                              args.spans, scratch)
            print(json.dumps(part, default=list))
            return 0
        if args.trace:
            result = traced(args.seed, scratch)
        else:
            result = measure(args.workload, args.seed, args.seconds, scratch)
    result.save(f"{'trace' if args.trace else args.workload}"
                f"-seed{args.seed}.json")
    print(result.table(), file=sys.stderr)
    print(result.json_line())
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
