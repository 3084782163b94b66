"""The ``cli-oneshot`` workload: sequential one-shot CLI runs.

One caller runs ``repro validate``, ``repro optimize --validate`` and
``repro litmus --extended --format json`` at ``--jobs 1`` and ``--jobs 2``
as subprocesses, one after another.  Every run pays interpreter start and
``import repro.cli``; the ``--jobs 2`` litmus run also pays ``runner``'s
spawn-pool dispatch.
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
from typing import Callable, Iterator, Optional

from common import Failed, Unsound, child_env, digest, notion_reference
from inproc import GEN_CONFIG, GEN_LENGTH

CLI_LIMIT_S = 60.0
#: One round: this many of each op kind, shuffled by the seed.  The mix
#: puts the median inside the validate/optimize runs and the 90th
#: percentile inside the ``--jobs 2`` litmus runs, not at a boundary
#: between op kinds.
ROUND = (("validate", 3), ("optimize", 3), ("litmus-j1", 1),
         ("litmus-j2", 2))
OPTIMIZE_PROGRAMS = 256
#: Rounds per second of nominal run length (see ``common.round_count``).
ROUNDS_PER_S = 0.15


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # already gone


class CliRun:
    """One finished subprocess: output, exit code, wall time, and peak RSS
    (``wait4``'s, which covers the spawn workers the child waited for)."""

    def __init__(self, argv: list[str], env: dict, cwd: str,
                 timeout: float = CLI_LIMIT_S) -> None:
        with open(os.path.join(cwd, "stderr.txt"), "w+") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                    stdout=subprocess.PIPE, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                self.stdout = proc.stdout.read()
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
                proc.stdout.close()
            self.wall_s = time.perf_counter() - started
            proc.returncode = self.returncode = \
                os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            err.seek(0)
            self.stderr = err.read()
        if self.returncode == -signal.SIGKILL:
            raise Failed(f"{argv[3:5]} over {timeout:.0f} s")


class CliOneshot:
    name = "cli-oneshot"

    def __init__(self, seed: int, scratch) -> None:
        from repro.lang import parse
        from repro.lang.pretty import to_source
        from repro.litmus import (EXTENDED_CASES, GeneratorConfig,
                                  ProgramGenerator)
        from repro.opt import Optimizer

        self.seed = seed
        self.expected = {case.name: case.expected for case in EXTENDED_CASES}
        rng = random.Random(seed)
        # Catalog pairs with a concrete syntax (undef literals have none).
        self.pairs = []
        for case in EXTENDED_CASES:
            try:
                texts = (to_source(case.source), to_source(case.target))
            except ValueError:
                continue
            if (parse(texts[0]), parse(texts[1])) == (case.source,
                                                      case.target):
                self.pairs.append((*texts, case.expected))
        rng.shuffle(self.pairs)
        generator = ProgramGenerator(GeneratorConfig(**GEN_CONFIG), seed=seed)
        self.programs = []
        for _ in range(OPTIMIZE_PROGRAMS):
            program = generator.straightline(GEN_LENGTH)
            optimized = Optimizer().optimize(program).optimized
            self.programs.append((to_source(program), to_source(optimized)))
        self.digest = digest([f"{s}\x01{t}" for s, t, _ in self.pairs]
                             + [p for p, _ in self.programs])
        self.cwd = scratch.fresh("cli")
        self.env = child_env(scratch.cache)
        self.peak_rss_mb = 0.0
        self.litmus_output: Optional[bytes] = None
        self.walls: dict[str, list[float]] = {}

    def _run(self, kind: str, args: list[str]) -> CliRun:
        run = CliRun([sys.executable, "-m", "repro", *args], self.env,
                     self.cwd)
        self.peak_rss_mb = max(self.peak_rss_mb, run.peak_rss_mb)
        self.walls.setdefault(kind, []).append(run.wall_s)
        return run

    def validate(self, source: str, target: str, expected: str) -> None:
        run = self._run("validate", ["validate", source, target])
        text = run.stdout.decode()
        if run.returncode == 0 and text.startswith("VALID — certified by "):
            measured = text.split()[4]
        elif run.returncode == 1 and text.startswith("INVALID"):
            measured = "invalid"
        else:
            raise Failed(f"validate exit {run.returncode}: "
                         f"{run.stderr.strip()[-200:]}")
        notion_reference(expected, measured,
                         "incomplete" not in run.stderr)

    def optimize(self, program: str, optimized: str) -> None:
        run = self._run("optimize", ["optimize", "--validate", program])
        if run.returncode != 0:
            raise Failed(f"sound pass rejected (exit {run.returncode}): "
                         f"{run.stderr.strip()[-200:]}")
        if run.stdout.decode().strip() != optimized.strip():
            raise Failed("optimized program differs from the passes' own")

    def litmus(self, jobs: int) -> None:
        run = self._run(f"litmus-j{jobs}",
                        ["litmus", "--extended", "--format", "json",
                         "--jobs", str(jobs)])
        if run.returncode not in (0, 1):
            raise Failed(f"litmus exit {run.returncode}: "
                         f"{run.stderr.strip()[-200:]}")
        rows = json.loads(run.stdout)["cases"]
        if len(rows) != len(self.expected):
            raise Failed(f"{len(rows)} litmus rows, expected "
                         f"{len(self.expected)}")
        for row in rows:
            notion_reference(self.expected[row["case"]], row["measured"],
                             row["complete"])
        if self.litmus_output is None:
            self.litmus_output = run.stdout
        elif run.stdout != self.litmus_output:
            raise Unsound(f"--jobs {jobs} litmus JSON differs from an "
                          f"earlier run's bytes")

    def rounds(self) -> Iterator[list[tuple[str, Callable[[], None]]]]:
        """Each round: the ``ROUND`` mix, in a seeded order."""
        rng = random.Random(self.seed)
        counters = {"validate": 0, "optimize": 0}
        while True:
            batch = [kind for kind, count in ROUND for _ in range(count)]
            rng.shuffle(batch)
            ops = []
            for kind in batch:
                if kind == "validate":
                    source, target, expected = self.pairs[
                        counters[kind] % len(self.pairs)]
                    fn = (lambda s=source, t=target, e=expected:
                          self.validate(s, t, e))
                elif kind == "optimize":
                    program, optimized = self.programs[
                        counters[kind] % len(self.programs)]
                    fn = (lambda p=program, o=optimized:
                          self.optimize(p, o))
                else:
                    fn = (lambda j=int(kind[-1]): self.litmus(j))
                counters[kind] = counters.get(kind, 0) + 1
                ops.append((kind, fn))
            yield ops

    def trace_round(self, tracer) -> list[tuple[str, Callable[[], None]]]:
        """The traced op set: the first round (spans come from outside,
        around each subprocess)."""
        return next(self.rounds())

    def layer_metrics(self, scratch_cwd: str, tracer) -> dict:
        """The ``cli`` and ``runner`` metrics: interpreter, import and
        ``--version`` costs (medians of three), and the litmus
        ``--jobs 2`` over ``--jobs 1`` wall-time ratio (medians over the
        round's runs and one more of each)."""
        samples: dict[str, list[float]] = {}
        probes = (("cli.interp", [sys.executable, "-c", "pass"]),
                  ("cli.import", [sys.executable, "-c", "import repro.cli"]),
                  ("cli.version", [sys.executable, "-m", "repro",
                                   "--version"]))
        for _ in range(3):
            for name, argv in probes:
                started = time.perf_counter()
                run = CliRun(argv, self.env, scratch_cwd)
                if run.returncode != 0:
                    raise RuntimeError(f"{name} probe failed")
                tracer.add_span(name, "cli", started, run.wall_s)
                samples.setdefault(name, []).append(run.wall_s)
        self.litmus(1)
        self.litmus(2)
        interp = statistics.median(samples["cli.interp"])
        return {
            "cli.interp_ms": (interp * 1e3, "ms"),
            "cli.import_ms": ((statistics.median(samples["cli.import"])
                               - interp) * 1e3, "ms"),
            "cli.version_ms": (statistics.median(samples["cli.version"])
                               * 1e3, "ms"),
            "runner.jobs2_over_jobs1": (
                statistics.median(self.walls["litmus-j2"])
                / statistics.median(self.walls["litmus-j1"]), "ratio"),
        }
