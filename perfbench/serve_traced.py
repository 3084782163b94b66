"""Run ``repro serve`` with the benchmark's spans around normalization.

Usage: ``python perfbench/serve_traced.py SPANS.jsonl serve [options]``.
Wraps ``parse`` before the catalog and the service modules bind it, and
the service's binding of ``to_source`` (not the recursive module function
itself, so one normalization is one span), runs the CLI, and writes the spans recorded in this process to
``SPANS.jsonl`` when the server has shut down.  Spawn-pool workers import
this file as ``__mp_main__`` and so install nothing.
"""

import importlib
import json
import sys


def main(argv: list[str]) -> int:
    from tracing import Tracer

    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer("serve")
    parser = importlib.import_module("repro.lang.parser")
    lang = importlib.import_module("repro.lang")
    tracer.patch(parser, "parse", "lang.parse", "lang")
    lang.parse = parser.parse  # the package re-export, same wrapper
    jobs = importlib.import_module("repro.serve.jobs")
    tracer.patch(jobs, "to_source", "lang.to_source", "lang")
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            for record in tracer.records:
                handle.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
