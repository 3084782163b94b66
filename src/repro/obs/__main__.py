"""Command-line entry points of the observability package.

Four modes::

    python -m repro.obs FILE [FILE ...]
        Validate artifact files through the schema table
        (:mod:`repro.obs.schemas`): any mix of JSON documents and JSONL
        streams of the schemas it lists.  Exits 0 when every file
        validates, 1 otherwise.  This is what the CI benchmark
        smoke-check runs over ``BENCH_*.json``.

    python -m repro.obs diff OLD NEW [--tolerance 0.25] [--strict]
        Compare two ``repro-bench/1`` reports (or two directories of
        ``BENCH_*.json``) entry-by-entry on ``min_s`` (see
        :mod:`repro.obs.diff`).  Exits 0 when no entry regressed beyond
        the tolerance, 1 on a regression, 2 on usage or unreadable
        input; with ``--strict``, 3 when the directories hold
        asymmetric file sets.  This is the CI perf-trajectory gate.

    python -m repro.obs history {record,show,trend} ...
        The append-only run-history ledger (see
        :mod:`repro.obs.history`): ``record`` appends one record per
        bench entry, ``show`` lists recent records, ``trend`` computes
        rolling-median trends and exits 1 on a sustained regression.

    python -m repro.obs dashboard --out FILE [--root DIR] [--top N]
        Build the self-contained HTML dashboard over the artifacts
        found under ``--root`` (see :mod:`repro.obs.dashboard`).
        Exits 0 when written, 2 on usage or write errors.

With no arguments, prints this usage summary and exits 2.
"""

import sys
import textwrap

from .diff import main as _diff_main
from .schemas import SCHEMAS, load


def _listing(streams: bool) -> str:
    return ", ".join(schema for schema, entry in sorted(SCHEMAS.items())
                     if bool(entry.get("stream")) == streams)


_USAGE = "\n".join([
    "usage: python -m repro.obs FILE [FILE ...]",
    textwrap.fill(f"validate JSON documents ({_listing(False)}) and JSONL "
                  f"streams ({_listing(True)})",
                  width=72, initial_indent=" " * 11,
                  subsequent_indent=" " * 11, break_on_hyphens=False),
    """\
       python -m repro.obs diff OLD NEW [--tolerance 0.25] [--strict]
           compare two repro-bench/1 reports (or two directories of
           BENCH_*.json); exit 1 on perf regression, 3 on --strict
           directory asymmetry
       python -m repro.obs history {record,show,trend} ...
           append to / inspect the run-history ledger; trend exits 1
           on a sustained regression
       python -m repro.obs dashboard --out FILE [--root DIR] [--top N]
           build the self-contained HTML dashboard""",
])


def _validate(paths: list[str]) -> int:
    invalid = 0
    for path in paths:
        _schema, _data, problems = load(path)
        for problem in problems:
            print(f"{path}: {problem}")
        invalid += bool(problems)
    print(f"{len(paths) - invalid}/{len(paths)} report files valid")
    return 1 if invalid else 0


def _dashboard(argv: list[str]) -> int:
    from .dashboard import build_dashboard, load_inputs
    from .provenance import provenance_meta

    args = list(argv)
    options = {"--out": None, "--root": ".", "--top": "20"}
    for name in options:
        if name in args:
            index = args.index(name)
            if index + 1 == len(args):
                print(f"dashboard: {name} needs a value")
                return 2
            options[name] = args.pop(index + 1)
            del args[index]
    if args or not options["--out"]:
        print("usage: python -m repro.obs dashboard --out FILE "
              "[--root DIR] [--top N]")
        return 2
    inputs, problems = load_inputs(options["--root"])
    for problem in problems:
        print(f"dashboard: {problem}")
    page = build_dashboard(**inputs, top=int(options["--top"]),
                           meta=provenance_meta(options["--root"]))
    try:
        with open(options["--out"], "w") as handle:
            handle.write(page)
    except OSError as error:
        print(f"dashboard: cannot write {options['--out']}: {error}")
        return 2
    print(f"dashboard written to {options['--out']} "
          f"({len(inputs['benches'])} bench report(s), "
          f"{len(inputs['records'])} ledger record(s))")
    return 0


def main(argv: list[str]) -> int:
    if not argv:
        print(_USAGE)
        return 2
    if argv[0] == "diff":
        return _diff_main(argv[1:])
    if argv[0] == "history":
        from .history import main as _history_main
        return _history_main(argv[1:])
    if argv[0] == "dashboard":
        return _dashboard(argv[1:])
    return _validate(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
