"""The shared segment-file module and ``repro cache`` over both stores.

:mod:`repro.util.segments` owns the file lifecycle under the
certification store and the service's verdict store; ``repro cache``
maintains the whole directory, so a verdict written by the service must
not survive ``clear`` or a ``gc`` over budget.
"""

import json
import os

from repro.cli import main
from repro.psna.certstore import CertStore
from repro.serve.store import VerdictStore
from repro.util.segments import SegmentFamily, append_jsonl, read_jsonl

DIGEST = "0123456789abcdef0123456789abcdef"
VERDICT = "4f1c0ffee0000000000000000000000000000000000000000000000000000000"


def family(directory, header="fmt/1 v1"):
    """A toy family whose records are ``<digest>=<value>`` lines."""
    def parse(line):
        digest, sep, _ = line.partition("=")
        return digest if sep and digest else None
    return SegmentFamily(str(directory), "toy-", ".toy", header, parse)


def files(directory, suffix):
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(suffix))


class TestSegmentFamily:
    def test_create_renames_into_the_family(self, tmp_path):
        toy = family(tmp_path)
        path, handle = toy.create(["a=1"])
        handle.write("b=2\n")
        handle.close()
        assert toy.paths() == [path]
        assert files(tmp_path, ".tmp") == []
        assert [(d, line) for d, line, _ in toy.records(path)] \
            == [("a", "a=1"), ("b", "b=2")]

    def test_records_carry_byte_offsets(self, tmp_path):
        toy = family(tmp_path)
        path = toy.write(["a=1", "bb=22"])
        with open(path, "rb") as fh:
            data = fh.read()
        for _, line, offset in toy.records(path):
            assert data[offset:].startswith(line.encode() + b"\n")

    def test_rejected_and_truncated_lines_are_skipped(self, tmp_path):
        toy = family(tmp_path)
        path = toy.write(["a=1", "garbage", "b=2"])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("c=3")  # no newline: a killed writer
        assert [d for d, _, _ in toy.records(path)] == ["a", "b"]

    def test_other_header_is_stale(self, tmp_path):
        old = family(tmp_path, header="fmt/1 v0").write(["a=1"])
        toy = family(tmp_path)
        current = toy.write(["b=2"])
        assert list(toy.records(old)) == []
        assert toy.is_stale(old) and not toy.is_stale(current)
        assert toy.reap_stale() == 1
        assert toy.paths() == [current]

    def test_compaction_keeps_the_last_line_per_digest(self, tmp_path):
        toy = family(tmp_path)
        for name, lines in (("toy-1-a.toy", ["b=old", "a=1"]),
                            ("toy-1-b.toy", ["b=new", "c=3"])):
            with open(tmp_path / name, "w", encoding="utf-8") as fh:
                fh.write("fmt/1 v1\n" + "".join(f"{l}\n" for l in lines))
        toy.compact()
        [path] = toy.paths()
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == "fmt/1 v1\na=1\nb=new\nc=3\n"

    def test_compacting_nothing_leaves_no_segment(self, tmp_path):
        toy = family(tmp_path)
        path, handle = toy.create()
        handle.close()
        toy.compact()
        assert toy.paths() == []

    def test_clear_and_size(self, tmp_path):
        toy = family(tmp_path)
        toy.write(["a=1"])
        assert toy.size_bytes() == len("fmt/1 v1\na=1\n")
        toy.clear()
        assert toy.paths() == [] and toy.size_bytes() == 0

    def test_missing_directory_is_empty(self, tmp_path):
        toy = family(tmp_path / "absent")
        assert toy.paths() == [] and toy.size_bytes() == 0


class TestJsonl:
    def test_round_trip_skips_partial_lines(self, tmp_path):
        path = str(tmp_path / "sub" / "log.jsonl")
        append_jsonl(path, {"b": 2, "a": 1})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"torn": ')
        assert read_jsonl(path) == [{"a": 1, "b": 2}]

    def test_failed_write_is_swallowed(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        append_jsonl(str(blocker / "log.jsonl"), {"a": 1})
        assert read_jsonl(str(blocker / "log.jsonl")) == []


def seed(directory):
    """One cert entry and one verdict in a shared directory."""
    store = CertStore(str(directory))
    store.put(DIGEST, True)
    store.close()
    verdicts = VerdictStore(str(directory))
    verdicts.put(VERDICT, "validate", {"ok": True})
    verdicts.close()


class TestCacheCommandCoversBothStores:
    def test_clear_removes_verdict_segments(self, tmp_path, capsys):
        seed(tmp_path)
        assert main(["cache", "clear", "--dir", str(tmp_path)]) == 0
        assert "2 entries removed" in capsys.readouterr().out
        assert files(tmp_path, ".vseg") == []
        assert VerdictStore(str(tmp_path)).get(VERDICT) is None
        assert CertStore(str(tmp_path)).get(DIGEST) is None

    def test_gc_over_budget_drops_verdicts(self, tmp_path, capsys):
        seed(tmp_path)
        assert main(["cache", "gc", "--dir", str(tmp_path),
                     "--max-mb", "0"]) == 0
        assert "2 entries dropped" in capsys.readouterr().out
        assert files(tmp_path, ".vseg") == []
        assert files(tmp_path, ".seg") == []
        assert VerdictStore(str(tmp_path)).get(VERDICT) is None

    def test_gc_reaps_and_compacts_verdict_segments(self, tmp_path,
                                                    capsys):
        seed(tmp_path)
        stale = tmp_path / "verdict-1-stale.vseg"
        stale.write_text("repro-verdict-store/1 psna-0\n")
        extra = VerdictStore(str(tmp_path))
        extra.put("other", "validate", {"ok": False})
        extra.close()
        assert len(files(tmp_path, ".vseg")) == 3
        assert main(["cache", "gc", "--dir", str(tmp_path)]) == 0
        assert "1 stale segment(s) reaped, 0 entries dropped" \
            in capsys.readouterr().out
        assert len(files(tmp_path, ".vseg")) == 1
        reopened = VerdictStore(str(tmp_path))
        assert reopened.get(VERDICT) == {"ok": True}
        assert reopened.get("other") == {"ok": False}

    def test_stats_reports_verdicts(self, tmp_path, capsys):
        seed(tmp_path)
        artifact = tmp_path / "cert-store.json"
        assert main(["cache", "stats", "--dir", str(tmp_path),
                     "--json", str(artifact)]) == 0
        assert "verdicts  : 1 entries in 1 segment(s)" \
            in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert sorted(payload) == ["directory", "entries", "history",
                                   "schema", "segments", "semantics",
                                   "size_bytes"]
