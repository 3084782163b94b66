"""Golden bytes for both on-disk store formats.

The certification store (``segment-*.seg``) and the service's verdict
store (``verdict-*.vseg``) must write exactly these bytes for these
puts — fresh segments and compacted ones alike — so a refactor of the
segment code cannot silently change the format that existing cache
directories hold.  The header literals also pin
``SEMANTICS_VERSION``: a semantics bump must update them on purpose.
"""

import os

from repro.psna.certstore import CertStore
from repro.serve.store import VerdictStore

DIGEST = "0123456789abcdef0123456789abcdef"
OTHER = "fedcba9876543210fedcba9876543210"

#: Enough one-entry handles to push both stores past their compaction
#: threshold (more than 16 segments) exactly once.
HANDLES = 17


def only_segment(directory, suffix):
    names = [name for name in os.listdir(directory) if name.endswith(suffix)]
    assert len(names) == 1, names
    with open(os.path.join(directory, names[0]), "rb") as fh:
        return fh.read()


def test_cert_segment_bytes(tmp_path):
    store = CertStore(str(tmp_path))
    store.put(OTHER, False)
    store.put(DIGEST, True)
    store.close()
    assert only_segment(tmp_path, ".seg") == (
        b"repro-cert-store/1 psna-1\n"
        b"0123456789abcdef0123456789abcdef 1\n"
        b"fedcba9876543210fedcba9876543210 0\n")
    with open(tmp_path / "history.jsonl", "rb") as fh:
        assert fh.read() == (
            b'{"entries": 2, "hits": 0, "misses": 0, "writes": 2}\n')


def test_verdict_segment_bytes(tmp_path):
    store = VerdictStore(str(tmp_path))
    store.put("d2", "litmus", {"case": "slf-basic", "agree": True, "n": 2})
    store.put("d1", "validate",
              {"refines": False, "why": "café", "x": [1, 2.5, None]})
    store.close()
    assert only_segment(tmp_path, ".vseg") == (
        b'repro-verdict-store/1 psna-1\n'
        b'{"d": "d2", "k": "litmus", '
        b'"r": {"agree": true, "case": "slf-basic", "n": 2}}\n'
        b'{"d": "d1", "k": "validate", '
        b'"r": {"refines": false, "why": "caf\\u00e9", '
        b'"x": [1, 2.5, null]}}\n')


def test_cert_compaction_bytes(tmp_path):
    for index in range(HANDLES):
        store = CertStore(str(tmp_path))
        store.put(f"{(index * 7) % HANDLES:032x}", index % 3 == 0)
        store.close()
    verdicts = "10011000100010001"  # entry i's verdict, sorted by digest
    assert only_segment(tmp_path, ".seg") == (
        b"repro-cert-store/1 psna-1\n" + b"".join(
            f"{i:032x} {verdicts[i]}\n".encode() for i in range(HANDLES)))


def test_verdict_compaction_bytes(tmp_path):
    for index in range(HANDLES):
        store = VerdictStore(str(tmp_path))
        store.put(f"v{(index * 7) % HANDLES:02d}", "validate", {"i": index})
        store.close()
    order = [0, 5, 10, 15, 3, 8, 13, 1, 6, 11, 16, 4, 9, 14, 2, 7, 12]
    assert only_segment(tmp_path, ".vseg") == (
        b"repro-verdict-store/1 psna-1\n" + b"".join(
            f'{{"d": "v{i:02d}", "k": "validate", "r": {{"i": {n}}}}}\n'
            .encode() for i, n in enumerate(order)))
