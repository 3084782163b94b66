"""Pinned PS^na explorations of the adequacy sweep.

Thm 6.2's harness (:func:`repro.adequacy.check_one_context`) explores
PS^na (Fig 5, Def 5.2) exhaustively, once for the target and once for
the source composition.  These golden values hold its observable results
still while the explorer's internals change: for every SEQ-valid case of
the extended catalog under the four contexts ``perfbench`` samples, at
promise budget 1, and for both explorations, the search counters
``(states, dedup_hits, dedup_misses, cert_cache_hits, cert_cache_misses,
stuck_states, peak_frontier)`` and the sorted behaviour reprs.  For the
whole sweep in one observability session: every ``psna.*`` and
``rule.psna.*`` counter.  The persistent cert store is off (see
``conftest.py``), and none of these depend on the hash seed.
"""

import pytest

from repro import obs
from repro.adequacy import (
    check_one_context,
    contexts_for,
    respects_location_discipline,
)
from repro.litmus import EXTENDED_CASES
from repro.psna import PsConfig

CONTEXTS = ("empty", "racy-reader", "atomic-reader", "acquiring-reader")
CONFIG = PsConfig(promise_budget=1)

#: "case/context" -> (target, source), each
#: ((states, dedup_hits, dedup_misses, cert_cache_hits, cert_cache_misses,
#:   stuck_states, peak_frontier), sorted behaviour reprs)
PAIRS = {
    'choose-then-na-write/acquiring-reader': (
        ((220, 262, 219, 220, 35, 0, 41), ('⟨ret (0, 9)⟩',)),
        ((255, 450, 254, 471, 49, 0, 46), ('⟨ret (0, 9)⟩',))),
    'choose-then-na-write/atomic-reader': (
        ((132, 140, 131, 118, 35, 0, 25), ('⟨ret (0, 0)⟩',)),
        ((153, 250, 152, 263, 49, 0, 28), ('⟨ret (0, 0)⟩',))),
    'choose-then-na-write/empty': (
        ((44, 18, 43, 16, 35, 0, 9), ('⟨ret (0,)⟩',)),
        ((51, 50, 50, 55, 49, 0, 10), ('⟨ret (0,)⟩',))),
    'choose-then-na-write/racy-reader': (
        ((448, 457, 447, 334, 35, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((489, 649, 488, 715, 49, 0, 28),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'dse-across-acq-read/acquiring-reader': (
        ((160, 249, 159, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((350, 486, 349, 408, 42, 0, 41), ('⟨ret (0, 9)⟩',))),
    'dse-across-acq-read/atomic-reader': (
        ((96, 137, 95, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((210, 264, 209, 228, 42, 0, 25), ('⟨ret (0, 0)⟩',))),
    'dse-across-acq-read/empty': (
        ((32, 25, 31, 32, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((70, 42, 69, 48, 42, 0, 9), ('⟨ret (0,)⟩',))),
    'dse-across-acq-read/racy-reader': (
        ((308, 339, 307, 400, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((806, 899, 805, 756, 42, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'dse-across-rel-fence/acquiring-reader': (
        ((160, 234, 159, 257, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((360, 474, 359, 393, 42, 0, 41), ('⟨ret (0, 9)⟩',))),
    'dse-across-rel-fence/atomic-reader': (
        ((96, 128, 95, 143, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((216, 256, 215, 219, 42, 0, 25), ('⟨ret (0, 0)⟩',))),
    'dse-across-rel-fence/empty': (
        ((32, 22, 31, 29, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((72, 38, 71, 45, 42, 0, 9), ('⟨ret (0,)⟩',))),
    'dse-across-rel-fence/racy-reader': (
        ((308, 314, 307, 375, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((828, 877, 827, 725, 42, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'dse-across-rel-write/acquiring-reader': (
        ((256, 377, 255, 560, 49, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((552, 681, 551, 724, 70, 0, 41), ('⟨ret (0, 9)⟩',))),
    'dse-across-rel-write/atomic-reader': (
        ((144, 201, 143, 296, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 3)⟩')),
        ((312, 361, 311, 386, 70, 0, 25), ('⟨ret (0, 0)⟩', '⟨ret (0, 3)⟩'))),
    'dse-across-rel-write/empty': (
        ((32, 25, 31, 32, 49, 0, 8), ('⟨ret (0,)⟩',)),
        ((72, 41, 71, 48, 70, 0, 9), ('⟨ret (0,)⟩',))),
    'dse-across-rel-write/racy-reader': (
        ((308, 339, 307, 470, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((828, 908, 827, 910, 70, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'dse-across-rlx-read/acquiring-reader': (
        ((160, 249, 159, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((350, 486, 349, 408, 42, 0, 41), ('⟨ret (0, 9)⟩',))),
    'dse-across-rlx-read/atomic-reader': (
        ((96, 137, 95, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((210, 264, 209, 228, 42, 0, 25), ('⟨ret (0, 0)⟩',))),
    'dse-across-rlx-read/empty': (
        ((32, 25, 31, 32, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((70, 42, 69, 48, 42, 0, 9), ('⟨ret (0,)⟩',))),
    'dse-across-rlx-read/racy-reader': (
        ((308, 339, 307, 400, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((806, 899, 805, 756, 42, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'dse-across-rlx-write/acquiring-reader': (
        ((256, 377, 255, 560, 49, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((534, 674, 533, 724, 70, 0, 41), ('⟨ret (0, 9)⟩',))),
    'dse-across-rlx-write/atomic-reader': (
        ((144, 201, 143, 296, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 3)⟩')),
        ((302, 358, 301, 386, 70, 0, 25), ('⟨ret (0, 0)⟩', '⟨ret (0, 3)⟩'))),
    'dse-across-rlx-write/empty': (
        ((32, 25, 31, 32, 49, 0, 8), ('⟨ret (0,)⟩',)),
        ((70, 42, 69, 48, 70, 0, 9), ('⟨ret (0,)⟩',))),
    'dse-across-rlx-write/racy-reader': (
        ((308, 339, 307, 470, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((806, 899, 805, 910, 70, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'load-load-forward/acquiring-reader': (
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'load-load-forward/atomic-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'load-load-forward/empty': (
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'load-load-forward/racy-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'load-load-pair-intro/acquiring-reader': (
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'load-load-pair-intro/atomic-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'load-load-pair-intro/empty': (
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'load-load-pair-intro/racy-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'na-read-then-acq/acquiring-reader': (
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'na-read-then-acq/atomic-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'na-read-then-acq/empty': (
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'na-read-then-acq/racy-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'na-reorder-diff-loc/acquiring-reader': (
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((170, 257, 169, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',))),
    'na-reorder-diff-loc/atomic-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((102, 141, 101, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'na-reorder-diff-loc/empty': (
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((34, 25, 33, 32, 28, 0, 8), ('⟨ret (0,)⟩',))),
    'na-reorder-diff-loc/racy-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((102, 141, 101, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'na-write-then-acq/acquiring-reader': (
        ((170, 257, 169, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (0, 9)⟩',))),
    'na-write-then-acq/atomic-reader': (
        ((102, 141, 101, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'na-write-then-acq/empty': (
        ((34, 25, 33, 32, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (0,)⟩',))),
    'na-write-then-acq/racy-reader': (
        ((326, 353, 325, 400, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'overwritten-store-elim/acquiring-reader': (
        ((120, 137, 119, 164, 21, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((270, 342, 269, 300, 35, 0, 41), ('⟨ret (0, 9)⟩',))),
    'overwritten-store-elim/atomic-reader': (
        ((72, 73, 71, 90, 21, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((162, 184, 161, 166, 35, 0, 25), ('⟨ret (0, 0)⟩',))),
    'overwritten-store-elim/empty': (
        ((24, 9, 23, 16, 21, 0, 8), ('⟨ret (0,)⟩',)),
        ((54, 26, 53, 32, 35, 0, 9), ('⟨ret (0,)⟩',))),
    'overwritten-store-elim/racy-reader': (
        ((240, 196, 239, 250, 21, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((632, 622, 631, 546, 35, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'read-across-infinite-loop/acquiring-reader': (
        ((15, 13, 14, 0, 0, 0, 5), ()),
        ((10, 9, 9, 0, 0, 0, 5), ())),
    'read-across-infinite-loop/atomic-reader': (
        ((9, 7, 8, 0, 0, 0, 3), ()),
        ((6, 5, 5, 0, 0, 0, 3), ())),
    'read-across-infinite-loop/empty': (
        ((3, 1, 2, 0, 0, 0, 1), ()),
        ((2, 1, 1, 0, 0, 0, 1), ())),
    'read-across-infinite-loop/racy-reader': (
        ((9, 7, 8, 0, 0, 0, 3), ()),
        ((6, 5, 5, 0, 0, 0, 3), ())),
    'read-before-write-elim/acquiring-reader': (
        ((15, 8, 14, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((170, 257, 169, 296, 34, 0, 40), ('⟨ret (0, 9)⟩',))),
    'read-before-write-elim/atomic-reader': (
        ((9, 4, 8, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((102, 141, 101, 164, 34, 0, 24), ('⟨ret (0, 0)⟩',))),
    'read-before-write-elim/empty': (
        ((3, 0, 2, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((34, 25, 33, 32, 34, 0, 8), ('⟨ret (0,)⟩',))),
    'read-before-write-elim/racy-reader': (
        ((9, 4, 8, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((326, 353, 325, 454, 34, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'read-into-acq-fence/acquiring-reader': (
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'read-into-acq-fence/atomic-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'read-into-acq-fence/empty': (
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'read-into-acq-fence/racy-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'read-out-of-rel-fence/acquiring-reader': (
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'read-out-of-rel-fence/atomic-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'read-out-of-rel-fence/empty': (
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'read-out-of-rel-fence/racy-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'redundant-store-intro/acquiring-reader': (
        ((270, 342, 269, 300, 35, 0, 41), ('⟨ret (0, 9)⟩',)),
        ((120, 137, 119, 164, 21, 0, 40), ('⟨ret (0, 9)⟩',))),
    'redundant-store-intro/atomic-reader': (
        ((162, 184, 161, 166, 35, 0, 25), ('⟨ret (0, 0)⟩',)),
        ((72, 73, 71, 90, 21, 0, 24), ('⟨ret (0, 0)⟩',))),
    'redundant-store-intro/empty': (
        ((54, 26, 53, 32, 35, 0, 9), ('⟨ret (0,)⟩',)),
        ((24, 9, 23, 16, 21, 0, 8), ('⟨ret (0,)⟩',))),
    'redundant-store-intro/racy-reader': (
        ((632, 622, 631, 546, 35, 0, 25),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((240, 196, 239, 250, 21, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'rel-then-na-read/acquiring-reader': (
        ((64, 49, 63, 175, 21, 0, 10), ('⟨ret (0, 0)⟩', '⟨ret (0, 9)⟩')),
        ((68, 48, 67, 167, 21, 0, 10), ('⟨ret (0, 0)⟩', '⟨ret (0, 9)⟩'))),
    'rel-then-na-read/atomic-reader': (
        ((36, 25, 35, 91, 21, 0, 6), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩')),
        ((38, 24, 37, 85, 21, 0, 6), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩'))),
    'rel-then-na-read/empty': (
        ((8, 1, 7, 7, 21, 0, 2), ('⟨ret (0,)⟩',)),
        ((8, 0, 7, 3, 21, 0, 2), ('⟨ret (0,)⟩',))),
    'rel-then-na-read/racy-reader': (
        ((24, 17, 23, 63, 21, 0, 6), ('⟨ret (0, 0)⟩',)),
        ((24, 14, 23, 51, 21, 0, 6), ('⟨ret (0, 0)⟩',))),
    'rel-then-na-write/acquiring-reader': (
        ((224, 201, 223, 332, 49, 0, 40), ('⟨ret (0, 2)⟩', '⟨ret (0, 9)⟩')),
        ((468, 532, 467, 775, 49, 0, 45),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, 9)⟩',
          '⟨ret (0, undef)⟩'))),
    'rel-then-na-write/atomic-reader': (
        ((128, 105, 127, 174, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩')),
        ((164, 215, 163, 311, 49, 0, 27), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩'))),
    'rel-then-na-write/empty': (
        ((32, 9, 31, 16, 49, 0, 8), ('⟨ret (0,)⟩',)),
        ((36, 25, 35, 35, 49, 0, 9), ('⟨ret (0,)⟩',))),
    'rel-then-na-write/racy-reader': (
        ((326, 265, 325, 390, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((328, 351, 327, 479, 49, 0, 27),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'rel-write-then-na-write/acquiring-reader': (
        ((224, 201, 223, 332, 49, 0, 40), ('⟨ret (0, 2)⟩', '⟨ret (0, 9)⟩')),
        ((468, 532, 467, 775, 49, 0, 45),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, 9)⟩',
          '⟨ret (0, undef)⟩'))),
    'rel-write-then-na-write/atomic-reader': (
        ((128, 105, 127, 174, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩')),
        ((164, 215, 163, 311, 49, 0, 27), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩'))),
    'rel-write-then-na-write/empty': (
        ((32, 9, 31, 16, 49, 0, 8), ('⟨ret (0,)⟩',)),
        ((36, 25, 35, 35, 49, 0, 9), ('⟨ret (0,)⟩',))),
    'rel-write-then-na-write/racy-reader': (
        ((326, 265, 325, 390, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩')),
        ((328, 351, 327, 479, 49, 0, 27),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 2)⟩', '⟨ret (0, undef)⟩'))),
    'reorder-na-read-rlx-read/acquiring-reader': (
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'reorder-na-read-rlx-read/atomic-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'reorder-na-read-rlx-read/empty': (
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'reorder-na-read-rlx-read/racy-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'reorder-na-read-rlx-write/acquiring-reader': (
        ((68, 48, 67, 184, 22, 0, 10), ('⟨ret (0, 0)⟩', '⟨ret (0, 9)⟩')),
        ((64, 49, 63, 192, 22, 0, 10), ('⟨ret (0, 0)⟩', '⟨ret (0, 9)⟩'))),
    'reorder-na-read-rlx-write/atomic-reader': (
        ((38, 24, 37, 94, 22, 0, 6), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩')),
        ((36, 25, 35, 100, 22, 0, 6), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩'))),
    'reorder-na-read-rlx-write/empty': (
        ((8, 0, 7, 4, 22, 0, 2), ('⟨ret (0,)⟩',)),
        ((8, 1, 7, 8, 22, 0, 2), ('⟨ret (0,)⟩',))),
    'reorder-na-read-rlx-write/racy-reader': (
        ((24, 14, 23, 56, 22, 0, 6), ('⟨ret (0, 0)⟩',)),
        ((24, 17, 23, 68, 22, 0, 6), ('⟨ret (0, 0)⟩',))),
    'reorder-na-write-rlx-read/acquiring-reader': (
        ((170, 257, 169, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (0, 9)⟩',))),
    'reorder-na-write-rlx-read/atomic-reader': (
        ((102, 141, 101, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'reorder-na-write-rlx-read/empty': (
        ((34, 25, 33, 32, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (0,)⟩',))),
    'reorder-na-write-rlx-read/racy-reader': (
        ((326, 353, 325, 400, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'reorder-na-write-rlx-write/acquiring-reader': (
        ((274, 393, 273, 560, 49, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((247, 217, 246, 332, 49, 0, 40), ('⟨ret (0, 9)⟩',))),
    'reorder-na-write-rlx-write/atomic-reader': (
        ((154, 209, 153, 296, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 2)⟩')),
        ((141, 113, 140, 174, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 2)⟩'))),
    'reorder-na-write-rlx-write/empty': (
        ((34, 25, 33, 32, 49, 0, 8), ('⟨ret (0,)⟩',)),
        ((35, 9, 34, 16, 49, 0, 8), ('⟨ret (0,)⟩',))),
    'reorder-na-write-rlx-write/racy-reader': (
        ((326, 353, 325, 470, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((353, 286, 352, 390, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'reorder-rlx-read-na-read/acquiring-reader': (
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((20, 12, 19, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'reorder-rlx-read-na-read/atomic-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'reorder-rlx-read-na-read/empty': (
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((4, 0, 3, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'reorder-rlx-read-na-read/racy-reader': (
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((12, 6, 11, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'reorder-rlx-read-na-write/acquiring-reader': (
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((170, 257, 169, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',))),
    'reorder-rlx-read-na-write/atomic-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((102, 141, 101, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'reorder-rlx-read-na-write/empty': (
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((34, 25, 33, 32, 28, 0, 8), ('⟨ret (0,)⟩',))),
    'reorder-rlx-read-na-write/racy-reader': (
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((326, 353, 325, 400, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'reorder-rlx-write-na-read/acquiring-reader': (
        ((64, 49, 63, 192, 22, 0, 10), ('⟨ret (0, 0)⟩', '⟨ret (0, 9)⟩')),
        ((68, 48, 67, 184, 22, 0, 10), ('⟨ret (0, 0)⟩', '⟨ret (0, 9)⟩'))),
    'reorder-rlx-write-na-read/atomic-reader': (
        ((36, 25, 35, 100, 22, 0, 6), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩')),
        ((38, 24, 37, 94, 22, 0, 6), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩'))),
    'reorder-rlx-write-na-read/empty': (
        ((8, 1, 7, 8, 22, 0, 2), ('⟨ret (0,)⟩',)),
        ((8, 0, 7, 4, 22, 0, 2), ('⟨ret (0,)⟩',))),
    'reorder-rlx-write-na-read/racy-reader': (
        ((24, 17, 23, 68, 22, 0, 6), ('⟨ret (0, 0)⟩',)),
        ((24, 14, 23, 56, 22, 0, 6), ('⟨ret (0, 0)⟩',))),
    'reorder-rlx-write-na-write/acquiring-reader': (
        ((247, 217, 246, 332, 49, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((274, 393, 273, 560, 49, 0, 40), ('⟨ret (0, 9)⟩',))),
    'reorder-rlx-write-na-write/atomic-reader': (
        ((141, 113, 140, 174, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 2)⟩')),
        ((154, 209, 153, 296, 49, 0, 24), ('⟨ret (0, 0)⟩', '⟨ret (0, 2)⟩'))),
    'reorder-rlx-write-na-write/empty': (
        ((35, 9, 34, 16, 49, 0, 8), ('⟨ret (0,)⟩',)),
        ((34, 25, 33, 32, 49, 0, 8), ('⟨ret (0,)⟩',))),
    'reorder-rlx-write-na-write/racy-reader': (
        ((353, 286, 352, 390, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((326, 353, 325, 470, 49, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'rlx-read-then-na-write/acquiring-reader': (
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((170, 257, 169, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',))),
    'rlx-read-then-na-write/atomic-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((102, 141, 101, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'rlx-read-then-na-write/empty': (
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((34, 25, 33, 32, 28, 0, 8), ('⟨ret (0,)⟩',))),
    'rlx-read-then-na-write/racy-reader': (
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((326, 353, 325, 400, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'slf-across-acq-fence/acquiring-reader': (
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',))),
    'slf-across-acq-fence/atomic-reader': (
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',)),
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',))),
    'slf-across-acq-fence/empty': (
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',)),
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',))),
    'slf-across-acq-fence/racy-reader': (
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'slf-across-acq-read/acquiring-reader': (
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',))),
    'slf-across-acq-read/atomic-reader': (
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',)),
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',))),
    'slf-across-acq-read/empty': (
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',)),
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',))),
    'slf-across-acq-read/racy-reader': (
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'slf-across-rel-fence/acquiring-reader': (
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',))),
    'slf-across-rel-fence/atomic-reader': (
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',)),
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',))),
    'slf-across-rel-fence/empty': (
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',)),
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',))),
    'slf-across-rel-fence/racy-reader': (
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'slf-across-rel-write/acquiring-reader': (
        ((328, 289, 327, 444, 63, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((328, 289, 327, 444, 63, 0, 40), ('⟨ret (1, 9)⟩',))),
    'slf-across-rel-write/atomic-reader': (
        ((186, 149, 185, 230, 63, 0, 24), ('⟨ret (1, 0)⟩', '⟨ret (1, 2)⟩')),
        ((186, 149, 185, 230, 63, 0, 24), ('⟨ret (1, 0)⟩', '⟨ret (1, 2)⟩'))),
    'slf-across-rel-write/empty': (
        ((44, 9, 43, 16, 63, 0, 8), ('⟨ret (1,)⟩',)),
        ((44, 9, 43, 16, 63, 0, 8), ('⟨ret (1,)⟩',))),
    'slf-across-rel-write/racy-reader': (
        ((448, 362, 447, 474, 63, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((448, 362, 447, 474, 63, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'slf-across-rlx-read/acquiring-reader': (
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((220, 217, 219, 220, 35, 0, 40), ('⟨ret (1, 9)⟩',))),
    'slf-across-rlx-read/atomic-reader': (
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',)),
        ((132, 113, 131, 118, 35, 0, 24), ('⟨ret (1, 0)⟩',))),
    'slf-across-rlx-read/empty': (
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',)),
        ((44, 9, 43, 16, 35, 0, 8), ('⟨ret (1,)⟩',))),
    'slf-across-rlx-read/racy-reader': (
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((448, 362, 447, 334, 35, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'slf-across-rlx-write/acquiring-reader': (
        ((328, 289, 327, 444, 63, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((328, 289, 327, 444, 63, 0, 40), ('⟨ret (1, 9)⟩',))),
    'slf-across-rlx-write/atomic-reader': (
        ((186, 149, 185, 230, 63, 0, 24), ('⟨ret (1, 0)⟩', '⟨ret (1, 2)⟩')),
        ((186, 149, 185, 230, 63, 0, 24), ('⟨ret (1, 0)⟩', '⟨ret (1, 2)⟩'))),
    'slf-across-rlx-write/empty': (
        ((44, 9, 43, 16, 63, 0, 8), ('⟨ret (1,)⟩',)),
        ((44, 9, 43, 16, 63, 0, 8), ('⟨ret (1,)⟩',))),
    'slf-across-rlx-write/racy-reader': (
        ((448, 362, 447, 474, 63, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((448, 362, 447, 474, 63, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'slf-basic/acquiring-reader': (
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (1, 9)⟩',))),
    'slf-basic/atomic-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (1, 0)⟩',)),
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (1, 0)⟩',))),
    'slf-basic/empty': (
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (1,)⟩',)),
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (1,)⟩',))),
    'slf-basic/racy-reader': (
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'store-load-forward/acquiring-reader': (
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (1, 9)⟩',))),
    'store-load-forward/atomic-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (1, 0)⟩',)),
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (1, 0)⟩',))),
    'store-load-forward/empty': (
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (1,)⟩',)),
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (1,)⟩',))),
    'store-load-forward/racy-reader': (
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'store-load-pair-intro/acquiring-reader': (
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (1, 9)⟩',)),
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (1, 9)⟩',))),
    'store-load-pair-intro/atomic-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (1, 0)⟩',)),
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (1, 0)⟩',))),
    'store-load-pair-intro/empty': (
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (1,)⟩',)),
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (1,)⟩',))),
    'store-load-pair-intro/racy-reader': (
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩')),
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (1, 0)⟩', '⟨ret (1, 1)⟩', '⟨ret (1, undef)⟩'))),
    'store-reintro-after-rlx/acquiring-reader': (
        ((926, 1020, 925, 1142, 71, 0, 45),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 9)⟩', '⟨ret (0, undef)⟩')),
        ((365, 295, 364, 488, 50, 0, 45),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, 9)⟩', '⟨ret (0, undef)⟩'))),
    'store-reintro-after-rlx/atomic-reader': (
        ((312, 377, 311, 430, 71, 0, 27), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩')),
        ((151, 127, 150, 218, 50, 0, 27), ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩'))),
    'store-reintro-after-rlx/empty': (
        ((72, 45, 71, 56, 71, 0, 9), ('⟨ret (0,)⟩',)),
        ((37, 11, 36, 24, 50, 0, 9), ('⟨ret (0,)⟩',))),
    'store-reintro-after-rlx/racy-reader': (
        ((820, 928, 819, 956, 71, 0, 27),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((363, 304, 362, 436, 50, 0, 27),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'unconditional-late-ub/acquiring-reader': (
        ((6, 4, 5, 0, 0, 0, 2), ('⟨⊥⟩',)),
        ((11, 8, 10, 0, 0, 0, 5), ('⟨⊥⟩',))),
    'unconditional-late-ub/atomic-reader': (
        ((4, 2, 3, 0, 0, 0, 2), ('⟨⊥⟩',)),
        ((7, 4, 6, 0, 0, 0, 3), ('⟨⊥⟩',))),
    'unconditional-late-ub/empty': (
        ((2, 0, 1, 0, 0, 0, 1), ('⟨⊥⟩',)),
        ((3, 0, 2, 0, 0, 0, 1), ('⟨⊥⟩',))),
    'unconditional-late-ub/racy-reader': (
        ((4, 2, 3, 0, 0, 0, 2), ('⟨⊥⟩',)),
        ((7, 4, 6, 0, 0, 0, 3), ('⟨⊥⟩',))),
    'unused-load-elim/acquiring-reader': (
        ((10, 4, 9, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((15, 8, 14, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'unused-load-elim/atomic-reader': (
        ((6, 2, 5, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((9, 4, 8, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'unused-load-elim/empty': (
        ((2, 0, 1, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((3, 0, 2, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'unused-load-elim/racy-reader': (
        ((6, 2, 5, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((9, 4, 8, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'unused-load-intro/acquiring-reader': (
        ((15, 8, 14, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',)),
        ((10, 4, 9, 0, 0, 0, 5), ('⟨ret (0, 9)⟩',))),
    'unused-load-intro/atomic-reader': (
        ((9, 4, 8, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((6, 2, 5, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'unused-load-intro/empty': (
        ((3, 0, 2, 0, 0, 0, 1), ('⟨ret (0,)⟩',)),
        ((2, 0, 1, 0, 0, 0, 1), ('⟨ret (0,)⟩',))),
    'unused-load-intro/racy-reader': (
        ((9, 4, 8, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',)),
        ((6, 2, 5, 0, 0, 0, 3), ('⟨ret (0, 0)⟩',))),
    'write-across-finite-loop/acquiring-reader': (
        ((400, 361, 399, 332, 63, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((370, 817, 369, 812, 63, 0, 40), ('⟨ret (0, 9)⟩',))),
    'write-across-finite-loop/atomic-reader': (
        ((240, 185, 239, 174, 63, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((222, 461, 221, 462, 63, 0, 24), ('⟨ret (0, 0)⟩',))),
    'write-across-finite-loop/empty': (
        ((80, 9, 79, 16, 63, 0, 8), ('⟨ret (0,)⟩',)),
        ((74, 105, 73, 112, 63, 0, 8), ('⟨ret (0,)⟩',))),
    'write-across-finite-loop/racy-reader': (
        ((828, 666, 827, 502, 63, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((666, 1068, 665, 1150, 63, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'write-into-acq-fence/acquiring-reader': (
        ((170, 257, 169, 272, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (0, 9)⟩',))),
    'write-into-acq-fence/atomic-reader': (
        ((102, 141, 101, 152, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'write-into-acq-fence/empty': (
        ((34, 25, 33, 32, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (0,)⟩',))),
    'write-into-acq-fence/racy-reader': (
        ((326, 353, 325, 400, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
    'write-into-rel-fence/acquiring-reader': (
        ((175, 181, 174, 192, 28, 0, 40), ('⟨ret (0, 9)⟩',)),
        ((170, 242, 169, 257, 28, 0, 40), ('⟨ret (0, 9)⟩',))),
    'write-into-rel-fence/atomic-reader': (
        ((105, 95, 104, 104, 28, 0, 24), ('⟨ret (0, 0)⟩',)),
        ((102, 132, 101, 143, 28, 0, 24), ('⟨ret (0, 0)⟩',))),
    'write-into-rel-fence/empty': (
        ((35, 9, 34, 16, 28, 0, 8), ('⟨ret (0,)⟩',)),
        ((34, 22, 33, 29, 28, 0, 8), ('⟨ret (0,)⟩',))),
    'write-into-rel-fence/racy-reader': (
        ((353, 286, 352, 292, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩')),
        ((326, 328, 325, 375, 28, 0, 24),
         ('⟨ret (0, 0)⟩', '⟨ret (0, 1)⟩', '⟨ret (0, undef)⟩'))),
}

#: The summed counters of the whole sweep.
COUNTERS = {
    'psna.cert.attempts': 10156,
    'psna.cert.cache_hits': 62340,
    'psna.cert.cache_misses': 10156,
    'psna.cert.failures': 7296,
    'psna.cert.states': 42252,
    'psna.explore.dedup_hits': 54948,
    'psna.explore.dedup_misses': 53924,
    'psna.explore.runs': 360,
    'psna.explore.states': 54284,
    'psna.explore.stuck_states': 0,
    'psna.key.cache_hits': 54948,
    'psna.key.cache_misses': 54284,
    'psna.refinement.checks': 180,
    'psna.refinement.refines': 180,
    'rule.psna.cert.failure': 42194,
    'rule.psna.cert.success': 30302,
    'rule.psna.machine.failure': 24,
    'rule.psna.machine.normal': 108848,
    'rule.psna.thread.choose': 800,
    'rule.psna.thread.fail': 24,
    'rule.psna.thread.fence-acq': 888,
    'rule.psna.thread.fence-rel': 1148,
    'rule.psna.thread.fulfill': 1396,
    'rule.psna.thread.lower': 33450,
    'rule.psna.thread.promise': 32368,
    'rule.psna.thread.racy-read': 2515,
    'rule.psna.thread.read': 20809,
    'rule.psna.thread.silent': 48948,
    'rule.psna.thread.write': 43544,
}


def _pins(exploration):
    return ((exploration.states, exploration.dedup_hits,
             exploration.dedup_misses, exploration.cert_cache_hits,
             exploration.cert_cache_misses, exploration.stuck_states,
             exploration.peak_frontier),
            tuple(sorted(repr(b) for b in exploration.behaviors)))


def _pairs():
    for case in EXTENDED_CASES:
        if case.expected == "invalid":
            continue  # Thm 6.2 predicts nothing for invalid pairs
        for context in contexts_for(case.source, case.target):
            if context.name in CONTEXTS:
                yield case, context


@pytest.fixture(scope="module")
def sweep():
    """One sweep of every pair in one session: pins and counters."""
    pins = {}
    with obs.session() as session:
        for case, context in _pairs():
            assert respects_location_discipline(
                [case.source, case.target, *context.threads])
            verdict = check_one_context(case.source, case.target, context,
                                        CONFIG).verdict
            pins[f"{case.name}/{context.name}"] = (_pins(verdict.target),
                                                   _pins(verdict.source))
    counters = {name: count for name, count
                in sorted(session.metrics.counters.items())
                if name.startswith(("psna.", "rule.psna."))}
    return pins, counters


def test_pins_cover_the_sweep():
    assert sorted(f"{case.name}/{context.name}"
                  for case, context in _pairs()) == sorted(PAIRS)


@pytest.mark.parametrize("name", sorted(PAIRS))
def test_pair_pinned(sweep, name):
    pins, _counters = sweep
    assert pins[name] == PAIRS[name]


def test_sweep_counters_pinned(sweep):
    _pins, counters = sweep
    assert counters == COUNTERS
