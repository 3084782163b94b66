"""Pinned SEQ verdicts and counters for the extended litmus catalog.

Every refinement check runs the SEQ game (Defs 2.3/2.4, Fig 2); these
golden values hold its observable results still while its internals
change.  Per catalog case: the notion, completeness and incomplete
reasons, and per check (simple, then advanced when it ran) the game-state
count and the counterexample as ``(reason, trace length)``.  For one
sweep of the whole catalog in one observability session: every ``seq.*``
and ``rule.seq.*`` counter.  None of these depend on the hash seed.
"""

import pytest

from repro import obs
from repro.litmus import EXTENDED_CASES
from repro.seq import check_transformation

#: case -> (notion, complete, incomplete_reasons,
#:          simple game_states, simple counterexample,
#:          advanced game_states, advanced counterexample)
CASES = {
    'slf-basic': ('simple', True, (), 10, None, None, None),
    'na-reorder-diff-loc': ('simple', True, (), 40, None, None, None),
    'na-reorder-same-loc': (
        'none',
        True,
        (),
        6,
        ("no source termination matches trm(1,{'x'},{x↦1})", 0),
        6,
        ("no source termination matches trm(1,{'x'},{x↦1})", 0),
    ),
    'overwritten-store-elim': ('simple', True, (), 12, None, None, None),
    'store-load-forward': ('simple', True, (), 10, None, None, None),
    'load-load-forward': ('simple', True, (), 24, None, None, None),
    'read-before-write-elim': ('simple', True, (), 8, None, None, None),
    'write-after-read-intro': (
        'none',
        True,
        (),
        9,
        ("no source matches partial behavior prt({'x'})", 0),
        9,
        ("no source matches partial behavior prt({'x'})", 0),
    ),
    'redundant-store-intro': ('simple', True, (), 15, None, None, None),
    'store-load-pair-intro': ('simple', True, (), 10, None, None, None),
    'load-load-pair-intro': ('simple', True, (), 24, None, None, None),
    'write-across-infinite-loop': (
        'none',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        2,
        ('target reaches UB but the source cannot', 0),
    ),
    'write-across-loop-partial-trace': (
        'none',
        True,
        (),
        14,
        ("no source matches partial behavior prt({'x'})", 0),
        14,
        ("no source matches partial behavior prt({'x'})", 0),
    ),
    'read-across-infinite-loop': ('simple', True, (), 12, None, None, None),
    'write-across-finite-loop': ('simple', True, (), 30, None, None, None),
    'unused-load-elim': ('simple', True, (), 8, None, None, None),
    'unused-load-intro': ('simple', True, (), 12, None, None, None),
    'unused-store-intro': (
        'none',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        2,
        ('target reaches UB but the source cannot', 0),
    ),
    'acq-then-na-write': (
        'none',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        2,
        ('target reaches UB but the source cannot', 0),
    ),
    'na-write-then-rel': (
        'none',
        True,
        (),
        4,
        ('no source step matches target label '
         "Wrel(x,1,P={'y'}->{},F={},V={y↦0})",
         1),
        5,
        ('no source matches partial behavior prt({})', 1),
    ),
    'acq-then-na-read': (
        'none',
        True,
        (),
        6,
        ('no source termination matches trm(undef,{},{y↦1})', 1),
        6,
        ('no source termination matches trm(undef,{},{y↦1})', 1),
    ),
    'na-read-then-rel': (
        'none',
        True,
        (),
        15,
        ('no source termination matches trm(undef,{},{y↦0})', 1),
        15,
        ('no source termination matches trm(undef,{},{y↦0})', 1),
    ),
    'na-write-then-acq': ('simple', True, (), 22, None, None, None),
    'na-read-then-acq': ('simple', True, (), 94, None, None, None),
    'rel-then-na-read': ('simple', True, (), 20, None, None, None),
    'rel-then-na-write': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        96,
        None,
    ),
    'store-reintro-after-rel': (
        'none',
        True,
        (),
        6,
        ("no source matches partial behavior prt({'x'})", 1),
        6,
        ("no source matches partial behavior prt({'x'})", 1),
    ),
    'store-reintro-after-rlx': ('simple', True, (), 12, None, None, None),
    'slf-across-rlx-read': ('simple', True, (), 24, None, None, None),
    'slf-across-rlx-write': ('simple', True, (), 18, None, None, None),
    'slf-across-acq-read': ('simple', True, (), 24, None, None, None),
    'slf-across-rel-write': ('simple', True, (), 27, None, None, None),
    'slf-across-rel-acq-pair': (
        'none',
        True,
        (),
        25,
        ('no source termination matches trm(1,{},{x↦2})', 2),
        25,
        ('no source termination matches trm(1,{},{x↦2})', 2),
    ),
    'rlx-read-then-na-write': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        108,
        None,
    ),
    'acq-then-div-by-zero': (
        'none',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        2,
        ('target reaches UB but the source cannot', 0),
    ),
    'example-3-1-chain': (
        'none',
        True,
        (),
        1,
        ('no source step matches target label Wrlx(y,1)', 1),
        1,
        ('no source step matches target label Wrlx(y,1)', 1),
    ),
    'late-ub-needs-oracle': (
        'none',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        2,
        ('target reaches UB but the source cannot', 0),
    ),
    'unconditional-late-ub': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        6,
        None,
    ),
    'rel-write-then-na-write': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        96,
        None,
    ),
    'dse-across-rlx-read': ('simple', True, (), 42, None, None, None),
    'dse-across-rlx-write': ('simple', True, (), 20, None, None, None),
    'dse-across-acq-read': ('simple', True, (), 42, None, None, None),
    'dse-across-rel-write': (
        'advanced',
        True,
        (),
        5,
        ('no source step matches target label '
         "Wrel(y,3,P={'x'}->{},F={},V={x↦0})",
         1),
        160,
        None,
    ),
    'choose-then-rel': (
        'none',
        True,
        (),
        1,
        ('no source step matches target label Wrel(x,1,P={}->{},F={},V={})',
         1),
        1,
        ('no source step matches target label Wrel(x,1,P={}->{},F={},V={})',
         1),
    ),
    'choose-then-na-write': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        84,
        None,
    ),
    'reorder-na-read-rlx-read': ('simple', True, (), 78, None, None, None),
    'reorder-rlx-read-na-read': ('simple', True, (), 60, None, None, None),
    'reorder-na-write-rlx-read': ('simple', True, (), 22, None, None, None),
    'reorder-rlx-read-na-write': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        108,
        None,
    ),
    'reorder-na-read-rlx-write': ('simple', True, (), 16, None, None, None),
    'reorder-rlx-write-na-read': ('simple', True, (), 16, None, None, None),
    'reorder-na-write-rlx-write': ('simple', True, (), 15, None, None, None),
    'reorder-rlx-write-na-write': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        120,
        None,
    ),
    'reorder-rlx-rlx': (
        'none',
        True,
        (),
        1,
        ('no source step matches target label Rrlx(z,0)', 1),
        1,
        ('no source step matches target label Rrlx(z,0)', 1),
    ),
    'slf-across-rel-fence': ('simple', True, (), 18, None, None, None),
    'slf-across-acq-fence': ('simple', True, (), 12, None, None, None),
    'slf-across-fence-pair': (
        'none',
        True,
        (),
        15,
        ('no source termination matches trm(1,{},{x↦0})', 2),
        15,
        ('no source termination matches trm(1,{},{x↦0})', 2),
    ),
    'write-into-acq-fence': ('simple', True, (), 10, None, None, None),
    'write-out-of-acq-fence': (
        'none',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        2,
        ('target reaches UB but the source cannot', 0),
    ),
    'write-into-rel-fence': (
        'advanced',
        True,
        (),
        2,
        ('target reaches UB but the source cannot', 0),
        48,
        None,
    ),
    'write-out-of-rel-fence': (
        'none',
        True,
        (),
        3,
        ("no source step matches target label "
         "Frel(P={'y'}->{},F={},V={y↦0})", 1),
        4,
        ('no source matches partial behavior prt({})', 1),
    ),
    'dse-across-rel-fence': (
        'advanced',
        True,
        (),
        4,
        ("no source step matches target label "
         "Frel(P={'x'}->{},F={},V={x↦0})", 1),
        96,
        None,
    ),
    'read-into-acq-fence': ('simple', True, (), 34, None, None, None),
    'read-out-of-rel-fence': ('simple', True, (), 20, None, None, None),
}

#: The ``seq.*`` and ``rule.seq.*`` counters of one catalog sweep.
COUNTERS = {
    'rule.seq.game.bottom-prune': 419,
    'rule.seq.game.closure': 1099,
    'rule.seq.game.commitment': 110,
    'rule.seq.game.counterexample': 48,
    'rule.seq.game.escape': 1823,
    'rule.seq.game.label': 532,
    'rule.seq.game.oracle-query': 644,
    'rule.seq.game.partial': 1156,
    'rule.seq.game.terminal': 433,
    'rule.seq.machine.acq-fence': 174,
    'rule.seq.machine.acq-read': 1996,
    'rule.seq.machine.choose': 184,
    'rule.seq.machine.fail': 41,
    'rule.seq.machine.na-read': 345,
    'rule.seq.machine.na-write': 1194,
    'rule.seq.machine.racy-na-read': 261,
    'rule.seq.machine.racy-na-write': 643,
    'rule.seq.machine.rel-fence': 398,
    'rule.seq.machine.rel-write': 921,
    'rule.seq.machine.rlx-read': 1191,
    'rule.seq.machine.rlx-write': 243,
    'rule.seq.machine.silent': 2023,
    'seq.check.advanced': 29,
    'seq.check.notion.advanced': 10,
    'seq.check.notion.none': 19,
    'seq.check.notion.simple': 35,
    'seq.check.simple': 64,
    'seq.check.transformations': 64,
    'seq.game.closure_cache_hits': 98,
    'seq.game.dedup_hits': 8,
    'seq.game.escape_cache_hits': 3153,
    'seq.game.escape_searches': 1823,
    'seq.game.obligations.bottom-prune': 419,
    'seq.game.obligations.label': 532,
    'seq.game.obligations.partial': 1156,
    'seq.game.obligations.terminal': 433,
    'seq.game.oracle_queries': 644,
    'seq.game.states': 2046,
}


def _counterexample(verdict):
    if verdict is None or verdict.counterexample is None:
        return None
    cex = verdict.counterexample
    return (cex.reason, len(cex.trace))


@pytest.fixture(scope="module")
def sweep():
    """One catalog sweep in one session: per-case pins and counters."""
    pins = {}
    with obs.session() as session:
        for case in EXTENDED_CASES:
            verdict = check_transformation(case.source, case.target)
            advanced = verdict.advanced
            pins[case.name] = (
                verdict.notion, verdict.complete, verdict.incomplete_reasons,
                verdict.simple.game_states, _counterexample(verdict.simple),
                None if advanced is None else advanced.game_states,
                _counterexample(advanced))
    counters = {name: count for name, count
                in sorted(session.metrics.counters.items())
                if name.startswith(("seq.", "rule.seq."))}
    return pins, counters


def test_pins_cover_the_catalog():
    assert list(CASES) == [case.name for case in EXTENDED_CASES]


@pytest.mark.parametrize("name", list(CASES))
def test_case_verdict_pinned(sweep, name):
    pins, _counters = sweep
    assert pins[name] == CASES[name]


def test_sweep_counters_pinned(sweep):
    _pins, counters = sweep
    assert counters == COUNTERS

