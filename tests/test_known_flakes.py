"""Deterministic pins of known checker flakes (ROADMAP item 1).

The property tests in :mod:`test_property_optimizer` draw random seeds,
and ~0.25% of generated straightline programs hit a known SEQ-checker
false positive: a spurious ``llf`` rejection ("no source termination
matches trm(...)") after a certified release write under a read promise
on a non-atomic location, around ``freeze`` of the promised-read
register.  Seeds 4183 (length 5) and 228 (length 6) are the smallest
known members of the family.  The looping property draws a ``licm``
relative of the same shape (seed 568), pinned below as well.

This module replays those exact seeds as explicit
``xfail(strict=False)`` cases: the checker bug stays visible (the cases
turn XPASS the day it is fixed, at which point the marks should be
dropped and ROADMAP item 1 closed) without the property tests flaking
stochastically — they are pinned to a deterministic example stream in
:mod:`test_property_optimizer` and these seeds live here instead.

The ``--monitor`` freeze probe (``psna.cert.fulfillable`` in
:mod:`repro.obs.monitor`) instruments exactly this promise/certification
interplay; ``repro explore ... --monitor strict`` on the programs below
is the localization tool for the bug.
"""

import pytest

from repro.litmus.generator import GeneratorConfig, ProgramGenerator
from repro.opt import Optimizer, optimize
from repro.seq import Limits, check_transformation

FAST_LIMITS = Limits(max_game_states=8_000, max_closure_states=2_000,
                     max_escape_states=2_000)

SMALL = GeneratorConfig(na_locs=("x",), atomic_locs=("y",),
                        registers=("a", "b", "c"), values=(0, 1))

#: The known members of the flake family: (generator seed, program
#: length).  Seed 4183 generates
#: ``a := x_na; b := x_na; y_rel := (1 * c); a := x_na; b := freeze(a);
#: return 0``.
KNOWN_FLAKES = [(4183, 5), (228, 6)]


@pytest.mark.parametrize("seed,length", KNOWN_FLAKES)
@pytest.mark.xfail(
    strict=False,
    reason="ROADMAP item 1: spurious llf rejection after a certified "
           "release write under a read promise (freeze of a "
           "promised-read register); pre-existing in the seed tree")
def test_known_flake_seeds_validate(seed, length):
    program = ProgramGenerator(SMALL, seed).straightline(length=length)
    result = Optimizer(validate=True, limits=FAST_LIMITS).optimize(program)
    assert result.validated


@pytest.mark.xfail(
    strict=False,
    reason="ROADMAP item 1: licm hoists a non-atomic read whose "
           "permission is still held across a release write, making a "
           "freeze argument more defined; pre-existing in the seed tree")
def test_known_licm_flake_seed_validates():
    """Generator seed 568, ``loop_nest(depth=1, body_length=3)``::

        i1 := 0;
        while i1 < 2 {
          y_rel := b - 0;
          b := freeze(a);
          a := x_na;
          i1 := i1 + 1;
        }
        return 1;

    ``licm`` hoists ``a := x_na`` out of the loop as ``_licm0 := x_na``,
    and the checker rejects the rewrite with a complete simple game.
    """
    program = ProgramGenerator(SMALL, 568).loop_nest(depth=1,
                                                     body_length=3)
    optimized = optimize(program)
    verdict = check_transformation(program, optimized, limits=FAST_LIMITS)
    assert verdict.valid
