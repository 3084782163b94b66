"""Simulation in SEQ (Appendix A, Figs 6–7).

The Coq development proves optimizations via a *simulation relation*
``σ_src ∼^A σ_tgt`` between SEQ configurations (Fig 6), which implies
advanced behavioral refinement and — through Lemma A.2 — simulation in
PS^na and contextual refinement (Theorem A.3).  Crucially, the relation
is *compositional*: Fig 7 gives congruence lemmas (reflexivity,
monotonicity, return, bind, iteration), so a local proof about a fragment
lifts to any enclosing program.

The executable analogue here:

* :func:`check_simulation` decides the induced refinement for a fragment
  pair over a finite universe.  Because the refinement game of
  :mod:`repro.seq.refinement` already explores exactly the clauses of
  Fig 6 (silent/choose/rlx steps matched one-to-one, acquire steps
  matched with ``F_tgt ∪ R ⊆ F_src`` and reset commitments, release
  steps spawning new commitments, and the late-UB escape disjunct), the
  checker is a thin, documented wrapper over it.
* The ``*_compose`` helpers mirror Fig 7's congruences syntactically:
  they build composite programs from related fragments.  The tests use
  them to confirm, empirically, that relatedness is preserved under
  sequencing, conditionals and loops — the compatibility lemmas of the
  Coq development.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import obs
from ..lang.ast import Expr, If, Seq, Stmt, While
from .machine import SeqSpace, SeqUniverse, universe_for
from .refinement import (
    Limits,
    Verdict,
    check_advanced_refinement,
    check_simple_refinement,
)


@dataclass
class SimulationResult:
    """Outcome of a fragment simulation check."""

    holds: bool
    notion: str  # 'simple' | 'advanced' | 'none'
    simple: Verdict
    advanced: Optional[Verdict] = None

    def __repr__(self) -> str:
        status = "SIMULATES" if self.holds else "NO SIMULATION"
        return f"{status} ({self.notion})"


def check_simulation(source: Stmt, target: Stmt,
                     universe: Optional[SeqUniverse] = None,
                     limits: Limits = Limits()) -> SimulationResult:
    """Decide ``source ∼ target`` over a finite universe.

    Tries the simple game first (enough for most §2 optimizations), then
    the advanced one with commitment sets (Fig 6's release/late-UB
    clauses).
    """
    if universe is None:
        universe = universe_for(source, target)
    space = SeqSpace(universe)
    with obs.span("seq.simulation"):
        simple = check_simple_refinement(source, target, limits=limits,
                                         space=space)
        if simple.refines:
            return SimulationResult(True, "simple", simple)
        advanced = check_advanced_refinement(source, target, limits=limits,
                                             space=space)
        if advanced.refines:
            return SimulationResult(True, "advanced", simple, advanced)
        return SimulationResult(False, "none", simple, advanced)


# ---------------------------------------------------------------------------
# Fig 7 congruence constructors
# ---------------------------------------------------------------------------


def seq_compose(first: tuple[Stmt, Stmt],
                second: tuple[Stmt, Stmt]) -> tuple[Stmt, Stmt]:
    """(bind): related fragments sequence to related programs."""
    return (Seq.of(first[0], second[0]), Seq.of(first[1], second[1]))


def if_compose(cond: Expr, then_pair: tuple[Stmt, Stmt],
               else_pair: tuple[Stmt, Stmt]) -> tuple[Stmt, Stmt]:
    """Conditionals with related branches are related."""
    return (If(cond, then_pair[0], else_pair[0]),
            If(cond, then_pair[1], else_pair[1]))


def while_compose(cond: Expr,
                  body_pair: tuple[Stmt, Stmt]) -> tuple[Stmt, Stmt]:
    """(iteration): loops with related bodies are related."""
    return (While(cond, body_pair[0]), While(cond, body_pair[1]))
