"""Refinement certificates: checkable witnesses for REFINES verdicts.

The Coq development's value is not just the *verdict* "this optimization
is sound" but a *proof object* that a small trusted kernel re-checks.
This module provides the executable analogue for simple behavioral
refinement: :func:`produce_certificate` runs the refinement game and
emits the **simulation relation it constructed** — the set of (target
configuration, matched source frontier) pairs — and
:func:`verify_certificate` re-validates that relation *without any
search*:

* every initial configuration pair is in the relation;
* at every pair, the local obligations of Def 2.3 hold (partial
  behaviors, terminal matching, UB matching);
* the relation is closed under target steps — each target transition
  from a member leads to another member whose frontier is the (uniquely
  determined) set of ⊑-matching source successors.

The verifier shares only the step semantics (:func:`repro.seq.machine.
seq_steps`) and the label order with the producer; all search, pruning
and memoization logic is re-derived locally.  A tampered or truncated
certificate is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang.ast import Stmt
from ..lang.values import value_leq
from .behavior import iter_initial_configs
from .labels import label_leq
from .machine import SeqConfig, SeqSpace, SeqUniverse, seq_steps, \
    unlabeled_closure, universe_for
from .refinement import Limits, _Game


@dataclass(frozen=True)
class Certificate:
    """A simulation-relation witness for ``source {~> target``."""

    universe: SeqUniverse
    #: the relation: (target config, frontier of matched source configs)
    pairs: frozenset[tuple[SeqConfig, frozenset[SeqConfig]]]

    def __len__(self) -> int:
        return len(self.pairs)


class CertificateError(Exception):
    """The certificate does not establish refinement."""


def produce_certificate(source: Stmt, target: Stmt,
                        universe: Optional[SeqUniverse] = None,
                        limits: Limits = Limits()) -> Optional[Certificate]:
    """Run the simple refinement game and emit its relation, or None
    if refinement fails (no certificate exists then)."""
    if universe is None:
        universe = universe_for(source, target)
    space = SeqSpace(universe)
    game = _Game(space, advanced=False, defaults=None, limits=limits)
    record: set = set()
    for tgt0 in iter_initial_configs(target, universe):
        src0 = SeqConfig.initial(source, tgt0.perms, tgt0.memory,
                                 tgt0.written)
        if game.run(tgt0, src0, record=record) is not None:
            return None
    configs = space.configs
    pairs = frozenset(
        (configs[tgt], frozenset(configs[cid] for cid, _r in frontier))
        for tgt, frontier in record)
    return Certificate(universe, pairs)


def verify_certificate(certificate: Certificate, source: Stmt,
                       target: Stmt,
                       max_closure: int = 10_000) -> bool:
    """Re-validate a certificate; raises :class:`CertificateError` on any
    defect, returns True otherwise."""
    universe = certificate.universe
    relation = dict()
    for tgt, frontier in certificate.pairs:
        relation.setdefault(tgt, set()).add(frontier)

    def member(tgt: SeqConfig, frontier: frozenset[SeqConfig]) -> bool:
        return frontier in relation.get(tgt, ())

    # 1. initial pairs present
    for tgt0 in iter_initial_configs(target, universe):
        src0 = SeqConfig.initial(source, tgt0.perms, tgt0.memory,
                                 tgt0.written)
        closure, complete = unlabeled_closure(frozenset({src0}), universe,
                                              max_closure)
        if not complete:
            raise CertificateError("initial closure exceeded bounds")
        if not member(tgt0, closure):
            raise CertificateError(
                f"initial pair missing for {tgt0!r}")

    # 2. local obligations + closure under target steps
    for tgt, frontier in certificate.pairs:
        if any(cfg.is_bottom() for cfg in frontier):
            continue  # matched by beh-failure for every continuation
        if tgt.is_bottom():
            raise CertificateError(f"unmatched target UB at {tgt!r}")
        if tgt.is_terminated():
            if not any(_terminal_ok(tgt, cfg) for cfg in frontier):
                raise CertificateError(f"unmatched termination at {tgt!r}")
            continue
        if not any(tgt.written <= cfg.written for cfg in frontier):
            raise CertificateError(
                f"unmatched partial behavior prt({set(tgt.written)}) "
                f"at {tgt!r}")
        for label, tgt_next in seq_steps(tgt, universe):
            if label is None:
                if not member(tgt_next, frontier):
                    raise CertificateError(
                        f"relation not closed under a silent target step "
                        f"from {tgt!r}")
                continue
            matched = set()
            for cfg in frontier:
                if cfg.is_bottom() or cfg.is_terminated():
                    continue
                for src_label, src_next in seq_steps(cfg, universe):
                    if src_label is not None and label_leq(label, src_label):
                        matched.add(src_next)
            if not matched:
                raise CertificateError(
                    f"no source step matches {label!r} from {tgt!r}")
            closure, complete = unlabeled_closure(frozenset(matched),
                                                  universe, max_closure)
            if not complete:
                raise CertificateError("closure exceeded bounds")
            if not member(tgt_next, closure):
                raise CertificateError(
                    f"relation not closed under label {label!r}")
    return True


def _terminal_ok(tgt: SeqConfig, src: SeqConfig) -> bool:
    if not src.is_terminated():
        return False
    from .labels import fmap_leq

    return (value_leq(tgt.thread.return_value(), src.thread.return_value())
            and tgt.written <= src.written
            and fmap_leq(tgt.memory, src.memory))
