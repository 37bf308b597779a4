"""Lattice completion loop: simultaneous S-polynomial reduction by complements.

Each iteration collects the S-polynomial seeds of the new critical
branchings, normalises them into a family of single-rule operators, and
meets the current operator with the complement of that family.  The
complement absorbs all the seeds in one batch rather than one at a time,
and it is the step's only elimination: the family's rows are reduced
against one reducer row per key by substitution, and only the residuals
are eliminated, as in F4.  Building the family and meeting the
complement into the operator are substitutions too.  The loop stops when
no new branchings appear; caps convert potential non-termination into a
status flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Polynomial
from .presentation import (
    CriticalBranching,
    Presentation,
    critical_branchings,
    extension_apply,
)
from .reduction import ReductionOperator, complement, single_rule

# ``complete`` meets by substitution (``_meet_complement``) and calls no
# ``meet``.  The name stays bound here because the benchmark declares a
# per-layer metric on ``ncgb.completion.meet``.
from .reduction import meet  # noqa: F401
from .words import _Descending

CONVERGED = "converged"
ITERATION_CAP = "iteration_cap"
DEGREE_CAP = "degree_cap"


@dataclass(frozen=True)
class CompletionLimits:
    max_iterations: int = 64
    max_rule_degree: int = 12

    def __post_init__(self) -> None:
        if self.max_iterations <= 0 or self.max_rule_degree <= 0:
            raise ValueError("completion limits must be positive")


@dataclass(frozen=True)
class CompletionStep:
    """Full record of one loop iteration, kept for trace-level verification."""

    index: int
    operator_before: ReductionOperator
    branchings: tuple[CriticalBranching, ...]
    old_branchings: tuple[CriticalBranching, ...]
    spol_seeds: tuple[Polynomial, ...]
    normalised_family: tuple[ReductionOperator, ...]
    complement_op: ReductionOperator
    operator_after: ReductionOperator


@dataclass(frozen=True)
class CompletionResult:
    completed: Presentation
    steps: tuple[CompletionStep, ...]
    status: str


def normalisation(
    seeds: list[Polynomial], U: ReductionOperator
) -> list[ReductionOperator]:
    """Turn seed polynomials into single-rule operators, expanding any
    U-reducible support word w into the rule w -> image of one rewriting
    step at ``U.redex(w)``, until all remaining support words are U-normal.
    Neither kind of rule needs an elimination: ``single_rule`` divides a
    seed by its leading coefficient, and w - image is monic with leading
    word w.  Every U-reducible word of the family's supports is thus a key
    of the family, which ``complete`` relies on.

    The greatest eligible word goes first.  An expansion only adds smaller
    words, so the words are taken from a deg-lex heap and each is matched
    once.  The seeds' leading words are left out of the starting worklist
    only: one that turns up in a later image is expanded like any other
    word.  The family holds each operator once, in order of first
    appearance.  The seed rules are deduplicated by hash.  The worklist
    hands out each word once, so no two expansions share a key, and only an
    expansion keyed by a seed's leading word can repeat a member.
    """
    order = U.order
    if any(f.is_zero() for f in seeds):
        raise ValueError("normalisation seeds must be nonzero")
    seed_rules = dict.fromkeys(single_rule(f, order) for f in seeds)
    lead_words = set().union(*(T.rules for T in seed_rules))
    family = list(seed_rules)
    worklist = _Descending({w for f in seeds for w in f.support()} - lead_words)
    redex = U.redex
    for w in worklist:
        if (hit := redex(w)) is None:
            continue
        i, key = hit
        image = U.rules[key].sandwich(w[:i], w[i + len(key) :])
        rule = ReductionOperator._trusted(order, {w: image})
        if w not in lead_words or rule not in seed_rules:
            family.append(rule)
        worklist.push(image.support())
    return family


def _meet_complement(U: ReductionOperator, comp: ReductionOperator) -> ReductionOperator:
    """``meet([U, comp])`` for the complement ``comp`` of a family normalised
    against U, by substitution: U's rules with their images rewritten by
    ``comp``, and ``comp``'s rules, by decreasing word as ``meet`` gives them.

    Every U-reducible word of the family's supports is a family key, so
    ``comp``'s rules, which hold only family-normal words, hold no word that
    U reduces.  The rewritten images hold no key of either operator, so the
    rule map is inter-reduced, and its kernel is the sum of the two kernels.
    """
    order = U.order
    rules = {w: comp.apply(image) for w, image in U.rules.items()}
    rules.update(comp.rules)
    return ReductionOperator._trusted(
        order, {w: rules[w] for w in sorted(rules, key=order.key, reverse=True)}
    )


def _seeds(
    P: Presentation, branchings: list[CriticalBranching]
) -> list[Polynomial]:
    """Both one-step legs w - S_{n,m}(w) of every branching, deduplicated."""
    legs = (
        Polynomial.monomial(b.source) - extension_apply(P, n, m, b.source)
        for b in branchings
        for n, m in (b.left, b.right)
    )
    return list(dict.fromkeys(f for f in legs if f))


def complete(P: Presentation, limits: CompletionLimits | None = None) -> CompletionResult:
    """Run the completion loop on a finite presentation, recording every step.

    The loop stops at the first step with no new critical branching.  The
    meet only adds kernel vectors, so the keys only grow, and branchings
    depend on the keys alone: each step's branchings contain the last
    step's, and "no new branching" means "the same branchings".
    """
    limits = limits or CompletionLimits()
    pres = P
    previous: set[CriticalBranching] = set()
    steps: list[CompletionStep] = []
    while True:
        current = critical_branchings(pres)
        new = [b for b in current if b not in previous]
        if not new:
            return CompletionResult(pres, tuple(steps), CONVERGED)
        if len(steps) >= limits.max_iterations:
            return CompletionResult(pres, tuple(steps), ITERATION_CAP)
        seeds = _seeds(pres, new)
        family = normalisation(seeds, pres.operator)
        comp = complement(family)
        op_next = _meet_complement(pres.operator, comp)
        steps.append(
            CompletionStep(
                index=len(steps),
                operator_before=pres.operator,
                branchings=tuple(current),
                old_branchings=tuple(b for b in current if b in previous),
                spol_seeds=tuple(seeds),
                normalised_family=tuple(family),
                complement_op=comp,
                operator_after=op_next,
            )
        )
        pres, previous = Presentation(P.alphabet, P.order, op_next), set(current)
        if any(len(w) > limits.max_rule_degree for w in op_next.rules):
            return CompletionResult(pres, tuple(steps), DEGREE_CAP)
