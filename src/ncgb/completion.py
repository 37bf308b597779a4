"""Lattice completion loop: simultaneous S-polynomial reduction by complements.

Each iteration collects the S-polynomial seeds of the new critical
branchings, which are those of the keys the last step added: the keys only
grow, and a branching fixes its two keys.  It then normalises the seeds
into a family of single-rule operators, and meets the current operator
with the complement of that family.  The complement absorbs all the seeds
in one batch rather than one at a time, and it is the step's only
elimination: the family's rows are reduced against one reducer row per
key by ``linalg._reduce``, and only the residuals are eliminated, as in F4.
Building the family and meeting the complement into the operator are
substitutions too.  Every rewrite step is an extension U_{n,m}(w) =
l.U(k).r of the operator U at a word w = l.k.r (``U.extension``): the seeds
are the rules w -> U_{n,m}(w) of the legs at the branchings' offsets, and
``normalisation`` takes them as they are and deduplicates them by leading
word, so no polynomial or operator is hashed.  Normalisation is F4's
symbolic preprocessing, a closure that does not depend on the order in
which words are visited: a stack visits them, and the expansions are
sorted once, by decreasing key.  Every family member is a plain single-rule
operator, and ``complement`` clears the denominators of its image to make
its kernel row.  A step calls no ``single_rule`` and builds no leg, and
its record keeps no seed and no family: ``CompletionStep.spol_seeds`` and
``normalised_family`` rebuild them when read.  The loop stops when no new
branchings appear, and at once when no new key does; caps convert
potential non-termination into a status flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge

from .linalg import Polynomial
from .presentation import (
    CriticalBranching,
    Presentation,
    _branching_key,
    critical_branchings,
)
from .reduction import ReductionOperator, complement, single_rule

# ``complete`` meets by substitution (``_meet_complement``) and calls no
# ``meet``.  The name stays bound here because the benchmark declares a
# per-layer metric on ``ncgb.completion.meet``.
from .reduction import meet  # noqa: F401
from .words import Word

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
    """Record of one loop iteration, kept for trace-level verification; its
    seeds and family are rebuilt from ``operator_before`` on each read."""

    index: int
    operator_before: ReductionOperator
    branchings: tuple[CriticalBranching, ...]
    old_branchings: tuple[CriticalBranching, ...]
    complement_op: ReductionOperator
    operator_after: ReductionOperator

    def _seed_rules(self) -> list[ReductionOperator]:
        old = set(self.old_branchings)
        return _seeds(self.operator_before, [b for b in self.branchings if b not in old])

    @property
    def spol_seeds(self) -> tuple[Polynomial, ...]:
        """Both one-step legs w - U_{n,m}(w) of every new branching,
        deduplicated, in order of first appearance."""
        return tuple(dict.fromkeys(T.kernel_basis()[0] for T in self._seed_rules()))

    @property
    def normalised_family(self) -> tuple[ReductionOperator, ...]:
        """The family whose complement is ``complement_op``: the seed rules
        normalised against ``operator_before``."""
        return tuple(normalisation(self._seed_rules(), self.operator_before))


@dataclass(frozen=True)
class CompletionResult:
    completed: Presentation
    steps: tuple[CompletionStep, ...]
    status: str


def normalisation(
    seeds: list[Polynomial | ReductionOperator], U: ReductionOperator
) -> list[ReductionOperator]:
    """Turn seeds into single-rule operators, expanding any U-reducible
    support word w into the rule w -> U_{n,m}(w), the extension at the
    offsets (n, m) of ``U.redex(w)``, until all support words are U-normal.
    A seed is a nonzero polynomial, whose rule ``single_rule`` makes by
    dividing it by its leading coefficient, or already a single-rule
    operator over U's order, which is taken as it is.  Neither kind of rule
    needs an elimination, nor does an expansion: w - image is monic with
    leading word w.  Every U-reducible word of the family's supports is thus
    a key of the family, which ``complete`` relies on.

    This is F4's symbolic preprocessing: the closure of the seeds' support
    words under the words of one-step images.  The seeds' leading words are
    left out of the starting words only: one that turns up in a later image
    is expanded like any other word.  Each word is queued once and matched
    once, and its expansion depends on the word alone, so the closure does
    not depend on the visiting order, and a plain stack serves.  The family
    is the seed rules in order of first appearance, then the expansions by
    decreasing key.  Two single-rule operators are equal when they share
    their one key and its image, so the seed rules are deduplicated by
    leading word, comparing images only with those of the same word, and
    nothing is hashed.  No two expansions share a key, and only an
    expansion keyed by a seed's leading word can repeat a member.
    """
    order = U.order
    family: list[ReductionOperator] = []
    seed_images: dict[Word, list[Polynomial]] = {}
    for f in seeds:
        if isinstance(f, ReductionOperator):
            if len(f.rules) != 1 or (f.order is not order and f.order != order):
                raise ValueError("an operator seed must be one rule over U's order")
            rule = f
        elif f.is_zero():
            raise ValueError("normalisation seeds must be nonzero")
        else:
            rule = single_rule(f, order)
        ((w, image),) = rule.rules.items()
        images = seed_images.setdefault(w, [])
        if image not in images:
            images.append(image)
            family.append(rule)
    queued = {
        u for images in seed_images.values() for image in images for u in image._terms
    } - seed_images.keys()
    stack = list(queued)
    expansions: dict[Word, ReductionOperator] = {}
    redex = U.redex
    while stack:
        w = stack.pop()
        if (offsets := redex(w)) is None:
            continue
        image = U.extension(w, *offsets)
        if image not in seed_images.get(w, ()):
            expansions[w] = ReductionOperator._trusted(order, {w: image})
        for u in image._terms:
            if u not in queued:
                queued.add(u)
                stack.append(u)
    family += [expansions[w] for w in sorted(expansions, key=order.key, reverse=True)]
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


def _seeds(U: ReductionOperator, branchings: list[CriticalBranching]) -> list[ReductionOperator]:
    """The rule w -> U_{n,m}(w) of both one-step legs of every branching of
    U, in order.

    A leg at offsets (n, m) is l.(k - U(k)).r for the middle factor k of w,
    a key of U, and w = l.k.r.  Its rule's image is the extension
    ``U.extension(w, n, m)`` = l.U(k).r.  U(k) is smaller than k, so every
    word of the image is smaller than w.  The callers pass U's own
    branchings, each listed once, so every middle factor is a key and every
    leg gives a rule.  Repeated rules are left to ``normalisation``.
    """
    return [
        ReductionOperator._trusted(U.order, {b.source: U.extension(b.source, n, m)})
        for b in branchings
        for n, m in (b.left, b.right)
    ]


def complete(P: Presentation, limits: CompletionLimits | None = None) -> CompletionResult:
    """Run the completion loop on a finite presentation, recording every step.

    The loop stops at the first step with no new critical branching.  The
    meet only adds kernel vectors, so the keys only grow, and a branching
    fixes its two keys, so the new branchings of a step are exactly those
    where a fresh key reduces.  The first step's fresh keys are P's keys,
    and a later step's are the keys the step before it added: those of its
    complement, whose words U leaves fixed.  Each step
    asks ``critical_branchings`` for those alone and merges them into the
    last step's sorted branchings; no fresh key means no new branching, and
    then nothing is enumerated.
    """
    limits = limits or CompletionLimits()
    order = P.order
    pres = P
    fresh = P.operator.rules.keys()
    previous: tuple[CriticalBranching, ...] = ()
    steps: list[CompletionStep] = []
    while True:
        new = critical_branchings(pres, fresh) if fresh else []
        if not new:
            return CompletionResult(pres, tuple(steps), CONVERGED)
        if len(steps) >= limits.max_iterations:
            return CompletionResult(pres, tuple(steps), ITERATION_CAP)
        current = tuple(merge(previous, new, key=lambda b: _branching_key(order, b)))
        comp = complement(normalisation(_seeds(pres.operator, new), pres.operator))
        op_next = _meet_complement(pres.operator, comp)
        steps.append(
            CompletionStep(
                index=len(steps),
                operator_before=pres.operator,
                branchings=current,
                old_branchings=previous,
                complement_op=comp,
                operator_after=op_next,
            )
        )
        fresh = comp.rules.keys()
        pres = Presentation._trusted(P.alphabet, order, op_next)
        previous = current
        if any(len(w) > limits.max_rule_degree for w in op_next.rules):
            return CompletionResult(pres, tuple(steps), DEGREE_CAP)
