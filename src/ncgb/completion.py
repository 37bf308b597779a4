"""Lattice completion loop: simultaneous S-polynomial reduction by complements.

Each iteration collects the S-polynomial seeds of the new critical
branchings, normalises them into a family of single-rule operators, and
meets the current operator with the complement of that family.  The
complement absorbs all the seeds in one batch of linear elimination
rather than one at a time.  The loop stops when no new branchings
appear; caps convert potential non-termination into a status flag.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Polynomial
from .presentation import (
    CriticalBranching,
    Presentation,
    _leftmost_longest_factor,
    critical_branchings,
    extension_apply,
)
from .reduction import ReductionOperator, complement, meet, single_rule
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
    U-reducible support word into a further single-rule operator until all
    remaining support words are U-normal.

    Selection is deterministic: always the greatest eligible word, then its
    leftmost reducible factor with the longest key at that position.
    """
    order = U.order
    if any(f.is_zero() for f in seeds):
        raise ValueError("normalisation seeds must be nonzero")
    family: list[ReductionOperator] = []
    worklist: set[Word] = set()
    lead_words = set()
    for f in seeds:
        op = single_rule(f, order)
        if op not in family:
            family.append(op)
        worklist |= f.support()
        lead_words.add(f.leading(order)[0])
    worklist -= lead_words

    keys = U.reducible_words()
    max_len = max((len(k) for k in keys), default=0)

    while True:
        eligible = [
            (w, hit)
            for w in worklist
            if (hit := _leftmost_longest_factor(w, keys, max_len)) is not None
        ]
        if not eligible:
            break
        w, (i, key) = max(eligible, key=lambda item: order.key(item[0]))
        prefix, suffix = w[:i], w[i + len(key) :]
        image = U.rules[key]
        vector = (Polynomial.monomial(key) - image).sandwich(prefix, suffix)
        if vector:
            op = single_rule(vector, order)
            if op not in family:
                family.append(op)
        worklist.discard(w)
        worklist |= image.sandwich(prefix, suffix).support()
    return family


def _seeds(
    P: Presentation, branchings: list[CriticalBranching]
) -> list[Polynomial]:
    """Both one-step legs w - S_{n,m}(w) of every branching, deduplicated."""
    seeds: list[Polynomial] = []
    for b in branchings:
        for n, m in (b.left, b.right):
            f = Polynomial.monomial(b.source) - extension_apply(P, n, m, b.source)
            if f and f not in seeds:
                seeds.append(f)
    return seeds


def complete(P: Presentation, limits: CompletionLimits | None = None) -> CompletionResult:
    """Run the completion loop on a finite presentation, recording every step."""
    limits = limits or CompletionLimits()
    op = P.operator
    d = 0
    previous: set[CriticalBranching] = set()
    current_pres = P
    current = critical_branchings(current_pres)
    seeds = _seeds(current_pres, current)
    steps: list[CompletionStep] = []
    status = CONVERGED

    while previous != set(current):
        if d >= limits.max_iterations:
            status = ITERATION_CAP
            break
        family = normalisation(seeds, op)
        comp = complement(family)
        op_next = meet([op, comp])
        steps.append(
            CompletionStep(
                index=d,
                operator_before=op,
                branchings=tuple(current),
                old_branchings=tuple(
                    b for b in current if b in previous
                ),
                spol_seeds=tuple(seeds),
                normalised_family=tuple(family),
                complement_op=comp,
                operator_after=op_next,
            )
        )
        if any(len(w) > limits.max_rule_degree for w in op_next.rules):
            op = op_next
            status = DEGREE_CAP
            break
        previous = set(current)
        d += 1
        op = op_next
        current_pres = Presentation(P.alphabet, P.order, op)
        current = critical_branchings(current_pres)
        seeds = _seeds(
            current_pres, [b for b in current if b not in previous]
        )

    completed = Presentation(P.alphabet, P.order, op)
    return CompletionResult(completed=completed, steps=tuple(steps), status=status)


def completed_operator(result: CompletionResult) -> ReductionOperator:
    return result.completed.operator
