"""Reduction operators and their lattice.

A reduction operator is a finitely supported idempotent projector on the
span of words, stored as an inter-reduced rule map: each reducible word is
sent to a strictly smaller polynomial whose support contains no reducible
word.  The identity on every unlisted word is implicit.  Operators are in
bijection with finite-dimensional subspaces (their kernels), which is what
realises the lattice operations: meet by kernel sum, join by kernel
intersection.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .linalg import (
    Polynomial,
    coordinate_subspace_intersection,
    reduced_basis,
    subspace_intersection,
)
from .words import DegLexOrder, Word


class ReductionOperator:
    """Idempotent projector given by an inter-reduced rule map ``word -> polynomial``."""

    __slots__ = ("order", "_rules")

    def __init__(self, order: DegLexOrder, rules: Mapping[Word, Polynomial]):
        rules = dict(rules)
        keys = set(rules)
        for w, p in rules.items():
            if p and order.key(p.leading(order)[0]) >= order.key(w):
                raise ValueError(f"rule image not smaller than {w}")
            if p.support() & keys:
                raise ValueError(f"rule map not inter-reduced at {w}")
        self.order = order
        self._rules = rules

    @property
    def rules(self) -> Mapping[Word, Polynomial]:
        return self._rules

    def reducible_words(self) -> set[Word]:
        return set(self._rules)

    def is_identity(self) -> bool:
        return not self._rules

    def is_normal_word(self, w: Word) -> bool:
        return w not in self._rules

    def apply_word(self, w: Word) -> Polynomial:
        p = self._rules.get(w)
        return Polynomial.monomial(w) if p is None else p

    def apply(self, f: Polynomial) -> Polynomial:
        """Linear image of ``f``; already a fixed point since rules are inter-reduced."""
        out = Polynomial.zero()
        for w, c in f.items():
            p = self._rules.get(w)
            out = out + (Polynomial.monomial(w, c) if p is None else p.scale(c))
        return out

    def kernel_basis(self) -> list[Polynomial]:
        """Reduced basis {w - T(w) : w reducible}, by decreasing leading word."""
        vecs = [
            Polynomial.monomial(w) - p
            for w, p in sorted(
                self._rules.items(), key=lambda it: self.order.key(it[0]), reverse=True
            )
        ]
        return vecs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReductionOperator)
            and self.order == other.order
            and self._rules == other._rules
        )

    def __hash__(self) -> int:
        return hash(frozenset(self._rules.items()))

    def __repr__(self) -> str:
        return f"ReductionOperator({len(self._rules)} rules)"


def identity(order: DegLexOrder) -> ReductionOperator:
    return ReductionOperator(order, {})


def ker_inv(vectors: Iterable[Polynomial], order: DegLexOrder) -> ReductionOperator:
    """The operator whose kernel is the span of ``vectors``."""
    rules = {}
    for e in reduced_basis(vectors, order):
        lw, _ = e.leading(order)
        rules[lw] = Polynomial.monomial(lw) - e
    return ReductionOperator(order, rules)


def kernel_basis(T: ReductionOperator) -> list[Polynomial]:
    return T.kernel_basis()


def single_rule(f: Polynomial, order: DegLexOrder) -> ReductionOperator:
    """ker_inv of the line spanned by one nonzero polynomial."""
    if f.is_zero():
        raise ValueError("single_rule requires a nonzero polynomial")
    return ker_inv([f], order)


def leq(T1: ReductionOperator, T2: ReductionOperator) -> bool:
    """T1 below T2: the kernel of T2 is contained in the kernel of T1."""
    return all(T1.apply(v).is_zero() for v in T2.kernel_basis())


def meet(family: Sequence[ReductionOperator]) -> ReductionOperator:
    """Greatest lower bound: ker_inv of the sum of the kernels."""
    if not family:
        raise ValueError("meet of an empty family")
    vectors = [v for T in family for v in T.kernel_basis()]
    return ker_inv(vectors, family[0].order)


def join(T1: ReductionOperator, T2: ReductionOperator) -> ReductionOperator:
    """Least upper bound: ker_inv of the intersection of the kernels."""
    common = subspace_intersection(T1.kernel_basis(), T2.kernel_basis(), T1.order)
    return ker_inv(common, T1.order)


def family_ambient(family: Sequence[ReductionOperator]) -> list[Word]:
    """Sorted union of the kernel supports of the members (increasing)."""
    order = family[0].order
    support: set[Word] = set()
    for T in family:
        for v in T.kernel_basis():
            support |= v.support()
    return sorted(support, key=order.key)


def normal_form_words(
    family: Sequence[ReductionOperator], ambient: Iterable[Word]
) -> set[Word]:
    """Ambient words that are normal forms for every member."""
    return {w for w in ambient if all(T.is_normal_word(w) for T in family)}


def obstructions(
    family: Sequence[ReductionOperator], ambient: Iterable[Word]
) -> set[Word]:
    """Words normal for every member but reducible for the meet."""
    ambient = list(ambient)
    lower = meet(family)
    return normal_form_words(family, ambient) - normal_form_words([lower], ambient)


def is_confluent_family(family: Sequence[ReductionOperator]) -> bool:
    return not obstructions(family, family_ambient(family))


def complement(family: Sequence[ReductionOperator]) -> ReductionOperator:
    """The completing operator: join of the meet with ker_inv of the span of
    family-normal-form words.

    Only the finite-dimensional part matters: the kernel of the result is the
    set of vectors in the sum of the members' kernels that are supported
    entirely on normal-form words.  One elimination of the members' kernel
    vectors gives it; the meet itself is never formed.
    """
    if not family:
        raise ValueError("complement of an empty family")
    order = family[0].order
    allowed = normal_form_words(family, family_ambient(family))
    vectors = [v for T in family for v in T.kernel_basis()]
    return ker_inv(coordinate_subspace_intersection(vectors, allowed, order), order)
