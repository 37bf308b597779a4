"""Reduction operators and their lattice.

A reduction operator is a finitely supported idempotent projector on the
span of words, stored as an inter-reduced rule map: each reducible word is
sent to a strictly smaller polynomial whose support contains no reducible
word.  The identity on every unlisted word is implicit.  Operators are in
bijection with finite-dimensional subspaces (their kernels), which is what
realises the lattice operations: meet by kernel sum, join by kernel
intersection, and the complement by intersection with a coordinate
subspace.  Each of ``ker_inv``, ``meet``, ``join`` and ``complement`` is
one pass of ``linalg._eliminate``.  ``_kernel_rows`` is the only crossing
from rules to rows and ``_operator`` the only crossing back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .linalg import Polynomial, _eliminate, coordinate_subspace_intersection
from .words import DegLexOrder, Word


class ReductionOperator:
    """Idempotent projector given by an inter-reduced rule map ``word -> polynomial``."""

    __slots__ = ("order", "_rules", "_max_key_len")

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
        self._max_key_len = max(map(len, rules), default=0)

    @property
    def rules(self) -> Mapping[Word, Polynomial]:
        return self._rules

    def redex(self, w: Word) -> tuple[int, Word] | None:
        """The leftmost position of ``w`` where a key occurs, with the longest
        key there, or None when ``w`` is irreducible; ``()`` never matches."""
        rules, max_len, n = self._rules, self._max_key_len, len(w)
        for i in range(n):
            for k in range(min(max_len, n - i), 0, -1):
                if w[i : i + k] in rules:
                    return i, w[i : i + k]
        return None

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
        return [Polynomial(row) for row in _kernel_rows([self])]

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


def _kernel_rows(family: Iterable[ReductionOperator]) -> Iterator[dict]:
    """The row {w: 1, u: -c, ...} of the kernel vector w - T(w) of each rule,
    by decreasing w within each member; the only crossing from rules to rows.
    The pivot is ``Fraction(1)``, so eliminating the rows stays exact."""
    for T in family:
        rules = T.rules
        for w in sorted(rules, key=T.order.key, reverse=True):
            yield {w: Fraction(1), **{u: -c for u, c in rules[w].items()}}


def _operator(pivots: Mapping[Word, Mapping], order: DegLexOrder) -> ReductionOperator:
    """The operator whose kernel has the monic, inter-reduced rows ``pivots``
    (keyed by pivot) as basis: the rule for pivot w is w minus its row.  The
    only crossing from rows to rules."""
    rules = {
        w: Polynomial({u: -c for u, c in pivots[w].items() if u != w})
        for w in sorted(pivots, key=order.key, reverse=True)
    }
    return ReductionOperator(order, rules)


def _order(family: Sequence[ReductionOperator], operation: str) -> DegLexOrder:
    """The order shared by every member of a nonempty family."""
    if not family:
        raise ValueError(f"{operation} of an empty family")
    order = family[0].order
    if any(T.order != order for T in family):
        raise ValueError("operator order mismatch")
    return order


def ker_inv(vectors: Iterable[Polynomial], order: DegLexOrder) -> ReductionOperator:
    """The operator whose kernel is the span of ``vectors``."""
    return _operator(_eliminate((v._terms for v in vectors), order.key), order)


def kernel_basis(T: ReductionOperator) -> list[Polynomial]:
    return T.kernel_basis()


def single_rule(f: Polynomial, order: DegLexOrder) -> ReductionOperator:
    """ker_inv of the line spanned by one nonzero polynomial."""
    if f.is_zero():
        raise ValueError("single_rule requires a nonzero polynomial")
    return ker_inv([f], order)


def leq(T1: ReductionOperator, T2: ReductionOperator) -> bool:
    """T1 below T2: the kernel of T2 is contained in the kernel of T1."""
    _order([T1, T2], "leq")
    return all(T1.apply(v).is_zero() for v in T2.kernel_basis())


def meet(family: Sequence[ReductionOperator]) -> ReductionOperator:
    """Greatest lower bound: the kernel is the sum of the kernels."""
    order = _order(family, "meet")
    return _operator(_eliminate(_kernel_rows(family), order.key), order)


def join(T1: ReductionOperator, T2: ReductionOperator) -> ReductionOperator:
    """Least upper bound: the kernel is the intersection of the kernels.

    Zassenhaus block trick: the rows (a | a) of T1 and (b | 0) of T2 are
    eliminated with every first-block column (tag 1) above every second-block
    one (tag 0).  The rows left with a tag-0 pivot are zero on the first
    block and are the reduced basis of the intersection.
    """
    order = _order([T1, T2], "join")
    rows = [{(t, w): c for w, c in a.items() for t in (1, 0)} for a in _kernel_rows([T1])]
    rows += [{(1, w): c for w, c in b.items()} for b in _kernel_rows([T2])]
    pivots = _eliminate(rows, lambda col: (col[0], order.key(col[1])))
    common = {
        w: {u: c for (_, u), c in row.items()} for (t, w), row in pivots.items() if t == 0
    }
    return _operator(common, order)


def family_ambient(family: Sequence[ReductionOperator]) -> list[Word]:
    """Sorted union of the kernel supports of the members (increasing); the
    vector w - T(w) is supported on w and the support of T(w)."""
    support = {
        u for T in family for w, p in T.rules.items() for u in (w, *p.support())
    }
    return sorted(support, key=family[0].order.key)


def normal_form_words(
    family: Sequence[ReductionOperator], ambient: Iterable[Word]
) -> set[Word]:
    """Ambient words that are normal forms for every member."""
    return set(ambient).difference(*(T.rules for T in family))


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
    vectors gives its reduced basis, whose pivots are the leading words; the
    meet itself is never formed.
    """
    order = _order(family, "complement")
    allowed = normal_form_words(family, family_ambient(family))
    vectors = [v for T in family for v in T.kernel_basis()]
    basis = coordinate_subspace_intersection(vectors, allowed, order)
    return _operator({e.leading(order)[0]: e._terms for e in basis}, order)
