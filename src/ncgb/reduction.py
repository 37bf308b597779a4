"""Reduction operators and their lattice.

A reduction operator is a finitely supported idempotent projector on the
span of words, stored as an inter-reduced rule map: each reducible word is
sent to a strictly smaller polynomial whose support contains no reducible
word.  The identity on every unlisted word is implicit.  The operator owns
the rewrite step: ``extension(w, n, m)`` is T_{n,m}(w), and ``redex(w)``
gives the offsets (n, m) of the leftmost, longest key.  Operators are in
bijection with finite-dimensional subspaces (their kernels), which is what
realises the lattice operations: meet by kernel sum, join by kernel
intersection, and the complement by intersection with the normal-form
words.  ``single_rule`` gives the operator of one line by dividing its
polynomial by the leading coefficient, or negating it when that
coefficient is 1, with no elimination; ``ker_inv`` of a span is the meet
of its lines' operators.  Each of ``meet``, ``join`` and ``complement`` is
one call of ``_rows`` and one pass of ``linalg.eliminate``: ``_rows``
sorts the operation's words once and gives one primitive integer row per
rule over their ranks, a word's rank being its index there.  It is the
package's only crossing from rules to rows, the only place denominators
are cleared, and ``_operator`` the only one back: it maps ranks to words
and divides each integer row by its pivot entry, one ``Fraction`` per
coefficient.  The rows are made anew on each call.  ``complement`` is the
structured elimination of F4: the first kernel row of each key is a
reducer whose pivot is already known, every other row is reduced against
the reducers by ``linalg._reduce``, the kernel ``eliminate`` runs on too,
and only the residuals, which hold no key, are eliminated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .linalg import Polynomial, _add_multiple, _reduce, eliminate
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

    @classmethod
    def _trusted(cls, order: DegLexOrder, rules: dict[Word, Polynomial]) -> "ReductionOperator":
        """The operator of a rule map the engine built, inter-reduced with
        images smaller than their words by construction; taken as it is."""
        self = cls.__new__(cls)
        self.order = order
        self._rules = rules
        self._max_key_len = max(map(len, rules), default=0)
        return self

    @property
    def rules(self) -> Mapping[Word, Polynomial]:
        return self._rules

    def redex(self, w: Word) -> tuple[int, int] | None:
        """The offsets (n, m) of the leftmost occurrence in ``w`` of a key,
        the longest key there, or None when ``w`` is irreducible; ``()``
        never matches."""
        rules, max_len, size = self._rules, self._max_key_len, len(w)
        for n in range(size):
            for k in range(min(max_len, size - n), 0, -1):
                if w[n : n + k] in rules:
                    return n, size - n - k
        return None

    def extension(self, w: Word, n: int, m: int) -> Polynomial:
        """T_{n,m}(w) for offsets n, m >= 0: ``w`` with the factor between
        its n-letter prefix and its m-letter suffix replaced by that factor's
        image; ``w`` itself when the factor is not a key or n + m > len(w)."""
        if n < 0 or m < 0:
            raise ValueError(f"negative extension offsets ({n}, {m})")
        end = len(w) - m
        image = self._rules.get(w[n:end]) if n <= end else None
        return Polynomial.monomial(w) if image is None else image.sandwich(w[:n], w[end:])

    def apply(self, f: Polynomial) -> Polynomial:
        """Linear image of ``f``; already a fixed point since rules are inter-reduced.
        ``f`` itself when no word of ``f`` is a key."""
        if self._rules.keys().isdisjoint(f._terms):
            return f
        out: dict = {}
        for w, c in f.items():
            p = self._rules.get(w)
            if p is None:
                _add_multiple(out, 1, {w: c})
            else:
                _add_multiple(out, c, p._terms)
        return Polynomial._trusted(out)

    def kernel_basis(self) -> list[Polynomial]:
        """Reduced basis {w - T(w) : w reducible}, by decreasing leading word."""
        rules = self._rules
        return [
            Polynomial.monomial(w) - rules[w]
            for w in sorted(rules, key=self.order.key, reverse=True)
        ]

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


def _rows(family: Sequence[ReductionOperator]) -> tuple[list[Word], list[dict]]:
    """The ``family_ambient`` words, and one new integer row per rule over
    the ranks of those words (their indices there), in each member's rule
    order: {rank[w]: m, rank[u]: -c * m, ...} on the line of w - T(w), the
    key's rank first, then the words of T(w) in order.  m is the lcm of
    T(w)'s denominators, so the row is primitive.  The only crossing from
    rules to rows."""
    words = family_ambient(family)
    rank = {w: i for i, w in enumerate(words)}
    rows = []
    for T in family:
        for w, image in T.rules.items():
            m = lcm(*(c.denominator for c in image._terms.values()))
            row = {rank[w]: m}
            for u, c in image.items():
                row[rank[u]] = -c.numerator * (m // c.denominator)
            rows.append(row)
    return words, rows


def _operator(
    pivots: Mapping[int, Mapping], words: Sequence[Word], order: DegLexOrder
) -> ReductionOperator:
    """The operator whose kernel has the integer rows ``pivots`` of
    ``eliminate`` (keyed by pivot, over the ranks of ``words``) as basis: the
    rule for pivot w is w minus its row over its pivot entry, one ``Fraction``
    per image coefficient.  The rules, and the terms of each image, are by
    decreasing word.  The only crossing from rows to rules."""
    rules = {}
    for i in sorted(pivots, reverse=True):
        row = pivots[i]
        # The pivot is the row's greatest rank, so it sorts first.
        rules[words[i]] = Polynomial._trusted(
            {words[j]: Fraction(row[j], -row[i]) for j in sorted(row, reverse=True)[1:]}
        )
    return ReductionOperator._trusted(order, rules)


def _order(family: Sequence[ReductionOperator], operation: str) -> DegLexOrder:
    """The order shared by every member of a nonempty family."""
    if not family:
        raise ValueError(f"{operation} of an empty family")
    order = family[0].order
    if any(T.order is not order and T.order != order for T in family):
        raise ValueError("operator order mismatch")
    return order


def single_rule(f: Polynomial, order: DegLexOrder) -> ReductionOperator:
    """The operator whose kernel is the line spanned by one nonzero
    polynomial: the rule w -> w - f / c, where c is the coefficient of f's
    leading word w.  A monic ``f``, such as an S-polynomial leg, is negated,
    not divided.  ``ker_inv`` meets these operators for a span."""
    if f.is_zero():
        raise ValueError("single_rule requires a nonzero polynomial")
    w, c = f.leading(order)
    if c == 1:
        image = Polynomial._trusted({u: -d for u, d in f.items() if u != w})
    else:
        image = Polynomial._trusted({u: -d / c for u, d in f.items() if u != w})
    return ReductionOperator._trusted(order, {w: image})


def leq(T1: ReductionOperator, T2: ReductionOperator) -> bool:
    """T1 below T2: the kernel of T2 is contained in the kernel of T1."""
    _order([T1, T2], "leq")
    return all(T1.apply(v).is_zero() for v in T2.kernel_basis())


def meet(family: Sequence[ReductionOperator]) -> ReductionOperator:
    """Greatest lower bound: the kernel is the sum of the kernels, spanned
    by the members' ``_rows``, which one elimination reduces."""
    order = _order(family, "meet")
    words, rows = _rows(family)
    return _operator(eliminate(rows), words, order)


def ker_inv(vectors: Iterable[Polynomial], order: DegLexOrder) -> ReductionOperator:
    """The operator whose kernel is the span of ``vectors``: the meet of the
    operators of their lines, since a meet's kernel is the sum of the
    kernels, or the identity when no vector is nonzero."""
    lines = [single_rule(v, order) for v in vectors if v]
    return meet(lines) if lines else identity(order)


def join(T1: ReductionOperator, T2: ReductionOperator) -> ReductionOperator:
    """Least upper bound: the kernel is the intersection of the kernels.

    Zassenhaus block trick: ``_rows`` gives T1's rows, then T2's, over the
    n ranks of their words.  The rows (a | a) of T1 and (b | 0) of T2 are
    eliminated with every first-block column (rank + n) above every
    second-block one (rank).  The rows left with a second-block pivot are
    zero on the first block and are the reduced basis of the intersection.
    """
    order = _order([T1, T2], "join")
    words, rows = _rows([T1, T2])
    n, k = len(words), len(T1.rules)
    blocks = [{j + t: c for j, c in a.items() for t in (n, 0)} for a in rows[:k]]
    blocks += [{j + n: c for j, c in b.items()} for b in rows[k:]]
    pivots = eliminate(blocks)
    return _operator({i: row for i, row in pivots.items() if i < n}, words, order)


def family_ambient(family: Sequence[ReductionOperator]) -> list[Word]:
    """Every column of the members' kernel rows, their keys and image
    words, by increasing order."""
    order = _order(family, "family_ambient")
    words: set[Word] = set()
    for T in family:
        rules = T.rules
        words.update(rules)
        for image in rules.values():
            words.update(image._terms)
    return sorted(words, key=order.key)


def normal_form_words(
    family: Sequence[ReductionOperator], ambient: Iterable[Word]
) -> set[Word]:
    """Ambient words that are normal forms for every member."""
    return set(ambient).difference(*(T.rules for T in family))


def obstructions(
    family: Sequence[ReductionOperator], ambient: Iterable[Word]
) -> set[Word]:
    """Words normal for every member but reducible for the meet."""
    return normal_form_words(family, ambient) & set(meet(family).rules)


def is_confluent_family(family: Sequence[ReductionOperator]) -> bool:
    return not obstructions(family, family_ambient(family))


def complement(family: Sequence[ReductionOperator]) -> ReductionOperator:
    """The completing operator: join of the meet with ker_inv of the span of
    family-normal-form words.

    Only the finite-dimensional part matters: the kernel of the result is the
    set of vectors in the sum of the members' kernels supported entirely on
    normal-form words.  On the family ambient, which holds every column of
    the members' kernel rows, those are the words that are not keys.

    ``_rows`` sorts the ambient words once and gives integer rows over their
    ranks, so a greater word is a greater int, each with its key's rank
    first.  The first row of each key is a reducer: its pivot is its key,
    and its other columns are smaller words.  Every other row is reduced
    against the reducers by ``linalg._reduce``, which takes its key columns
    greatest first, so each key is cleared once.  The residuals hold no key
    and span the intersection: the kernel sum is the span of the reducers
    plus that of the residuals, and a nonzero combination of reducers has a
    key as its leading word.  One elimination of the primitive residuals
    gives the reduced basis, which is unique.
    """
    order = _order(family, "complement")
    words, rows = _rows(family)
    reducers: dict[int, dict] = {}
    others = []
    for row in rows:
        i = next(iter(row))
        if i in reducers:
            others.append(row)
        else:
            reducers[i] = row
    for row in others:
        _reduce(row, reducers)
    return _operator(eliminate([row for row in others if row]), words, order)
