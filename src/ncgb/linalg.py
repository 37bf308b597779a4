"""Exact-rational polynomials on words and sparse Gaussian elimination.

Subspaces of the span of a finite word set are represented by reduced
bases: monic vectors with pairwise distinct leading words, fully
auto-reduced, sorted by decreasing leading word.  Elimination runs on
integer rows over int columns: the words are sorted once and a word's
column is its rank there.  One fraction-free kernel, ``_reduce``, clears
the pivot columns of a row; the one eliminator, ``eliminate``, is its
forward pass and back-substitution, and ``reduction.complement``
substitutes with it too.  Every basis in the package is one call of
``eliminate``, which returns primitive integer rows.  The crossings
between ``Fraction`` polynomials and integer rows are
``reduction.ReductionOperator._row`` and ``reduction._operator``, one
each way; ``reduced_basis`` and ``coordinate_subspace_intersection`` go
through the reduction operators too.  ``_add_multiple`` is the one
``Fraction`` accumulate loop, for ``Polynomial.__add__`` and
``reduction.ReductionOperator.apply``.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd
from typing import Callable, Iterable, Mapping, Sequence

from .words import DegLexOrder, Word

class Polynomial:
    """Finite rational linear combination of words; immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, object] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    clean[tuple(w)] = c
        self._terms = clean

    @classmethod
    def _trusted(cls, terms: dict[Word, Fraction]) -> "Polynomial":
        """The polynomial on ``terms``, a dict the engine built that already
        holds nonzero ``Fraction``s under tuple words; taken as it is."""
        self = cls.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def monomial(cls, w: Word, coeff=1) -> "Polynomial":
        return cls({tuple(w): coeff})

    def items(self):
        return self._terms.items()

    def support(self) -> set[Word]:
        return set(self._terms)

    def coeff(self, w: Word) -> Fraction:
        return self._terms.get(w, Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        terms = dict(self._terms)
        _add_multiple(terms, 1, other._terms)
        return Polynomial._trusted(terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted({w: -c for w, c in self._terms.items()})

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return Polynomial._trusted({})
        return Polynomial._trusted({w: c * cw for w, cw in self._terms.items()})

    def sandwich(self, left: Word, right: Word) -> "Polynomial":
        """Multiply by the word ``left`` on the left and ``right`` on the right."""
        return Polynomial._trusted({left + w + right: c for w, c in self._terms.items()})

    def leading(self, order: DegLexOrder) -> tuple[Word, Fraction]:
        if not self._terms:
            raise ValueError("no leading term: zero polynomial")
        w = max(self._terms, key=order.key)
        return w, self._terms[w]

    def monic(self, order: DegLexOrder) -> "Polynomial":
        _, c = self.leading(order)
        return self.scale(Fraction(1) / c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "Polynomial(0)"
        parts = [f"{c}*{''.join(map(str, w)) or '1'}" for w, c in sorted(self._terms.items())]
        return "Polynomial(" + " + ".join(parts) + ")"


def _add_multiple(terms: dict, c: Fraction | int, other: Mapping) -> None:
    """terms += c * other in place, taking each product as it is (``other``'s
    own coefficient when c == 1) and dropping every word whose sum is zero."""
    items = other.items() if c == 1 else ((w, c * d) for w, d in other.items())
    for w, d in items:
        if w in terms:
            d += terms[w]
            if not d:
                del terms[w]
                continue
        terms[w] = d


def _reduce(row: dict, pivots: Mapping[int, Mapping[int, int]]) -> None:
    """Clear every pivot column of the integer ``row`` in place, greatest
    first, scaling by integers only, and leave it primitive: on the line of
    c * row + a combination of the pivot rows, for an integer c != 0.
    ``pivots`` maps each pivot column to an integer row whose greatest
    column it is.  The pivot rows need not be inter-reduced: a pivot column
    that a subtraction brings in is queued once."""
    # ``queued`` holds the pivot columns met so far, and the heap those still
    # to clear, negated so that the greatest pops first.
    queued = {j for j in row if j in pivots}
    heap = [-j for j in queued]
    heapify(heap)
    while heap:
        i = -heappop(heap)
        a = row.pop(i, 0)
        if not a:
            continue
        pivot = pivots[i]
        b = pivot[i]
        g = gcd(a, b)
        a, b = a // g, b // g
        # row = b * row - a * pivot, on every column but i.
        if b != 1:
            for j in row:
                row[j] *= b
        for j, d in pivot.items():
            if j != i:
                x = row.get(j, 0) - a * d
                if x:
                    row[j] = x
                else:
                    del row[j]
                if j in pivots and j not in queued:
                    queued.add(j)
                    heappush(heap, -j)
    g = gcd(*row.values())  # 0 for an empty row
    if g > 1:
        for j in row:
            row[j] //= g


def eliminate(rows: Iterable[dict]) -> dict:
    """Sparse exact reduced row echelon form of ``rows``: nonzero integer
    rows over int columns, which it changes in place.

    The pivot of a row is its greatest column.  Returns the fully
    inter-reduced primitive integer rows keyed by pivot.  The rows are taken by
    increasing pivot, so a new pivot seldom occurs in the rows before it.
    Each is reduced against the pivot rows so far by ``_reduce``, and its
    pivot is then cleared from them by ``_reduce``.  The reduced echelon
    form is unique, so the rows returned do not depend on the order
    ``rows`` come in, up to each row's sign.
    """
    pivots: dict[int, dict] = {}
    for row in sorted(rows, key=max):
        _reduce(row, pivots)
        if not row:
            continue
        pivot = max(row)
        single = {pivot: row}
        for other in pivots.values():
            if pivot in other:
                _reduce(other, single)
        pivots[pivot] = row
    return pivots


def _ranks(words: Iterable[Word], key: Callable) -> tuple[list[Word], dict[Word, int]]:
    """``words`` by increasing ``key``, and the rank of each word: its index
    there, so a greater word has a greater rank."""
    ranked = sorted(words, key=key)
    return ranked, {w: i for i, w in enumerate(ranked)}


# ``reduction`` imports this module, so the two functions below import
# from it when they are called.
def reduced_basis(vectors: Iterable[Polynomial], order: DegLexOrder) -> list[Polynomial]:
    """Unique monic auto-reduced basis of the span, by decreasing leading
    word: the kernel basis of ``reduction.ker_inv``.  No engine code calls
    this; the benchmark names it."""
    from .reduction import ker_inv

    return ker_inv(vectors, order).kernel_basis()


def coordinate_subspace_intersection(
    A: Sequence[Polynomial], allowed: set[Word], order: DegLexOrder
) -> list[Polynomial]:
    """Reduced basis of the vectors of span(A) supported inside ``allowed``:
    the kernel basis of the join of ``ker_inv(A)`` with the operator whose
    kernel is spanned by the allowed words of A's support, since a join's
    kernel is the intersection of the kernels.  No engine code calls this;
    the benchmark names it.
    """
    from .reduction import join, ker_inv

    support = {u for a in A for u in a._terms}
    words = [Polynomial.monomial(u) for u in support & set(allowed)]
    return join(ker_inv(A, order), ker_inv(words, order)).kernel_basis()
