"""Exact-rational polynomials on words and sparse Gaussian elimination.

Subspaces of the span of a finite word set are represented by reduced
bases: monic vectors with pairwise distinct leading words, fully
auto-reduced, sorted by decreasing leading word.  One sparse eliminator,
``_eliminate``, computes every basis in the package; its column order is
its only parameter.  It takes its rows by increasing pivot, and the rows
it returns do not depend on the order they are given in.  Here it backs
the reduced basis and the intersection with a coordinate subspace; the
lattice in ``reduction`` hands it rows directly.  All arithmetic uses
``fractions.Fraction`` so results are bit-exact.
"""

from __future__ import annotations

from fractions import Fraction
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
        object.__setattr__(self, "_terms", clean)

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
        for w, c in other._terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return Polynomial(terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial({w: -c for w, c in self._terms.items()})

    def scale(self, c) -> "Polynomial":
        c = Fraction(c)
        return Polynomial({w: c * cw for w, cw in self._terms.items()})

    def sandwich(self, left: Word, right: Word) -> "Polynomial":
        """Multiply by the word ``left`` on the left and ``right`` on the right."""
        return Polynomial({left + w + right: c for w, c in self._terms.items()})

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


def _add_multiple(row: dict, c: Fraction, other: Mapping, skip) -> None:
    """row += c * other, on every column of ``other`` except ``skip``."""
    for col, d in other.items():
        if col != skip:
            x = row.get(col, 0) + c * d
            if x:
                row[col] = x
            else:
                del row[col]


def _eliminate(rows: Iterable[Mapping], key: Callable) -> dict:
    """Sparse exact reduced row echelon form of ``rows``.

    The pivot of a row is its greatest column under ``key``.  Returns the
    monic, fully inter-reduced rows keyed by pivot: no row holds another
    row's pivot.  The rows are taken by increasing pivot, so a new pivot
    seldom occurs in the rows before it.  The reduced echelon form is
    unique, so the rows returned, as maps from column to coefficient, do
    not depend on the order ``rows`` come in.
    """
    pivots: dict = {}
    for row in sorted((dict(r) for r in rows if r), key=lambda r: key(max(r, key=key))):
        # Pivot rows hold no other pivot, so one pass over them reduces.
        for col in [col for col in row if col in pivots]:
            _add_multiple(row, -row.pop(col), pivots[col], col)
        if not row:
            continue
        pivot = max(row, key=key)
        inv = 1 / row[pivot]
        row = {col: c * inv for col, c in row.items()}
        for other in pivots.values():
            c = other.pop(pivot, 0)
            if c:
                _add_multiple(other, -c, row, pivot)
        pivots[pivot] = row
    return pivots


def reduced_basis(vectors: Iterable[Polynomial], order: DegLexOrder) -> list[Polynomial]:
    """Unique monic auto-reduced basis of the span, by decreasing leading word."""
    pivots = _eliminate((v._terms for v in vectors), order.key)
    return [Polynomial(pivots[w]) for w in sorted(pivots, key=order.key, reverse=True)]


def coordinate_subspace_intersection(
    A: Sequence[Polynomial], allowed: set[Word], order: DegLexOrder
) -> list[Polynomial]:
    """Reduced basis of the vectors of span(A) supported inside ``allowed``.

    Every disallowed word is ranked above every allowed one, so the rows
    whose pivot is allowed are supported inside ``allowed`` and span the
    intersection.  On allowed words the ranking is deg-lex, so they are
    already its reduced basis.
    """
    allowed = set(allowed)
    pivots = _eliminate(
        (a._terms for a in A), lambda w: (w not in allowed, order.key(w))
    )
    kept = sorted((w for w in pivots if w in allowed), key=order.key, reverse=True)
    return [Polynomial(pivots[w]) for w in kept]
