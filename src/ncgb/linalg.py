"""Exact-rational polynomials on words and sparse Gaussian elimination.

Subspaces of the span of a finite word set are represented by reduced
bases: monic vectors with pairwise distinct leading words, fully
auto-reduced, sorted by decreasing leading word.  One sparse eliminator,
``eliminate``, computes every basis in the package; its column order is
its only parameter.  It takes its rows by increasing pivot, and the rows
it returns do not depend on the order they are given in.  Every lattice
operation in ``reduction`` is one call of it on rows.  Arithmetic is
exact: polynomials hold ``Fraction`` coefficients, and ``eliminate``
clears each row's denominators, eliminates primitive integer rows on
Python ints, and makes ``Fraction``s only for the monic rows it returns.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
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
    def _trusted(cls, terms: dict[Word, Fraction]) -> "Polynomial":
        """The polynomial on ``terms``, a dict the engine built that already
        holds nonzero ``Fraction``s under tuple words; taken as it is."""
        self = cls.__new__(cls)
        object.__setattr__(self, "_terms", terms)
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
        # Not _add_multiple(terms, 1, ...): ``1 * c`` and ``0 + c`` each build
        # a new Fraction, and a word new to ``terms`` can take ``c`` as it is.
        terms = dict(self._terms)
        for w, c in other._terms.items():
            if w in terms:
                c += terms[w]
                if not c:
                    del terms[w]
                    continue
            terms[w] = c
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


def _add_multiple(row: dict, c: Fraction | int, other: Mapping, skip) -> None:
    """row += c * other, on every column of ``other`` except ``skip``."""
    for col, d in other.items():
        if col != skip:
            x = row.get(col, 0) + c * d
            if x:
                row[col] = x
            else:
                del row[col]


def _integer_row(row: Mapping) -> dict:
    """``row`` times the lcm of its denominators: an integer row on its line."""
    m = lcm(*(c.denominator for c in row.values()))
    return {col: c.numerator * (m // c.denominator) for col, c in row.items()}


def _scale(row: dict, a: int) -> None:
    """row *= a, in place."""
    if a != 1:
        for col in row:
            row[col] *= a


def _primitive(row: dict) -> None:
    """Divide the integer ``row`` by the gcd of its entries, in place."""
    g = gcd(*row.values())
    if g != 1:
        for col in row:
            row[col] //= g


def eliminate(rows: Iterable[Mapping], key: Callable) -> dict:
    """Sparse exact reduced row echelon form of ``rows``.

    The pivot of a row is its greatest column under ``key``.  Returns the
    monic, fully inter-reduced ``Fraction`` rows keyed by pivot: no row
    holds another row's pivot.  The rows are taken by increasing pivot, so
    a new pivot seldom occurs in the rows before it.  The reduced echelon
    form is unique, so the rows returned, as maps from column to
    coefficient, do not depend on the order ``rows`` come in.

    Inside, the rows are integer rows on the same lines, eliminated
    fraction-free on Python ints: a row is scaled by the least integer that
    makes its subtractions of pivot rows integral, and is then divided by
    the gcd of its entries.  Only the rows returned are divided by their
    pivot entries into ``Fraction``s.
    """
    pivots: dict = {}
    for row in sorted((_integer_row(r) for r in rows if r), key=lambda r: key(max(r, key=key))):
        cols = [col for col in row if col in pivots]
        if cols:
            # Pivot rows hold no other pivot, so subtracting one leaves the
            # row's entries at the other pivots as they are: one scaling by m
            # makes every subtraction integral.
            m = lcm(*(pivots[col][col] // gcd(row[col], pivots[col][col]) for col in cols))
            _scale(row, m)
            for col in cols:
                _add_multiple(row, -(row.pop(col) // pivots[col][col]), pivots[col], col)
            if not row:
                continue
        pivot = max(row, key=key)
        _primitive(row)
        v = row[pivot]
        for other in pivots.values():
            c = other.pop(pivot, 0)
            if c:
                g = gcd(c, v)
                _scale(other, v // g)
                _add_multiple(other, -(c // g), row, pivot)
                _primitive(other)
        pivots[pivot] = row
    return {
        pivot: {col: Fraction(c, row[pivot]) for col, c in row.items()}
        for pivot, row in pivots.items()
    }


def reduced_basis(vectors: Iterable[Polynomial], order: DegLexOrder) -> list[Polynomial]:
    """Unique monic auto-reduced basis of the span, by decreasing leading word."""
    pivots = eliminate((v._terms for v in vectors), order.key)
    return [Polynomial._trusted(pivots[w]) for w in sorted(pivots, key=order.key, reverse=True)]


def coordinate_subspace_intersection(
    A: Sequence[Polynomial], allowed: set[Word], order: DegLexOrder
) -> list[Polynomial]:
    """Reduced basis of the vectors of span(A) supported inside ``allowed``.

    Every disallowed word is ranked above every allowed one, so the rows
    whose pivot is allowed are supported inside ``allowed`` and span the
    intersection.  On allowed words the ranking is deg-lex, so they are
    already its reduced basis.  No engine code calls this; it is the
    reference ``complement`` is tested against, and the benchmark names it.
    """
    allowed = set(allowed)
    pivots = eliminate(
        (a._terms for a in A), lambda w: (w not in allowed, order.key(w))
    )
    kept = sorted((w for w in pivots if w in allowed), key=order.key, reverse=True)
    return [Polynomial._trusted(pivots[w]) for w in kept]
