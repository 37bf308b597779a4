"""Free-monoid words over a finite alphabet, the deg-lex order, and factor search.

Words are stored as tuples of alphabet indices, so multi-character symbol
names cost nothing and tuple comparison realises the base lexicographic
order directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

Word = tuple[int, ...]

LT, EQ, GT = -1, 0, 1


@dataclass(frozen=True)
class Alphabet:
    """Finite ordered alphabet; the listing order is the base order."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise KeyError(f"unknown symbol {symbol!r}") from None

    def contains_word(self, w: Word) -> bool:
        n = len(self.symbols)
        return all(0 <= i < n for i in w)


@dataclass(frozen=True)
class DegLexOrder:
    """Degree-lexicographic monomial order: shorter first, ties by base order."""

    alphabet: Alphabet

    def key(self, w: Word):
        return (len(w), w)

    def compare(self, u: Word, v: Word) -> int:
        ku, kv = self.key(u), self.key(v)
        if ku < kv:
            return LT
        if ku > kv:
            return GT
        return EQ

    def less(self, u: Word, v: Word) -> bool:
        return self.key(u) < self.key(v)


def concat(u: Word, v: Word) -> Word:
    return u + v


def factor_occurrences(w: Word, u: Word) -> list[tuple[int, int]]:
    """All (prefix_len, suffix_len) pairs at which ``u`` occurs as a factor of ``w``.

    Listed in increasing prefix length.  ``u`` must be nonempty.
    """
    if not u:
        raise ValueError("factor must be nonempty")
    k = len(u)
    return [
        (n, len(w) - n - k)
        for n in range(len(w) - k + 1)
        if w[n : n + k] == u
    ]


def overlaps(u: Word, v: Word) -> list[tuple[Word, Word, Word]]:
    """Proper overlaps u = ab, v = bc with b nonempty.

    The full self-overlap (u = v = b with a = c empty) is excluded; it would
    only ever contribute a zero S-polynomial.
    """
    if not u or not v:
        raise ValueError("overlap operands must be nonempty")
    out = []
    for k in range(1, min(len(u), len(v)) + 1):
        if u[len(u) - k :] == v[:k]:
            a, b, c = u[: len(u) - k], u[len(u) - k :], v[k:]
            if not a and not c:
                continue
            out.append((a, b, c))
    return out
