"""Free-monoid words over a finite alphabet, the deg-lex order, and factor search.

Words are stored as tuples of alphabet indices, so multi-character symbol
names cost nothing and tuple comparison realises the base lexicographic
order directly.  ``DegLexOrder.key`` is the sort key of every ordered
output of the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

Word = tuple[int, ...]


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
    """Proper overlaps u = ab, v = bc with a, b and c nonempty, by increasing b.

    An empty a or c would make one word a factor of the other: that is an
    inclusion, which ``factor_occurrences`` finds.
    """
    if not u or not v:
        raise ValueError("overlap operands must be nonempty")
    out = []
    for k in range(1, min(len(u), len(v))):
        if u[len(u) - k :] == v[:k]:
            a, b, c = u[: len(u) - k], u[len(u) - k :], v[k:]
            out.append((a, b, c))
    return out
