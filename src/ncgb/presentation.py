"""Presentations by operator: extensions, critical branchings, rewriting.

A presentation is a triple (alphabet, monomial order, reduction operator).
The extension T_{n,m} of the operator (``ReductionOperator.extension``)
rewrites the middle factor of a word, fixing its n-prefix and m-suffix; critical
branchings are the words reducible by two extensions in genuinely
overlapping or nested positions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Collection

from .linalg import Polynomial
from .reduction import ReductionOperator
from .words import Alphabet, DegLexOrder, Word, factor_occurrences, overlaps


@dataclass(frozen=True)
class Presentation:
    alphabet: Alphabet
    order: DegLexOrder
    operator: ReductionOperator

    def __post_init__(self) -> None:
        if self.order.alphabet != self.alphabet:
            raise ValueError("order alphabet mismatch")
        if self.operator.order != self.order:
            raise ValueError("operator order mismatch")
        for w, p in self.operator.rules.items():
            for v in {w} | p.support():
                if not self.alphabet.contains_word(v):
                    raise ValueError(f"word {v} outside the alphabet")

    @classmethod
    def _trusted(
        cls, alphabet: Alphabet, order: DegLexOrder, operator: ReductionOperator
    ) -> "Presentation":
        """The presentation of an operator the engine built from rules over
        ``alphabet`` and ``order``, which holds only their words by
        construction; taken as it is."""
        self = cls.__new__(cls)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "operator", operator)
        return self


@dataclass(frozen=True)
class CriticalBranching:
    """Source word with an unordered pair of reducing extension offsets.

    The pair is stored with the larger offset pair first, matching the
    orientation in which overlap branchings read (prefix_len, 0), (0,
    suffix_len).
    """

    source: Word
    left: tuple[int, int]
    right: tuple[int, int]


def extension_apply(P: Presentation, n: int, m: int, w: Word) -> Polynomial:
    """The extension T_{n,m}(w) of P's operator T: ``T.extension(w, n, m)``."""
    return P.operator.extension(w, n, m)


def critical_branchings(
    P: Presentation, keys: Collection[Word] | None = None
) -> list[CriticalBranching]:
    """The critical branchings, sorted by source then offsets.

    A branching fixes its two reducing keys: they are the middle factors of
    its source at its two offsets.  Without ``keys``, every pair of keys is
    tested.  With ``keys``, only the branchings where one of ``keys``
    reduces are returned, and only the pairs (key in ``keys``, any key) and
    (other key, key in ``keys``) are tested.  Words of ``keys`` that are
    not keys of the operator reduce nothing.  Each branching is listed
    once: an overlap comes from one ordered pair of keys, and an inclusion
    from the pair (including key, included key).
    """
    # A rule keyed by the empty word (the ideal contains a constant) admits
    # no branchings: the middle factor of an extension is always nonempty.
    everything = [k for k in P.operator.rules if k]
    if keys is None:
        keys = P.operator.rules.keys()
    chosen = [k for k in everything if k in keys]
    others = [k for k in everything if k not in keys]
    found = []
    for u, v in chain(product(chosen, everything), product(others, chosen)):
        for a, _, c in overlaps(u, v):
            found.append(CriticalBranching(a + v, (len(a), 0), (0, len(c))))
        for n, m in factor_occurrences(u, v):
            if u != v or (n, m) != (0, 0):
                found.append(CriticalBranching(u, (n, m), (0, 0)))
    return sorted(found, key=lambda b: _branching_key(P.order, b))


def _branching_key(order: DegLexOrder, b: CriticalBranching):
    """The sort key of ``critical_branchings``: source, then offsets."""
    return (order.key(b.source), b.left, b.right)


def s_polynomial(P: Presentation, b: CriticalBranching) -> Polynomial:
    """The two one-step reductions of the source w, T_{n,m}(w) - T_{n',m'}(w)."""
    T = P.operator
    return T.extension(b.source, *b.left) - T.extension(b.source, *b.right)


def normal_form(P: Presentation, f: Polynomial) -> Polynomial:
    """Exhaustively rewrite ``f`` by the rules applied inside words.

    Strategy: greatest reducible monomial w first, rewritten by the extension
    T_{n,m}(w) at the offsets of ``redex``: leftmost occurrence, longest key
    there.  Terminates because every step replaces a monomial by smaller ones.
    """
    T = P.operator
    if () in T.rules:
        # The only image smaller than the empty word is zero, so the rule
        # kills the unit and with it every word: w = w.1 rewrites to 0.
        return Polynomial.zero()
    redex = T.redex
    while True:
        hits = [(w, hit) for w in f.support() if (hit := redex(w)) is not None]
        if not hits:
            return f
        w, (n, m) = max(hits, key=lambda item: P.order.key(item[0]))
        c = f.coeff(w)
        f = f - Polynomial.monomial(w, c) + T.extension(w, n, m).scale(c)


def is_confluent_presentation(P: Presentation) -> bool:
    """Diamond-Lemma test: every S-polynomial rewrites to zero."""
    return all(
        normal_form(P, s_polynomial(P, b)).is_zero() for b in critical_branchings(P)
    )


def groebner_rules(P: Presentation) -> list[Polynomial]:
    """The rule vectors w - S(w), sorted by increasing leading word."""
    return P.operator.kernel_basis()[::-1]
