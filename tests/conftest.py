"""Shared fixtures: the braided-monoid example, word/polynomial builders,
seeded random generators, independent dense-elimination oracles, and the
enumerated reducible words that the naive completion is compared by."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from ncgb.fileformat import parse_polynomial, parse_presentation
from ncgb.linalg import Polynomial, _add_multiple
from ncgb.oracle import RuleSet
from ncgb.presentation import Presentation
from ncgb.reduction import ReductionOperator, ker_inv
from ncgb.words import Alphabet, DegLexOrder, Word

BRAIDED_TEXT = """\
alphabet: x y z
order: deglex
rules:
y.z -> x
z.x -> x.y
"""

COMPLETED_BRAIDED_TEXT = """\
alphabet: x y z
order: deglex
rules:
y.z -> x
z.x -> x.y
y.x.y -> x.x
y.x.x -> x.x.z
y.x.x.x -> x.x.x.y
"""

# Its third completion step normalises 84 seeds into 1,359 operators; under
# CompletionLimits(10, 5) it stops at the degree cap after three steps.
HEAVY_STEP_TEXT = """\
alphabet: w x y
order: deglex
rules:
x.y -> 3*w.y + 3*w.x + 3*w
y.x -> -2*x.x + 9*w.y + 9*w.x - y + 9*w
"""

# Under a degree cap of 4 the naive completion skips x.x.x.x.x - x.x.x and
# x.x.x.x.x, then reaches the basis {y, x.x.x}; the lattice completion
# stops at the cap after one step.
SKIPPING_TEXT = """\
alphabet: x y
order: deglex
rules:
x.y.y -> 3*y
y.x.x -> 3*x.x.x
y.x.y -> 0
"""


@pytest.fixture
def xyz() -> Alphabet:
    return Alphabet(("x", "y", "z"))


@pytest.fixture
def deglex_xyz(xyz) -> DegLexOrder:
    return DegLexOrder(xyz)


@pytest.fixture
def braided() -> Presentation:
    return parse_presentation(BRAIDED_TEXT)


@pytest.fixture
def completed_braided() -> Presentation:
    return parse_presentation(COMPLETED_BRAIDED_TEXT)


def w(alphabet: Alphabet, text: str) -> Word:
    """Word from single-character-symbol shorthand; '1' is the empty word."""
    if text == "1":
        return ()
    return tuple(alphabet.index(ch) for ch in text)


def p(alphabet: Alphabet, text: str) -> Polynomial:
    return parse_polynomial(text, alphabet)


def all_words(alphabet: Alphabet, max_len: int, min_len: int = 0) -> list[Word]:
    out: list[Word] = []
    for n in range(min_len, max_len + 1):
        out.extend(itertools.product(range(len(alphabet)), repeat=n))
    return out


def random_polynomial(
    rng: random.Random, ambient: list[Word], max_terms: int = 3
) -> Polynomial:
    terms = {}
    for word_ in rng.sample(ambient, min(rng.randint(1, max_terms), len(ambient))):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        if c:
            terms[word_] = c
    return Polynomial(terms)


def random_operator(
    rng: random.Random,
    order: DegLexOrder,
    ambient: list[Word],
    max_vectors: int = 3,
) -> ReductionOperator:
    vectors = [
        random_polynomial(rng, ambient) for _ in range(rng.randint(0, max_vectors))
    ]
    return ker_inv(vectors, order)


def random_presentation(rng: random.Random) -> Presentation:
    """Small random presentation: up to 3 letters, up to 3 rules, keys of length <= 3."""
    n_letters = rng.randint(2, 3)
    alphabet = Alphabet(tuple("xyz"[:n_letters]))
    order = DegLexOrder(alphabet)
    candidates = all_words(alphabet, 3, min_len=1)
    vectors = []
    for _ in range(rng.randint(1, 3)):
        key = rng.choice([u for u in candidates if len(u) >= 2])
        below = [u for u in candidates + [()] if order.key(u) < order.key(key)]
        rhs_terms = {}
        for word_ in rng.sample(below, rng.randint(0, min(2, len(below)))):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if c:
                rhs_terms[word_] = c
        vectors.append(Polynomial.monomial(key) - Polynomial(rhs_terms))
    return Presentation(alphabet, order, ker_inv(vectors, order))


def dense_rank(vectors, order) -> int:
    """Independent rank oracle: textbook dense elimination over Fractions."""
    vectors = [v for v in vectors if not v.is_zero()]
    if not vectors:
        return 0
    ambient = sorted({u for v in vectors for u in v.support()}, key=order.key)
    rows = [[v.coeff(u) for u in ambient] for v in vectors]
    rank = 0
    for col in range(len(ambient)):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def in_span(f: Polynomial, basis, order) -> bool:
    """Membership oracle: rank comparison with independent dense elimination."""
    return dense_rank(list(basis) + [f], order) == dense_rank(basis, order)


def _eliminate_in_given_order(rows, key):
    """Reference: the eliminator taking its rows in the order they come."""
    pivots: dict = {}
    for row in rows:
        row = dict(row)
        # The pivot rows are monic, so adding -row[col] times one clears col.
        for col in [col for col in row if col in pivots]:
            _add_multiple(row, -row[col], pivots[col])
        if not row:
            continue
        pivot = max(row, key=key)
        inv = 1 / row[pivot]
        row = {col: c * inv for col, c in row.items()}
        for other in pivots.values():
            c = other.get(pivot)
            if c:
                _add_multiple(other, -c, row)
        pivots[pivot] = row
    return pivots


def lm_set_up_to_degree(R: RuleSet, d: int) -> set[Word]:
    """Words of length <= d containing some rule leading word as a factor.

    Lists all |A|^d words, so it is a reference for small d only; the
    library compares leading words by ``oracle.leading_word_witnesses``."""
    lms = R.leading_words()
    letters = range(len(R.order.alphabet))
    out: set[Word] = set()
    for length in range(d + 1):
        for w in itertools.product(letters, repeat=length):
            if any(
                w[i : i + len(u)] == u
                for u in lms
                for i in range(len(w) - len(u) + 1)
            ):
                out.add(w)
    return out
