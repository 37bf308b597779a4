"""Textbook presentations whose normal words are counted independently.

Each presentation is completed and its normal words, those with no key as
a factor, are counted by length up to 5 by brute force.  The counts are
known from mathematics, not from this engine: the PBW algebras have bases
of ordered monomials (Bergman, "The diamond lemma for ring theory", Adv.
Math. 29, 1978), the group algebra of S3 has dimension 6, and the rank-2
plactic monoid has one element per semistandard tableau over {1, 2}.
"""

import itertools

import pytest

from ncgb.completion import CONVERGED, CompletionLimits, complete
from ncgb.fileformat import parse_presentation
from ncgb.presentation import is_confluent_presentation

POLYNOMIAL_3 = [1, 3, 6, 10, 15, 21]
LINEAR = [1, 2, 3, 4, 5, 6]

ANCHORS = {
    "commutative k[x,y,z]": ("x y z", ["y.x -> x.y", "z.x -> x.z", "z.y -> y.z"], POLYNOMIAL_3),
    "Heisenberg": ("x y z", ["y.x -> x.y - z", "z.x -> x.z", "z.y -> y.z"], POLYNOMIAL_3),
    "U(sl2)": ("e f h", ["f.e -> e.f - h", "h.e -> e.h + 2*e", "h.f -> f.h - 2*f"], POLYNOMIAL_3),
    "Weyl A1": ("x y", ["y.x -> x.y - 1"], LINEAR),
    "quantum plane": ("x y", ["y.x -> 2*x.y"], LINEAR),
    "S3": ("s t", ["s.s -> 1", "t.t -> 1", "t.s.t -> s.t.s"], [1, 2, 2, 1, 0, 0]),
    "plactic rank 2": ("a b", ["b.a.a -> a.b.a", "b.b.a -> b.a.b"], [1, 2, 4, 6, 9, 12]),
}


def _presentation(symbols, rules):
    text = f"alphabet: {symbols}\norder: deglex\nrules:\n" + "".join(r + "\n" for r in rules)
    return parse_presentation(text)


def _normal_word_counts(P, max_len):
    """The number of words of each length up to ``max_len`` with no key as
    a factor, by enumerating every word."""
    letters = range(len(P.alphabet))
    redex = P.operator.redex
    return [
        sum(redex(w) is None for w in itertools.product(letters, repeat=n))
        for n in range(max_len + 1)
    ]


@pytest.mark.parametrize("name", ANCHORS)
def test_known_algebra_normal_word_counts(name):
    symbols, rules, counts = ANCHORS[name]
    result = complete(_presentation(symbols, rules), CompletionLimits(20, 10))
    assert result.status == CONVERGED
    assert len(result.steps) <= 1
    assert is_confluent_presentation(result.completed)
    assert _normal_word_counts(result.completed, 5) == counts
