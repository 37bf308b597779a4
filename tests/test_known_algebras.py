"""Textbook presentations whose normal words are counted independently.

Each presentation is completed and its normal words, those with no key as
a factor, are counted by length up to 5 by brute force.  The counts are
known from mathematics, not from this engine: the PBW algebras have bases
of ordered monomials (Bergman, "The diamond lemma for ring theory", Adv.
Math. 29, 1978), the group algebra of S3 has dimension 6, and the rank-2
plactic monoid has one element per semistandard tableau over {1, 2}.

The same counts check random presentations against themselves: a
presentation completed under every order of its letters must give the
same counts wherever it converges.
"""

import itertools
import random

import pytest

from ncgb.completion import CONVERGED, CompletionLimits, complete
from ncgb.fileformat import parse_presentation
from ncgb.linalg import Polynomial
from ncgb.presentation import Presentation, is_confluent_presentation
from ncgb.reduction import ker_inv

from conftest import BRAIDED_TEXT, random_presentation

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


def _relabelled(P, perm):
    """P with each letter i renamed perm[i]: its kernel vectors relabelled,
    under the same order, so that the base order of the letters is permuted."""
    vectors = [
        Polynomial({tuple(perm[i] for i in u): c for u, c in v.items()})
        for v in P.operator.kernel_basis()
    ]
    return Presentation(P.alphabet, P.order, ker_inv(vectors, P.order))


def test_normal_word_counts_do_not_depend_on_the_letter_order():
    # Under a deg-lex order the normal words of length at most d are a basis
    # of the span of the words of length at most d in the algebra, whatever
    # the base order of the letters.  So every converged completion of one
    # input under a permutation of its letters counts the same normal words
    # of each length.  The inputs are those of tests/step_digests.json but
    # the heavy case: 60 draws of Random(1), the braided example and 300
    # draws of Random(307).
    rng = random.Random(1)
    inputs = [random_presentation(rng) for _ in range(60)]
    inputs.append(parse_presentation(BRAIDED_TEXT))
    rng = random.Random(307)
    inputs += [random_presentation(rng) for _ in range(300)]
    limits = CompletionLimits(12, 6)
    compared = 0
    for P in inputs:
        counts = []
        for perm in itertools.permutations(range(len(P.alphabet))):
            result = complete(_relabelled(P, perm), limits)
            if result.status == CONVERGED:
                counts.append(_normal_word_counts(result.completed, 6))
        assert all(c == counts[0] for c in counts), (P, counts)
        compared += len(counts) > 1
    assert compared >= 290
