import random

import pytest

from ncgb.oracle import (
    RuleSet,
    ambiguities,
    ambiguity_s_polynomial,
    buchberger,
    leading_word_witnesses,
    lm_set_up_to_degree,
    naive_reduce,
)
from ncgb.linalg import Polynomial
from ncgb.presentation import critical_branchings, groebner_rules
from ncgb.words import Alphabet, DegLexOrder

from conftest import all_words, p, random_presentation, w


@pytest.fixture
def ab(xyz):
    return xyz


@pytest.fixture
def order(deglex_xyz):
    return deglex_xyz


@pytest.fixture
def braid_rules(ab, order):
    return RuleSet.from_polynomials([p(ab, "y.z - x"), p(ab, "z.x - x.y")], order)


@pytest.fixture
def completed_rules(ab, order):
    polys = [
        p(ab, "y.z - x"),
        p(ab, "z.x - x.y"),
        p(ab, "y.x.y - x.x"),
        p(ab, "y.x.x - x.x.z"),
        p(ab, "y.x.x.x - x.x.x.y"),
    ]
    return RuleSet.from_polynomials(polys, order)


def test_from_polynomials_normalises(ab, order):
    R = RuleSet.from_polynomials(
        [p(ab, "2*y.z - 2*x"), Polynomial.zero()], order
    )
    assert R.rules == [p(ab, "y.z - x")]


def test_ambiguities_braided(ab, order, braid_rules):
    f, g = braid_rules.rules
    assert ambiguities(braid_rules) == [
        (w(ab, "y"), w(ab, "z"), w(ab, "x"), f, g)
    ]


def test_ambiguities_self_overlap():
    ab = Alphabet(("x",))
    order = DegLexOrder(ab)
    R = RuleSet.from_polynomials([p(ab, "x.x - x")], order)
    f = R.rules[0]
    assert ambiguities(R) == [((0,), (0,), (0,), f, f)]


def test_ambiguities_disjoint(ab, order):
    # xy and xz share no suffix/prefix and have no self-overlaps.
    R = RuleSet.from_polynomials([p(ab, "x.y - x"), p(ab, "x.z - x")], order)
    assert ambiguities(R) == []


def test_ambiguity_s_polynomial_forms(ab, order):
    # Overlap: (yz - x)x - y(zx - xy) = yxy - xx.
    R = RuleSet.from_polynomials([p(ab, "y.z - x"), p(ab, "z.x - x.y")], order)
    amb = ambiguities(R)[0]
    assert ambiguity_s_polynomial(amb, order) == p(ab, "y.x.y - x.x")
    # Inclusion: zx inside yzxy.
    R = RuleSet.from_polynomials(
        [p(ab, "y.z.x.y - x"), p(ab, "z.x - x.y")], order
    )
    incl = [a for a in ambiguities(R) if a[1] == w(ab, "zx")]
    assert len(incl) == 1
    got = ambiguity_s_polynomial(incl[0], order)
    assert got == p(ab, "y.z.x.y - x") - p(ab, "z.x - x.y").sandwich(
        w(ab, "y"), w(ab, "y")
    )


def test_naive_reduce_examples(ab, order, braid_rules, completed_rules):
    # yzx - xx = (yz - x)x is an ideal member reachable by rewriting.
    assert naive_reduce(braid_rules, p(ab, "y.z.x - x.x")).is_zero()
    # yxy - xx is in the ideal but not reducible by the incomplete rules.
    assert naive_reduce(braid_rules, p(ab, "y.x.y - x.x")) == p(ab, "y.x.y - x.x")
    assert naive_reduce(braid_rules, Polynomial.zero()).is_zero()
    assert naive_reduce(completed_rules, p(ab, "y.x.y.z - x.x.z")).is_zero()


def test_buchberger_braided(ab, order, braid_rules, completed_rules):
    result = buchberger(braid_rules, degree_cap=5, iteration_cap=20)
    assert result.converged
    # The oracle keeps a minimal rule list: yxxx is already reducible via
    # its factor yxx, so it never appears as a leading word here.
    assert set(result.rules.leading_words()) == {
        w(ab, "yz"),
        w(ab, "zx"),
        w(ab, "yxy"),
        w(ab, "yxx"),
    }
    # Same reducible-word fingerprint as the five-rule completed system.
    assert lm_set_up_to_degree(result.rules, 5) == lm_set_up_to_degree(
        completed_rules, 5
    )


def test_buchberger_confluent_input_unchanged(order, completed_rules):
    result = buchberger(completed_rules, degree_cap=6, iteration_cap=20)
    assert result.converged
    assert set(result.rules.leading_words()) == set(
        completed_rules.leading_words()
    )


def test_buchberger_empty(order):
    result = buchberger(RuleSet(order, []), degree_cap=5, iteration_cap=5)
    assert result.converged
    assert result.rules.rules == []


def test_converged_buchberger_solves_all_ambiguities(braid_rules, order):
    result = buchberger(braid_rules, degree_cap=6, iteration_cap=20)
    assert result.converged
    for amb in ambiguities(result.rules):
        sp = ambiguity_s_polynomial(amb, order)
        assert naive_reduce(result.rules, sp).is_zero()


def test_lm_set_up_to_degree(ab, order, completed_rules):
    got = lm_set_up_to_degree(completed_rules, 3)
    # Independent recomputation on strings.
    symbols = {0: "x", 1: "y", 2: "z"}
    expected = set()
    for u in all_words(ab, 3):
        text = "".join(symbols[i] for i in u)
        if any(s in text for s in ("yz", "zx", "yxy", "yxx")):
            expected.add(u)
    assert got == expected
    assert lm_set_up_to_degree(RuleSet(order, []), 4) == set()
    assert lm_set_up_to_degree(completed_rules, 0) == set()


def test_ambiguity_count_matches_branchings():
    rng = random.Random(401)
    for _ in range(25):
        P = random_presentation(rng)
        R = RuleSet.from_polynomials(groebner_rules(P), P.order)
        assert len(ambiguities(R)) == len(critical_branchings(P))


def _random_leading_words(rng, letters, words):
    """Up to 4 words of length <= 4, the empty word rarely, and each, with
    some chance, a factor or a multiple of one of ``words``."""
    out = []
    for _ in range(rng.randint(0, 4)):
        if words and rng.random() < 0.5:
            u = rng.choice(words)
            i = rng.randint(0, len(u))
            u = u[i : rng.randint(i, len(u))] if rng.random() < 0.5 else u
            u = tuple(rng.choices(letters, k=rng.randint(0, 1))) + u
        else:
            u = tuple(rng.choices(letters, k=rng.randint(0 if rng.random() < 0.05 else 1, 4)))
        out.append(u)
    return out


def test_leading_word_witnesses_match_lm_sets():
    # Both sides list nothing exactly when the enumerated reducible words
    # agree, and each side lists the leading words among the difference.
    rng = random.Random(17)
    agree = 0
    for _ in range(600):
        alphabet = Alphabet(tuple("xyz"[: rng.randint(1, 3)]))
        order = DegLexOrder(alphabet)
        letters = range(len(alphabet))
        first = _random_leading_words(rng, letters, [])
        second = _random_leading_words(rng, letters, first)
        R1, R2 = (
            RuleSet(order, [Polynomial.monomial(u) for u in words])
            for words in (first, second)
        )
        d = rng.randint(0, 5)
        only1, only2 = leading_word_witnesses(R1, R2, d)
        lm1, lm2 = lm_set_up_to_degree(R1, d), lm_set_up_to_degree(R2, d)
        assert (not only1 and not only2) == (lm1 == lm2)
        assert only1 == sorted((lm1 - lm2) & set(first), key=order.key)
        assert only2 == sorted((lm2 - lm1) & set(second), key=order.key)
        agree += lm1 == lm2
    assert 100 < agree < 500
