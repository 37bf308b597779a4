import itertools
import random

import pytest

from ncgb.completion import CompletionLimits, complete
from ncgb.fileformat import parse_presentation
from ncgb.linalg import Polynomial
from ncgb.presentation import (
    CriticalBranching,
    Presentation,
    critical_branchings,
    extension_apply,
    groebner_rules,
    is_confluent_presentation,
    normal_form,
    s_polynomial,
)
from ncgb.reduction import ReductionOperator, ker_inv
from ncgb.words import Alphabet, DegLexOrder

from conftest import BRAIDED_TEXT, HEAVY_STEP_TEXT, all_words, p, random_presentation, w


@pytest.fixture
def ab(xyz):
    return xyz


@pytest.fixture
def order(deglex_xyz):
    return deglex_xyz


@pytest.fixture
def s1_presentation(ab, order):
    op = ker_inv(
        [p(ab, "y.z - x"), p(ab, "z.x - x.y"), p(ab, "y.x.y - x.x")], order
    )
    return Presentation(ab, order, op)


def test_extension_apply_examples(ab, braided):
    assert extension_apply(braided, 1, 0, w(ab, "yzx")) == p(ab, "y.x.y")
    assert extension_apply(braided, 0, 1, w(ab, "yzx")) == p(ab, "x.x")
    assert extension_apply(braided, 2, 5, w(ab, "yzx")) == p(ab, "y.z.x")
    assert extension_apply(braided, 0, 0, w(ab, "yz")) == p(ab, "x")
    # Negative offsets are rejected, not read as slices from the end.
    for n, m in [(-2, 0), (1, -1)]:
        with pytest.raises(ValueError, match="negative extension offsets"):
            extension_apply(braided, n, m, w(ab, "yzx"))
    with pytest.raises(ValueError, match="negative extension offsets"):
        s_polynomial(braided, CriticalBranching(w(ab, "yzx"), (-2, 0), (0, 1)))


def test_extension_apply_at_zero_offsets_is_operator(ab):
    # At offsets (0, 0) the extension is the operator itself.
    rng = random.Random(233)
    for _ in range(30):
        P = random_presentation(rng)
        for word in all_words(P.alphabet, 4):
            expected = P.operator.apply(Polynomial.monomial(word))
            assert extension_apply(P, 0, 0, word) == expected


def test_groebner_rules_match_rule_vectors():
    rng = random.Random(239)
    for _ in range(30):
        P = random_presentation(rng)
        rules = sorted(P.operator.rules.items(), key=lambda it: P.order.key(it[0]))
        assert groebner_rules(P) == [Polynomial.monomial(u) - q for u, q in rules]


def test_presentation_rejects_operator_order_mismatch(ab, order):
    other = DegLexOrder(Alphabet(("x", "y")))
    op = ker_inv([p(ab, "y.x - x")], other)
    with pytest.raises(ValueError, match="operator order mismatch"):
        Presentation(ab, order, op)


def test_presentation_rejects_word_outside_alphabet(ab, order):
    for rules in ({(0, 3): Polynomial.zero()}, {(1, 2): Polynomial.monomial((5,))}):
        with pytest.raises(ValueError, match="outside the alphabet"):
            Presentation(ab, order, ReductionOperator(order, rules))


def test_presentation_rejects_order_over_another_alphabet(ab):
    other = DegLexOrder(Alphabet(("x", "y")))
    op = ker_inv([p(ab, "y.x - x")], other)
    with pytest.raises(ValueError, match="order alphabet mismatch"):
        Presentation(ab, other, op)


def test_step_presentations_pass_the_public_checks():
    # complete() builds each step's presentation with Presentation._trusted,
    # which checks nothing; the public constructors must accept every one.
    # The draws are those of test_completion_soundness_random.
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    for _ in range(25):
        P = random_presentation(rng)
        result = complete(P, limits)
        for step in result.steps:
            T = step.operator_after
            assert ReductionOperator(P.order, T.rules) == T
            Presentation(P.alphabet, P.order, T)
        Q = result.completed
        assert Presentation(P.alphabet, P.order, Q.operator) == Q


def test_critical_branchings_braided(ab, braided):
    assert critical_branchings(braided) == [
        CriticalBranching(w(ab, "yzx"), (1, 0), (0, 1))
    ]


def test_critical_branchings_s1(ab, s1_presentation):
    assert critical_branchings(s1_presentation) == [
        CriticalBranching(w(ab, "yzx"), (1, 0), (0, 1)),
        CriticalBranching(w(ab, "yxyz"), (2, 0), (0, 1)),
        CriticalBranching(w(ab, "yxyxy"), (2, 0), (0, 2)),
    ]


def test_critical_branchings_self_overlap():
    ab = Alphabet(("x",))
    order = DegLexOrder(ab)
    P = Presentation(ab, order, ker_inv([p(ab, "x.x - x")], order))
    assert critical_branchings(P) == [CriticalBranching((0, 0, 0), (1, 0), (0, 1))]


def _branchings_by_definition(P: Presentation) -> set[CriticalBranching]:
    """Brute force over Definition-style quadruples on all short words."""
    keys = set(P.operator.rules)
    if not keys:
        return set()
    max_len = 2 * max(len(k) for k in keys)

    def reducible(word, n, m):
        if (n, m) == (0, 0):
            return word in keys
        if len(word) < n + m:
            return False
        return word[n : len(word) - m] in keys

    found = set()
    for word in all_words(P.alphabet, max_len, min_len=1):
        L = len(word)
        positions = [
            (n, m)
            for n in range(L + 1)
            for m in range(L + 1 - n)
            if reducible(word, n, m)
        ]
        for (n, m), (n2, m2) in itertools.product(positions, repeat=2):
            if (n, m) == (n2, m2):
                continue
            if n and n2:
                continue
            if m and m2:
                continue
            if n + m + n2 + m2 >= L:
                continue
            # The larger offset pair first, as critical_branchings stores it.
            first, second = sorted([(n, m), (n2, m2)], reverse=True)
            found.add(CriticalBranching(word, first, second))
    return found


def test_critical_branchings_against_definition(braided, s1_presentation):
    for P in (braided, s1_presentation):
        assert set(critical_branchings(P)) == _branchings_by_definition(P)


def test_critical_branchings_against_definition_random():
    rng = random.Random(211)
    for _ in range(15):
        P = random_presentation(rng)
        assert set(critical_branchings(P)) == _branchings_by_definition(P)


def _middle_factors(b: CriticalBranching) -> set:
    """The words the two extensions of ``b`` rewrite: its two keys."""
    return {b.source[n : len(b.source) - m] for n, m in (b.left, b.right)}


def _step_presentations():
    """Every step's operator and the completed operator of the benchmark
    corpus (60 draws of Random(1) and the braided example, under the
    corpus limits), of the draws of test_completion_soundness_random, and
    of the heavy case, each with the keys its step added."""
    rng = random.Random(1)
    cases = [(random_presentation(rng), CompletionLimits(12, 6)) for _ in range(60)]
    cases.append((parse_presentation(BRAIDED_TEXT), CompletionLimits()))
    rng = random.Random(307)
    cases += [(random_presentation(rng), CompletionLimits(12, 6)) for _ in range(25)]
    cases.append((parse_presentation(HEAVY_STEP_TEXT), CompletionLimits(10, 5)))
    for P, limits in cases:
        result = complete(P, limits)
        seen: set = set()
        for T in [s.operator_before for s in result.steps] + [result.completed.operator]:
            yield Presentation(P.alphabet, P.order, T), set(T.rules) - seen
            seen |= set(T.rules)


def test_critical_branchings_from_keys_match_filtered_enumeration(
    ab, braided, s1_presentation
):
    # With keys, only the pairs that hold one of them are tested; the
    # reference is the full enumeration filtered to the branchings with a
    # middle factor in keys, in the same order.  No branching is listed twice.
    rng = random.Random(5)
    presentations = [(braided, set(braided.operator.rules))]
    presentations.append((s1_presentation, {w(ab, "yxy")}))
    presentations += _step_presentations()
    checked = 0
    for P, new in presentations:
        everything = critical_branchings(P)
        assert len(everything) == len(set(everything))
        keys = sorted(P.operator.rules)
        subsets = [new, set(keys), set(rng.sample(keys, rng.randint(0, len(keys))))]
        subsets.append(subsets[-1] | {w(ab, "xyzzy"), ()})
        for subset in subsets:
            expected = [b for b in everything if _middle_factors(b) & subset]
            bs = critical_branchings(P, subset)
            assert len(bs) == len(set(bs))
            assert bs == expected
            checked += bool(expected) and len(expected) < len(everything)
        assert critical_branchings(P, set()) == []
        assert critical_branchings(P, {()}) == []
    assert checked > 100


def test_s_polynomial_examples(ab, braided, s1_presentation):
    b1 = CriticalBranching(w(ab, "yzx"), (1, 0), (0, 1))
    assert s_polynomial(braided, b1) == p(ab, "y.x.y - x.x")
    b2 = CriticalBranching(w(ab, "yxyz"), (2, 0), (0, 1))
    assert s_polynomial(s1_presentation, b2) == p(ab, "y.x.x - x.x.z")
    degenerate = CriticalBranching(w(ab, "yzx"), (1, 0), (1, 0))
    assert s_polynomial(braided, degenerate).is_zero()


def test_s_polynomial_below_source(ab):
    rng = random.Random(223)
    for _ in range(20):
        P = random_presentation(rng)
        for b in critical_branchings(P):
            sp = s_polynomial(P, b)
            if sp:
                assert P.order.key(sp.leading(P.order)[0]) < P.order.key(b.source)


def test_normal_form_examples(ab, completed_braided, braided):
    assert normal_form(completed_braided, p(ab, "y.z.x")) == p(ab, "x.x")
    untouched = p(ab, "x.x.x + 3*x.y")
    assert normal_form(completed_braided, untouched) == untouched
    assert normal_form(completed_braided, p(ab, "y.x.y.x.y")) == p(ab, "x.x.x.y")
    assert normal_form(braided, p(ab, "y.x.y")) == p(ab, "y.x.y")


def test_normal_form_unit_ideal():
    P = complete(
        parse_presentation("alphabet: x y\norder: deglex\nrules:\nx.x -> 1\nx -> 2\n")
    ).completed
    assert () in P.operator.rules
    for text in ("1", "x", "y.x.y - 3*x + 1/2", "y.y.y.y.y"):
        assert normal_form(P, p(P.alphabet, text)).is_zero()


def _all_normal_forms(P: Presentation, f: Polynomial, cap: int = 4000) -> set:
    """Exhaustive rewriting oracle: every maximal one-step sequence endpoint."""
    keys = set(P.operator.rules)
    results = set()
    stack = [f]
    seen = set()
    while stack:
        if len(seen) > cap:
            raise RuntimeError("state explosion")
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        successors = []
        for word in g.support():
            for i in range(len(word)):
                for k in range(1, len(word) - i + 1):
                    key = word[i : i + k]
                    if key not in keys:
                        continue
                    rep = P.operator.rules[key].sandwich(word[:i], word[i + k :])
                    c = g.coeff(word)
                    successors.append(
                        g - Polynomial.monomial(word, c) + rep.scale(c)
                    )
        if successors:
            stack.extend(successors)
        else:
            results.add(g)
    return results


def test_normal_form_matches_exhaustive_rewriting(ab, completed_braided):
    for text in ("y.z.x", "y.x.y.x.y", "y.z.x.x - 2*z.x.z + 1"):
        f = p(ab, text)
        endpoints = _all_normal_forms(completed_braided, f)
        assert endpoints == {normal_form(completed_braided, f)}


def test_normal_form_idempotent_and_irreducible(ab):
    rng = random.Random(227)
    for _ in range(20):
        P = random_presentation(rng)
        ambient = all_words(P.alphabet, 3)
        f = Polynomial(
            {u: rng.randint(-3, 3) for u in rng.sample(ambient, 3)}
        )
        nf = normal_form(P, f)
        assert normal_form(P, nf) == nf
        keys = set(P.operator.rules)
        for word in nf.support():
            for i in range(len(word)):
                for k in range(1, len(word) - i + 1):
                    assert word[i : i + k] not in keys


def test_is_confluent_presentation_examples(braided, completed_braided, ab, order):
    assert not is_confluent_presentation(braided)
    assert is_confluent_presentation(completed_braided)
    no_branchings = Presentation(ab, order, ker_inv([p(ab, "y.z - x")], order))
    assert is_confluent_presentation(no_branchings)


def test_confluent_presentation_has_unique_normal_forms(ab, completed_braided):
    rng = random.Random(229)
    ambient = all_words(ab, 4)
    for _ in range(10):
        f = Polynomial({u: rng.randint(-2, 2) for u in rng.sample(ambient, 2)})
        endpoints = _all_normal_forms(completed_braided, f)
        assert len(endpoints) == 1


def test_groebner_rules_examples(ab, order, braided, completed_braided):
    assert groebner_rules(braided) == [p(ab, "y.z - x"), p(ab, "z.x - x.y")]
    assert groebner_rules(Presentation(ab, order, ker_inv([], order))) == []
    assert groebner_rules(completed_braided) == [
        p(ab, "y.z - x"),
        p(ab, "z.x - x.y"),
        p(ab, "y.x.x - x.x.z"),
        p(ab, "y.x.y - x.x"),
        p(ab, "y.x.x.x - x.x.x.y"),
    ]
