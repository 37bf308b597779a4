"""End-to-end acceptance checks.

Each test covers one advertised guarantee of the package and prints a
single PASS line on success (pytest reports the failure otherwise): the
worked three-step completion of the braided monoid, per-step trace
fidelity, the Diamond-Lemma check, randomized lattice and complement
axioms, equivalence with the naive completion oracle, and the
branching/ambiguity correspondence.
"""

import random
import time

from ncgb.completion import CONVERGED, CompletionLimits, complete
from ncgb.linalg import Polynomial
from ncgb.oracle import (
    RuleSet,
    ambiguities,
    buchberger,
    naive_reduce,
)
from ncgb.presentation import (
    CriticalBranching,
    Presentation,
    critical_branchings,
    groebner_rules,
    is_confluent_presentation,
    normal_form,
    s_polynomial,
)
from ncgb.reduction import (
    complement,
    family_ambient,
    is_confluent_family,
    join,
    ker_inv,
    leq,
    meet,
    obstructions,
    single_rule,
)
from ncgb.words import Alphabet, DegLexOrder

from conftest import (
    all_words,
    dense_rank,
    lm_set_up_to_degree,
    p,
    random_operator,
    random_polynomial,
    random_presentation,
    w,
)


def test_criterion_1_worked_example_end_to_end(braided):
    ab = braided.alphabet
    start = time.perf_counter()
    result = complete(braided)
    elapsed = time.perf_counter() - start
    assert result.status == CONVERGED
    assert result.completed.operator.rules == {
        w(ab, "yz"): p(ab, "x"),
        w(ab, "zx"): p(ab, "x.y"),
        w(ab, "yxy"): p(ab, "x.x"),
        w(ab, "yxx"): p(ab, "x.x.z"),
        w(ab, "yxxx"): p(ab, "x.x.x.y"),
    }
    assert elapsed < 1.0
    print(f"criterion 1 (worked example, {elapsed:.3f}s): PASS")


def test_criterion_2_per_step_trace(braided):
    ab = braided.alphabet
    result = complete(braided)
    assert len(result.steps) == 3
    s0, s1, s2 = result.steps

    b1 = CriticalBranching(w(ab, "yzx"), (1, 0), (0, 1))
    b2 = CriticalBranching(w(ab, "yxyz"), (2, 0), (0, 1))
    b3 = CriticalBranching(w(ab, "yxyxy"), (2, 0), (0, 2))

    # Step 0: P0 = {b1}, complement rule yxy -> xx, S^1 has three rules.
    assert list(s0.branchings) == [b1]
    assert s0.complement_op.rules == {w(ab, "yxy"): p(ab, "x.x")}
    assert s0.operator_after.rules == {
        w(ab, "yz"): p(ab, "x"),
        w(ab, "zx"): p(ab, "x.y"),
        w(ab, "yxy"): p(ab, "x.x"),
    }

    # Step 1: P1 adds b2 and b3; F1 is the four single-rule operators;
    # the complement contributes yxx -> xxz and yxxx -> xxxy.
    assert set(s1.branchings) == {b1, b2, b3}
    assert set(s1.old_branchings) == {b1}
    expected_f1 = [
        single_rule(p(ab, "y.x.y.z - x.x.z"), braided.order),
        single_rule(p(ab, "y.x.y.z - y.x.x"), braided.order),
        single_rule(p(ab, "y.x.y.x.y - x.x.x.y"), braided.order),
        single_rule(p(ab, "y.x.y.x.y - y.x.x.x"), braided.order),
    ]
    assert set(s1.normalised_family) == set(expected_f1)
    assert len(s1.normalised_family) == 4
    assert s1.complement_op.rules == {
        w(ab, "yxx"): p(ab, "x.x.z"),
        w(ab, "yxxx"): p(ab, "x.x.x.y"),
    }

    # Step 2: complement is the identity and the operator is stable.
    assert not s2.complement_op.rules
    assert s2.operator_after == s2.operator_before
    assert s2.operator_after == result.completed.operator
    print("criterion 2 (per-step trace): PASS")


def test_criterion_3_diamond_lemma(braided):
    ab = braided.alphabet
    b1 = CriticalBranching(w(ab, "yzx"), (1, 0), (0, 1))
    sp = s_polynomial(braided, b1)
    assert sp == p(ab, "y.x.y - x.x")
    assert not normal_form(braided, sp).is_zero()
    assert not is_confluent_presentation(braided)

    completed = complete(braided).completed
    assert is_confluent_presentation(completed)
    for b in critical_branchings(completed):
        assert normal_form(completed, s_polynomial(completed, b)).is_zero()
    print("criterion 3 (Diamond Lemma): PASS")


def test_criterion_4_lattice_properties(deglex_xyz):
    order = deglex_xyz
    rng = random.Random(1009)
    ambient = all_words(order.alphabet, 2)[:8]
    cases = 0
    for _ in range(500):
        cases += 1
        T, U, V = (random_operator(rng, order, ambient) for _ in range(3))

        # Kernel bijection and operator axioms.
        assert ker_inv(T.kernel_basis(), order) == T
        f = random_polynomial(rng, ambient)
        assert T.apply(T.apply(f)) == T.apply(f)
        for u in ambient:
            image = T.extension(u, 0, 0)
            if image != Polynomial.monomial(u):
                assert image.is_zero() or order.key(image.leading(order)[0]) < order.key(u)

        # Lattice laws.
        assert meet([T, U]) == meet([U, T])
        assert join(T, U) == join(U, T)
        assert meet([meet([T, U]), V]) == meet([T, meet([U, V])])
        assert join(join(T, U), V) == join(T, join(U, V))
        assert meet([T, join(T, U)]) == T
        assert join(T, meet([T, U])) == T

        # Grassmann dimension identity on the kernels.
        A, B = T.kernel_basis(), U.kernel_basis()
        total = meet([T, U]).kernel_basis()
        common = join(T, U).kernel_basis()
        assert len(A) + len(B) == len(total) + len(common)
        assert len(total) == dense_rank(A + B, order)

        # T1 <= T2 implies nf(T1) contained in nf(T2).
        lower = meet([T, U])
        assert leq(lower, T)
        assert set(lower.rules) >= set(T.rules)
    assert cases >= 500
    print(f"criterion 4 (lattice properties, {cases} cases): PASS")


def test_criterion_5_complement_axioms(deglex_xyz):
    order = deglex_xyz
    rng = random.Random(1013)
    ambient = all_words(order.alphabet, 2)[:8]
    cases = 0
    for _ in range(200):
        cases += 1
        family = [
            random_operator(rng, order, ambient)
            for _ in range(rng.randint(1, 3))
        ]
        C = complement(family)
        lower = meet(family)
        assert meet([lower, C]) == lower
        assert obstructions(family, family_ambient(family)) <= set(C.rules)
        assert is_confluent_family(family + [C])
    assert cases >= 200
    print(f"criterion 5 (complement axioms, {cases} cases): PASS")


def test_criterion_5_lattice_criterion_for_confluence():
    # A family is confluent exactly when its complement is the identity, and
    # its obstructions on its ambient are exactly the complement's keys.
    cases = confluent = 0
    for seed in (5, 9):
        rng = random.Random(seed)
        for _ in range(600):
            alphabet = Alphabet(tuple("xyz"[: rng.randint(2, 3)]))
            order = DegLexOrder(alphabet)
            ambient = all_words(alphabet, 3)
            family = [
                random_operator(rng, order, ambient) for _ in range(rng.randint(1, 4))
            ]
            C = complement(family)
            assert is_confluent_family(family) == (not C.rules)
            assert obstructions(family, family_ambient(family)) == set(C.rules)
            cases += 1
            confluent += not C.rules
    assert 0 < confluent < cases
    print(
        f"criterion 5 (lattice criterion for confluence, {cases} families, "
        f"{confluent} confluent): PASS"
    )


def test_criterion_6_oracle_equivalence():
    rng = random.Random(1019)
    cap = 6
    limits = CompletionLimits(max_iterations=16, max_rule_degree=cap)
    start = time.perf_counter()
    compared = 0
    for _ in range(20):
        P = random_presentation(rng)
        lattice = complete(P, limits)
        input_rules = RuleSet.from_polynomials(groebner_rules(P), P.order)
        naive = buchberger(input_rules, degree_cap=cap, iteration_cap=16)
        if lattice.status != CONVERGED or not naive.converged:
            continue
        compared += 1
        lattice_rules = RuleSet.from_polynomials(
            groebner_rules(lattice.completed), P.order
        )
        assert lm_set_up_to_degree(lattice_rules, cap) == lm_set_up_to_degree(
            naive.rules, cap
        )
        # Ideal preservation, both directions.
        for key, image in P.operator.rules.items():
            vec = Polynomial.monomial(key) - image
            assert normal_form(lattice.completed, vec).is_zero()
        for vec in groebner_rules(lattice.completed):
            assert naive_reduce(naive.rules, vec).is_zero()
    elapsed = time.perf_counter() - start
    assert compared >= 10
    assert elapsed < 60.0
    print(
        f"criterion 6 (oracle equivalence, {compared} converged pairs, "
        f"{elapsed:.1f}s): PASS"
    )


def test_criterion_7_branching_ambiguity_bijection():
    rng = random.Random(1021)
    checked = 0
    for _ in range(20):
        P = random_presentation(rng)
        R = RuleSet.from_polynomials(groebner_rules(P), P.order)
        assert len(critical_branchings(P)) == len(ambiguities(R))
        checked += 1
    assert checked >= 20
    print(f"criterion 7 (branching/ambiguity bijection, {checked} cases): PASS")


def test_criterion_8_scope_note():
    # The reference reports no timings or large benchmarks; quantitative
    # reproduction is limited to the worked example (criteria 1-3) with
    # property-based coverage (criteria 4-7).  Nothing further to verify.
    print("criterion 8 (scope note): PASS")
