import dataclasses
import hashlib
import random
import time
from fractions import Fraction

import pytest

from ncgb import linalg, reduction
from ncgb.completion import (
    CONVERGED,
    DEGREE_CAP,
    ITERATION_CAP,
    CompletionLimits,
    _seeds,
    complete,
    normalisation,
)
from ncgb.fileformat import parse_presentation, serialize_presentation
from ncgb.linalg import Polynomial
from ncgb.presentation import (
    CriticalBranching,
    Presentation,
    critical_branchings,
    is_confluent_presentation,
    normal_form,
    s_polynomial,
)
from ncgb.reduction import ReductionOperator, identity, ker_inv, leq, meet, single_rule
from ncgb.words import Alphabet, DegLexOrder

from conftest import BRAIDED_TEXT, HEAVY_STEP_TEXT, p, random_presentation, w


@pytest.fixture
def ab(xyz):
    return xyz


@pytest.fixture
def order(deglex_xyz):
    return deglex_xyz


def test_limits_validation():
    with pytest.raises(ValueError):
        CompletionLimits(max_iterations=0)
    with pytest.raises(ValueError):
        CompletionLimits(max_rule_degree=-1)


def test_normalisation_idle_cases(ab, order, braided):
    s1 = ker_inv(
        [p(ab, "y.z - x"), p(ab, "z.x - x.y"), p(ab, "y.x.y - x.x")], order
    )
    e1 = [
        p(ab, "y.x.y.z - x.x.z"),
        p(ab, "y.x.y.z - y.x.x"),
        p(ab, "y.x.y.x.y - x.x.x.y"),
        p(ab, "y.x.y.x.y - y.x.x.x"),
    ]
    assert normalisation(e1, s1) == [single_rule(f, order) for f in e1]

    e0 = [p(ab, "y.z.x - x.x"), p(ab, "y.z.x - y.x.y")]
    assert normalisation(e0, braided.operator) == [
        single_rule(f, order) for f in e0
    ]

    assert normalisation([p(ab, "y.z - x")], identity(order)) == [
        single_rule(p(ab, "y.z - x"), order)
    ]


def test_normalisation_expands_reducible_support(ab, order):
    # The seed's support word xx is reducible, so a second operator appears.
    U = ker_inv([p(ab, "x.x - x")], order)
    family = normalisation([p(ab, "y.z.x - x.x")], U)
    assert family == [
        single_rule(p(ab, "y.z.x - x.x"), order),
        single_rule(p(ab, "x.x - x"), order),
    ]


def test_normalisation_expands_seed_lead_word_met_again():
    # x.y.y leads the first seed, so it is left out of the starting worklist;
    # expanding y.y.y of the second seed brings it back, and it must then be
    # expanded into its own member like any other word.
    xy = Alphabet(("x", "y"))
    order = DegLexOrder(xy)
    U = ker_inv([p(xy, "y.y - x.y")], order)
    seeds = [p(xy, "x.y.y - x"), p(xy, "x.x.x.x + y.y.y")]
    assert normalisation(seeds, U) == [
        single_rule(seeds[0], order),
        single_rule(seeds[1], order),
        single_rule(p(xy, "y.y.y - x.y.y"), order),
        single_rule(p(xy, "x.y.y - x.x.y"), order),
    ]


def test_normalisation_heavy_step_is_fast():
    # Step 2 of this completion normalises 84 seeds into 1,359 operators;
    # rescanning the whole worklist after each expansion took about 20 s.
    P = parse_presentation(HEAVY_STEP_TEXT)
    result = complete(P, CompletionLimits(2, 10))
    assert len(result.steps) == 2
    U = result.completed.operator
    current = Presentation(P.alphabet, P.order, U)
    previous = set(result.steps[-1].branchings)
    seeds = _seeds(
        current, [b for b in critical_branchings(current) if b not in previous]
    )
    assert len(seeds) == 84
    start = time.perf_counter()
    family = normalisation(seeds, U)
    elapsed = time.perf_counter() - start
    assert len(family) == 1359
    assert elapsed < 5.0


def test_heavy_completion_is_fast():
    # With the eliminator's rows in normalisation order, every new pivot
    # back-reduced the rows before it and this run took about 140 s.
    P = parse_presentation(HEAVY_STEP_TEXT)
    start = time.perf_counter()
    result = complete(P, CompletionLimits(10, 5))
    elapsed = time.perf_counter() - start
    assert result.status == DEGREE_CAP
    assert len(result.completed.operator.rules) == 38
    text = serialize_presentation(result.completed)
    assert hashlib.sha256(text.encode()).hexdigest().startswith("d9cbe50fcfc5086f")
    assert elapsed < 30


def test_operator_after_matches_meet():
    # complete() forms each step's operator by substitution instead of by
    # meet([operator_before, complement_op]); the reference is that meet.
    # The random draws are those of test_completion_soundness_random.
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    cases = [(parse_presentation(BRAIDED_TEXT), CompletionLimits())]
    cases += [(random_presentation(rng), limits) for _ in range(25)]
    cases.append((parse_presentation(HEAVY_STEP_TEXT), CompletionLimits(10, 5)))
    for P, limits in cases:
        for step in complete(P, limits).steps:
            expected = meet([step.operator_before, step.complement_op])
            got = step.operator_after
            assert got.rules == expected.rules
            assert list(got.rules) == list(expected.rules)
            for image in got.rules.values():
                assert all(type(c) is Fraction for _, c in image.items())


def test_complete_eliminates_once_per_step(monkeypatch):
    # Each step runs one elimination, in complement(): single_rule divides
    # by the leading coefficient and the final meet is a substitution.
    calls = []

    def counting(rows, key):
        calls.append(key)
        return eliminate(rows, key)

    eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate", counting)
    monkeypatch.setattr(reduction, "eliminate", counting)
    for text, limits in (
        (BRAIDED_TEXT, CompletionLimits()),
        (HEAVY_STEP_TEXT, CompletionLimits(10, 5)),
    ):
        P = parse_presentation(text)
        calls.clear()
        result = complete(P, limits)
        assert len(result.steps) == 3
        assert len(calls) == len(result.steps)


def test_normalisation_rejects_zero_seed(order):
    with pytest.raises(ValueError):
        normalisation([Polynomial.zero()], identity(order))


def test_complete_braided_example(ab, braided):
    result = complete(braided)
    assert result.status == CONVERGED
    assert result.completed.operator.rules == {
        w(ab, "yz"): p(ab, "x"),
        w(ab, "zx"): p(ab, "x.y"),
        w(ab, "yxy"): p(ab, "x.x"),
        w(ab, "yxx"): p(ab, "x.x.z"),
        w(ab, "yxxx"): p(ab, "x.x.x.y"),
    }


def test_complete_confluent_input_is_fixed_point(completed_braided):
    result = complete(completed_braided)
    assert result.status == CONVERGED
    assert result.completed.operator == completed_braided.operator
    assert len(result.steps) == 1
    step = result.steps[0]
    assert step.operator_after == step.operator_before
    assert set(step.branchings) == set(
        critical_branchings(completed_braided)
    )


def test_complete_no_branchings(ab, order):
    P = Presentation(ab, order, ker_inv([p(ab, "y.z - x")], order))
    result = complete(P)
    assert result.status == CONVERGED
    assert result.steps == ()
    assert result.completed.operator == P.operator


def test_iteration_cap(braided):
    result = complete(braided, CompletionLimits(max_iterations=1))
    assert result.status == ITERATION_CAP
    assert len(result.steps) == 1
    # The partial operator is still returned with its trace.
    assert w(braided.alphabet, "yxy") in result.completed.operator.rules


def test_degree_cap(braided):
    result = complete(braided, CompletionLimits(max_rule_degree=2))
    assert result.status == DEGREE_CAP
    assert len(result.steps) == 1
    assert w(braided.alphabet, "yxy") in result.completed.operator.rules


def test_step_records_match_loop_structure(braided):
    result = complete(braided)
    for step in result.steps:
        assert set(step.old_branchings) <= set(step.branchings)
        assert leq(step.operator_after, step.operator_before)
        assert set(step.operator_before.rules) <= set(step.operator_after.rules)
        # New S-polynomials are absorbed by the meet of the normalised family.
        lower = meet(list(step.normalised_family))
        pres = Presentation(
            braided.alphabet, braided.order, step.operator_before
        )
        new = set(step.branchings) - set(step.old_branchings)
        for b in new:
            assert lower.apply(s_polynomial(pres, b)).is_zero()


def test_completion_soundness_random():
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    converged = 0
    for _ in range(25):
        P = random_presentation(rng)
        result = complete(P, limits)
        for step in result.steps:
            assert leq(step.operator_after, step.operator_before)
            assert all(len(k) < 50 for k in step.operator_after.rules)
        if result.status != CONVERGED:
            continue
        converged += 1
        assert is_confluent_presentation(result.completed)
        # Input rules lie in the completed ideal.
        for key, image in P.operator.rules.items():
            vec = Polynomial.monomial(key) - image
            assert normal_form(result.completed, vec).is_zero()
    assert converged >= 10


def test_steps_chain_branchings_random():
    # The meet only adds keys, so each step's old branchings are exactly the
    # step before's branchings, and a converged result has no new ones.  The
    # draws are those of test_completion_soundness_random.
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    converged = 0
    for _ in range(25):
        result = complete(random_presentation(rng), limits)
        for i, step in enumerate(result.steps):
            assert step.index == i
            before = result.steps[i - 1].branchings if i else ()
            assert set(step.old_branchings) == set(before)
        if result.status == CONVERGED and result.steps:
            converged += 1
            assert set(critical_branchings(result.completed)) == set(
                result.steps[-1].branchings
            )
    assert converged >= 10


def _assert_exact(x):
    """Every word stored in ``x`` is a tuple and every coefficient a nonzero
    ``Fraction``; ``x`` is a polynomial, an operator, a branching, or a
    tuple of them."""
    if isinstance(x, Polynomial):
        for word_, c in x.items():
            assert type(word_) is tuple
            assert type(c) is Fraction and c != 0
    elif isinstance(x, ReductionOperator):
        for key, image in x.rules.items():
            assert type(key) is tuple
            _assert_exact(image)
        assert x._max_key_len == max(map(len, x.rules), default=0)
    elif isinstance(x, CriticalBranching):
        assert type(x.source) is tuple
    else:
        assert type(x) is tuple
        for y in x:
            _assert_exact(y)


def test_engine_built_objects_hold_nonzero_fractions():
    # The engine builds its polynomials and operators without checking them
    # again, so only this walk sees an int, a float or a zero coefficient
    # slip in.  The draws are those of test_completion_soundness_random.
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    for _ in range(25):
        result = complete(random_presentation(rng), limits)
        for step in result.steps:
            for field in dataclasses.fields(step):
                if field.name != "index":
                    _assert_exact(getattr(step, field.name))
        T = result.completed.operator
        _assert_exact(T)
        _assert_exact(tuple(T.kernel_basis()))
        polys = [f for step in result.steps for f in step.spol_seeds]
        for key, image in T.rules.items():
            f = Polynomial.monomial(key) - image
            polys.append(f)
            _assert_exact((f.sandwich(key[:1], key[1:]), -f, f + image, f + -f, f.scale(0)))
        for f in polys:
            _assert_exact((T.apply(f), normal_form(result.completed, f)))
