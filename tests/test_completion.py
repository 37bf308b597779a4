import dataclasses
import hashlib
import random
import time
from fractions import Fraction
from math import lcm

import pytest

from ncgb import completion, linalg, reduction
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
    extension_apply,
    is_confluent_presentation,
    normal_form,
    s_polynomial,
)
from ncgb.reduction import (
    ReductionOperator,
    _rows,
    complement,
    family_ambient,
    identity,
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
    BRAIDED_TEXT,
    COMPLETED_BRAIDED_TEXT,
    HEAVY_STEP_TEXT,
    all_words,
    p,
    random_operator,
    random_presentation,
    w,
)

UNIT_IDEAL_TEXT = "alphabet: x\norder: deglex\nrules:\nx.x -> 1\nx -> 2\n"


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


def test_normalisation_deduplicates_seed_rules_by_leading_word(ab, order):
    # Scalar multiples give one member, whatever the leading coefficient.
    f = p(ab, "3*y.z - 2*x + 1/2")
    seeds = [f, f.scale(2), f.scale(Fraction(-1, 3))]
    assert normalisation(seeds, identity(order)) == [single_rule(f, order)]
    # Seeds sharing a leading word with different images are all kept, in
    # order of first appearance.
    g1, g2, g3 = p(ab, "y.z - x"), p(ab, "x.x - 1"), p(ab, "y.z - y")
    seeds = [g1, g2, g3, p(ab, "2*y.z - 2*x"), g2]
    assert normalisation(seeds, identity(order)) == [
        single_rule(g, order) for g in (g1, g2, g3)
    ]
    # Expanding y.y.y brings back x.y.y, the first seed's leading word, and
    # one rewriting step there gives exactly that seed's rule: no repeat.
    xy = Alphabet(("x", "y"))
    order = DegLexOrder(xy)
    U = ker_inv([p(xy, "y.y - x.y")], order)
    seeds = [p(xy, "x.y.y - x.x.y"), p(xy, "x.x.x.x + y.y.y")]
    assert normalisation(seeds, U) == [
        single_rule(seeds[0], order),
        single_rule(seeds[1], order),
        single_rule(p(xy, "y.y.y - x.y.y"), order),
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
    seeds = _seeds(U, [b for b in critical_branchings(current) if b not in previous])
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


def _differential_cases():
    """The braided example, the draws of test_completion_soundness_random,
    and the heavy case, each with its limits."""
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    cases = [(parse_presentation(BRAIDED_TEXT), CompletionLimits())]
    cases += [(random_presentation(rng), limits) for _ in range(25)]
    cases.append((parse_presentation(HEAVY_STEP_TEXT), CompletionLimits(10, 5)))
    return cases


def test_step_records_store_no_family():
    # A step keeps its operators and branchings only: its family is rebuilt
    # from operator_before on each read, and it must be the family whose
    # complement the step stored.  The old branchings are the step before's
    # tuple itself, not a copy.
    for P, limits in _differential_cases():
        steps = complete(P, limits).steps
        for i, step in enumerate(steps):
            assert [f.name for f in dataclasses.fields(step)] == [
                "index",
                "operator_before",
                "branchings",
                "old_branchings",
                "complement_op",
                "operator_after",
            ]
            assert "normalised_family" not in vars(step)
            if i:
                assert step.old_branchings is steps[i - 1].branchings
            else:
                assert step.old_branchings == ()
            family = step.normalised_family
            assert type(family) is tuple and family
            assert complement(family) == step.complement_op


def test_step_families_meet_the_lattice_criterion_for_confluence():
    # A step's family is confluent exactly when its complement is the
    # identity, and its obstructions on its ambient are the complement's keys.
    families = confluent = 0
    for P, limits in _differential_cases():
        for step in complete(P, limits).steps:
            family = list(step.normalised_family)
            C = complement(family)
            assert is_confluent_family(family) == (not C.rules)
            assert obstructions(family, family_ambient(family)) == set(C.rules)
            families += 1
            confluent += not C.rules
    assert 0 < confluent < families


def test_complement_does_not_depend_on_the_reducer_choice():
    # complement takes the first row of each key as its reducer.  Reversed
    # or shuffled, the family gives each key another reducer, but the
    # reduced basis is unique: the same rules, in the same order, with the
    # same terms in the same order and Fraction coefficients.
    rng = random.Random(18)
    for P, limits in _differential_cases():
        for step in complete(P, limits).steps:
            family = list(step.normalised_family)
            expected = step.complement_op.rules
            for variant in (family[::-1], rng.sample(family, len(family))):
                got = complement(variant).rules
                assert list(got) == list(expected)
                for w, image in got.items():
                    assert list(image.items()) == list(expected[w].items())
                    assert all(type(c) is Fraction for _, c in image.items())


def test_lattice_operations_do_not_depend_on_the_rule_order(order):
    # _rows reads each member's rules in their stored order, which is by
    # decreasing word for every operator the engine builds.  Rebuilt with
    # its rule map reversed or shuffled, an operator gives the same meet,
    # join and complement: the same rules, in the same order, with the same
    # terms in the same order and Fraction coefficients.
    rng = random.Random(23)
    pairs = [
        (step.operator_before, step.operator_after)
        for P, limits in _differential_cases()
        for step in complete(P, limits).steps
    ]
    # Keys collide more often over the shorter words, and the complement of
    # a pair then has rows to reduce.
    for ambient in (all_words(order.alphabet, 2), all_words(order.alphabet, 3)):
        pairs += [
            (random_operator(rng, order, ambient, 4), random_operator(rng, order, ambient, 4))
            for _ in range(300)
        ]

    def operations(S, T):
        return meet([S, T]), join(S, T), complement([S, T])

    def rebuilt(T, rearrange):
        return ReductionOperator(T.order, dict(rearrange(list(T.rules.items()))))

    reordered = 0
    for S, T in pairs:
        expected = operations(S, T)
        for rearrange in (lambda items: items[::-1], lambda items: rng.sample(items, len(items))):
            S2, T2 = rebuilt(S, rearrange), rebuilt(T, rearrange)
            reordered += list(S2.rules) != list(S.rules) or list(T2.rules) != list(T.rules)
            for got, want in zip(operations(S2, T2), expected):
                assert list(got.rules) == list(want.rules)
                for w, image in got.rules.items():
                    assert list(image.items()) == list(want.rules[w].items())
                    assert all(type(c) is Fraction for _, c in image.items())
    assert reordered > len(pairs)


def test_operator_after_matches_meet():
    # complete() forms each step's operator by substitution instead of by
    # meet([operator_before, complement_op]); the reference is that meet.
    for P, limits in _differential_cases():
        for step in complete(P, limits).steps:
            expected = meet([step.operator_before, step.complement_op])
            got = step.operator_after
            assert got.rules == expected.rules
            assert list(got.rules) == list(expected.rules)
            for image in got.rules.values():
                assert all(type(c) is Fraction for _, c in image.items())


def _legs_reference(P, branchings):
    """The nonzero legs by generic subtraction, in order."""
    legs = (
        Polynomial.monomial(b.source) - extension_apply(P, n, m, b.source)
        for b in branchings
        for n, m in (b.left, b.right)
    )
    return [f for f in legs if f]


def _seeds_reference(P, branchings):
    """The legs by generic subtraction, deduplicated by hashing."""
    return list(dict.fromkeys(_legs_reference(P, branchings)))


def _row_reference(w, image):
    """The primitive integer row of w - image, pivot first, by clearing the
    denominators of image, as (word, int) pairs."""
    m = lcm(*(c.denominator for _, c in image.items()))
    return [(w, m)] + [(u, int(-c * m)) for u, c in image.items()]


def test_seeds_match_subtraction_reference():
    # _seeds builds one rule per nonzero leg from U's rule and leaves
    # repeats to normalisation; spol_seeds rebuilds the legs from those
    # rules.  The reference subtracts and hashes.  Each rule's row is made
    # from its image and must be the primitive row of its leg.
    for P, limits in _differential_cases():
        for step in complete(P, limits).steps:
            pres = Presentation(P.alphabet, P.order, step.operator_before)
            new = [b for b in step.branchings if b not in step.old_branchings]
            got, expected = list(step.spol_seeds), _seeds_reference(pres, new)
            assert got == expected
            assert [list(f.items()) for f in got] == [list(f.items()) for f in expected]
            for f in got:
                assert all(type(c) is Fraction for _, c in f.items())
            rules, legs = _seeds(step.operator_before, new), _legs_reference(pres, new)
            assert len(rules) == len(legs)
            for f, rule in zip(legs, rules):
                assert rule == single_rule(f, P.order)
                ((leading, image),) = rule.rules.items()
                words, (row,) = _rows([rule])
                got_row = [(words[j], c) for j, c in row.items()]
                assert got_row == _row_reference(leading, image)
                assert all(type(c) is int for c in row.values())


def test_complete_hashes_no_polynomial_or_operator(monkeypatch):
    # Seed rules are deduplicated by leading word in normalisation, comparing
    # by equality; hashing every coefficient of every leg and seed rule took
    # about a tenth of a completion.
    cases = _differential_cases()

    def unhashable(self):
        raise AssertionError(f"{type(self).__name__} hashed")

    monkeypatch.setattr(Polynomial, "__hash__", unhashable)
    monkeypatch.setattr(ReductionOperator, "__hash__", unhashable)
    steps = sum(len(complete(P, limits).steps) for P, limits in cases)
    assert steps > len(cases)


def test_complete_eliminates_once_per_step(monkeypatch):
    # Each step runs one elimination, in complement(): single_rule divides
    # by the leading coefficient and the final meet is a substitution.
    calls = []

    def counting(rows):
        calls.append(rows)
        return eliminate(rows)

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


def test_complete_calls_no_single_rule(monkeypatch):
    # _seeds builds every seed rule from U's rule and hands normalisation
    # the rules; single_rule is left to polynomial seeds, one call each.
    # The cases are built first: parsing a presentation runs ker_inv, which
    # meets the single_rule operators of its rule lines.
    calls = []

    def counting(f, order):
        calls.append(f)
        return single_rule(f, order)

    cases = _differential_cases()
    monkeypatch.setattr(completion, "single_rule", counting)
    monkeypatch.setattr(reduction, "single_rule", counting)
    steps = [s for P, limits in cases for s in complete(P, limits).steps]
    assert calls == []
    for step in steps:
        seeds = list(step.spol_seeds)
        calls.clear()
        family = list(step.normalised_family)
        assert normalisation(seeds, step.operator_before) == family
        assert calls == seeds
        # The family is the deduplicated seed rules, then the expansions by
        # strictly decreasing key under deg-lex.
        order = step.operator_before.order
        seed_rules = list(dict.fromkeys(single_rule(f, order) for f in seeds))
        assert family[: len(seed_rules)] == seed_rules
        keys = [order.key(next(iter(T.rules))) for T in family[len(seed_rules) :]]
        assert all(a > b for a, b in zip(keys, keys[1:]))


def test_complement_leaves_cached_rows_unchanged():
    # complement reduces the rows it reads in place: each row is made on
    # each read, so the family and U are left as they were.
    P = parse_presentation(HEAVY_STEP_TEXT)
    step = complete(P, CompletionLimits(10, 5)).steps[-1]
    family = list(step.normalised_family)
    assert len(family) == 1359
    first, second = complement(family), complement(family)
    assert list(first.rules.items()) == list(second.rules.items())
    assert first == step.complement_op
    fresh = [ReductionOperator(P.order, T.rules) for T in family]
    assert list(meet(family).rules.items()) == list(meet(fresh).rules.items())
    for ops in (family, [step.operator_before]):
        expected = [_row_reference(w, image) for T in ops for w, image in T.rules.items()]
        words, rows = _rows(ops)
        assert words == family_ambient(ops)
        assert [[(words[j], c) for j, c in row.items()] for row in rows] == expected


def test_complete_enumerates_only_new_keys(monkeypatch):
    # Each step asks critical_branchings for the branchings of its new keys
    # only, and a step that adds no key ends the run without an enumeration:
    # a run whose last step adds no key makes one call per step.
    calls = []

    def counting(P, keys=None):
        calls.append(keys)
        return critical_branchings(P, keys)

    monkeypatch.setattr(completion, "critical_branchings", counting)
    cases = _differential_cases() + [
        (parse_presentation(COMPLETED_BRAIDED_TEXT), CompletionLimits()),
    ]
    exact = 0
    for P, limits in cases:
        calls.clear()
        result = complete(P, limits)
        seen: set = set()
        for step, keys in zip(result.steps, calls):
            assert keys == step.operator_before.rules.keys() - seen
            seen |= keys
        if result.status != CONVERGED:
            assert len(calls) == len(result.steps) + (result.status == ITERATION_CAP)
            continue
        adds_keys = result.completed.operator.rules.keys() != seen
        assert len(calls) == len(result.steps) + adds_keys
        exact += not adds_keys
    assert exact >= 10
    calls.clear()
    assert len(complete(parse_presentation(BRAIDED_TEXT)).steps) == 3
    assert len(calls) == 3
    # The unit ideal's one step adds the key 1, which admits no branching.
    calls.clear()
    P = parse_presentation(UNIT_IDEAL_TEXT)
    result = complete(P)
    assert result.status == CONVERGED
    assert result.steps[0].branchings == tuple(critical_branchings(P))
    assert [len(s.branchings) for s in result.steps] == [3]
    assert calls == [{(0,), (0, 0)}, {()}]
    zero = Polynomial.zero()
    rules = result.completed.operator.rules
    assert list(rules.items()) == [((0, 0), zero), ((0,), zero), ((), zero)]


def test_normalisation_rejects_zero_seed(order):
    with pytest.raises(ValueError):
        normalisation([Polynomial.zero()], identity(order))


def test_normalisation_rejects_operator_seed_not_one_rule(ab, order):
    U = identity(order)
    rule = single_rule(p(ab, "y.z - x"), order)
    assert normalisation([rule], U) == [rule]
    two = ker_inv([p(ab, "y.z - x"), p(ab, "z.x - x.y")], order)
    xyzt = Alphabet(("x", "y", "z", "t"))
    elsewhere = single_rule(p(xyzt, "y.z - x"), DegLexOrder(xyzt))
    for seed in (identity(order), two, elsewhere):
        with pytest.raises(ValueError):
            normalisation([rule, seed], U)


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
    # complete() enumerates only the branchings of each step's new keys and
    # merges them into the step before's; the records must be the full
    # enumeration on operator_before, in its order, and each step's old
    # branchings exactly the step before's branchings.  The draws are those
    # of test_completion_soundness_random, then the heavy case.
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    cases = [(random_presentation(rng), limits) for _ in range(25)]
    cases.append((parse_presentation(HEAVY_STEP_TEXT), CompletionLimits(10, 5)))
    converged = 0
    for P, limits in cases:
        result = complete(P, limits)
        for i, step in enumerate(result.steps):
            assert step.index == i
            pres = Presentation(P.alphabet, P.order, step.operator_before)
            assert step.branchings == tuple(critical_branchings(pres))
            before = result.steps[i - 1].branchings if i else ()
            assert step.old_branchings == before
        if result.status == CONVERGED and result.steps:
            converged += 1
            assert tuple(critical_branchings(result.completed)) == result.steps[-1].branchings
    assert converged >= 10
    assert len(result.steps) == 3  # the heavy case, last, runs three steps


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
    # slip in.  Elimination runs on integer rows, and each lattice operation
    # makes its Fractions only when it turns the rows back into polynomials,
    # so every one of them is walked too.  The draws are those of
    # test_completion_soundness_random.
    rng = random.Random(307)
    limits = CompletionLimits(max_iterations=12, max_rule_degree=6)
    for _ in range(25):
        result = complete(random_presentation(rng), limits)
        for step in result.steps:
            for field in dataclasses.fields(step):
                if field.name != "index":
                    _assert_exact(getattr(step, field.name))
            _assert_exact(step.spol_seeds)
            _assert_exact(step.normalised_family)
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
        ops = [step.operator_before for step in result.steps] + [T]
        allowed = {u for f in polys[::2] for u in f.support()}
        _assert_exact((ker_inv(polys, T.order), meet(ops), join(ops[0], T), complement(ops)))
        _assert_exact(tuple(linalg.reduced_basis(polys, T.order)))
        _assert_exact(tuple(linalg.coordinate_subspace_intersection(polys, allowed, T.order)))
