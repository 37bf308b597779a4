import random
from fractions import Fraction

import pytest

from ncgb import linalg, reduction
from ncgb.completion import CompletionLimits, complete
from ncgb.fileformat import parse_presentation
from ncgb.linalg import Polynomial
from ncgb.reduction import (
    ReductionOperator,
    complement,
    family_ambient,
    identity,
    is_confluent_family,
    join,
    ker_inv,
    leq,
    meet,
    normal_form_words,
    obstructions,
    single_rule,
)

from ncgb.words import Alphabet, DegLexOrder

from conftest import (
    HEAVY_STEP_TEXT,
    _eliminate_in_given_order,
    all_words,
    dense_rank,
    in_span,
    p,
    random_operator,
    random_polynomial,
    random_presentation,
    w,
)


@pytest.fixture
def braid_op(ab, order):
    # S(yz) = x, S(zx) = xy
    return ker_inv([p(ab, "y.z - x"), p(ab, "z.x - x.y")], order)


@pytest.fixture
def family_f0(ab, order):
    t1 = single_rule(p(ab, "y.z.x - x.x"), order)
    t2 = single_rule(p(ab, "y.z.x - y.x.y"), order)
    return [t1, t2]


def test_rule_map_validation(ab, order):
    with pytest.raises(ValueError):
        ReductionOperator(order, {w(ab, "x"): p(ab, "y")})  # image not smaller
    with pytest.raises(ValueError):
        ReductionOperator(
            order,
            {w(ab, "yz"): p(ab, "x"), w(ab, "zx"): p(ab, "y.z")},  # not inter-reduced
        )


def test_ker_inv_examples(ab, order):
    T = ker_inv([p(ab, "y.z.x - x.x")], order)
    assert T.rules == {w(ab, "yzx"): p(ab, "x.x")}
    T = ker_inv([p(ab, "y.z.x - x.x"), p(ab, "y.z.x - y.x.y")], order)
    assert T.rules == {w(ab, "yzx"): p(ab, "x.x"), w(ab, "yxy"): p(ab, "x.x")}
    assert not ker_inv([], order).rules


def test_kernel_basis_examples(ab, order, braid_op):
    T = ker_inv([p(ab, "y.z.x - x.x")], order)
    assert T.kernel_basis() == [p(ab, "y.z.x - x.x")]
    assert identity(order).kernel_basis() == []
    assert braid_op.kernel_basis() == [p(ab, "z.x - x.y"), p(ab, "y.z - x")]


def test_apply_examples(ab, order, braid_op):
    assert braid_op.apply(p(ab, "y.z")) == p(ab, "x")
    fixed = p(ab, "y.x.y + 3*x.x")  # supported on normal forms only
    assert braid_op.apply(fixed) == fixed
    # No word of ``fixed`` is a key, so it is its own image, as it is.
    assert braid_op.apply(fixed) is fixed
    T = ker_inv([p(ab, "y.z.x - x.x"), p(ab, "y.z.x - y.x.y")], order)
    assert T.apply(p(ab, "y.z.x - y.x.y")).is_zero()


def _apply_term_by_term(T, f):
    """Reference: the sum of the images of the terms, one Polynomial each."""
    out = Polynomial.zero()
    for u, c in f.items():
        image = T.rules.get(u)
        out = out + (Polynomial.monomial(u, c) if image is None else image.scale(c))
    return out


def test_apply_matches_term_by_term_sum(ab, order):
    # z cancels at y.x and comes back with the last term, after x.
    T = ReductionOperator(order, {w(ab, "xy"): p(ab, "z"), w(ab, "yx"): p(ab, "z")})
    cases = [(T, p(ab, "x.y + x - y.x + z"))]
    rng = random.Random(613)
    ambient = all_words(ab, 3)
    for _ in range(200):
        T = random_operator(rng, order, ambient, max_vectors=6)
        f = random_polynomial(rng, ambient, max_terms=8)
        # Kernel vectors make terms cancel; their sum's image is zero.
        for v in rng.sample(T.kernel_basis(), min(2, len(T.rules))):
            f = f + v.scale(rng.randint(-2, 2))
        cases.append((T, f))
    for T, f in cases:
        got, expected = T.apply(f), _apply_term_by_term(T, f)
        assert list(got.items()) == list(expected.items())
        assert all(type(c) is Fraction for _, c in got.items())


def test_redex_examples(ab, order):
    def op(*rules):
        return ReductionOperator(order, {w(ab, k): p(ab, v) for k, v in rules})

    # The offsets (n, m) of a key: the lengths of the prefix and suffix
    # around it.  A key further left beats a longer key further right.
    T = op(("zx", "x"), ("xyy", "y"))
    assert T.redex(w(ab, "zxyy")) == (0, 2)  # zx
    assert T.redex(w(ab, "yxyy")) == (1, 0)  # xyy
    # Of the keys at one position, the longest wins.
    T = op(("yx", "x"), ("yxx", "x.x"))
    assert T.redex(w(ab, "zyxx")) == (1, 0)  # yxx
    assert T.redex(w(ab, "zyxz")) == (1, 1)  # yx
    assert T.redex(w(ab, "xxzz")) is None
    assert identity(order).redex(w(ab, "xyz")) is None
    # A rule keyed by the empty word is never matched.
    T = op(("1", "0"), ("x", "0"))
    assert T.redex(()) is None
    assert T.redex(w(ab, "yz")) is None
    assert T.redex(w(ab, "yx")) == (1, 0)  # x


def test_redex_matches_brute_force(ab, order):
    rng = random.Random(331)
    ambient = all_words(ab, 3)
    words = all_words(ab, 5)
    for _ in range(60):
        T = random_operator(rng, order, ambient)
        for word in rng.sample(words, 40):
            hits = [
                (i, key)
                for key in T.rules
                if key
                for i in range(len(word) - len(key) + 1)
                if word[i : i + len(key)] == key
            ]
            expected = None
            if hits:
                first = min(i for i, _ in hits)
                key = max((k for i, k in hits if i == first), key=len)
                expected = (first, len(word) - first - len(key))
                # The extension at those offsets rewrites that key in place.
                image = T.rules[key].sandwich(word[:first], word[first + len(key) :])
                assert T.extension(word, *expected) == image
            assert T.redex(word) == expected


def test_leq_examples(ab, order, family_f0):
    lower = meet(family_f0)
    assert leq(lower, family_f0[0])
    assert leq(lower, lower)
    assert not leq(family_f0[0], family_f0[1])


def test_meet_examples(ab, order, braid_op, family_f0):
    lower = meet(family_f0)
    assert lower.rules == {w(ab, "yzx"): p(ab, "x.x"), w(ab, "yxy"): p(ab, "x.x")}
    assert meet([braid_op]) == braid_op
    c_f0 = complement(family_f0)
    s1 = meet([braid_op, c_f0])
    assert s1.rules == {
        w(ab, "yz"): p(ab, "x"),
        w(ab, "zx"): p(ab, "x.y"),
        w(ab, "yxy"): p(ab, "x.x"),
    }


def test_meet_empty_family_raises():
    with pytest.raises(ValueError):
        meet([])


def test_family_ambient_empty_family_raises():
    for call in (family_ambient, is_confluent_family):
        with pytest.raises(ValueError, match="family_ambient of an empty family"):
            call([])


def test_join_examples(ab, order, family_f0):
    assert not join(family_f0[0], family_f0[1]).rules
    assert join(family_f0[0], family_f0[0]) == family_f0[0]
    assert not join(family_f0[0], identity(order)).rules


def test_meet_kernel_is_sum_examples(ab, order):
    A = [p(ab, "y.z.x - x.x")]
    B = [p(ab, "y.z.x - y.x.y")]
    assert meet([ker_inv(A, order), ker_inv(B, order)]).kernel_basis() == [
        p(ab, "y.z.x - x.x"),
        p(ab, "y.x.y - x.x"),
    ]
    assert meet([ker_inv(A, order), ker_inv([], order)]).kernel_basis() == A
    C = ker_inv([p(ab, "x - y")], order)
    assert meet([C, C]).kernel_basis() == [p(ab, "y - x")]


def test_join_kernel_is_intersection_examples(ab, order):
    A = [p(ab, "y.z.x - x.x")]
    B = [p(ab, "y.z.x - y.x.y")]
    assert join(ker_inv(A, order), ker_inv(B, order)).kernel_basis() == []
    AB = ker_inv(A + B, order)
    assert AB.kernel_basis() == [p(ab, "y.z.x - x.x"), p(ab, "y.x.y - x.x")]
    assert join(AB, AB).kernel_basis() == AB.kernel_basis()
    sub = [p(ab, "y.x.y - x.x")]
    assert join(AB, ker_inv(sub, order)).kernel_basis() == sub


def test_meet_join_grassmann_identity(ab, order):
    # Kernels: meet gives the sum and join the intersection; the dense
    # oracle gives the rank of the sum and membership of the intersection.
    rng = random.Random(33)
    ambient = all_words(ab, 2)[:8]
    for _ in range(100):
        A = ker_inv(
            [random_polynomial(rng, ambient) for _ in range(rng.randint(0, 4))], order
        ).kernel_basis()
        B = ker_inv(
            [random_polynomial(rng, ambient) for _ in range(rng.randint(0, 4))], order
        ).kernel_basis()
        T, U = ker_inv(A, order), ker_inv(B, order)
        total = meet([T, U]).kernel_basis()
        common = join(T, U).kernel_basis()
        assert len(A) + len(B) == len(total) + len(common)
        assert len(total) == dense_rank(A + B, order)
        for v in common:
            assert in_span(v, A, order)
            assert in_span(v, B, order)


def test_lattice_rejects_operator_order_mismatch(ab, order):
    other = DegLexOrder(Alphabet(("a", "b")))
    T = ker_inv([p(ab, "y.z.x - x.x")], order)
    U = ker_inv([Polynomial({(1, 0): 1, (0,): -1})], other)
    calls = [
        lambda: meet([T, U]),
        lambda: meet([U, T, T]),
        lambda: join(T, U),
        lambda: join(U, T),
        lambda: complement([T, U]),
        lambda: complement([identity(other), T]),
        lambda: leq(T, U),
        lambda: leq(U, T),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="operator order mismatch"):
            call()


def test_lattice_results_are_exact(ab, order):
    # Coefficients stay Fractions, and every kernel vector of a result lies
    # in the spans it must lie in, by the dense oracle: a float pivot
    # (1 / 1 == 1.0) would give inexact coefficients.
    rng = random.Random(151)
    ambient = all_words(ab, 2)[:8]
    for _ in range(100):
        T, U = (random_operator(rng, order, ambient) for _ in range(2))
        A, B = T.kernel_basis(), U.kernel_basis()
        vectors = [random_polynomial(rng, ambient) for _ in range(3)]
        for op, spans in (
            (ker_inv(vectors, order), [vectors]),
            (meet([T, U]), [A + B]),
            (join(T, U), [A, B]),
            (complement([T, U]), [A + B]),
        ):
            for image in op.rules.values():
                assert all(type(c) is Fraction for _, c in image.items())
            for v in op.kernel_basis():
                assert all(in_span(v, span, order) for span in spans)


def test_lattice_operations_eliminate_once(ab, order, braid_op, family_f0, monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return eliminate(rows)

    eliminate = linalg.eliminate
    monkeypatch.setattr(linalg, "eliminate", counting)
    monkeypatch.setattr(reduction, "eliminate", counting)
    for operation in (
        lambda: ker_inv(braid_op.kernel_basis(), order),
        lambda: meet([braid_op, *family_f0]),
        lambda: join(braid_op, family_f0[0]),
        lambda: complement(family_f0),
    ):
        calls.clear()
        operation()
        assert len(calls) == 1


def test_normal_form_words_examples(ab, order, braid_op, family_f0):
    ambient = [w(ab, "xx"), w(ab, "yxy"), w(ab, "yzx")]
    assert normal_form_words(family_f0, ambient) == {w(ab, "xx"), w(ab, "yxy")}
    idents = [identity(order), identity(order)]
    assert normal_form_words(idents, ambient) == set(ambient)
    assert normal_form_words([braid_op], [w(ab, "yz"), w(ab, "zx"), w(ab, "x")]) == {
        w(ab, "x")
    }


def test_obstructions_examples(ab, order, family_f0):
    ambient = [w(ab, "xx"), w(ab, "yxy"), w(ab, "yzx")]
    assert obstructions(family_f0, ambient) == {w(ab, "yxy")}
    assert obstructions([family_f0[0]], ambient) == set()
    confluent = family_f0 + [complement(family_f0)]
    assert obstructions(confluent, ambient) == set()


def test_is_confluent_family(ab, order, family_f0):
    assert not is_confluent_family(family_f0)
    assert is_confluent_family([family_f0[0]])
    assert is_confluent_family(family_f0 + [complement(family_f0)])


def test_complement_braided_steps(ab, order, family_f0):
    # Matches the worked example's printed matrices.
    c_f0 = complement(family_f0)
    assert c_f0.rules == {w(ab, "yxy"): p(ab, "x.x")}
    family_f1 = [
        single_rule(p(ab, "y.x.y.z - x.x.z"), order),
        single_rule(p(ab, "y.x.y.z - y.x.x"), order),
        single_rule(p(ab, "y.x.y.x.y - x.x.x.y"), order),
        single_rule(p(ab, "y.x.y.x.y - y.x.x.x"), order),
    ]
    c_f1 = complement(family_f1)
    assert c_f1.rules == {
        w(ab, "yxx"): p(ab, "x.x.z"),
        w(ab, "yxxx"): p(ab, "x.x.x.y"),
    }


def test_complement_reducer_block_edge_cases(ab, order, monkeypatch):
    calls = []

    def counting(rows):
        rows = list(rows)
        calls.append(rows)
        return eliminate(rows)

    eliminate = linalg.eliminate
    monkeypatch.setattr(reduction, "eliminate", counting)

    def definition(family):
        allowed = normal_form_words(family, family_ambient(family))
        words = ker_inv([Polynomial.monomial(u) for u in allowed], order)
        return join(meet(family), words)

    # Proportional rows on one key: the second row reduces to zero, and the
    # residuals are eliminated all the same.
    T = single_rule(p(ab, "y.z.x - x.x"), order)
    U = ker_inv([p(ab, "3*y.z.x - 3*x.x"), p(ab, "z.z - y")], order)
    # The key x.x of the second member lies in the first member's image, so
    # clearing y.z.x from the third row brings in a key to clear next.
    V = single_rule(p(ab, "x.x - y"), order)
    W = single_rule(p(ab, "y.z.x - y.y"), order)
    # Members keyed by the empty word: () -> 0 is a reducer of its own.
    one = ker_inv([p(ab, "2")], order)
    A, B = single_rule(p(ab, "y - x"), order), single_rule(p(ab, "y - 1"), order)
    cases = [
        ([T, U], {}),
        ([T, T], {}),
        ([T, V, W], {w(ab, "yy"): p(ab, "y")}),
        ([W, V, T], {w(ab, "yy"): p(ab, "y")}),
        ([A, one, B], {w(ab, "x"): Polynomial.zero()}),
        ([one, one], {}),
        ([B, one], {}),
    ]
    for family, rules in cases:
        calls.clear()
        got = complement(family)
        assert len(calls) == 1
        assert got.rules == rules
        assert got == definition(family)
    calls.clear()
    complement([T, U])
    assert calls == [[]]


def test_complement_clears_a_key_reached_twice_once(ab, order, monkeypatch):
    # The row z.z - z.y is reduced by the reducers of z.z and z.y, whose rows
    # both hold the key y.y; y.y is queued once and cleared once, after both.
    # linalg._reduce pops the row's key columns from a heap of negated ranks
    # into the family's words by increasing key; eliminating the one residual
    # pops nothing.
    popped = []

    def recording(heap):
        popped.append(heappop(heap))
        return popped[-1]

    heappop = linalg.heappop
    monkeypatch.setattr(linalg, "heappop", recording)
    family = [
        single_rule(p(ab, "z.z - y.y - x"), order),
        single_rule(p(ab, "z.y - 2*y.y"), order),
        single_rule(p(ab, "y.y - x.x"), order),
        single_rule(p(ab, "z.z - z.y"), order),
    ]
    got = complement(family)
    words = family_ambient(family)
    assert [words[-i] for i in popped] == [w(ab, "zz"), w(ab, "zy"), w(ab, "yy")]
    assert got.rules == {w(ab, "xx"): p(ab, "x")}
    monkeypatch.setattr(linalg, "heappop", heappop)
    allowed = normal_form_words(family, family_ambient(family))
    words = ker_inv([Polynomial.monomial(u) for u in allowed], order)
    expected = join(meet(family), words)
    assert got == expected
    assert list(got.rules) == list(expected.rules)


def test_complement_empty_family_raises():
    with pytest.raises(ValueError):
        complement([])


def test_single_rule_examples(ab, order):
    assert single_rule(p(ab, "y.z.x - x.x"), order).rules == {
        w(ab, "yzx"): p(ab, "x.x")
    }
    assert single_rule(p(ab, "2*y.x.y - 2*x.x"), order).rules == {
        w(ab, "yxy"): p(ab, "x.x")
    }
    assert single_rule(p(ab, "y.x.y.z - x.x.z"), order).rules == {
        w(ab, "yxyz"): p(ab, "x.x.z")
    }
    with pytest.raises(ValueError):
        single_rule(Polynomial.zero(), order)


def test_single_rule_matches_ker_inv(ab, order):
    # single_rule divides by the leading coefficient instead of eliminating.
    cases = [
        p(ab, "-y.z.x + x.x"),
        p(ab, "-3*y.x.y + 2*x.x - 1"),
        p(ab, "2/3*y.z - 5/7*x + 1/2"),
        p(ab, "-4/9*z.z.z - 4/9*y"),
        p(ab, "7*x.y"),
        p(ab, "-1/2"),
        p(ab, "5"),
        # Monic: the leading coefficient is exactly 1, so f is negated.
        p(ab, "y.z.x - 3*x.x - 1/2*y + 7/3"),
        p(ab, "x.y - 5/4*z - 2/3"),
        p(ab, "z.z.z"),
        p(ab, "x"),
        p(ab, "1"),
    ]
    rng = random.Random(617)
    ambient = all_words(ab, 3)
    cases += [random_polynomial(rng, ambient, max_terms=5) for _ in range(100)]
    for f in filter(None, cases):
        got, expected = single_rule(f, order), ker_inv([f], order)
        assert got == expected
        assert list(got.rules) == list(expected.rules)
        for image in got.rules.values():
            assert all(type(c) is Fraction for _, c in image.items())
    assert single_rule(p(ab, "-1/2"), order).rules == {(): Polynomial.zero()}
    assert single_rule(p(ab, "y.z.x - 3*x.x - 1/2*y + 7/3"), order).rules == {
        w(ab, "yzx"): p(ab, "3*x.x + 1/2*y - 7/3")
    }
    assert single_rule(p(ab, "z.z.z"), order).rules == {w(ab, "zzz"): Polynomial.zero()}


def test_zero_image_rules_are_legal(ab, order):
    T = single_rule(p(ab, "x.x"), order)
    assert T.rules == {w(ab, "xx"): Polynomial.zero()}
    assert T.apply(p(ab, "x.x + y")) == p(ab, "y")


def _reference_basis(vectors, key, keep=lambda u: True):
    """The reduced basis of the span of ``vectors`` by the ``Fraction``
    reference eliminator, whose pivots are greatest under ``key``: the
    vectors whose pivot ``keep`` holds, by decreasing pivot."""
    pivots = _eliminate_in_given_order((v._terms for v in vectors), key)
    return [
        Polynomial(pivots[u]) for u in sorted(pivots, key=key, reverse=True) if keep(u)
    ]


def test_kernel_bijection_random(ab, order):
    rng = random.Random(101)
    ambient = all_words(ab, 2)
    for _ in range(100):
        T = random_operator(rng, order, ambient)
        assert ker_inv(T.kernel_basis(), order) == T
        vectors = [random_polynomial(rng, ambient) for _ in range(3)]
        basis = ker_inv(vectors, order).kernel_basis()
        assert _reference_basis(vectors, order.key) == basis


def _ker_inv_through_reference(vectors, order):
    """Reference: each vector e of the reduced basis that the ``Fraction``
    eliminator gives yields the rule lw(e) -> lw(e) - e."""
    rules = {}
    for e in _reference_basis(vectors, order.key):
        lw, _ = e.leading(order)
        rules[lw] = Polynomial.monomial(lw) - e
    return ReductionOperator(order, rules)


def test_ker_inv_matches_reduced_basis_path(ab, order):
    rng = random.Random(131)
    ambient = all_words(ab, 2)
    assert ker_inv([], order) == _ker_inv_through_reference([], order)
    for _ in range(200):
        vectors = [random_polynomial(rng, ambient) for _ in range(rng.randint(1, 4))]
        # Dependent rows: a multiple of one vector, a sum of two, a zero vector.
        vectors.append(rng.choice(vectors).scale(rng.randint(-3, 3)))
        vectors.append(rng.choice(vectors) + rng.choice(vectors))
        vectors.insert(rng.randint(0, len(vectors)), Polynomial.zero())
        rng.shuffle(vectors)
        got = ker_inv(vectors, order)
        assert got == _ker_inv_through_reference(vectors, order)
        assert list(got.rules) == sorted(got.rules, key=order.key, reverse=True)


def _random_family(rng, order, ambient):
    # Few vectors over few words, so members often share reducible words.
    return [random_operator(rng, order, ambient) for _ in range(rng.randint(1, 4))]


def test_family_ambient_matches_kernel_supports(ab, order):
    rng = random.Random(137)
    ambient = all_words(ab, 2)[:8]
    for _ in range(200):
        family = _random_family(rng, order, ambient)
        support = set()
        for T in family:
            for v in T.kernel_basis():
                support |= v.support()
        assert family_ambient(family) == sorted(support, key=order.key)


def test_normal_form_words_matches_member_scan(ab, order):
    rng = random.Random(139)
    ambient = all_words(ab, 2)[:8]
    shared = 0
    for _ in range(200):
        family = _random_family(rng, order, ambient)
        keys = [w for T in family for w in T.rules]
        shared += len(keys) > len(set(keys))
        words = family_ambient(family) + rng.sample(all_words(ab, 3), 5)
        expected = {w for w in words if all(w not in T.rules for T in family)}
        assert normal_form_words(family, words) == expected
    assert shared >= 50


def test_operator_axioms_random(ab, order):
    rng = random.Random(103)
    ambient = all_words(ab, 2)
    for _ in range(100):
        T = random_operator(rng, order, ambient)
        f = random_polynomial(rng, ambient)
        assert T.apply(T.apply(f)) == T.apply(f)
        for u in ambient:
            image = T.extension(u, 0, 0)
            if image != Polynomial.monomial(u):
                assert image.is_zero() or order.key(image.leading(order)[0]) < order.key(u)


def test_lattice_laws_random(ab, order):
    rng = random.Random(107)
    ambient = all_words(ab, 2)[:8]
    for _ in range(60):
        T, U, V = (random_operator(rng, order, ambient) for _ in range(3))
        assert meet([T, U]) == meet([U, T])
        assert join(T, U) == join(U, T)
        assert meet([meet([T, U]), V]) == meet([T, meet([U, V])])
        assert join(join(T, U), V) == join(T, join(U, V))
        assert meet([T, T]) == T
        assert join(T, T) == T
        assert meet([T, join(T, U)]) == T
        assert join(T, meet([T, U])) == T
        assert leq(meet([T, U]), T)
        assert leq(T, join(T, U))


def test_leq_implies_normal_form_inclusion(ab, order):
    rng = random.Random(109)
    ambient = all_words(ab, 2)[:8]
    for _ in range(100):
        T, U = (random_operator(rng, order, ambient) for _ in range(2))
        lower = meet([T, U])
        assert leq(lower, T)
        assert set(lower.rules) >= set(T.rules)


def test_complement_axioms_random(ab, order):
    rng = random.Random(113)
    ambient = all_words(ab, 2)[:8]
    for _ in range(60):
        family = [
            random_operator(rng, order, ambient) for _ in range(rng.randint(1, 3))
        ]
        C = complement(family)
        lower = meet(family)
        assert meet([lower, C]) == lower
        assert obstructions(family, family_ambient(family)) <= set(C.rules)
        assert is_confluent_family(family + [C])


def test_complement_matches_meet_then_intersect(ab, order):
    # complement() reduces the members' kernel rows against one reducer row
    # per key and eliminates the residuals; the definition it replaces first
    # forms the meet and intersects its kernel.  Besides small random
    # families, the inputs are the normalised family of every step of
    # seeded random completions, up to 219 members whose keys recur in other
    # members' images, and of the heavy case, up to 1,359 members.
    rng = random.Random(113)
    ambient = all_words(ab, 2)[:8]
    families = [
        [random_operator(rng, order, ambient) for _ in range(rng.randint(1, 3))]
        for _ in range(60)
    ]
    rng = random.Random(307)
    for _ in range(25):
        result = complete(random_presentation(rng), CompletionLimits(12, 6))
        families += [list(step.normalised_family) for step in result.steps]
    result = complete(parse_presentation(HEAVY_STEP_TEXT), CompletionLimits(10, 5))
    families += [list(step.normalised_family) for step in result.steps]
    for family in families:
        order = family[0].order
        allowed = normal_form_words(family, family_ambient(family))
        # The intersection by the Fraction reference: with every disallowed
        # word ranked above every allowed one, the rows whose pivot is
        # allowed are supported inside ``allowed`` and are its reduced basis.
        kernel = _reference_basis(
            meet(family).kernel_basis(),
            lambda u: (u not in allowed, order.key(u)),
            allowed.__contains__,
        )
        got = complement(family)
        assert got.kernel_basis() == kernel
        # The definition: the join of the meet with the operator whose
        # kernel is spanned by the family-normal-form words.
        words = ker_inv([Polynomial.monomial(u) for u in allowed], order)
        expected = join(meet(family), words)
        assert got == expected
        assert list(got.rules) == list(expected.rules)


def test_church_rosser_on_confluent_families(ab, order):
    rng = random.Random(127)
    ambient = all_words(ab, 2)[:8]
    checked = 0
    for _ in range(100):
        family = [
            random_operator(rng, order, ambient) for _ in range(rng.randint(1, 3))
        ]
        family.append(complement(family))
        if not is_confluent_family(family):
            continue
        checked += 1
        lower = meet(family)
        f = random_polynomial(rng, ambient)
        target = lower.apply(f)
        current = f
        for _ in range(200):
            nxt = current
            for T in rng.sample(family, len(family)):
                nxt = T.apply(nxt)
            if nxt == current:
                break
            current = nxt
        assert current == target
    assert checked >= 50
