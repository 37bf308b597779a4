import random

import pytest

from ncgb.linalg import Polynomial, coordinate_subspace_intersection, reduced_basis
from ncgb.reduction import (
    ReductionOperator,
    complement,
    family_ambient,
    identity,
    is_confluent_family,
    join,
    ker_inv,
    kernel_basis,
    leq,
    meet,
    normal_form_words,
    obstructions,
    single_rule,
)

from conftest import all_words, in_span, p, random_operator, random_polynomial, w


@pytest.fixture
def ab(xyz):
    return xyz


@pytest.fixture
def order(deglex_xyz):
    return deglex_xyz


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
    assert ker_inv([], order).is_identity()


def test_kernel_basis_examples(ab, order, braid_op):
    T = ker_inv([p(ab, "y.z.x - x.x")], order)
    assert kernel_basis(T) == [p(ab, "y.z.x - x.x")]
    assert kernel_basis(identity(order)) == []
    assert kernel_basis(braid_op) == [p(ab, "z.x - x.y"), p(ab, "y.z - x")]


def test_apply_examples(ab, order, braid_op):
    assert braid_op.apply(p(ab, "y.z")) == p(ab, "x")
    fixed = p(ab, "y.x.y + 3*x.x")  # supported on normal forms only
    assert braid_op.apply(fixed) == fixed
    T = ker_inv([p(ab, "y.z.x - x.x"), p(ab, "y.z.x - y.x.y")], order)
    assert T.apply(p(ab, "y.z.x - y.x.y")).is_zero()


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


def test_join_examples(ab, order, family_f0):
    assert join(family_f0[0], family_f0[1]).is_identity()
    assert join(family_f0[0], family_f0[0]) == family_f0[0]
    assert join(family_f0[0], identity(order)).is_identity()


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


def test_zero_image_rules_are_legal(ab, order):
    T = single_rule(p(ab, "x.x"), order)
    assert T.rules == {w(ab, "xx"): Polynomial.zero()}
    assert T.apply(p(ab, "x.x + y")) == p(ab, "y")


def test_kernel_bijection_random(ab, order):
    rng = random.Random(101)
    ambient = all_words(ab, 2)
    for _ in range(100):
        T = random_operator(rng, order, ambient)
        assert ker_inv(kernel_basis(T), order) == T
        vectors = [random_polynomial(rng, ambient) for _ in range(3)]
        basis = kernel_basis(ker_inv(vectors, order))
        assert reduced_basis(vectors, order) == basis


def test_operator_axioms_random(ab, order):
    rng = random.Random(103)
    ambient = all_words(ab, 2)
    for _ in range(100):
        T = random_operator(rng, order, ambient)
        f = random_polynomial(rng, ambient)
        assert T.apply(T.apply(f)) == T.apply(f)
        for u in ambient:
            image = T.apply_word(u)
            if image != Polynomial.monomial(u):
                assert image.is_zero() or order.less(image.leading(order)[0], u)


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
        assert lower.reducible_words() >= T.reducible_words()


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
        assert obstructions(family, family_ambient(family)) <= C.reducible_words()
        assert is_confluent_family(family + [C])


def test_complement_matches_meet_then_intersect(ab, order):
    # complement() eliminates the members' kernel vectors directly; the
    # definition it replaces first forms the meet and intersects its kernel.
    rng = random.Random(113)
    ambient = all_words(ab, 2)[:8]
    for _ in range(60):
        family = [
            random_operator(rng, order, ambient) for _ in range(rng.randint(1, 3))
        ]
        allowed = normal_form_words(family, family_ambient(family))
        kernel = coordinate_subspace_intersection(
            meet(family).kernel_basis(), allowed, order
        )
        assert complement(family) == ker_inv(kernel, order)


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
