import random
from fractions import Fraction

import pytest

from ncgb.linalg import (
    Polynomial,
    coordinate_subspace_intersection,
    reduced_basis,
    subspace_intersection,
    subspace_sum,
)

from conftest import all_words, dense_rank, in_span, p, random_polynomial, w


@pytest.fixture
def ab(xyz):
    return xyz


@pytest.fixture
def order(deglex_xyz):
    return deglex_xyz


def test_polynomial_arithmetic_is_exact(ab):
    f = p(ab, "1/3*x.y + 2*z")
    g = p(ab, "1/6*x.y - 2*z")
    assert (f + g).coeff(w(ab, "xy")) == Fraction(1, 2)
    assert (f + g).coeff(w(ab, "z")) == 0
    assert f - f == Polynomial.zero()
    assert f.scale(3) == p(ab, "x.y + 6*z")


def test_leading_examples(ab, order):
    assert p(ab, "y.x.y - x.x").leading(order) == (w(ab, "yxy"), 1)
    assert p(ab, "3*x").leading(order) == (w(ab, "x"), 3)
    assert p(ab, "y.z.x - x.x").leading(order) == (w(ab, "yzx"), 1)


def test_leading_of_zero_raises(order):
    with pytest.raises(ValueError):
        Polynomial.zero().leading(order)


def test_reduced_basis_examples(ab, order):
    got = reduced_basis([p(ab, "y.z.x - x.x"), p(ab, "y.z.x - y.x.y")], order)
    assert got == [p(ab, "y.z.x - x.x"), p(ab, "y.x.y - x.x")]
    assert reduced_basis([], order) == []
    got = reduced_basis([p(ab, "2*x - 2*y"), p(ab, "x - y")], order)
    assert got == [p(ab, "y - x")]


def test_reduced_basis_is_idempotent_and_preserves_span(ab, order):
    rng = random.Random(21)
    ambient = all_words(ab, 2)
    for _ in range(100):
        vectors = [random_polynomial(rng, ambient) for _ in range(rng.randint(0, 5))]
        basis = reduced_basis(vectors, order)
        assert reduced_basis(basis, order) == basis
        assert len(basis) == dense_rank(vectors, order)
        for v in vectors:
            assert in_span(v, basis, order)
        # Monic, distinct leading words, fully auto-reduced.
        lws = [e.leading(order)[0] for e in basis]
        assert len(set(lws)) == len(lws)
        for e in basis:
            assert e.leading(order)[1] == 1
            for other in basis:
                if other is not e:
                    assert other.leading(order)[0] not in e.support()


def test_subspace_sum_examples(ab, order):
    A = [p(ab, "y.z.x - x.x")]
    B = [p(ab, "y.z.x - y.x.y")]
    assert subspace_sum(A, B, order) == [
        p(ab, "y.z.x - x.x"),
        p(ab, "y.x.y - x.x"),
    ]
    assert subspace_sum(A, [], order) == A
    C = [p(ab, "x - y")]
    assert subspace_sum(C, C, order) == reduced_basis(C, order)


def test_subspace_intersection_examples(ab, order):
    A = [p(ab, "y.z.x - x.x")]
    B = [p(ab, "y.z.x - y.x.y")]
    assert subspace_intersection(A, B, order) == []
    AB = reduced_basis(A + B, order)
    assert subspace_intersection(AB, AB, order) == AB
    sub = [p(ab, "y.x.y - x.x")]
    assert subspace_intersection(AB, sub, order) == sub


def test_grassmann_identity(ab, order):
    rng = random.Random(33)
    ambient = all_words(ab, 2)[:8]
    for _ in range(100):
        A = reduced_basis(
            [random_polynomial(rng, ambient) for _ in range(rng.randint(0, 4))], order
        )
        B = reduced_basis(
            [random_polynomial(rng, ambient) for _ in range(rng.randint(0, 4))], order
        )
        total = subspace_sum(A, B, order)
        common = subspace_intersection(A, B, order)
        assert len(A) + len(B) == len(total) + len(common)
        for v in common:
            assert in_span(v, A, order)
            assert in_span(v, B, order)


def test_coordinate_subspace_intersection_examples(ab, order):
    A = [p(ab, "y.z.x - x.x"), p(ab, "y.x.y - x.x")]
    got = coordinate_subspace_intersection(
        A, {w(ab, "xx"), w(ab, "yxy")}, order
    )
    assert got == [p(ab, "y.x.y - x.x")]
    everything = {u for f in A for u in f.support()}
    assert coordinate_subspace_intersection(A, everything, order) == reduced_basis(
        A, order
    )
    assert coordinate_subspace_intersection([p(ab, "x - y")], {w(ab, "x")}, order) == []


def test_coordinate_subspace_intersection_properties(ab, order):
    rng = random.Random(55)
    ambient = all_words(ab, 2)[:8]
    for _ in range(100):
        A = reduced_basis(
            [random_polynomial(rng, ambient) for _ in range(rng.randint(0, 4))], order
        )
        allowed = set(rng.sample(ambient, rng.randint(0, len(ambient))))
        got = coordinate_subspace_intersection(A, allowed, order)
        for v in got:
            assert v.support() <= allowed
            assert in_span(v, A, order)


def test_scalar_round_trip_bit_exact(ab, order):
    from ncgb.fileformat import format_polynomial, parse_polynomial

    f = Polynomial(
        {
            w(ab, "xy"): Fraction(10**30 + 1, 10**15 + 3),
            w(ab, "z"): Fraction(-7, 11),
            (): Fraction(5, 9),
        }
    )
    assert parse_polynomial(format_polynomial(f, ab, order), ab) == f
