import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from ncgb.linalg import (
    Polynomial,
    _add_multiple,
    _reduce,
    coordinate_subspace_intersection,
    eliminate,
    reduced_basis,
)
from ncgb.reduction import ker_inv

from conftest import (
    _eliminate_in_given_order,
    all_words,
    dense_rank,
    in_span,
    p,
    random_polynomial,
    w,
)


@pytest.fixture
def ab(xyz):
    return xyz


@pytest.fixture
def order(deglex_xyz):
    return deglex_xyz


def _dict_sum(f, c, g):
    """f + c * g over plain dicts, zero sums dropped."""
    out = dict(f)
    for u, d in g.items():
        out[u] = out.get(u, 0) + c * d
    return {u: d for u, d in out.items() if d}


def test_polynomial_arithmetic_is_exact(ab):
    f = p(ab, "1/3*x.y + 2*z")
    g = p(ab, "1/6*x.y - 2*z")
    assert (f + g).coeff(w(ab, "xy")) == Fraction(1, 2)
    assert (f + g).coeff(w(ab, "z")) == 0
    assert f - f == Polynomial.zero()
    assert f.scale(3) == p(ab, "x.y + 6*z")
    # Seeded pairs that share words; g is -f, or -f on some of its words,
    # often enough that whole sums and single terms cancel exactly.
    rng = random.Random(2717)
    ambient = all_words(ab, 2)
    cancelled = 0
    for _ in range(400):
        f = random_polynomial(rng, ambient, max_terms=6)
        kind = rng.random()
        if kind < 0.2:
            g = -f
        elif kind < 0.5:
            # -f on some words of f, and fresh terms that may land on others.
            shared = rng.sample(sorted(f.support()), rng.randint(0, len(f.support())))
            fresh = dict(random_polynomial(rng, ambient).items())
            g = Polynomial({u: -f.coeff(u) for u in shared} | fresh)
        else:
            g = random_polynomial(rng, ambient, max_terms=6)
        ft, gt = dict(f.items()), dict(g.items())
        sums = [
            (dict((f + g).items()), _dict_sum(ft, 1, gt)),
            (dict((f - g).items()), _dict_sum(ft, -1, gt)),
        ]
        for c in (1, -1, Fraction(3, 2)):
            terms = dict(ft)
            _add_multiple(terms, c, gt)
            sums.append((terms, _dict_sum(ft, c, gt)))
        for got, expected in sums:
            assert got == expected
            assert all(type(d) is Fraction and d for d in got.values())
        assert (f + (-f)).is_zero()
        assert dict(f.items()) == ft and dict(g.items()) == gt
        cancelled += bool((ft.keys() & gt.keys()) - sums[0][0].keys())
    assert cancelled > 100


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


def _random_rows(rng, columns):
    """Sparse Fraction rows, with empty rows, duplicates and combinations of
    earlier rows, which reduce to zero."""
    rows = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if kind < 0.1:
            rows.append({})
        elif kind < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        elif kind < 0.4 and rows:
            combo: dict = {}
            for row in rng.sample(rows, min(2, len(rows))):
                c = Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 3))
                _add_multiple(combo, c, row)
            rows.append(combo)
        else:
            cols = rng.sample(columns, rng.randint(1, min(5, len(columns))))
            rows.append({col: Fraction(rng.randint(-6, 6) or 1, rng.randint(1, 4)) for col in cols})
    return rows


def _integer_rows(rows, key):
    """The columns of the ``Fraction`` rows ranked by ``key``, and each
    nonzero row, times the lcm of its denominators, as an integer row over
    the columns' ranks."""
    rows = [row for row in rows if row]
    ranked = sorted({col for row in rows for col in row}, key=key)
    rank = {col: i for i, col in enumerate(ranked)}
    out = []
    for row in rows:
        m = lcm(*(c.denominator for c in row.values()))
        out.append({rank[col]: c.numerator * (m // c.denominator) for col, c in row.items()})
    return ranked, out


def _rescaled(rng, rows, key):
    """The same lines, three ways ``eliminate`` must undo: each row times a
    rational whose numerator and denominator exceed 2**64, times an integer
    that leaves its cleared row a content above 1, and negated where that
    makes its pivot entry negative."""
    def big():
        n = 2**65 + rng.getrandbits(64)
        return Fraction(rng.choice([-1, 1]) * (n + 1), n)

    def content(row):
        m = lcm(*(c.denominator for c in row.values()))
        return m * rng.randint(2, 30)

    def sign(row):
        return -1 if row[max(row, key=key)] > 0 else 1

    def times(row, k):
        return {col: c * k for col, c in row.items()}

    return [
        [times(r, scale(r)) if r else r for r in rows]
        for scale in (lambda r: big(), content, sign)
    ]


def test_eliminate_is_independent_of_row_order(ab, order):
    # Each column order is expressed as the ranks of its sorted columns by
    # the test's ``_integer_rows``, which also clears the denominators of
    # the rescaled rows.  ``eliminate`` returns primitive integer rows,
    # unique up to sign; each is divided by its pivot entry and its ranks
    # are mapped back to columns to compare with the Fraction reference.  The reference runs on
    # copies, because ``eliminate`` changes the rows it is given.
    rng = random.Random(808)
    scaler = random.Random(809)
    words = all_words(ab, 3)
    allowed = set(rng.sample(words, len(words) // 2))
    orders = [
        (words, order.key),
        (words, lambda u: (u not in allowed, order.key(u))),
        ([(t, u) for t in (0, 1) for u in words], lambda col: (col[0], order.key(col[1]))),
    ]
    assert eliminate([]) == {}
    for columns, key in orders:
        for _ in range(150):
            rows = _random_rows(rng, columns)
            expected = _eliminate_in_given_order([dict(r) for r in rows], key)
            for given in (rows, *_rescaled(scaler, rows, key)):
                ranked, integer_rows = _integer_rows(given, key)
                got = eliminate(integer_rows)
                for i, row in got.items():
                    assert all(type(c) is int for c in row.values())
                    assert gcd(*row.values()) == 1
                    assert max(row) == i
                assert {
                    ranked[i]: {ranked[j]: Fraction(c, row[i]) for j, c in row.items()}
                    for i, row in got.items()
                } == _eliminate_in_given_order([dict(r) for r in given], key) == expected


def _reduce_reference(row, pivots):
    """The one row with no pivot column in row + span(pivots), over Fraction:
    row minus its pivot entries times the reduced basis of the pivot rows,
    which holds one pivot column per row."""
    basis = _eliminate_in_given_order(
        ({col: Fraction(c) for col, c in p.items()} for p in pivots.values()), int
    )
    assert basis.keys() == pivots.keys()
    out = {col: Fraction(c) for col, c in row.items()}
    # The basis rows are monic, so adding -out[col] times one clears col.
    for col in list(out):
        if col in basis:
            _add_multiple(out, -out[col], basis[col])
    return out


def test_reduce_clears_pivot_rows_that_are_not_inter_reduced():
    # As in ``complement``: the pivot rows hold other pivot columns below
    # their own.  The row z.z - z.y of the y.y case reaches y.y through the
    # pivot rows of z.z and of z.y (columns 5, 4, 3; x.x and x are 2 and 1).
    cases = [
        (
            {5: 1, 4: -1},
            {5: {5: 1, 3: -1, 1: -1}, 4: {4: 1, 3: -2}, 3: {3: 1, 2: -1}},
        )
    ]
    rng = random.Random(1918)
    for _ in range(400):
        pivots = {}
        for s in rng.sample(range(1, 12), rng.randint(0, 6)):
            below = rng.sample(range(s), rng.randint(0, min(4, s)))
            pivots[s] = {s: rng.choice([-6, -3, -2, -1, 1, 2, 4, 9])}
            pivots[s].update({j: rng.randint(-9, 9) or 1 for j in below})
        if len(pivots) > 1 and rng.random() < 0.5:
            # Two pivot rows reach one column below both.
            low = min(pivots)
            for s in rng.sample(sorted(pivots), 2):
                if s != low:
                    pivots[s][low] = rng.randint(1, 5)
        cols = rng.sample(range(12), rng.randint(1, 6))
        row = {j: rng.randint(-12, 12) or 1 for j in cols}
        if rng.random() < 0.3:
            row = {j: 6 * c for j, c in row.items()}
        cases.append((row, pivots))
    for row, pivots in cases:
        before = dict(row)
        frozen = {s: dict(p) for s, p in pivots.items()}
        _reduce(row, pivots)
        assert pivots == frozen
        assert not row.keys() & pivots.keys()
        assert all(type(c) is int for c in row.values())
        assert not row or gcd(*row.values()) == 1
        # A nonzero multiple of the row is c * before plus a combination of
        # the pivot rows, for an integer c != 0: the row is a nonzero
        # multiple of the reference, or zero when the reference is.
        expected = _reduce_reference(before, pivots)
        assert row.keys() == expected.keys()
        if row:
            top = max(row)
            q = Fraction(row[top]) / expected[top]
            assert q and row == {j: q * c for j, c in expected.items()}


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
        A = ker_inv(
            [random_polynomial(rng, ambient) for _ in range(rng.randint(0, 4))], order
        ).kernel_basis()
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
