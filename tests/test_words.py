import itertools
import random

import pytest

from ncgb.words import Alphabet, factor_occurrences, overlaps

from conftest import all_words, w


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("x", "x"))
    assert len(Alphabet(("a", "bb", "c"))) == 3


def test_compare_examples(ab, order):
    assert order.key(w(ab, "xx")) < order.key(w(ab, "yxy"))
    assert order.key(w(ab, "xxz")) < order.key(w(ab, "yxx"))
    assert not order.key(w(ab, "yxy")) < order.key(w(ab, "yxy"))
    assert order.key(w(ab, "yz")) < order.key(w(ab, "zx"))
    assert not order.key(w(ab, "zx")) < order.key(w(ab, "yz"))


def test_worked_example_ambient_listings_sort(ab, order):
    # Ambients printed in the worked example are increasing under deg-lex.
    listing = [w(ab, t) for t in ("xx", "yxy", "yzx")]
    assert sorted(listing, key=order.key) == listing
    listing = [w(ab, t) for t in ("xxz", "yxx", "xxxy", "yxxx", "yxyz", "yxyxy")]
    assert sorted(listing, key=order.key) == listing


def test_empty_word_is_minimal(ab, order):
    for u in all_words(ab, 3, min_len=1):
        assert order.key(()) < order.key(u)


def test_compare_total_order_properties(ab, order):
    rng = random.Random(7)
    words = all_words(ab, 3)
    for _ in range(300):
        u, v, t = (rng.choice(words) for _ in range(3))
        # Exactly one of u < v, u = v, v < u holds.
        assert [order.key(u) < order.key(v), u == v, order.key(v) < order.key(u)].count(True) == 1
        if order.key(u) < order.key(v) and order.key(v) < order.key(t):
            assert order.key(u) < order.key(t)


def test_compare_compatible_with_concatenation(ab, order):
    rng = random.Random(11)
    words = all_words(ab, 3)
    for _ in range(300):
        u, v = rng.choice(words), rng.choice(words)
        if not order.key(u) < order.key(v):
            continue
        left, right = rng.choice(words), rng.choice(words)
        assert order.key(left + u + right) < order.key(left + v + right)


def test_factor_occurrences_examples(ab):
    assert factor_occurrences(w(ab, "yzx"), w(ab, "yz")) == [(0, 1)]
    assert factor_occurrences(w(ab, "yxyxy"), w(ab, "yxy")) == [(0, 2), (2, 0)]
    assert factor_occurrences(w(ab, "xx"), w(ab, "yz")) == []


def test_factor_occurrences_against_naive_scan(ab):
    rng = random.Random(3)
    words = all_words(ab, 5)
    factors = all_words(ab, 3, min_len=1)
    for _ in range(300):
        full, part = rng.choice(words), rng.choice(factors)
        naive = [
            (n, len(full) - n - len(part))
            for n in range(len(full) + 1)
            for m in [len(full) - n - len(part)]
            if m >= 0 and full == full[:n] + part + full[n + len(part) :]
        ]
        assert factor_occurrences(full, part) == naive


def test_factor_requires_nonempty():
    with pytest.raises(ValueError):
        factor_occurrences((0, 1), ())


def test_overlaps_examples(ab):
    assert overlaps(w(ab, "yz"), w(ab, "zx")) == [(w(ab, "y"), w(ab, "z"), w(ab, "x"))]
    assert overlaps(w(ab, "yxy"), w(ab, "yz")) == [
        (w(ab, "yx"), w(ab, "y"), w(ab, "z"))
    ]
    assert overlaps(w(ab, "yz"), w(ab, "yz")) == []
    # A prefix or a suffix is an inclusion, not an overlap.
    assert overlaps(w(ab, "yz"), w(ab, "yzx")) == []
    assert overlaps(w(ab, "xyz"), w(ab, "yz")) == []


def test_overlaps_decompose_exactly(ab):
    rng = random.Random(5)
    words = all_words(ab, 4, min_len=1)
    for _ in range(300):
        u, v = rng.choice(words), rng.choice(words)
        for a, b, c in overlaps(u, v):
            assert b
            assert a + b == u
            assert b + c == v
            assert a and c
        # Every valid decomposition is found.
        expected = [
            (u[: len(u) - k], u[len(u) - k :], v[k:])
            for k in range(1, min(len(u), len(v)) + 1)
            if u[len(u) - k :] == v[:k] and (u[: len(u) - k] and v[k:])
        ]
        assert overlaps(u, v) == expected
