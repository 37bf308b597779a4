import random
from fractions import Fraction

import pytest

from ncgb.completion import complete
from ncgb.fileformat import (
    ParseError,
    format_polynomial,
    format_word,
    parse_polynomial,
    parse_presentation,
    parse_word,
    serialize_presentation,
)
from ncgb.linalg import Polynomial
from ncgb.words import Alphabet

from conftest import (
    BRAIDED_TEXT,
    COMPLETED_BRAIDED_TEXT,
    all_words,
    p,
    random_presentation,
    w,
)


@pytest.fixture
def ab(xyz):
    return xyz


@pytest.fixture
def order(deglex_xyz):
    return deglex_xyz


def test_parse_word_forms(ab):
    assert parse_word("y.z", ab) == w(ab, "yz")
    assert parse_word("yz", ab) == w(ab, "yz")  # single-char shorthand
    assert parse_word("x", ab) == (0,)
    assert parse_word("1", ab) == ()
    assert parse_word("  z.x ", ab) == w(ab, "zx")


def test_parse_word_multichar_symbols():
    ab = Alphabet(("aa", "b"))
    assert parse_word("aa.b.aa", ab) == (0, 1, 0)
    assert parse_word("b", ab) == (1,)
    # No shorthand once a symbol has several characters.
    with pytest.raises(ParseError):
        parse_word("aab", ab)


def test_parse_word_errors(ab):
    with pytest.raises(ParseError):
        parse_word("", ab)
    with pytest.raises(ParseError):
        parse_word("x.q", ab)
    with pytest.raises(ParseError):
        parse_word("xq", ab)


def test_format_word(ab):
    assert format_word(w(ab, "yzx"), ab) == "y.z.x"
    assert format_word((), ab) == "1"


def test_parse_polynomial_examples(ab):
    assert parse_polynomial("y.z - x", ab) == Polynomial(
        {w(ab, "yz"): 1, (0,): -1}
    )
    assert parse_polynomial("2*x.y + 1/3*z - 1", ab) == Polynomial(
        {w(ab, "xy"): 2, (2,): Fraction(1, 3), (): -1}
    )
    assert parse_polynomial("0", ab).is_zero()
    assert parse_polynomial("-x + x", ab).is_zero()
    assert parse_polynomial("5/7", ab) == Polynomial({(): Fraction(5, 7)})
    assert parse_polynomial("-3*1", ab) == Polynomial({(): -3})


def test_parse_polynomial_errors(ab):
    for bad in ("", "x +", "+ - x", "1/0*x", "2**x", "q"):
        with pytest.raises((ParseError, ZeroDivisionError)):
            parse_polynomial(bad, ab)


def test_format_polynomial_canonical(ab, order):
    f = p(ab, "y.x.y - x.x + 1/2*z - 3")
    text = format_polynomial(f, ab, order)
    assert text == "y.x.y - x.x + 1/2*z - 3"
    assert parse_polynomial(text, ab) == f
    assert format_polynomial(Polynomial.zero(), ab, order) == "0"
    assert format_polynomial(p(ab, "-x"), ab, order) == "-x"


def test_polynomial_round_trip_random(ab, order):
    rng = random.Random(61)
    ambient = all_words(ab, 3)
    for _ in range(100):
        terms = {
            u: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for u in rng.sample(ambient, rng.randint(0, 4))
        }
        f = Polynomial({u: c for u, c in terms.items() if c})
        text = format_polynomial(f, ab, order)
        assert parse_polynomial(text, ab) == f


def test_parse_presentation_braided(ab):
    P = parse_presentation(BRAIDED_TEXT)
    assert P.alphabet == ab
    assert P.operator.rules == {
        w(ab, "yz"): p(ab, "x"),
        w(ab, "zx"): p(ab, "x.y"),
    }


def test_parse_presentation_comments_and_blanks():
    text = """
    # a comment line
    alphabet: x y   # trailing comment
    order: deglex
    rules:
    x.x -> x   # idempotent

    y.x -> 1/2*x + 1/2*y
    """
    P = parse_presentation(text)
    assert P.operator.rules == {
        (0, 0): Polynomial({(0,): 1}),
        (1, 0): Polynomial({(0,): Fraction(1, 2), (1,): Fraction(1, 2)}),
    }


def test_parse_presentation_zero_rhs():
    P = parse_presentation("alphabet: x\norder: deglex\nrules:\nx.x -> 0\n")
    assert P.operator.rules == {(0, 0): Polynomial.zero()}


def test_parse_presentation_errors_report_lines():
    cases = [
        ("order: deglex\n", "alphabet", 1),
        ("alphabet:\n", "empty alphabet", 1),
        ("alphabet: x x\n", "duplicate", 1),
        ("alphabet: x 2y\n", "invalid symbol", 1),
        ("alphabet: x\norder: lex\n", "unknown order", 2),
        ("alphabet: x\n", "missing order", 1),
        ("alphabet: x\norder: deglex\nstuff\n", "unexpected line", 3),
        ("alphabet: x\norder: deglex\nrules:\nx.x - x\n", "->", 4),
        ("alphabet: x\norder: deglex\nrules:\n1 -> x\n", "empty word", 4),
        ("alphabet: x\norder: deglex\nrules:\nx.x -> x.x.x\n", "not smaller", 4),
        ("alphabet: x\norder: deglex\nrules:\nx.x -> x.x\n", "not smaller", 4),
    ]
    for text, fragment, line in cases:
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert fragment in str(exc.value)
        assert exc.value.line == line


def test_serialize_presentation_round_trip_examples():
    for text in (BRAIDED_TEXT, COMPLETED_BRAIDED_TEXT):
        P = parse_presentation(text)
        out = serialize_presentation(P)
        again = parse_presentation(out)
        assert again.operator == P.operator
        assert serialize_presentation(again) == out


def test_serialize_presentation_round_trip_unit_ideal():
    # The ideal holds a constant, so completion adds the rule 1 -> 0.
    P = parse_presentation("alphabet: x\norder: deglex\nrules:\nx.x -> 1\nx -> 2\n")
    completed = complete(P).completed
    out = serialize_presentation(completed)
    assert "1 -> 0" in out.splitlines()
    assert parse_presentation(out) == completed


def test_serialize_presentation_round_trip_random():
    rng = random.Random(67)
    for _ in range(50):
        P = random_presentation(rng)
        out = serialize_presentation(P)
        again = parse_presentation(out)
        assert again.alphabet == P.alphabet
        assert again.operator == P.operator
