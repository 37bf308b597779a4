"""Text format for presentations and polynomials.

A presentation file looks like::

    # braided monoid
    alphabet: x y z
    order: deglex
    rules:
    y.z -> x
    z.x -> x.y

Words are symbol sequences separated by ``.``; when every alphabet symbol
is a single character the dots may be omitted on input.  ``1`` denotes the
empty word.  Polynomials are written ``c1*w1 + c2*w2 - w3`` with rational
coefficients ``p/q``, ``q`` nonzero (a coefficient of 1 may be omitted),
and ``0`` for the zero polynomial.  Output always uses dots and is
canonical: parsing it back reproduces the presentation exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import Polynomial
from .presentation import Presentation
from .reduction import ReductionOperator, ker_inv
from .words import Alphabet, DegLexOrder, Word

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d*[1-9]\d*)?$")


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def parse_word(token: str, alphabet: Alphabet, line: int | None = None) -> Word:
    token = token.strip()
    if not token:
        raise ParseError("empty word", line)
    if token == "1":
        return ()
    if "." in token:
        parts = token.split(".")
    elif token in alphabet.symbols:
        parts = [token]
    elif all(len(s) == 1 for s in alphabet.symbols):
        parts = list(token)
    else:
        raise ParseError(f"unknown symbol {token!r}", line)
    try:
        return tuple(alphabet.index(p) for p in parts)
    except KeyError as exc:
        raise ParseError(str(exc.args[0]), line) from None


def format_word(w: Word, alphabet: Alphabet) -> str:
    if not w:
        return "1"
    return ".".join(alphabet.symbols[i] for i in w)


def parse_polynomial(text: str, alphabet: Alphabet, line: int | None = None) -> Polynomial:
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial", line)
    # Split into signed terms; a leading '+' is implicit.
    pieces = re.split(r"\s*([+-])\s*", text)
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    if len(pieces) % 2 != 0 or any(p == "" for p in pieces):
        raise ParseError(f"malformed polynomial {text!r}", line)
    # One dict, not a sum that copies it per term; Polynomial drops zero sums.
    terms: dict[Word, Fraction] = {}
    for sign, term in zip(pieces[::2], pieces[1::2]):
        coeff_text, star, word_text = term.partition("*")
        if not star:
            # No symbol starts with a digit, so such a term is a constant.
            coeff_text, word_text = (term, "1") if term[0].isdigit() else ("1", term)
        coeff_text = coeff_text.strip()
        if not _RATIONAL_RE.match(coeff_text):
            raise ParseError(f"malformed rational {coeff_text!r}", line)
        coeff = Fraction(coeff_text)
        w = parse_word(word_text, alphabet, line)
        if sign == "-":
            coeff = -coeff
        terms[w] = terms.get(w, 0) + coeff
    return Polynomial(terms)


def format_polynomial(f: Polynomial, alphabet: Alphabet, order: DegLexOrder) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for w, c in sorted(f.items(), key=lambda it: order.key(it[0]), reverse=True):
        n, d = c.numerator, c.denominator
        magnitude = f"{abs(n)}" if d == 1 else f"{abs(n)}/{d}"
        if not w:
            body = magnitude
        elif magnitude == "1":
            body = format_word(w, alphabet)
        else:
            body = f"{magnitude}*{format_word(w, alphabet)}"
        if not parts:
            parts.append(body if n > 0 else f"-{body}")
        else:
            parts.append(("+ " if n > 0 else "- ") + body)
    return " ".join(parts)


def parse_presentation(text: str) -> Presentation:
    alphabet: Alphabet | None = None
    order: DegLexOrder | None = None
    rule_lines: list[tuple[int, str]] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("alphabet:"):
            if alphabet is not None:
                raise ParseError("duplicate alphabet declaration", lineno)
            symbols = stripped[len("alphabet:") :].split()
            if not symbols:
                raise ParseError("empty alphabet", lineno)
            for s in symbols:
                if not _SYMBOL_RE.match(s):
                    raise ParseError(f"invalid symbol {s!r}", lineno)
            if len(set(symbols)) != len(symbols):
                raise ParseError("duplicate alphabet symbol", lineno)
            alphabet = Alphabet(tuple(symbols))
            section = None
        elif stripped.startswith("order:"):
            kind = stripped[len("order:") :].strip()
            if order is not None:
                raise ParseError("duplicate order declaration", lineno)
            if kind != "deglex":
                raise ParseError(f"unknown order kind {kind!r}", lineno)
            if alphabet is None:
                raise ParseError("order declared before alphabet", lineno)
            order = DegLexOrder(alphabet)
            section = None
        elif stripped == "rules:":
            section = "rules"
        elif section == "rules":
            rule_lines.append((lineno, stripped))
        else:
            raise ParseError(f"unexpected line {stripped!r}", lineno)
    if alphabet is None:
        raise ParseError("missing alphabet declaration", 1)
    if order is None:
        raise ParseError("missing order declaration", 1)
    vectors = []
    for lineno, text_line in rule_lines:
        lhs_text, arrow, rhs_text = text_line.partition("->")
        if not arrow:
            raise ParseError(f"rule without '->': {text_line!r}", lineno)
        lhs = parse_word(lhs_text, alphabet, lineno)
        rhs = parse_polynomial(rhs_text, alphabet, lineno)
        # ``1 -> 0`` says the ideal holds a constant; any other image of the
        # empty word would have to be smaller than it.
        if not lhs and rhs:
            raise ParseError("rule left-hand side can be the empty word only with 0", lineno)
        if rhs and order.key(rhs.leading(order)[0]) >= order.key(lhs):
            raise ParseError("rule right-hand side not smaller than left-hand side", lineno)
        vectors.append(Polynomial.monomial(lhs) - rhs)
    operator = ker_inv(vectors, order)
    return Presentation(alphabet=alphabet, order=order, operator=operator)


def format_rules(op: ReductionOperator, alphabet: Alphabet) -> list[str]:
    """One ``word -> image`` line per rule of ``op``, by increasing word."""
    return [
        f"{format_word(w, alphabet)} -> {format_polynomial(op.rules[w], alphabet, op.order)}"
        for w in sorted(op.rules, key=op.order.key)
    ]


def serialize_presentation(P: Presentation) -> str:
    lines = [
        "alphabet: " + " ".join(P.alphabet.symbols),
        "order: deglex",
        "rules:",
        *format_rules(P.operator, P.alphabet),
    ]
    return "\n".join(lines) + "\n"
