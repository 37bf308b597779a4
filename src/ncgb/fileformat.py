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
coefficients ``p/q`` (a coefficient of 1 may be omitted) and ``0`` for the
zero polynomial.  Output always uses dots and is canonical: parsing it back
reproduces the presentation exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import Polynomial
from .presentation import Presentation
from .reduction import ker_inv
from .words import Alphabet, DegLexOrder, Word

_SYMBOL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?$")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.column = column


def parse_word(token: str, alphabet: Alphabet, line: int = 0) -> Word:
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


def parse_polynomial(text: str, alphabet: Alphabet, line: int = 0) -> Polynomial:
    text = text.strip()
    if not text:
        raise ParseError("empty polynomial", line)
    if text == "0":
        return Polynomial.zero()
    # Split into signed terms; a leading '+' is implicit.
    pieces = re.split(r"\s*([+-])\s*", text)
    if pieces[0] == "":
        pieces = pieces[1:]
    else:
        pieces = ["+"] + pieces
    if len(pieces) % 2 != 0 or any(p == "" for p in pieces):
        raise ParseError(f"malformed polynomial {text!r}", line)
    result = Polynomial.zero()
    for sign, term in zip(pieces[::2], pieces[1::2]):
        if "*" in term:
            coeff_text, _, word_text = term.partition("*")
            coeff_text = coeff_text.strip()
            if not _RATIONAL_RE.match(coeff_text):
                raise ParseError(f"malformed rational {coeff_text!r}", line)
            coeff = Fraction(coeff_text)
            w = parse_word(word_text, alphabet, line)
        elif _RATIONAL_RE.match(term):
            coeff = Fraction(term)
            w = ()
        else:
            coeff = Fraction(1)
            w = parse_word(term, alphabet, line)
        if sign == "-":
            coeff = -coeff
        result = result + Polynomial.monomial(w, coeff)
    return result


def format_polynomial(f: Polynomial, alphabet: Alphabet, order: DegLexOrder) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for w, c in sorted(f.items(), key=lambda it: order.key(it[0]), reverse=True):
        if w and abs(c) == 1:
            body = format_word(w, alphabet)
        elif w:
            body = f"{abs(c)}*{format_word(w, alphabet)}"
        else:
            body = str(abs(c))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
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


def serialize_presentation(P: Presentation) -> str:
    lines = [
        "alphabet: " + " ".join(P.alphabet.symbols),
        "order: deglex",
        "rules:",
    ]
    for w in sorted(P.operator.rules, key=P.order.key):
        rhs = format_polynomial(P.operator.rules[w], P.alphabet, P.order)
        lines.append(f"{format_word(w, P.alphabet)} -> {rhs}")
    return "\n".join(lines) + "\n"
