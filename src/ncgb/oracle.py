"""Naive Buchberger-style completion used to cross-validate the lattice engine.

Deliberately unsophisticated: rules are a flat list of monic polynomials
(not inter-reduced), S-polynomials are reduced one at a time by plain
rewriting, and no matrix steps are involved.  Agreement with the lattice
completion is then evidence of correctness rather than of shared bugs, so
this module must stay independent of ``reduction`` and ``completion``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import Polynomial
from .words import DegLexOrder, Word


@dataclass
class RuleSet:
    order: DegLexOrder
    rules: list[Polynomial]

    @classmethod
    def from_polynomials(cls, polys, order: DegLexOrder) -> "RuleSet":
        rules = [f.monic(order) for f in polys if not f.is_zero()]
        return cls(order, rules)

    def leading_words(self) -> list[Word]:
        return [f.leading(self.order)[0] for f in self.rules]


Ambiguity = tuple[Word, Word, Word, Polynomial, Polynomial]


def ambiguities(R: RuleSet) -> list[Ambiguity]:
    """All overlap and inclusion ambiguities (w1, w2, w3, f, g).

    Overlap form: lm(f) = w1.w2 and lm(g) = w2.w3 with w1, w3 nonempty.
    Inclusion form: lm(f) = w1.w2.w3 and lm(g) = w2.  The trivial
    self-inclusion of a rule in itself is excluded.
    """
    out: list[Ambiguity] = []
    lms = R.leading_words()
    for (i, f), (j, g) in itertools.product(enumerate(R.rules), repeat=2):
        lf, lg = lms[i], lms[j]
        for k in range(1, min(len(lf), len(lg))):
            if lf[len(lf) - k :] == lg[:k]:
                out.append((lf[: len(lf) - k], lf[len(lf) - k :], lg[k:], f, g))
        for n in range(len(lf) - len(lg) + 1):
            if lf[n : n + len(lg)] == lg:
                if i == j and n == 0 and len(lf) == len(lg):
                    continue
                out.append((lf[:n], lg, lf[n + len(lg) :], f, g))
    return out


def ambiguity_s_polynomial(amb: Ambiguity, order: DegLexOrder) -> Polynomial:
    w1, w2, w3, f, g = amb
    if len(w1) + len(w2) == len(f.leading(order)[0]):  # an overlap
        return f.sandwich((), w3) - g.sandwich(w1, ())
    return f - g.sandwich(w1, w3)


def naive_reduce(R: RuleSet, f: Polynomial) -> Polynomial:
    """Rewrite ``f`` by the rules until no leading-word factor remains.

    Strategy: first rule in list order whose leading word occurs in any
    support word, rightmost occurrence; intentionally different from the
    lattice engine's strategy.
    """
    lms = R.leading_words()
    while True:
        step = None
        for rule, lw in zip(R.rules, lms):
            k = len(lw)
            for w in sorted(f.support(), key=R.order.key):
                for n in range(len(w) - k, -1, -1):
                    if w[n : n + k] == lw:
                        step = (rule, w, n, k)
                        break
                if step:
                    break
            if step:
                break
        if step is None:
            return f
        rule, w, n, k = step
        f = f - rule.sandwich(w[:n], w[n + k :]).scale(f.coeff(w))


@dataclass
class BuchbergerResult:
    rules: RuleSet
    converged: bool


def buchberger(R: RuleSet, degree_cap: int, iteration_cap: int) -> BuchbergerResult:
    """Classical completion: adjoin reduced S-polynomials until none survive.

    Residues whose leading word would exceed ``degree_cap`` are skipped.  A
    run converges when a full pass adds none and no residue was ever skipped.
    """
    rules = RuleSet(R.order, list(R.rules))
    converged = skipped = False
    for _ in range(iteration_cap):
        added = False
        for amb in ambiguities(rules):
            sp = ambiguity_s_polynomial(amb, rules.order)
            residue = naive_reduce(rules, sp)
            if residue.is_zero():
                continue
            residue = residue.monic(rules.order)
            if len(residue.leading(rules.order)[0]) > degree_cap:
                skipped = True
                continue
            rules.rules.append(residue)
            added = True
        if not added:
            converged = not skipped
            break
    return BuchbergerResult(rules=rules, converged=converged)


def leading_word_witnesses(
    R1: RuleSet, R2: RuleSet, d: int
) -> tuple[list[Word], list[Word]]:
    """For each side, its distinct leading words of length <= d that no
    leading word of the other side divides (occurs in as a factor), by
    increasing order.

    Both lists are empty exactly when the two sides reduce the same words
    of length <= d: a word of length <= d is reducible when it holds a
    leading word of length <= d, so the sets of reducible words differ only
    if one such leading word is not reducible by the other side.  The words
    listed are then the leading words among the symmetric difference.  The
    cost is polynomial in d and the number of rules; no word is enumerated.
    """

    def unreduced(R: RuleSet, other: RuleSet) -> list[Word]:
        divisors = set(other.leading_words())
        words = {
            u
            for u in R.leading_words()
            if len(u) <= d
            and not any(
                u[i:j] in divisors for i in range(len(u) + 1) for j in range(i, len(u) + 1)
            )
        }
        return sorted(words, key=R.order.key)

    return unreduced(R1, R2), unreduced(R2, R1)
