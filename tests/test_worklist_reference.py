"""Differential test: the stack closure of ``normalisation`` against the
rescan-everything loop of its first implementation.

The reference loop below recomputes the reducible words of the whole
worklist after every expansion and picks the greatest one, so it adds the
expansions by decreasing key, the order ``normalisation`` sorts them into
after its stack has visited every word.  It is kept here, with its own
copy of the leftmost-longest matcher, so the comparison stays against the
original selection rule.
"""

import random

from ncgb.completion import CompletionLimits, complete, normalisation
from ncgb.linalg import Polynomial
from ncgb.reduction import single_rule

from conftest import random_presentation


def reference_factor(w, keys, max_len):
    for i in range(len(w)):
        for k in range(min(max_len, len(w) - i), 0, -1):
            if w[i : i + k] in keys:
                return i, w[i : i + k]
    return None


def reference_normalisation(seeds, U):
    order = U.order
    family = []
    worklist = set()
    lead_words = set()
    for f in seeds:
        op = single_rule(f, order)
        if op not in family:
            family.append(op)
        worklist |= f.support()
        lead_words.add(f.leading(order)[0])
    worklist -= lead_words
    keys = set(U.rules)
    max_len = max((len(k) for k in keys), default=0)
    while True:
        eligible = [
            (w, hit)
            for w in worklist
            if (hit := reference_factor(w, keys, max_len)) is not None
        ]
        if not eligible:
            return family
        w, (i, key) = max(eligible, key=lambda item: order.key(item[0]))
        prefix, suffix = w[:i], w[i + len(key) :]
        image = U.rules[key]
        vector = (Polynomial.monomial(key) - image).sandwich(prefix, suffix)
        if vector:
            op = single_rule(vector, order)
            if op not in family:
                family.append(op)
        worklist.discard(w)
        worklist |= image.sandwich(prefix, suffix).support()


def test_normalisation_matches_reference_on_every_step():
    # 68 steps over 40 random presentations; in one of them a seed's leading
    # word reappears in an image and is expanded.
    rng = random.Random(3)
    steps = 0
    for _ in range(40):
        for step in complete(random_presentation(rng), CompletionLimits(6, 5)).steps:
            seeds = list(step.spol_seeds)
            expected = reference_normalisation(seeds, step.operator_before)
            assert list(step.normalised_family) == expected
            assert normalisation(seeds, step.operator_before) == expected
            order = step.operator_before.order
            rules = [single_rule(f, order) for f in seeds]
            assert normalisation(rules, step.operator_before) == expected
            steps += 1
    assert steps == 68
