"""The benchmark's workloads: input pools, the timed operation and its checks.

Each workload is a fixed pool of inputs built at set-up from a fixed pool
seed, with one committed digest of the canonical output per input
(``expected.json``).  The ``--seed`` of a run orders the pool for every
pass; it does not choose the inputs.  Fixing the pool is what lets every
output be checked against a committed digest, and it keeps the work of a
run independent of the seed, which matters because one heavy presentation
of the corpus takes most of its time.

Every name the operation uses is looked up on the ``ncgb`` package at call
time, so the tracer in ``tracer.py`` sees the call.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import ncgb
from ncgb import oracle
from ncgb.fileformat import format_polynomial

HERE = Path(__file__).resolve().parent
BASES_DIR = HERE / "bases"
EXPECTED_PATH = HERE / "expected.json"

POOL_SEED = 1
CORPUS_SIZE = 60
CORPUS_LIMITS = ncgb.CompletionLimits(12, 6)
QUERIES = 1000

BRAIDED_TEXT = """\
alphabet: x y z
order: deglex
rules:
y.z -> x
z.x -> x.y
"""

REPLAY_TEXT = """\
alphabet: w x y
order: deglex
rules:
w.x -> y + w
x.w -> -2*w.w + 3/2*y - 1/2*w
"""
REPLAY_LIMITS = ncgb.CompletionLimits(3, 12)


@dataclass
class Workload:
    """A pool of inputs, the operation timed on each, and how to check it.

    ``expected[i]`` is the committed digest of ``canonical(inputs[i], output)``;
    ``check`` is an extra independent test of an output (or ``None``).
    """

    name: str
    inputs: list[Any]
    op: Callable[[Any], Any]
    canonical: Callable[[Any, Any], str]
    expected: list[str]
    check: Callable[[Any, Any], bool] | None = None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected() -> dict[str, list[str]]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


# --- corpus --------------------------------------------------------------


def random_presentation(rng: random.Random) -> ncgb.Presentation:
    """Small random presentation, drawing from ``rng`` exactly as the test
    suite's ``random_presentation`` fixture helper does, so a seed names the
    same presentation in both."""
    letters = rng.randint(2, 3)
    alphabet = ncgb.Alphabet(tuple("xyz"[:letters]))
    order = ncgb.DegLexOrder(alphabet)
    words = [
        w
        for n in range(1, 4)
        for w in itertools.product(range(letters), repeat=n)
    ]
    vectors = []
    for _ in range(rng.randint(1, 3)):
        key = rng.choice([w for w in words if len(w) >= 2])
        smaller = [w for w in words + [()] if order.key(w) < order.key(key)]
        image = {}
        for w in rng.sample(smaller, rng.randint(0, min(2, len(smaller)))):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            if c:
                image[w] = c
        vectors.append(ncgb.Polynomial.monomial(key) - ncgb.Polynomial(image))
    return ncgb.Presentation(alphabet, order, ncgb.ker_inv(vectors, order))


def corpus_inputs() -> list[ncgb.Presentation]:
    rng = random.Random(POOL_SEED)
    pool = [random_presentation(rng) for _ in range(CORPUS_SIZE)]
    return pool + [ncgb.parse_presentation(BRAIDED_TEXT)]


def complete_op(P: ncgb.Presentation) -> ncgb.CompletionResult:
    return ncgb.complete(P, CORPUS_LIMITS)


def completion_text(P: ncgb.Presentation, result: ncgb.CompletionResult) -> str:
    return (
        ncgb.serialize_presentation(result.completed)
        + f"status: {result.status}\nsteps: {len(result.steps)}\n"
    )


def diamond_check(P: ncgb.Presentation, result: ncgb.CompletionResult) -> bool:
    """A converged result must pass the Diamond-Lemma confluence test."""
    return result.status != "converged" or ncgb.is_confluent_presentation(
        result.completed
    )


def setup_corpus(expected: dict[str, list[str]]) -> Workload:
    return Workload(
        "corpus",
        corpus_inputs(),
        complete_op,
        completion_text,
        expected["corpus"],
        diamond_check,
    )


# --- normalise-replay ----------------------------------------------------


def replay_input() -> tuple[list[ncgb.Polynomial], ncgb.ReductionOperator]:
    """The seeds and operator that step 3 of completing the replay
    presentation passes to ``normalisation``: both one-step legs of every
    new critical branching, deduplicated in branching order."""
    P = ncgb.parse_presentation(REPLAY_TEXT)
    result = ncgb.complete(P, REPLAY_LIMITS)
    U = result.completed.operator
    current = ncgb.Presentation(P.alphabet, P.order, U)
    previous = set(result.steps[-1].branchings)
    seeds: list[ncgb.Polynomial] = []
    for b in ncgb.critical_branchings(current):
        if b in previous:
            continue
        for n, m in (b.left, b.right):
            leg = ncgb.Polynomial.monomial(b.source) - ncgb.extension_apply(
                current, n, m, b.source
            )
            if leg and leg not in seeds:
                seeds.append(leg)
    return seeds, U


def normalisation_op(inp):
    seeds, U = inp
    return ncgb.normalisation(seeds, U)


def family_text(inp, family) -> str:
    alphabet = inp[1].order.alphabet
    order = inp[1].order
    return "".join(
        format_polynomial(v, alphabet, order) + "\n"
        for T in family
        for v in T.kernel_basis()
    )


def setup_replay(expected: dict[str, list[str]]) -> Workload:
    return Workload(
        "normalise-replay",
        [replay_input()],
        normalisation_op,
        family_text,
        expected["normalise-replay"],
    )


# --- normal-form ---------------------------------------------------------


def load_bases() -> list[ncgb.Presentation]:
    return [
        ncgb.parse_presentation(path.read_text(encoding="utf-8"))
        for path in sorted(BASES_DIR.glob("*.ncgb"))
    ]


def random_query(rng: random.Random, letters: int) -> ncgb.Polynomial:
    """1 to 4 terms, words of length 9 to 12, small nonzero rationals."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randrange(letters) for _ in range(rng.randint(9, 12)))
        terms[w] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
    return ncgb.Polynomial(terms)


def normal_form_inputs(bases: list[ncgb.Presentation]):
    rng = random.Random(POOL_SEED)
    out = []
    for k in range(QUERIES):
        B = bases[k % len(bases)]
        out.append((B, random_query(rng, len(B.alphabet))))
    return out


def normal_form_op(inp) -> ncgb.Polynomial:
    B, f = inp
    return ncgb.normal_form(B, f)


def normal_form_text(inp, g) -> str:
    B, _ = inp
    return format_polynomial(g, B.alphabet, B.order)


class OracleCheck:
    """Cross-check against ``oracle.naive_reduce``: a converged basis gives
    unique normal forms, so the independent rewriter must agree exactly."""

    def __init__(self) -> None:
        self._rules: dict[int, oracle.RuleSet] = {}

    def __call__(self, inp, g) -> bool:
        B, f = inp
        R = self._rules.get(id(B))
        if R is None:
            R = oracle.RuleSet.from_polynomials(ncgb.groebner_rules(B), B.order)
            self._rules[id(B)] = R
        return oracle.naive_reduce(R, f) == g


def setup_normal_form(expected: dict[str, list[str]]) -> Workload:
    return Workload(
        "normal-form",
        normal_form_inputs(load_bases()),
        normal_form_op,
        normal_form_text,
        expected["normal-form"],
        OracleCheck(),
    )


SETUPS = {
    "corpus": setup_corpus,
    "normalise-replay": setup_replay,
    "normal-form": setup_normal_form,
}
