"""Command-line entry points.

Exit codes: 0 for success (or a confluent/agreeing result), 1 for a
negative result (not confluent, capped completion, oracle disagreement),
2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fileformat, oracle
from .completion import CONVERGED, CompletionLimits, CompletionResult, complete
from .fileformat import (
    format_polynomial,
    format_rules,
    format_word,
    parse_polynomial,
    parse_presentation,
    serialize_presentation,
)
from .presentation import (
    Presentation,
    critical_branchings,
    groebner_rules,
    normal_form,
    s_polynomial,
)


def _load(path: str) -> Presentation:
    # utf-8-sig drops a leading byte-order mark, as some editors write one.
    text = Path(path).read_text(encoding="utf-8-sig")
    return parse_presentation(text)


def _fmt_poly(P: Presentation, f) -> str:
    return format_polynomial(f, P.alphabet, P.order)


def _fmt_branching(P: Presentation, b) -> str:
    return f"({format_word(b.source, P.alphabet)}, {b.left}, {b.right})"


def _write_trace(path: str, P: Presentation, result: CompletionResult) -> None:
    lines = []
    for step in result.steps:
        lines.append(f"step {step.index}")
        lines.append("  branchings:")
        old = set(step.old_branchings)
        for b in step.branchings:
            marker = " (old)" if b in old else ""
            lines.append(f"    {_fmt_branching(P, b)}{marker}")
        lines.append("  seeds:")
        lines.extend(f"    {_fmt_poly(P, f)}" for f in step.spol_seeds)
        lines.append("  normalised family kernels:")
        for T in step.normalised_family:
            lines.extend(f"    {_fmt_poly(P, v)}" for v in T.kernel_basis())
        for title, op in (
            ("complement rules", step.complement_op),
            ("operator after", step.operator_after),
        ):
            lines.append(f"  {title}:")
            rules = format_rules(op, P.alphabet) or ["(identity)"]
            lines.extend(f"    {r}" for r in rules)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cmd_complete(args) -> int:
    P = _load(args.file)
    limits = CompletionLimits(
        max_iterations=args.max_iter, max_rule_degree=args.max_deg
    )
    result = complete(P, limits)
    # The trace first: a path that cannot be written exits 2 with no output.
    if args.trace:
        _write_trace(args.trace, P, result)
    sys.stdout.write(serialize_presentation(result.completed))
    print(f"status: {result.status}")
    print(f"iterations: {len(result.steps)}")
    print(f"branchings: {len(critical_branchings(result.completed))}")
    return 0 if result.status == CONVERGED else 1


def _cmd_check(args) -> int:
    P = _load(args.file)
    confluent = True
    for b in critical_branchings(P):
        sp = s_polynomial(P, b)
        nf = normal_form(P, sp)
        status = "solvable" if nf.is_zero() else "UNSOLVABLE"
        print(
            f"branching {_fmt_branching(P, b)}: "
            f"SP = {_fmt_poly(P, sp)}, normal form = {_fmt_poly(P, nf)} [{status}]"
        )
        if not nf.is_zero():
            confluent = False
    print("confluent" if confluent else "not confluent")
    return 0 if confluent else 1


def _cmd_reduce(args) -> int:
    P = _load(args.file)
    try:
        f = parse_polynomial(args.polynomial, P.alphabet)
    except fileformat.ParseError as exc:
        raise ValueError(f"polynomial argument {args.polynomial!r}: {exc}") from None
    print(_fmt_poly(P, normal_form(P, f)))
    return 0


def _cmd_branchings(args) -> int:
    P = _load(args.file)
    for b in critical_branchings(P):
        sp = s_polynomial(P, b)
        print(f"{_fmt_branching(P, b)}: SP = {_fmt_poly(P, sp)}")
    return 0


def _cmd_oracle(args) -> int:
    P = _load(args.file)
    limits = CompletionLimits(max_rule_degree=args.max_deg)
    lattice = complete(P, limits)
    ruleset = oracle.RuleSet.from_polynomials(groebner_rules(P), P.order)
    naive = oracle.buchberger(ruleset, degree_cap=args.max_deg, iteration_cap=64)
    if lattice.status != CONVERGED and not naive.converged:
        print("INCONCLUSIVE: both engines hit their caps")
        return 1
    lattice_rules = oracle.RuleSet.from_polynomials(
        groebner_rules(lattice.completed), P.order
    )
    lattice_only, oracle_only = oracle.leading_word_witnesses(
        lattice_rules, naive.rules, args.max_deg
    )
    if not lattice_only and not oracle_only:
        print("AGREE")
        return 0
    witnesses = [(w, "lattice only") for w in lattice_only]
    witnesses += [(w, "oracle only") for w in oracle_only]
    print("DISAGREE")
    for w, side in sorted(witnesses, key=lambda item: P.order.key(item[0])):
        print(f"  {format_word(w, P.alphabet)} ({side})")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgb",
        description="Noncommutative Groebner bases via the reduction-operator lattice.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete", help="complete a presentation")
    p.add_argument("file")
    p.add_argument("--max-iter", type=int, default=CompletionLimits.max_iterations)
    p.add_argument("--max-deg", type=int, default=CompletionLimits.max_rule_degree)
    p.add_argument("--trace", default=None, help="write a per-step trace report")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("check", help="test confluence via the Diamond Lemma")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("reduce", help="normal form of a polynomial")
    p.add_argument("file")
    p.add_argument("polynomial")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("branchings", help="list critical branchings")
    p.add_argument("file")
    p.set_defaults(func=_cmd_branchings)

    p = sub.add_parser("oracle", help="cross-check against naive completion")
    p.add_argument("file")
    p.add_argument("--max-deg", type=int, default=6)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        # ValueError covers parse errors and limits that are not positive.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
