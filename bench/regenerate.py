"""Regenerate the benchmark's committed expected outputs.

    python3 bench/regenerate.py            # rewrite bench/expected.json
    python3 bench/regenerate.py --bases    # also rewrite bench/bases/*.ncgb

``expected.json`` holds one digest of the canonical output per input of
each workload's pool.  Run this only when a change is meant to alter those
outputs, and say so in the change.  Every output must first pass its
workload's independent check (the Diamond-Lemma test, the oracle), or
nothing is written.

The ``normal-form`` bases are the converged ``corpus`` results with at least
four rules; the braided example is one of them.  Results with the rule
``1 -> 0`` are left out: the presentation parser refuses the empty word as
a left-hand side, so they cannot be committed as files (and every normal
form against them is 0).  The bases are inputs, so they are rewritten only
with ``--bases``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ncgb  # noqa: E402
import workloads  # noqa: E402

MIN_BASIS_RULES = 4


def write_bases() -> None:
    pool = workloads.corpus_inputs()
    for old in workloads.BASES_DIR.glob("*.ncgb"):
        old.unlink()
    workloads.BASES_DIR.mkdir(exist_ok=True)
    for i, P in enumerate(pool):
        result = workloads.complete_op(P)
        rules = result.completed.operator.rules
        if result.status != "converged" or len(rules) < MIN_BASIS_RULES or () in rules:
            continue
        name = "braided" if i == len(pool) - 1 else f"corpus-{i:02d}"
        (workloads.BASES_DIR / f"{name}.ncgb").write_text(
            f"# converged completion of corpus presentation {i}\n"
            + ncgb.serialize_presentation(result.completed),
            encoding="utf-8",
        )


def digests(wl) -> list[str]:
    out = []
    for i, inp in enumerate(wl.inputs):
        result = wl.op(inp)
        if wl.check is not None and not wl.check(inp, result):
            raise SystemExit(f"{wl.name}: input {i} fails its independent check")
        out.append(workloads.digest(wl.canonical(inp, result)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bases", action="store_true", help="also rewrite bench/bases")
    args = parser.parse_args(argv)
    if args.bases:
        write_bases()
    empty = {name: [] for name in workloads.SETUPS}
    expected = {name: digests(setup(empty)) for name, setup in workloads.SETUPS.items()}
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=0) + "\n", encoding="utf-8")
    for name, values in expected.items():
        print(f"{name}: {len(values)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
