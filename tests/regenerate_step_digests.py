"""Regenerate ``tests/step_digests.json``, the per-completion step digests.

    python tests/regenerate_step_digests.py            # list the digests that differ
    python tests/regenerate_step_digests.py --write    # rewrite the file

Each digest covers one completion: the ``--trace`` text that
``cli._write_trace`` writes (every step's branchings with their old
markers, seeds, family kernels, complement and operator after), then the
serialized result and its status.  The completions are the benchmark's
``corpus`` inputs (60 draws of ``Random(1)`` and the braided example), 300
draws of ``Random(307)``, all under ``CompletionLimits(12, 6)``, and the
heavy case under ``CompletionLimits(10, 5)``.  The digests pin the default
strategy's outputs; rewrite the file only when a change is meant to alter
them, and say which digests changed and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from conftest import BRAIDED_TEXT, HEAVY_STEP_TEXT, random_presentation  # noqa: E402

from ncgb.cli import _write_trace  # noqa: E402
from ncgb.completion import CompletionLimits, complete  # noqa: E402
from ncgb.fileformat import parse_presentation, serialize_presentation  # noqa: E402

DIGESTS_PATH = HERE / "step_digests.json"


def step_cases():
    """(name, presentation, limits) of every pinned completion, in file order."""
    limits = CompletionLimits(12, 6)
    rng = random.Random(1)
    for i in range(60):
        yield f"corpus-{i:02d}", random_presentation(rng), limits
    yield "braided", parse_presentation(BRAIDED_TEXT), limits
    rng = random.Random(307)
    for i in range(300):
        yield f"random307-{i:03d}", random_presentation(rng), limits
    yield "heavy", parse_presentation(HEAVY_STEP_TEXT), CompletionLimits(10, 5)


def step_digest(P, limits, trace_path: Path) -> str:
    """16 hex digits of SHA-256 over the trace, the result and its status."""
    result = complete(P, limits)
    _write_trace(str(trace_path), P, result)
    text = (
        trace_path.read_text(encoding="utf-8")
        + serialize_presentation(result.completed)
        + f"status: {result.status}\n"
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def all_digests(directory: Path) -> dict[str, str]:
    trace_path = directory / "trace.txt"
    return {name: step_digest(P, limits, trace_path) for name, P, limits in step_cases()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="rewrite step_digests.json")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as directory:
        digests = all_digests(Path(directory))
    if args.write:
        DIGESTS_PATH.write_text(json.dumps(digests, indent=0) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {DIGESTS_PATH.name}")
        return 0
    committed = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    changed = [k for k in {**committed, **digests} if digests.get(k) != committed.get(k)]
    print(f"{len(digests)} digests, {len(changed)} differ from {DIGESTS_PATH.name}")
    for name in changed:
        print(f"  {name}")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
