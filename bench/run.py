"""Run the ncgb benchmark.

    python3 bench/run.py                      # every workload, untraced then traced
    python3 bench/run.py --workload corpus --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload normal-form --trace 1 --out bench/results/runs.jsonl

A run is one process, one thread and a closed loop: each operation starts
when the previous one has returned.  It sets up the workload's input pool
several times and reports the median, then runs whole passes over the pool,
in an order drawn from ``--seed``, until the timed operations add up to
``--seconds``.  Every output is checked, untimed, against its committed
digest and the workload's independent check.  Times are scaled to a
reference speed of the machine (see ``speed.py``); the raw figures are in
the run's metadata.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported; with ``--trace 1`` its per-layer metrics, from a traced run of the
same loop followed by an untraced replay of the same passes, whose
difference is the tracing overhead.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--out FILE`` also appends the run's full record, with its
metadata, as one JSON line; ``bench/compare.py`` compares two such files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from pathlib import Path

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"

# Set-up is repeated at least this often, and for at least this long.
SETUP_REPS = 5
SETUP_MIN_S = 0.5
SETUP_MAX_REPS = 200

# Percentiles offered for the tail.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)

ABSENT = {
    "wait_s": "closed loop, single thread: nothing queues",
    "retries": "no operation is retried",
}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def import_library():
    """Import the checkout's ``ncgb`` and the benchmark modules; returns the
    time it took and the ``workloads`` module."""
    sys.path.insert(0, str(SRC))
    t = time.perf_counter()
    import ncgb
    import workloads

    elapsed = time.perf_counter() - t
    if Path(ncgb.__file__).resolve().parent != SRC / "ncgb":
        raise ImportError(f"ncgb imported from {ncgb.__file__}, not from {SRC}")
    return elapsed, workloads


def src_lines() -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((SRC / "ncgb").glob("*.py"))
    )


# --- the loop ------------------------------------------------------------


class Verifier:
    """Checks outputs untimed.  An output whose canonical text equals one
    already verified for the same input needs no second check."""

    def __init__(self, wl, digest) -> None:
        self.wl = wl
        self.digest = digest
        self.verified: dict[int, str] = {}

    def __call__(self, i: int, out) -> bool:
        inp = self.wl.inputs[i]
        text = self.wl.canonical(inp, out)
        if self.verified.get(i) == text:
            return True
        ok = (
            i < len(self.wl.expected)
            and self.digest(text) == self.wl.expected[i]
            and (self.wl.check is None or self.wl.check(inp, out))
        )
        if ok:
            self.verified[i] = text
        return ok


class Loop:
    """Operations run so far: their start and end on the wall clock, and
    their raw time, which is the wall time less the speed kernel's time
    within it."""

    def __init__(self, wl, verify, call, probe: SpeedProbe, observe=None) -> None:
        self.wl = wl
        self.verify = verify
        self.call = call
        self.probe = probe
        self.observe = observe
        self.start, self.end, self.raw = array("d"), array("d"), array("d")
        self.elapsed = 0.0
        self.failed = 0
        self.orders: list[list[int]] = []

    def run_pass(self, order: list[int]) -> None:
        for i in order:
            # Read the kernel's total inside the interval at both ends, so a
            # sample that lands between the reads is never subtracted wrongly.
            start = time.perf_counter()
            stolen = self.probe.stolen
            try:
                out = self.call(self.wl.inputs[i])
            except Exception:  # an operation that raises counts as failed
                out = None
                traceback.print_exc()
            stolen = self.probe.stolen - stolen
            end = time.perf_counter()
            raw = end - start - stolen
            self.start.append(start)
            self.end.append(end)
            self.raw.append(raw)
            self.elapsed += raw
            if out is None or not self.verify(i, out):
                self.failed += 1
            elif self.observe is not None:
                self.observe(out)
            out = None  # free the output here, not inside the next timed call
        self.orders.append(order)

    def scaled(self) -> list[float]:
        return self.probe.scale(self.start, self.end, self.raw)

    def run_for(self, rng: random.Random, seconds: float) -> None:
        """Whole passes in seeded order until the timed operations reach ``seconds``."""
        while not self.orders or self.elapsed < seconds:
            order = list(range(len(self.wl.inputs)))
            rng.shuffle(order)
            self.run_pass(order)


def tail_latency(latencies: list[float], pool: int) -> tuple[str, float]:
    """Latency at the highest ladder percentile with at least 10 operations
    of one pass beyond it, or the maximum when no percentile has.  Choosing
    the percentile by the pool, not by the number of passes, keeps it the
    same from run to run."""
    xs = sorted(latencies)
    for q in TAIL_LADDER:
        if pool * (100.0 - q) / 100.0 >= 10:
            return f"p{q:g}", xs[math.ceil(q / 100.0 * len(xs)) - 1]
    return "max", xs[-1]


def timing_metrics(latencies: list[float], failed: int, pool: int) -> dict:
    tail_name, tail = tail_latency(latencies, pool)
    return {
        "throughput_ops_s": (len(latencies) - failed) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "op_tail_percentile": tail_name,
    }


def end_to_end_metrics(loop: Loop, setup_s: float, raw_setup_s: float) -> tuple[dict, dict]:
    pool = len(loop.wl.inputs)
    metrics = timing_metrics(loop.scaled(), loop.failed, pool)
    extra = {
        "op_tail_percentile": metrics.pop("op_tail_percentile"),
        "ops": len(loop.raw),
        "failed_ops_frac": loop.failed / len(loop.raw),
        "speed_factor": loop.probe.factor(loop.start[0], loop.end[-1]),
        "raw": timing_metrics(list(loop.raw), loop.failed, pool),
    }
    extra["raw"]["setup_s"] = raw_setup_s
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, extra


def measure_setup(setup, expected, probe: SpeedProbe) -> tuple[object, float]:
    """The workload and the median time of setting it up."""
    times: list[float] = []
    deadline = time.perf_counter() + SETUP_MIN_S
    while len(times) < SETUP_REPS or (
        time.perf_counter() < deadline and len(times) < SETUP_MAX_REPS
    ):
        t = time.perf_counter()
        stolen = probe.stolen
        wl = setup(expected)
        stolen = probe.stolen - stolen
        times.append(time.perf_counter() - t - stolen)
    return wl, statistics.median(times)


# --- traced run ----------------------------------------------------------


class OutputCounts:
    """Counts read from the outputs themselves, outside any span."""

    def __init__(self, ncgb) -> None:
        self.ncgb = ncgb
        self.c: Counter = Counter()
        self.coeff_bits_max = 0

    def _bits(self, polys) -> None:
        for f in polys:
            for _, c in f.items():
                bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits

    def __call__(self, out) -> None:
        ncgb = self.ncgb
        if isinstance(out, ncgb.CompletionResult):
            self.c["steps"] += len(out.steps)
            self.c["rules_out"] += len(out.completed.operator.rules)
            for step in out.steps:
                self.c["branchings"] += len(step.branchings)
                self.c["new_branchings"] += len(step.branchings) - len(step.old_branchings)
            self._bits(out.completed.operator.rules.values())
        elif isinstance(out, ncgb.Polynomial):
            self._bits([out])
        else:
            for T in out:
                self._bits(T.rules.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(
    tracer, loop_summary, setup_summary, outputs, passes, overhead_s, speed=1.0
):
    """Every per-layer figure the trace yields, per pass of the loop.

    Self times are multiplied by ``speed``, scaled over wall time.  A
    function or module that no longer exists yields no entry.  The set-up
    figure for parsing is per set-up.
    """
    from tracer import HOOKS, LAYERS

    zero = {"calls": 0, "self_s": 0.0}
    m: dict[str, float] = {}
    for key in set(tracer.keys):
        row = loop_summary["keys"].get(key, zero)
        m[f"{key}.self_s"] = row["self_s"] * speed / passes
        m[f"{key}.calls"] = row["calls"] / passes
    for definition in set(tracer.definitions) & set(HOOKS):
        for field in HOOKS[definition][0]:
            m[f"{definition}.{field}"] = tracer.counts[f"{definition}.{field}"] / passes
    for layer in LAYERS:
        row = loop_summary["layers"].get(layer, zero)
        m[f"{layer}.self_s"] = row["self_s"] * speed / passes
        m[f"{layer}.calls"] = row["calls"] / passes
    init = "reduction.ReductionOperator.init"
    if f"{init}.self_s" in m:
        m["reduction.ReductionOperator.init_s"] = m[f"{init}.self_s"]
    if "reduction.complement.rules_out" in m:
        m["reduction.complement.yield"] = _ratio(
            m["reduction.complement.rules_out"], m["reduction.complement.family_in"]
        )
    if "linalg.reduced_basis.rows_in" in m:
        m["linalg.reduced_basis.yield"] = _ratio(
            m["linalg.reduced_basis.rank_out"], m["linalg.reduced_basis.rows_in"]
        )
    if "fileformat.parse_presentation.self_s" in m:
        row = setup_summary["keys"].get("fileformat.parse_presentation", zero)
        m["fileformat.parse_presentation.self_s"] = row["self_s"] * speed
    m["linalg.Polynomial.constructed"] = tracer.constructed / passes
    m["linalg.coeff_bits_max"] = outputs.coeff_bits_max
    m["completion.steps"] = outputs.c["steps"] / passes
    m["completion.rules_out"] = outputs.c["rules_out"] / passes
    m["completion.branchings.new_ratio"] = _ratio(
        outputs.c["new_branchings"], outputs.c["branchings"]
    )
    m["trace.overhead_s"] = overhead_s / passes
    return m


def traced_run(wl_module, setup, expected, seed, seconds, probe):
    """Traced set-up and loop, then an untraced replay of the same passes."""
    import ncgb
    from tracer import Tracer

    tracer = Tracer().install()
    try:
        wl = tracer.op(setup, expected)
        setup_summary = tracer.summary()
        tracer.reset()
        verify = Verifier(wl, wl_module.digest)
        outputs = OutputCounts(ncgb)
        loop = Loop(wl, verify, lambda inp: tracer.op(wl.op, inp), probe, outputs)
        loop.run_for(random.Random(seed), seconds)
        loop_summary = tracer.summary()
    finally:
        tracer.uninstall()

    replay = Loop(wl, verify, wl.op, probe)
    for order in loop.orders:
        replay.run_pass(order)
    traced_s, untraced_s = sum(loop.scaled()), sum(replay.scaled())
    # The kernel interrupts spans in proportion to their length, so one
    # factor turns traced wall time into scaled time for every span.
    speed = traced_s / tracer.root_wall()
    passes = len(loop.orders)
    metrics = per_layer_metrics(
        tracer, loop_summary, setup_summary, outputs, passes, traced_s - untraced_s, speed
    )
    extra = {
        "passes": passes,
        "ops": len(loop.raw) + len(replay.raw),
        "speed_factor": speed,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
    }
    for kind in ("layers", "keys", "sites"):
        extra[kind] = {
            k: {"calls": v["calls"] / passes, "self_s": v["self_s"] * speed / passes}
            for k, v in sorted(loop_summary[kind].items())
        }
    attempted = len(loop.raw) + len(replay.raw)
    return metrics, extra, attempted, loop.failed + replay.failed


# --- one workload --------------------------------------------------------


def run_one(args, manifest) -> int:
    with SpeedProbe() as probe:
        return measure_one(args, manifest, probe)


def measure_one(args, manifest, probe: SpeedProbe) -> int:
    start = time.perf_counter()
    stolen = probe.stolen
    import_s, wl_module = import_library()
    import_s -= probe.stolen - stolen
    setup = wl_module.SETUPS[args.workload]
    expected = wl_module.load_expected()
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "src_ncgb_lines": src_lines(),
        "absent": ABSENT,
    }
    if args.trace:
        values, extra, attempted, failed = traced_run(
            wl_module, setup, expected, args.seed, args.seconds, probe
        )
        declared = manifest["per_layer"]
    else:
        wl, setup_s = measure_setup(setup, expected, probe)
        raw_setup_s = import_s + setup_s
        scaled_setup_s = raw_setup_s * probe.factor(start, time.perf_counter())
        loop = Loop(wl, Verifier(wl, wl_module.digest), wl.op, probe)
        loop.run_for(random.Random(args.seed), args.seconds)
        values, extra = end_to_end_metrics(loop, scaled_setup_s, raw_setup_s)
        extra["passes"] = len(loop.orders)
        attempted, failed = len(loop.raw), loop.failed
        declared = manifest["end_to_end"]
    meta.update({k: v for k, v in extra.items() if k not in ("layers", "keys", "sites")})

    metrics = {}
    for spec in declared:
        if spec["name"] in values:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
            print(f"{args.workload:>17}  {spec['name']:<45} {values[spec['name']]:>14.6g} {spec['unit']}")
        else:
            print(f"{args.workload:>17}  {spec['name']:<45} {'absent':>14}")
    if args.trace:
        for kind, n in (("layers", 3), ("keys", 5)):
            top = sorted(extra[kind].items(), key=lambda kv: -kv[1]["self_s"])[:n]
            for name, row in top:
                print(f"{args.workload:>17}  top {kind[:-1]} self time: {name:<40} {row['self_s']:.4f} s/pass")
    print("meta: " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if args.out:
        record = {"meta": meta, "result": result}
        if args.trace:
            record.update({kind: extra[kind] for kind in ("layers", "keys", "sites")})
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args, manifest) -> int:
    """Each workload in its own process, untraced then traced."""
    modes = (0, 1) if args.trace is None else (args.trace,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in manifest["workloads"]:
        for trace in modes:
            cmd = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", wl["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            if args.out:
                cmd += ["--out", args.out]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{wl['name']}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    manifest = load_manifest()
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="append the run's full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, manifest)
    args.trace = args.trace or 0
    return run_one(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
