"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (ROOT / "src", ROOT / "tests", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import ncgb  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402


def small_corpus(n: int = 10) -> workloads.Workload:
    """The first presentations of the corpus pool; the heavy one is index 11."""
    wl = workloads.setup_corpus(workloads.load_expected())
    wl.inputs, wl.expected = wl.inputs[:n], wl.expected[:n]
    return wl


def small_normal_form(n: int = 20) -> workloads.Workload:
    wl = workloads.setup_normal_form(workloads.load_expected())
    wl.inputs, wl.expected = wl.inputs[:n], wl.expected[:n]
    return wl


def test_generator_draws_like_the_test_suite():
    conftest = pytest.importorskip("conftest")
    for seed in (1, 2, 7):
        ours, theirs = random.Random(seed), random.Random(seed)
        for _ in range(30):
            assert workloads.random_presentation(ours) == conftest.random_presentation(theirs)


def _attributes():
    owners = [ncgb, *tracing.LAYERS.values(), ncgb.ReductionOperator, ncgb.Polynomial]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def test_uninstall_restores_every_wrapped_attribute():
    before = _attributes()
    tr = tracing.Tracer().install()
    try:
        assert ncgb.complete is not before[(id(ncgb), "complete")]
        tr.op(ncgb.complete, ncgb.parse_presentation(workloads.BRAIDED_TEXT))
    finally:
        tr.uninstall()
    after = _attributes()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []


def test_self_times_are_nonnegative_and_sum_to_traced_wall():
    B = workloads.load_bases()[0]
    f = workloads.random_query(random.Random(3), len(B.alphabet))
    tr = tracing.Tracer().install()
    try:
        for P in workloads.corpus_inputs()[:8]:
            tr.op(ncgb.complete, P, workloads.CORPUS_LIMITS)
        tr.op(ncgb.normal_form, B, f)
    finally:
        tr.uninstall()
    selfs = tr.self_times()
    assert len(selfs) > 100
    assert min(selfs) >= -1e-9
    wall = tr.root_wall()
    assert sum(selfs) == pytest.approx(wall, rel=1e-9, abs=1e-9)
    summary = tr.summary()
    assert summary["keys"]["completion.complete"]["calls"] == 8
    assert summary["keys"]["presentation.normal_form"]["calls"] == 1
    assert sum(row["self_s"] for row in summary["layers"].values()) == pytest.approx(wall)


def _mutate(f: ncgb.Polynomial) -> ncgb.Polynomial:
    """The same polynomial with one coefficient changed."""
    w = next(iter(f.support()), ())
    return f + ncgb.Polynomial.monomial(w, Fraction(1, 7))


@pytest.mark.parametrize("target", [0, 5])
def test_changed_coefficient_counts_as_failed(target):
    wl = small_normal_form()
    bad = wl.inputs[target]
    honest = wl.op

    def op(inp):
        g = honest(inp)
        return _mutate(g) if inp is bad else g

    with SpeedProbe() as probe:
        loop = run.Loop(wl, run.Verifier(wl, workloads.digest), op, probe)
        order = list(range(len(wl.inputs)))
        loop.run_pass(order)
        loop.run_pass(order)
    metrics, extra = run.end_to_end_metrics(loop, 0.1, 0.1)
    assert loop.failed == 2
    assert extra["failed_ops_frac"] == pytest.approx(2 / (2 * len(wl.inputs)))
    assert metrics["throughput_ops_s"] > 0


def test_changed_completion_rule_counts_as_failed():
    wl = small_corpus(4)
    honest = wl.op

    def op(P):
        result = honest(P)
        if P is not wl.inputs[0]:
            return result
        rules = dict(result.completed.operator.rules)
        w = max(rules, key=P.order.key)
        rules[w] = _mutate(rules[w])
        op_ = ncgb.ReductionOperator(P.order, rules)
        completed = ncgb.Presentation(P.alphabet, P.order, op_)
        return ncgb.CompletionResult(completed, result.steps, result.status)

    loop = run.Loop(wl, run.Verifier(wl, workloads.digest), op, SpeedProbe())
    loop.run_pass(list(range(len(wl.inputs))))
    assert loop.failed == 1


def test_every_declared_per_layer_metric_is_produced():
    manifest = run.load_manifest()
    wl = small_corpus()
    tr = tracing.Tracer().install()
    try:
        setup_summary = tr.summary()
        outputs = run.OutputCounts(ncgb)
        verify = run.Verifier(wl, workloads.digest)
        loop = run.Loop(wl, verify, lambda P: tr.op(wl.op, P), SpeedProbe(), outputs)
        loop.run_pass(list(range(len(wl.inputs))))
        metrics = run.per_layer_metrics(tr, tr.summary(), setup_summary, outputs, 1, 0.0)
    finally:
        tr.uninstall()
    assert loop.failed == 0
    declared = [m["name"] for m in manifest["per_layer"]]
    assert [name for name in declared if name not in metrics] == []
    assert metrics["completion.normalisation.calls"] > 0
    assert metrics["presentation.critical_branchings.found"] > 0
    assert metrics["presentation.normal_form.calls"] == 0


def test_tail_latency_needs_ten_operations_of_a_pass_beyond():
    assert run.tail_latency([float(i) for i in range(1, 5)], 1) == ("max", 4.0)
    name, value = run.tail_latency([float(i) for i in range(1, 201)], 200)
    assert name == "p95" and value == 190.0
    two_passes = [float(i) for i in range(1, 201)] * 2
    assert run.tail_latency(two_passes, 200) == ("p95", 190.0)


def test_compare_verdicts():
    parent = [100.0 + i for i in range(10)]
    assert compare.verdict(parent, [x * 1.5 for x in parent], "higher", 0.1)[0] == "better"
    assert compare.verdict(parent, [x * 0.5 for x in parent], "higher", 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), "higher", 0.1)[0] == "same"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


def test_manifest_matches_contract():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.SETUPS)
    assert all(len(w["why"]) <= 200 for w in manifest["workloads"])
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(m["bound"] <= 0.25 for m in e2e.values())
