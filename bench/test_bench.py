"""Tests of the benchmark's gate and tracer.

Run from the root of a checkout: ``python3 -m pytest -q bench/test_bench.py``.
They run real passes of the ``oracle-cyclo`` workload (a few seconds each).
"""

from __future__ import annotations

import copy
import json

import pytest

import run
import workloads
from tracer import self_times

WORKLOAD = "oracle-cyclo"
OPS = workloads.operations(WORKLOAD, 0)


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


@pytest.fixture(scope="module")
def reports(reference):
    return run.run_pass(WORKLOAD, OPS, reference, traced=False)["ops"]


@pytest.fixture(scope="module")
def traced_passes(reference):
    return [run.run_pass(WORKLOAD, OPS, reference, traced=True) for _ in range(2)]


def _failed(reports, reference) -> int:
    return sum(1 for r in reports if run.judge(r, reference["ops"][r["op"]]))


def test_reference_outputs_pass_the_gate(reports, reference):
    assert _failed(reports, reference) == 0


@pytest.mark.parametrize("op", [op.id for op in OPS])
@pytest.mark.parametrize("field, bad", [("sha256", "0" * 64), ("exit_code", 1)])
def test_corrupted_reference_fails_that_operation(reports, reference, op, field, bad):
    corrupted = copy.deepcopy(reference)
    corrupted["ops"][op][field] = bad
    failed = {r["op"] for r in reports if run.judge(r, corrupted["ops"][r["op"]])}
    assert failed == {op}
    assert len(failed) / len(reports) > _failed(reports, reference) / len(reports)


def test_raised_operation_fails_without_digest_check(reference):
    report = {"exception": "RecursionError in qseries._bounded_separated",
              "exit_code": 1, "sha256": "", "problems": []}
    reasons = run.judge(report, {"exit_code": 0, "sha256": "ab" * 32})
    assert reasons == ["raised RecursionError in qseries._bounded_separated",
                       "exit code 1 != 0"]


def test_failed_independent_check_fails_operation():
    argv = OPS[0].argv
    text = json.dumps({"ok": True, "checks": [{"name": "oracle", "detail": {
        "cells": [{"dimension": 2, "coefficient": 3, "monomials": 2,
                   "relations": 0, "rank": 0}],
        "empty_cells": 0}}]})
    problems, _ = workloads.check_output(argv, text)
    assert problems == ["oracle: 1 cells with dimension != coefficient"]


def test_self_times_account_for_verdict(reports, traced_passes):
    untraced = sum(run.scaled_verdict(r) for r in reports)
    traced = traced_passes[0]
    overhead = traced["verdict_s"] - untraced  # trace.overhead_s
    total_self = sum(sum(self_times(r["spans"]).values())
                     * run.scaled_verdict(r) / r["verdict_s"] for r in traced["ops"])
    assert abs(total_self - untraced) <= abs(overhead) + 1e-3
    assert 0.99 * traced["verdict_s"] <= total_self <= traced["verdict_s"]


def test_traced_counts_repeat_exactly(traced_passes):
    first, second = (run.layer_metrics(p) for p in traced_passes)
    for name in run.PER_LAYER_UNITS:
        if name.endswith(("_calls", "_cells", "_nonzeros", "_rows", "_cols")):
            assert first[name] == second[name], name
    assert first["cyclotomic.scalar_mul_calls"] > 0
    assert first["cyclotomic.rank_calls"] > 0


def test_traced_operation_passes_gate_and_records_layer_spans(reference):
    report = run.run_operation(OPS[0], WORKLOAD, traced=True)
    assert run.judge(report, reference["ops"][OPS[0].id]) == []
    assert {s[2] for s in report["spans"]} >= {
        "cli.main", "quotient.compare_with_character", "cyclotomic.rank",
        "quotient.enumerate_monomials", "qseries.character"}


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
