"""The twistchar benchmark: CLI workloads timed end to end, traced per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload oracle-rank1 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25          # summary table
    python3 bench/run.py --record-reference                   # reference.json

A run repeats passes over the workload's operations for ``--seconds``.
Every operation runs in its own fresh interpreter (``child.py``), one at a
time: a closed loop with one client, as a user issuing commands would.
Each output is checked against the exit code and SHA-256 digest recorded
in ``reference.json`` and by the independent checks in ``workloads.py``.

``--trace 0`` reports the end-to-end metrics: ``verdict_s`` (one pass's
operations, each timed from calling ``cli.main`` until it returns, scaled
to a reference machine speed as REFERENCE_CHUNK_S explains; the unscaled
wall time is printed as ``wall_s``), ``setup_s`` (import, preset
analysis and field construction, in each of ``SETUP_SAMPLES`` fresh
processes before the passes) and ``peak_rss_mb`` (largest peak resident
memory of a pass's processes).  Each value is a median; the lines before
the result give the quartiles and sample counts.  ``fail_ratio`` is
``failed / attempted``.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones; ``trace.overhead_s`` is the traced
minus the untraced median ``verdict_s``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``correct`` is false when an
operation returned a wrong answer (wrong exit code, digest or independent
check); an operation that raised gave no answer and counts only as failed.
Details, the environment and (when traced) all spans are written to
``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import call_counts, self_times  # noqa: E402

REFERENCE = BENCH / "reference.json"
RESULTS = BENCH / "results"
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 11
# Times are reported in seconds at the machine speed where
# probe.work_chunk() takes REFERENCE_CHUNK_S.  The machine's speed drifts by
# tens of percent within seconds to minutes, so unscaled medians of runs a
# few minutes apart spread by ~20%.  Each child samples the chunk's time
# while its operation runs (probe.SpeedProbe); an operation's time, less
# the probe's own, is multiplied by REFERENCE_CHUNK_S / mean chunk time.
REFERENCE_CHUNK_S = 0.01

END_TO_END_UNITS = {"verdict_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics: name -> unit.  Their values come from ``layer_metrics``.
PER_LAYER_UNITS = {
    "cyclotomic.scalar_mul_calls": "count",
    "cyclotomic.scalar_addsub_calls": "count",
    "cyclotomic.scalar_inverse_calls": "count",
    "cyclotomic.rank_s": "s",
    "cyclotomic.rank_calls": "count",
    "cyclotomic.det_s": "s",
    "cyclotomic.det_calls": "count",
    "cyclotomic.solve_s": "s",
    "cyclotomic.solve_calls": "count",
    "cyclotomic.inverse_s": "s",
    "cyclotomic.matmul_s": "s",
    "cyclotomic.matmul_calls": "count",
    "cyclotomic.elim_max_rows": "count",
    "cyclotomic.elim_max_cols": "count",
    "cyclotomic.elim_cells": "count",
    "cyclotomic.elim_nonzeros": "count",
    "cyclotomic.field_degree": "count",
    "quotient.oracle_self_s": "s",
    "quotient.enumerate_s": "s",
    "quotient.enumerate_calls": "count",
    "quotient.membership_s": "s",
    "quotient.bidegrees": "count",
    "quotient.cells": "count",
    "quotient.monomials": "count",
    "quotient.relation_rows": "count",
    "quotient.useful_row_ratio": "ratio",
    "pascal.build_stacked_s": "s",
    "pascal.build_stacked_calls": "count",
    "pascal.factorization_s": "s",
    "pascal.two_blocks_s": "s",
    "pascal.specs": "count",
    "pascal.max_size": "count",
    "qseries.character_s": "s",
    "qseries.character_calls": "count",
    "qseries.recursion_s": "s",
    "qseries.identity_s": "s",
    "qseries.charges": "count",
    "qseries.coefficients": "count",
    "lattice.analyze_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Per-layer self times: metric -> the span names it sums.
SELF_TIME_SPANS = {
    "cyclotomic.rank_s": ("cyclotomic.rank",),
    "cyclotomic.det_s": ("cyclotomic.det",),
    "cyclotomic.solve_s": ("cyclotomic.solve",),
    "cyclotomic.inverse_s": ("cyclotomic.inverse",),
    "cyclotomic.matmul_s": ("cyclotomic.matmul",),
    "quotient.oracle_self_s": ("quotient.compare_with_character",),
    "quotient.enumerate_s": ("quotient.enumerate_monomials",),
    "quotient.membership_s": ("quotient.new_relations_sweep",
                              "quotient.new_relations_membership"),
    "pascal.build_stacked_s": ("pascal.build_stacked",),
    "pascal.factorization_s": ("pascal.factorization_check",),
    "pascal.two_blocks_s": ("pascal.two_blocks_check",),
    "qseries.character_s": ("qseries.character",),
    "qseries.recursion_s": ("qseries.check_recursion",
                           "qseries.check_coefficient_recursion"),
    "qseries.identity_s": ("qseries.verify_partition_identity",),
    "cli.self_s": ("cli.main",),
}
CALL_SPANS = {
    "cyclotomic.rank_calls": "cyclotomic.rank",
    "cyclotomic.det_calls": "cyclotomic.det",
    "cyclotomic.solve_calls": "cyclotomic.solve",
    "cyclotomic.matmul_calls": "cyclotomic.matmul",
    "quotient.enumerate_calls": "quotient.enumerate_monomials",
    "pascal.build_stacked_calls": "pascal.build_stacked",
    "qseries.character_calls": "qseries.character",
}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- running ---------------------------------------------------------------


def _child(workload: str, argv, traced: bool, label: str) -> dict:
    spec = {
        "argv": argv,
        "presets": workloads.PRESETS[workload],
        "fields": workloads.FIELDS.get(workload, ()),
        "trace": traced,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{label} ran longer than {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{label}: child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_operation(op: workloads.Operation, workload: str, traced: bool) -> dict:
    """Run one operation in a fresh interpreter and return its report."""
    return {**_child(workload, op.argv, traced, op.id), "op": op.id}


def speed(report: dict) -> float:
    """Factor that scales the report's times to the reference speed."""
    return REFERENCE_CHUNK_S / report["chunk_s"]


def scaled_verdict(report: dict) -> float:
    """The operation's time without the probe's, at the reference speed."""
    return (report["verdict_s"] - report["probe_s"]) * speed(report)


def setup_times(workload: str) -> list[float]:
    """Scaled set-up times, alone, in SETUP_SAMPLES fresh interpreters."""
    reports = [_child(workload, None, False, "set-up") for _ in range(SETUP_SAMPLES)]
    return [r["setup_s"] * speed(r) for r in reports]


def judge(report: dict, reference: dict) -> list[str]:
    """Why an operation failed, or an empty list.  ``reference`` is its
    entry in reference.json: expected exit code and output digest."""
    reasons = []
    if report["exception"]:
        reasons.append(f"raised {report['exception']}")
    if report["exit_code"] != reference["exit_code"]:
        reasons.append(f"exit code {report['exit_code']} != {reference['exit_code']}")
    if not report["exception"] and reference["sha256"] not in (None, report["sha256"]):
        reasons.append("output digest differs from reference")
    reasons.extend(report["problems"])
    return reasons


def run_pass(workload: str, ops, reference: dict, traced: bool) -> dict:
    reports = []
    for op in ops:
        report = run_operation(op, workload, traced)
        report["failures"] = judge(report, reference["ops"][op.id])
        reports.append(report)
    return {
        "traced": traced,
        "ops": reports,
        "verdict_s": sum(scaled_verdict(r) for r in reports),
        "wall_s": sum(r["verdict_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 reference: dict) -> list[dict]:
    """Passes for ``seconds``: untraced only, or alternating with traced.

    A pass starts only if a pass of its kind is expected to end in time;
    at least one pass of each kind runs.
    """
    ops = workloads.operations(workload, seed)
    kinds = (False, True) if trace else (False,)
    passes: list[dict] = []
    start = time.perf_counter()
    last = {}
    while True:
        traced = kinds[len(passes) % len(kinds)]
        if len(passes) >= len(kinds):
            if time.perf_counter() - start + last[traced] > seconds:
                break
        t0 = time.perf_counter()
        passes.append(run_pass(workload, ops, reference, traced))
        last[traced] = time.perf_counter() - t0
    return passes


# -- metrics ---------------------------------------------------------------


def summary(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    untraced = [p for p in passes if not p["traced"]]
    return {
        "verdict_s": summary(p["verdict_s"] for p in untraced),
        "wall_s": summary(p["wall_s"] for p in untraced),
        "setup_s": summary(setups),
        "peak_rss_mb": summary(p["peak_rss_mb"] for p in untraced),
    }


def layer_metrics(traced_pass: dict) -> dict:
    """Per-layer metrics of one traced pass, summed over its operations."""
    names_self: dict = {}
    calls: dict = {}
    counts: dict = {}
    maxima: dict = {}
    facts: dict = {}
    analyze_s = []
    for report in traced_pass["ops"]:
        # Self times include the probe's share, spread over the spans it
        # interrupted; scale them as the operation's time is scaled.
        scale = scaled_verdict(report) / report["verdict_s"]
        # Span ids are numbered per process, so each report is its own tree.
        for key, value in self_times(report["spans"]).items():
            names_self[key] = names_self.get(key, 0.0) + value * scale
        for key, value in call_counts(report["spans"]).items():
            calls[key] = calls.get(key, 0) + value
        for key, value in report["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in report["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
        for key, value in report["facts"].items():
            facts[key] = facts.get(key, 0) + value
        setup_self = self_times(report["setup_spans"])
        analyze_s.append(setup_self.get("lattice.analyze", 0.0) * speed(report))
    out = {}
    for metric, names in SELF_TIME_SPANS.items():
        out[metric] = sum(names_self.get(n, 0.0) for n in names)
    for metric, name in CALL_SPANS.items():
        out[metric] = calls.get(name, 0)
    for key in ("cyclotomic.scalar_mul_calls", "cyclotomic.scalar_addsub_calls",
                "cyclotomic.scalar_inverse_calls", "cyclotomic.elim_cells",
                "cyclotomic.elim_nonzeros", "qseries.charges", "qseries.coefficients"):
        out[key] = counts.get(key, 0)
    for key in ("cyclotomic.elim_max_rows", "cyclotomic.elim_max_cols",
                "cyclotomic.field_degree", "pascal.max_size"):
        out[key] = maxima.get(key, 0)
    for key in ("quotient.bidegrees", "quotient.cells", "quotient.monomials",
                "quotient.relation_rows", "pascal.specs"):
        out[key] = facts.get(key, 0)
    rows = facts.get("quotient.relation_rows", 0)
    out["quotient.useful_row_ratio"] = facts.get("quotient.ranks", 0) / rows if rows else 0.0
    out["lattice.analyze_s"] = statistics.median(analyze_s)
    out["cli.output_bytes"] = sum(r["output_bytes"] for r in traced_pass["ops"])
    return out


def per_layer(passes: list[dict]) -> dict:
    traced = [layer_metrics(p) for p in passes if p["traced"]]
    out = {name: summary(m[name] for m in traced) for name in traced[0]}
    traced_verdict = statistics.median(p["verdict_s"] for p in passes if p["traced"])
    verdict = statistics.median(p["verdict_s"] for p in passes if not p["traced"])
    overhead = traced_verdict - verdict
    out["trace.overhead_s"] = summary([overhead])
    return out


# -- environment and output ------------------------------------------------


def commit() -> str:
    """The checkout's commit from ``.git`` if it is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "twistchar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def describe(workload: str, stats: dict, attempted: int, failed: int) -> list[str]:
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS, "wall_s": "s"}
    lines = [f"{workload}:"]
    for name, s in stats.items():
        unit = units[name]
        lines.append(
            f"  {name:<34} {s['median']:>14.6g} {unit:<6} "
            f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}] n={s['n']}"
        )
    lines.append(f"  {'fail_ratio':<34} {failed}/{attempted} operations")
    return lines


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict) -> dict:
    start = time.perf_counter()
    setups = [] if trace else setup_times(workload)
    remaining = seconds - (time.perf_counter() - start)
    passes = run_workload(workload, seed, remaining, trace, reference)
    reports = [r for p in passes for r in p["ops"]]
    failures = [{"op": r["op"], "reasons": r["failures"]} for r in reports if r["failures"]]
    wrong = [r for r in reports if r["failures"] and not r["exception"]]
    stats = per_layer(passes) if trace else end_to_end(passes, setups)
    return {
        "environment": environment(workload, seed),
        "correct": not wrong,
        "attempted": len(reports),
        "failed": len(failures),
        "failures": failures,
        "stats": stats,
        "passes": passes,
    }


def write_results(result: dict, trace: bool) -> Path:
    env = result["environment"]
    RESULTS.mkdir(exist_ok=True)
    stem = f"{env['workload']}-seed{env['seed']}-trace{int(trace)}"
    spans = []
    for index, p in enumerate(result["passes"]):
        for report in p["ops"]:
            spans.append({"pass": index, "op": report["op"],
                          "spans": report.pop("spans", None),
                          "setup_spans": report.pop("setup_spans", None)})
    if trace:
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans))
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1))
    return path


def record_reference() -> None:
    """Run every operation once and write reference.json.  An operation
    that does not exit 0 is recorded as a known defect, with no digest."""
    ops = {}
    for workload, op in workloads.all_operations().values():
        report = run_operation(op, workload, traced=False)
        entry = {"argv": list(op.argv), "exit_code": 0, "sha256": report["sha256"]}
        if report["exit_code"] != 0 or report["exception"] or report["problems"]:
            entry["sha256"] = None
            entry["known_defect"] = (
                f"exit code {report['exit_code']}, exception {report['exception']}, "
                f"problems {report['problems']}"
            )
        ops[op.id] = entry
        print(op.id, entry.get("known_defect", "ok"), file=sys.stderr)
    REFERENCE.write_text(json.dumps(
        {"environment": environment("all", 0), "ops": ops}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "twistchar" / "cli.py").is_file():
        print(f"error: no twistchar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        reference = json.loads(REFERENCE.read_text())
        names = workloads.NAMES if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), reference)
            print("\n".join(describe(name, result["stats"], result["attempted"],
                                     result["failed"])))
            print(f"  environment: {json.dumps(result['environment'])}")
            print(f"  details: {write_results(result, bool(args.trace)).relative_to(ROOT)}")
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return 0 if all(r["correct"] for r in results.values()) else 1
    result = results[args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["stats"][name]["median"], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
