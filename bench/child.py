"""Run one CLI operation in this fresh interpreter and report on stdout.

Usage: ``python3 bench/child.py '<json spec>'`` with the spec keys
``argv`` (CLI arguments, without ``--format json``; null to time the
set-up alone), ``presets`` and ``fields`` (the presets analyzed and the
field conductors built as the set-up) and ``trace`` (bool).

The last line of stdout is one JSON object: set-up and verdict times, the
speed probe's readings, exit code, exception, output digest and size, the
independent checks' problems, peak memory, and when traced the spans and
counts.
"""

from __future__ import annotations

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def main() -> int:
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import twistchar.cli
    from twistchar import cyclotomic, lattice, presets

    imported = time.perf_counter()
    # Imported only now, so that the set-up above pays for every module
    # twistchar needs, as it does in a user's process.
    import contextlib
    import hashlib
    import io
    import json
    import resource
    import statistics
    import traceback
    from pathlib import Path

    if not Path(twistchar.__file__).resolve().is_relative_to(src):
        print(f"error: twistchar imported from {twistchar.__file__}, not {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH)
    from probe import SpeedProbe, work_chunk
    from tracer import Tracer
    from workloads import check_output

    spec = json.loads(sys.argv[1])

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    setup_span = tracer.span("bench.setup") if tracer else contextlib.nullcontext()
    resumed = time.perf_counter()
    with setup_span:
        for name in spec["presets"]:
            orbits, _ = lattice.analyze(presets.preset(name))
            cyclotomic.get_field(orbits.k)
        for conductor in spec["fields"]:
            cyclotomic.get_field(conductor)
    setup_s = (imported - start) + (time.perf_counter() - resumed)

    if spec["argv"] is None:
        chunks = [work_chunk() for _ in range(3)]
        print(json.dumps({"setup_s": setup_s, "chunk_s": statistics.mean(chunks)}))
        return 0
    setup_spans = []
    if tracer is not None:
        setup_spans, tracer.spans = tracer.spans, []
        tracer.counts.clear()
        tracer.maxima.clear()

    argv = list(spec["argv"]) + ["--format", "json"]
    out = io.StringIO()
    exception = None
    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                exit_code = twistchar.cli.main(argv)
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the CLI would print a traceback and exit 1
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            exit_code = 1
            exception = f"{type(exc).__name__} in {Path(frame.filename).stem}.{frame.name}"
        verdict_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    text = out.getvalue()
    problems, facts = ([], {}) if exception else check_output(tuple(spec["argv"]), text)
    data = text.encode()
    report = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "probe_s": probe.during_s,
        "chunk_s": probe.chunk_s,
        "exit_code": exit_code,
        "exception": exception,
        "sha256": hashlib.sha256(data).hexdigest(),
        "output_bytes": len(data),
        "problems": problems,
        "facts": facts,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report.update(
            spans=tracer.spans,
            setup_spans=setup_spans,
            counts=dict(tracer.counts),
            maxima=dict(tracer.maxima),
        )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
