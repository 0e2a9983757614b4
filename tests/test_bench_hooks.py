"""The benchmark tracer's hooks still match the program's names.

``bench/tracer.py`` patches functions and methods by name.  Installing and
uninstalling it here, without running a workload, makes a rename or a
deletion of any of those names fail the unit tests instead of only the
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import twistchar.cli  # noqa: F401  (loads every module the tracer patches)
from twistchar import cyclotomic, pascal

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    originals = (pascal.build_stacked, cyclotomic.ExactMatrix.inverse,
                 cyclotomic.CyclotomicScalar.__mul__)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert pascal.build_stacked is not originals[0]
        assert cyclotomic.ExactMatrix.inverse is not originals[1]
        assert cyclotomic.CyclotomicScalar.__mul__ is not originals[2]
    finally:
        tracer.uninstall()
    assert (pascal.build_stacked, cyclotomic.ExactMatrix.inverse,
            cyclotomic.CyclotomicScalar.__mul__) == originals
