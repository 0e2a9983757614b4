"""The benchmark tracer's hooks still match the program's names.

``bench/tracer.py`` patches functions and methods by name.  Installing and
uninstalling it here, without running a workload, makes a rename or a
deletion of any of those names fail the unit tests instead of only the
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import twistchar.cli  # noqa: F401  (loads every module the tracer patches)
from twistchar import cyclotomic, pascal, quotient
from twistchar.lattice import analyze
from twistchar.presets import preset

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def test_tracer_installs_and_uninstalls():
    tracer_module = _tracer_module()
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


def _oracle_span_names():
    orbits, tables = analyze(preset("rank1"))
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        quotient.compare_with_character(orbits, tables, 2, 12)
    finally:
        tracer.uninstall()
    return {name for _, _, name, _, _ in tracer.spans}


def test_tracer_sees_the_oracle_layers():
    # The oracle must reach enumeration through a name the tracer can patch
    # from outside, or its spans and counts read zero.  Its ranks come from
    # the two one-prime bounds, so it does not reach ExactMatrix.rank.
    names = _oracle_span_names()
    assert "quotient.enumerate_monomials" in names
    assert "cyclotomic.rank" not in names


def test_tracer_sees_the_oracle_fallback_rank(monkeypatch):
    # With certificate (a) forced to fail, every rank falls back to
    # ExactMatrix.rank, which the tracer still sees.
    monkeypatch.setattr(quotient, "pair_factors", lambda orbits, tables: None)
    names = _oracle_span_names()
    assert {"quotient.enumerate_monomials", "cyclotomic.rank"} <= names
