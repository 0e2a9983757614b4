"""Outside-in tracer: spans and exact counts without touching ``src/``.

The tracer replaces public functions and methods of the ``twistchar``
modules with wrappers.  A function bound into other modules with
``from ... import`` is replaced under every module that holds it, so calls
through any of those names are seen.  Scalar operators are counted, not
timed: there are millions of them, and a span per call would cost more
than the arithmetic it measures.

Spans are kept in memory as ``(id, parent, name, start, end)`` and handed
to the caller once, when the traced operation ends.  Work the tracer does
for itself (measuring the size of a matrix) is recorded as a
``trace.bookkeeping`` span, so that it is not charged to the layer that
happened to be running.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter

# Functions timed as spans: (module, attribute, span name).
FUNCTION_SPANS = (
    ("cli", "main", "cli.main"),
    ("lattice", "analyze", "lattice.analyze"),
    ("qseries", "character", "qseries.character"),
    ("qseries", "check_recursion", "qseries.check_recursion"),
    ("qseries", "check_coefficient_recursion", "qseries.check_coefficient_recursion"),
    ("qseries", "verify_partition_identity", "qseries.verify_partition_identity"),
    ("quotient", "compare_with_character", "quotient.compare_with_character"),
    ("quotient", "enumerate_monomials", "quotient.enumerate_monomials"),
    ("quotient", "new_relations_sweep", "quotient.new_relations_sweep"),
    ("quotient", "new_relations_membership", "quotient.new_relations_membership"),
    ("pascal", "pascal_check", "pascal.pascal_check"),
    ("pascal", "build_stacked", "pascal.build_stacked"),
    ("pascal", "verify_invertible", "pascal.verify_invertible"),
    ("pascal", "factorization_check", "pascal.factorization_check"),
    ("pascal", "two_blocks_check", "pascal.two_blocks_check"),
)

# ExactMatrix methods timed as spans.  ``__rmul__`` is not listed: it
# delegates to ``self * other``, which reaches the wrapped ``__mul__``.
MATRIX_SPANS = (
    ("rank", "cyclotomic.rank"),
    ("det", "cyclotomic.det"),
    ("solve", "cyclotomic.solve"),
    ("inverse", "cyclotomic.inverse"),
    ("__mul__", "cyclotomic.matmul"),
)
ELIMINATIONS = ("rank", "det", "solve", "inverse")

# CyclotomicScalar methods counted per call.  Aliased operators
# (``__radd__ = __add__``, ``__rmul__ = __mul__``) are patched under both
# names, because Python dispatches through whichever name applies.
SCALAR_COUNTS = (
    ("__mul__", "cyclotomic.scalar_mul_calls"),
    ("__rmul__", "cyclotomic.scalar_mul_calls"),
    ("__add__", "cyclotomic.scalar_addsub_calls"),
    ("__radd__", "cyclotomic.scalar_addsub_calls"),
    ("__sub__", "cyclotomic.scalar_addsub_calls"),
    ("__rsub__", "cyclotomic.scalar_addsub_calls"),
    ("inverse", "cyclotomic.scalar_inverse_calls"),
)


class Tracer:
    """Records spans, counts and problem sizes while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        # Largest values seen, e.g. the widest elimination input.
        self.maxima: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the code in the ``with`` block."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _spanned(self, fn, name: str, on_call=None, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                with self.span("trace.bookkeeping"):
                    on_call(*args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                with self.span("trace.bookkeeping"):
                    on_return(result)
            return result

        return wrapper

    def _counted(self, fn, key: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- size hooks --------------------------------------------------------

    def _elimination_input(self, matrix, *_args) -> None:
        nonzeros = sum(1 for row in matrix.rows for e in row if any(e.coeffs))
        self.counts["cyclotomic.elim_cells"] += matrix.nrows * matrix.ncols
        self.counts["cyclotomic.elim_nonzeros"] += nonzeros
        self._raise_max("cyclotomic.elim_max_rows", matrix.nrows)
        self._raise_max("cyclotomic.elim_max_cols", matrix.ncols)
        self._raise_max("cyclotomic.field_degree", matrix.field.degree)

    def _stacked_matrix(self, matrix) -> None:
        self._raise_max("pascal.max_size", matrix.nrows)

    def _character_table(self, table) -> None:
        self.counts["qseries.charges"] += len(table.entries)
        self.counts["qseries.coefficients"] += sum(
            len(series.items()) for series in table.entries.values()
        )

    def _raise_max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- patching ----------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the program's public layer boundaries; ``uninstall`` undoes it."""
        from twistchar import cyclotomic

        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "twistchar" or name.startswith("twistchar."))
        ]
        hooks = {
            "qseries.character": (None, self._character_table),
            "pascal.build_stacked": (None, self._stacked_matrix),
        }
        for module_name, attr, name in FUNCTION_SPANS:
            original = getattr(sys.modules[f"twistchar.{module_name}"], attr)
            on_call, on_return = hooks.get(name, (None, None))
            wrapper = self._spanned(original, name, on_call, on_return)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)
        matrix = cyclotomic.ExactMatrix
        for attr, name in MATRIX_SPANS:
            on_call = self._elimination_input if attr in ELIMINATIONS else None
            self._replace(
                matrix, attr, self._spanned(matrix.__dict__[attr], name, on_call)
            )
        scalar = cyclotomic.CyclotomicScalar
        for attr, key in SCALAR_COUNTS:
            self._replace(scalar, attr, self._counted(scalar.__dict__[attr], key))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span counting only the time its children
    do not cover.  Children of one span never overlap: the program is
    single-threaded, so a child interval lies inside its parent's."""
    child_time: Counter[int] = Counter()
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: Counter[str] = Counter()
    for span_id, _, name, start, end in spans:
        out[name] += (end - start) - child_time[span_id]
    return dict(out)


def call_counts(spans) -> dict[str, int]:
    return dict(Counter(name for _, _, name, _, _ in spans))
