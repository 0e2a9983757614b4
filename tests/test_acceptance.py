"""Acceptance suite: nine end-to-end criteria, one verdict line each.

Every test prints a single "criterion N: PASS - ..." line on success; with
the configured -rA reporting these lines are replayed in the run summary.
A failing criterion shows up as an ordinary pytest failure instead.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest

from twistchar.cli import main as cli_main
from twistchar.cyclotomic import get_field
from twistchar.lattice import analyze
from twistchar.pascal import pascal_check, verify_invertible
from twistchar.presets import preset
from twistchar.qseries import (
    QSeries,
    RecursionMismatch,
    character,
    check_coefficient_recursion,
    check_recursion,
    halved_exponents,
    rogers_ramanujan_sum,
    verify_partition_identity,
)
from twistchar.quotient import (
    compare_with_character,
    membership_matrix,
    membership_matrix_decomposition,
    membership_pascal_spec,
    new_relations_sweep,
)

PRESETS = ("rank1", "swap2", "x3", "x4")


def test_criterion_1():
    """Quotient dimensions agree with character coefficients; each rank is
    proved by the two one-prime bounds or by exact elimination."""
    checked = proved = 0
    for name in ("rank1", "swap2", "x3"):
        orbits, tables = analyze(preset(name))
        report = compare_with_character(
            orbits, tables, charge_total=3, weight_bound=24
        )
        assert report.cells, f"{name}: no populated bidegrees"
        assert report.all_ok, f"{name}:\n{report.text_table()}"
        checked += len(report.cells)
        proved += report.proved
    print(
        "criterion 1: PASS - quotient dimension equals character coefficient "
        f"on every populated bidegree of rank1, swap2 and x3 ({checked} cells, "
        "charge total <= 3, weight <= 24; "
        f"{proved} ranks proved by a rank mod p plus the twisted-module lower "
        "bound, the rest by exact elimination)"
    )


def test_criterion_2():
    """rank1 summed character is the Rogers-Ramanujan sum side."""
    orbits, tables = analyze(preset("rank1"))
    summed = halved_exponents(character(orbits, tables, 80).evaluate_at_one())
    rhs = rogers_ramanujan_sum(40)
    assert summed.truncation == 40
    assert summed == rhs, f"differs at {summed.first_difference(rhs)}"
    print(
        "criterion 2: PASS - rank1 summed character with q^2 -> q equals "
        "sum_m q^(m^2)/(q;q)_m through order 40"
    )


def test_criterion_3():
    """Length-step recursion on all presets, plus fault detection."""
    orbits_checked = 0
    for name in PRESETS:
        orbits, tables = analyze(preset(name))
        table = character(orbits, tables, 30)
        for i in range(orbits.d):
            check_recursion(table, i)
            orbits_checked += 1

    orbits, tables = analyze(preset("rank1"))
    faulty = character(orbits, tables, 30)
    faulty.entries[(1,)].coeffs[4] += 1
    with pytest.raises(RecursionMismatch) as err:
        check_recursion(faulty, 0)
    assert err.value.charge == (1,)
    assert err.value.exponent == 4
    print(
        "criterion 3: PASS - length-step recursion holds for all "
        f"{orbits_checked} orbit directions of the four presets at truncation "
        "30, and an injected coefficient fault is detected with its location"
    )


def test_criterion_4():
    """Adjacent-charge coefficient recursion on all presets."""
    orbits_checked = 0
    for name in PRESETS:
        orbits, tables = analyze(preset(name))
        table = character(orbits, tables, 30)
        for i in range(orbits.d):
            check_coefficient_recursion(table, i)
            orbits_checked += 1
    print(
        "criterion 4: PASS - adjacent-charge coefficient recursion holds for "
        f"all {orbits_checked} orbit directions of the four presets at "
        "truncation 30"
    )


def _brute_force_separated_counts(bound):
    """Count partitions with no part thrice and no two parts differing by 1,
    by enumerating every partition outright."""

    def partitions(n, max_part):
        if n == 0:
            yield ()
            return
        for p in range(min(n, max_part), 0, -1):
            for rest in partitions(n - p, p):
                yield (p,) + rest

    counts = []
    for n in range(bound + 1):
        good = 0
        for parts in partitions(n, n):
            if any(parts.count(p) > 2 for p in set(parts)):
                continue
            if any(abs(a - b) == 1 for a in parts for b in parts):
                continue
            good += 1
        counts.append(good)
    return counts


def test_criterion_5():
    """x3 sum side matches a from-scratch partition enumerator."""
    orbits, tables = analyze(preset("x3"))
    summed = halved_exponents(character(orbits, tables, 60).evaluate_at_one())
    counts = _brute_force_separated_counts(30)
    brute = QSeries(counts)
    assert summed == brute, f"differs at {summed.first_difference(brute)}"
    print(
        "criterion 5: PASS - x3 summed character (in the substituted "
        "variable) matches the brute-force count of partitions with no part "
        "more than twice and no two parts differing by 1, through order 30"
    )


def test_criterion_6():
    """x4 comparison report: deterministic, with the modulus-9 variant."""
    first = verify_partition_identity("x4", 30)
    second = verify_partition_identity("x4", 30)
    assert first.to_json_dict() == second.to_json_dict()
    assert len(first.comparisons) == 2
    printed, mod9 = first.comparisons
    assert "modulus-9" in mod9.label
    outcomes = []
    for comp in (printed, mod9):
        if comp.matches:
            outcomes.append(f"'{comp.label}' matches to order 30")
        else:
            outcomes.append(
                f"'{comp.label}' first differs at q^{comp.first_mismatch} "
                f"({comp.lhs} vs {comp.rhs})"
            )
    print(
        "criterion 6: PASS - x4 comparison report produced deterministically "
        "to order 30 with the labeled modulus-9 variant recorded; "
        + "; ".join(outcomes)
    )


def test_criterion_7():
    """Pascal stack invertibility sweep plus proof replays, in budget."""
    start = time.monotonic()
    report = pascal_check(max_k=4, max_n=6, samples=10, seed=2026, proof_samples=50)
    elapsed = time.monotonic() - start
    assert report.ok, report.failures
    assert report.specs_checked == 3250
    assert report.factorizations_checked == 50
    assert report.two_blocks_checked == 50
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"
    print(
        "criterion 7: PASS - all 3250 stacked specs (root order <= 4, every "
        "block composition of size <= 6, 10 seeded (z, w) draws each) are "
        "invertible, and 50 factorization plus 50 two-stack proof replays "
        f"succeed in {elapsed:.1f}s"
    )


def test_criterion_8():
    """Two-variable membership and its square proof matrix, x3 and x4."""
    pairs_checked = 0
    instances = 0
    for name in ("x3", "x4"):
        orbits, tables = analyze(preset(name))
        cells = new_relations_sweep(orbits, tables)
        assert cells
        failed = [c for c in cells if not c.member]
        assert not failed, f"{name}: non-members {failed}"
        instances += len(cells)
        for i in range(orbits.d):
            for j in range(orbits.d):
                matrix = membership_matrix(orbits, tables, i, j)
                # l_i times the zero-mode pairing A_ij / k.
                expected = orbits.lengths[i] * tables.char_matrix[i][j] // orbits.k
                assert matrix.nrows == matrix.ncols == expected
                assert matrix.det(), f"{name} pair ({i}, {j}) is singular"
                scalars, pascal_form = membership_matrix_decomposition(
                    orbits, tables, i, j
                )
                for r in range(matrix.nrows):
                    for c in range(matrix.ncols):
                        assert (
                            matrix.rows[r][c]
                            == scalars[r] * pascal_form.rows[r][c]
                        )
                spec = membership_pascal_spec(orbits, tables, i, j)
                assert verify_invertible(spec).invertible
                pairs_checked += 1
    print(
        "criterion 8: PASS - every in-range two-variable monomial lies in "
        f"the relation ideal on x3 and x4 ({instances} instances), and all "
        f"{pairs_checked} square proof matrices (size = length_i times the "
        "zero-mode pairing) factor through invertible stacked Pascal forms"
    )


def _random_scalar(field, rng):
    return field.from_coeffs(
        [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            for _ in range(field.degree)
        ]
    )


def _capture_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue()


def test_criterion_9():
    """Field axioms, series ring laws, and byte-identical JSON reruns."""
    for conductor in (2, 4, 6, 12):
        field = get_field(conductor)
        rng = random.Random(900 + conductor)
        for _ in range(1000):
            a, b, c = (_random_scalar(field, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + field.zero() == a
            assert a * field.one() == a
            assert (a - a) == field.zero()
            if a != field.zero():
                assert a * a.inverse() == field.one()

    rng = random.Random(77)

    def random_series():
        t = rng.randint(0, 16)
        terms = {
            rng.randint(0, 16): rng.randint(-9, 9)
            for _ in range(rng.randint(0, 8))
        }
        return QSeries([terms.get(e, 0) for e in range(t + 1)])

    for _ in range(500):
        a, b, c = random_series(), random_series(), random_series()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        cut = rng.randint(0, min(a.truncation, b.truncation))
        assert (a + b).truncated(cut) == a.truncated(cut) + b.truncated(cut)
        assert (a * b).truncated(cut) == a.truncated(cut) * b.truncated(cut)

    sweep_args = [
        "pascal-check", "--max-k", "2", "--max-n", "3", "--samples", "2",
        "--proof-samples", "3", "--seed", "11", "--format", "json",
    ]
    code1, out1 = _capture_cli(sweep_args)
    code2, out2 = _capture_cli(sweep_args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["ok"] is True

    char_args = ["character", "--preset", "x4", "-T", "20", "--format", "json"]
    code3, out3 = _capture_cli(char_args)
    code4, out4 = _capture_cli(char_args)
    assert code3 == code4 == 0
    assert out3 == out4
    print(
        "criterion 9: PASS - field axioms hold on 1000 seeded triples for "
        "each conductor in {2, 4, 6, 12} (with inverse roundtrips), series "
        "ring laws and truncation stability hold on 500 seeded draws, and "
        "seeded CLI JSON output is byte-identical across reruns"
    )
