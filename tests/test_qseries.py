"""Truncated q-series, characters, recursions, partition identities."""

import json
import random
from itertools import product
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistchar.lattice import analyze
from twistchar.presets import lattice_from_config, preset
from twistchar.qseries import (
    NORMALIZATION,
    CharacterTable,
    IdentityComparison,
    IdentityReport,
    QSeries,
    RecursionCheck,
    RecursionMismatch,
    character,
    check_coefficient_recursion,
    check_recursion,
    check_recursions,
    halved_exponents,
    inverse_poch_product,
    poch_infinite,
    poch_inverse,
    rogers_ramanujan_sum,
    separated_partition_count,
    separated_partition_counts,
    verify_partition_identity,
    _add_part,
    _compare_product,
)

PRESETS = ("rank1", "swap2", "x3", "x4")


def series(truncation, coeffs):
    # A dense series from an {exponent: coefficient} dict; exponents beyond
    # the truncation are dropped.
    dense = [0] * (truncation + 1)
    for e, c in coeffs.items():
        if e <= truncation:
            dense[e] = c
    return QSeries(dense)


# ---------------------------------------------------------------- QSeries core


def test_constructor_drops_zero_and_overflow_terms():
    s = QSeries([1, 0, 0, 5, 0])
    assert s.truncation == 4
    assert s.items() == [(0, 1), (3, 5)]
    assert dict(series(4, {0: 1, 2: 0, 3: 5, 9: 7}).items()) == {0: 1, 3: 5}
    with pytest.raises(ValueError):
        QSeries([])
    with pytest.raises(ValueError):
        QSeries.zero(-1)
    with pytest.raises(ValueError):
        QSeries.one(-1)


def test_coeff_beyond_truncation_raises():
    s = QSeries.one(3)
    assert s.coeff(3) == 0
    with pytest.raises(ValueError):
        s.coeff(4)


def test_arithmetic_truncates_to_shorter_operand():
    a = series(5, {0: 1, 5: 2})
    b = series(3, {1: 1})
    assert (a + b).truncation == 3
    assert dict((a + b).items()) == {0: 1, 1: 1}
    assert dict((a - b).items()) == {0: 1, 1: -1}
    assert dict((a * b).items()) == {1: 1}
    assert dict((3 * b).items()) == {1: 3}
    assert (b * 0).is_zero


def test_shift_and_truncate():
    s = series(2, {0: 1, 1: 4})
    assert dict(s.shifted(3).items()) == {3: 1, 4: 4}
    assert s.shifted(3).truncation == 5
    assert dict(s.truncated(0).items()) == {0: 1}
    with pytest.raises(ValueError):
        s.truncated(3)
    with pytest.raises(ValueError):
        s.shifted(-1)


def test_first_difference_respects_truncation():
    a = series(10, {2: 1, 7: 3})
    b = series(4, {2: 1, 7: 9})
    assert a.first_difference(b) is None
    assert a.first_difference(series(10, {2: 1, 7: 4})) == (7, 3, 4)
    assert series(5, {}).first_difference(series(5, {0: 1})) == (0, 0, 1)
    # Lists of unequal length that differ only beyond the shorter one.
    assert QSeries([1, 2]).first_difference(QSeries([1, 2, 3])) is None
    assert QSeries([1, 2, 3]).first_difference(QSeries([1, 2])) is None


def test_str_formats():
    assert str(series(4, {0: 2, 1: -1, 3: 1})) == "2 - q + q^3 + O(q^5)"
    assert str(QSeries.zero(2)) == "0 + O(q^3)"
    assert str(series(9, {2: -3})) == "-3*q^2 + O(q^10)"


# ------------------------------------------------------------------ Pochhammer


def test_poch_inverse_small_table():
    # Partitions into parts from {1, 2}.
    assert dict(poch_inverse(1, 2, 4).items()) == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}
    assert poch_inverse(3, 0, 10) == QSeries.one(10)
    with pytest.raises(ValueError):
        poch_inverse(0, 1, 5)
    with pytest.raises(ValueError):
        poch_inverse(1, -1, 5)


def test_poch_infinite_pentagonal_numbers():
    assert dict(poch_infinite(1, 1, 12).items()) == {
        0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1
    }
    with pytest.raises(ValueError):
        poch_infinite(0, 1, 5)


def test_inverse_poch_product_inverts_the_product():
    t = 18
    inv = inverse_poch_product(((1, 1),), t)
    assert inv * poch_infinite(1, 1, t) == QSeries.one(t)
    inv2 = inverse_poch_product(((2, 3), (5, 7)), t)
    assert inv2 * poch_infinite(2, 3, t) * poch_infinite(5, 7, t) == QSeries.one(t)


def test_inverse_poch_product_matches_direct_partition_count():
    """Cross-check the mod-9 product against an independent counter."""
    t = 24
    allowed = [
        p
        for start in (1, 3, 6, 8)
        for p in range(start, t + 1, 9)
    ]
    table = [0] * (t + 1)
    table[0] = 1
    for part in sorted(allowed):
        for n in range(part, t + 1):
            table[n] += table[n - part]
    got = inverse_poch_product(((1, 9), (3, 9), (6, 9), (8, 9)), t)
    assert dict(got.items()) == {n: c for n, c in enumerate(table) if c}


# ------------------------------------------------------------------ characters


def quadratic_value(matrix, m):
    return sum(
        matrix[i][j] * m[i] * m[j] for i in range(len(m)) for j in range(len(m))
    )


def enumerate_charges(matrix, truncation):
    # Reference enumerator: every charge in the box m_i <= isqrt(2T / A_ii)
    # whose norm m^T A m is at most 2T, in sorted order.
    bounds = [isqrt(2 * truncation // matrix[i][i]) for i in range(len(matrix))]
    return [
        m for m in product(*(range(b + 1) for b in bounds))
        if quadratic_value(matrix, m) <= 2 * truncation
    ]


def test_enumerate_charges_is_pruned_by_diagonal():
    orbits, tables = analyze(preset("rank1"))
    assert tables.char_matrix == ((4,),)
    assert character(orbits, tables, 8).charges() == [(0,), (1,), (2,)]
    assert character(orbits, tables, 1).charges() == [(0,)]
    charges = enumerate_charges([[4, 1], [1, 4]], 6)
    assert (0, 0) in charges and (1, 1) in charges
    assert all(quadratic_value([[4, 1], [1, 4]], m) <= 12 for m in charges)


def test_quadratic_value():
    assert quadratic_value([[4]], (3,)) == 36
    assert quadratic_value([[2, 1], [1, 2]], (1, -1)) == 2


def test_single_orbit_character_table():
    orbits, tables = analyze(preset("rank1"))
    table = character(orbits, tables, 8)
    assert table.charges() == [(0,), (1,), (2,)]
    assert table.series((0,)) == QSeries.one(8)
    assert dict(table.series((1,)).items()) == {2: 1, 4: 1, 6: 1, 8: 1}
    assert dict(table.series((2,)).items()) == {8: 1}
    assert table.series((5,)).is_zero
    assert dict(table.evaluate_at_one().items()) == {0: 1, 2: 1, 4: 1, 6: 1, 8: 2}


def test_swapped_pair_character_table():
    orbits, tables = analyze(preset("swap2"))
    table = character(orbits, tables, 14)
    assert table.charge_matrix == ((6,),)
    assert dict(table.series((1,)).items()) == {3: 1, 5: 1, 7: 1, 9: 1, 11: 1, 13: 1}
    assert dict(table.series((2,)).items()) == {12: 1, 14: 1}
    # Charge m always starts at exactly 3*m^2.
    for (m,) in table.charges():
        if m:
            assert min(dict(table.series((m,)).items())) == 3 * m * m


def test_character_coefficients_are_nonnegative():
    for name in PRESETS:
        orbits, tables = analyze(preset(name))
        table = character(orbits, tables, 16)
        for m in table.charges():
            assert all(c > 0 for c in dict(table.series(m).items()).values())


def test_table_json_has_string_coefficients():
    orbits, tables = analyze(preset("rank1"))
    data = json.loads(character(orbits, tables, 6).to_json())
    assert data["k"] == 2
    assert data["normalization"] == "k-weight-shifted"
    assert data["charges"][1]["m"] == [1]
    assert data["charges"][1]["series"] == {"2": "1", "4": "1", "6": "1"}


def _reference_json_dict(table):
    # The table's JSON form as a dict, for json.dumps(..., indent=2).
    return {
        "d": table.d,
        "k": table.k,
        "truncation": table.truncation,
        "normalization": NORMALIZATION,
        "charges": [
            {"m": list(m),
             "series": {str(e): str(c) for e, c in table.entries[m].items()}}
            for m in table.charges()
        ],
    }


def test_json_writer_matches_the_stdlib_encoder(random_lattices):
    # Byte for byte, including a series planted all zero ("series": {}).
    lattices = [(analyze(preset(name)), t) for name in PRESETS for t in (0, 1, 37, 200)]
    lattices += [(lattice, t) for lattice in random_lattices for t in (0, 1, 37)]
    for (orbits, tables), t in lattices:
        table = character(orbits, tables, t)
        assert table.to_json() == json.dumps(_reference_json_dict(table), indent=2)
    table.entries[table.charges()[-1]].coeffs[:] = [0] * (t + 1)
    assert '"series": {}' in table.to_json()
    assert table.to_json() == json.dumps(_reference_json_dict(table), indent=2)


# ------------------------------------------------------------------ recursions


@pytest.mark.parametrize("name", PRESETS)
def test_length_step_recursion_all_orbits(name):
    orbits, tables = analyze(preset(name))
    table = character(orbits, tables, 20)
    for i in range(orbits.d):
        report = check_recursion(table, i)
        assert report.kind == "length-step"
        assert report.cells > 0


@pytest.mark.parametrize("name", PRESETS)
def test_adjacent_charge_recursion_all_orbits(name):
    orbits, tables = analyze(preset(name))
    table = character(orbits, tables, 20)
    for i in range(orbits.d):
        report = check_coefficient_recursion(table, i)
        assert report.kind == "adjacent-charge"
        assert report.cells > 0


def test_length_step_recursion_detects_injected_fault():
    orbits, tables = analyze(preset("rank1"))
    table = character(orbits, tables, 8)
    table.entries[(1,)].coeffs[4] += 1
    with pytest.raises(RecursionMismatch) as err:
        check_recursion(table, 0)
    exc = err.value
    assert exc.kind == "length-step"
    assert exc.charge == (1,)
    assert exc.exponent == 4
    assert (exc.lhs, exc.rhs) == (2, 1)


def test_adjacent_charge_recursion_detects_injected_fault():
    orbits, tables = analyze(preset("rank1"))
    table = character(orbits, tables, 8)
    table.entries[(2,)].coeffs[8] = 3
    with pytest.raises(RecursionMismatch) as err:
        check_coefficient_recursion(table, 0)
    assert err.value.kind == "adjacent-charge"
    assert err.value.charge == (2,)


@pytest.mark.parametrize("charge, exponent, messages", [
    ((1, 1), 20, [
        "length-step recursion fails at charge (1, 1), exponent 20: 1 != 3 (orbit 0)",
        "adjacent-charge recursion fails at charge (1, 1), exponent 20: -1 != 1 (orbit 0)",
        "length-step recursion fails at charge (1, 1), exponent 20: 1 != 3 (orbit 1)",
        "adjacent-charge recursion fails at charge (1, 1), exponent 20: -2 != 0 (orbit 1)",
    ]),
    # Below the series' own lowest exponent 10, where every side is zero.
    ((1, 1), 3, [
        "length-step recursion fails at charge (1, 1), exponent 3: -2 != 0 (orbit 0)",
        "adjacent-charge recursion fails at charge (1, 1), exponent 3: -2 != 0 (orbit 0)",
        "length-step recursion fails at charge (1, 1), exponent 3: -2 != 0 (orbit 1)",
        "adjacent-charge recursion fails at charge (1, 1), exponent 3: -2 != 0 (orbit 1)",
    ]),
    ((0, 1), 59, [
        None,
        None,
        "length-step recursion fails at charge (0, 1), exponent 59: -2 != 0 (orbit 1)",
        "adjacent-charge recursion fails at charge (0, 1), exponent 59: -2 != 0 (orbit 1)",
    ]),
    ((2, 0), 60, [
        "length-step recursion fails at charge (2, 0), exponent 60: 4 != 6 (orbit 0)",
        "adjacent-charge recursion fails at charge (2, 0), exponent 60: -1 != 1 (orbit 0)",
        None,
        None,
    ]),
])
def test_recursion_mismatch_messages_are_pinned(charge, exponent, messages):
    # One coefficient of x3's table lowered by 2; the first mismatch of each
    # check, in sorted charge order, and its text are fixed.
    orbits, tables = analyze(preset("x3"))
    table = character(orbits, tables, 60)
    table.entries[charge].coeffs[exponent] -= 2
    got = []
    for i in range(orbits.d):
        for check in (check_recursion, check_coefficient_recursion):
            try:
                check(table, i)
                got.append(None)
            except RecursionMismatch as exc:
                got.append(str(exc))
    assert got == messages


def _reference_initial_value(table, i, kind):
    # A_0 = 1 through q^T, the initial value that, with the recursions,
    # fixes the character; a difference is reported at the zero charge.
    zero = (0,) * table.d
    diff = table.series(zero).first_difference(QSeries.one(table.truncation))
    if diff is not None:
        raise RecursionMismatch(kind, i, zero, *diff)


def _reference_length_step(table, i):
    # The length-step check as two separate scans made it: every charge and
    # every m + e_i, each against its own shift plus the (m - e_i) term.
    a = table.charge_matrix
    charges = set(table.entries)
    for m in table.charges():
        bumped = list(m)
        bumped[i] += 1
        charges.add(tuple(bumped))
    cells = 0
    for m in sorted(charges):
        lhs = table.series(m)
        rhs = lhs.shifted(table.steps[i] * m[i])
        if m[i] >= 1:
            lower = list(m)
            lower[i] -= 1
            offset = sum(a[j][i] * m[j] for j in range(table.d)) - a[i][i] // 2
            rhs = rhs + table.series(tuple(lower)).shifted(offset)
        diff = lhs.first_difference(rhs)
        if diff is not None:
            raise RecursionMismatch("length-step", i, m, *diff)
        cells += 1
    _reference_initial_value(table, i, "length-step")
    return RecursionCheck("length-step", i, table.truncation, cells)


def _reference_adjacent_charge(table, i):
    # The adjacent-charge check as two separate scans made it.
    a = table.charge_matrix
    cells = 0
    for m in table.charges():
        upper = list(m)
        upper[i] += 1
        up = table.series(tuple(upper))
        lhs = up - up.shifted(table.steps[i] * (m[i] + 1))
        offset = a[i][i] // 2 + sum(a[j][i] * m[j] for j in range(table.d))
        rhs = table.series(m).shifted(offset)
        diff = lhs.first_difference(rhs)
        if diff is not None:
            raise RecursionMismatch("adjacent-charge", i, tuple(upper), *diff)
        cells += 1
    _reference_initial_value(table, i, "adjacent-charge")
    return RecursionCheck("adjacent-charge", i, table.truncation, cells)


def _outcome(check, table, i):
    try:
        res = check(table, i)
    except RecursionMismatch as exc:
        return str(exc)
    return res.kind, res.cells


def test_one_scan_matches_the_two_reference_checks(random_lattices):
    # 0-3 coefficients of each table changed at seeded random places, on the
    # presets at T = 60 and the random draws at T = 30.
    rng = random.Random(17)
    lattices = [analyze(preset(name)) + (60,) for name in PRESETS]
    lattices += [(orbits, tables, 30) for orbits, tables in random_lattices]
    failures = 0
    for orbits, tables, truncation in lattices:
        for corrupted in range(4):
            table = character(orbits, tables, truncation)
            charges = table.charges()
            for _ in range(corrupted):
                coeffs = table.entries[rng.choice(charges)].coeffs
                coeffs[rng.randrange(len(coeffs))] += rng.choice((-2, -1, 1, 3))
            for i in range(orbits.d):
                pairs = [
                    (_outcome(check_recursion, table, i),
                     _outcome(_reference_length_step, table, i)),
                    (_outcome(check_coefficient_recursion, table, i),
                     _outcome(_reference_adjacent_charge, table, i)),
                ]
                for got, want in pairs:
                    assert got == want
                    failures += isinstance(got, str)
                both = [str(r) if isinstance(r, RecursionMismatch) else (r.kind, r.cells)
                        for r in check_recursions(table, i)]
                assert both == [got for got, _ in pairs]
    assert failures > 100


def test_recursion_fault_at_each_edge_of_the_compared_tail():
    # check_recursions compares each A_u from the lowest exponent h of
    # q^off A_m, which is A_u's own lowest exponent on a clean table, up to
    # T; below h it only asks that A_u vanish.  One fault at h - 1, h or T
    # of each charge's series must be reported as the two scans report it,
    # and found; A_0's q^T, past every pair's comparison, by A_0 = 1.
    orbits, tables = analyze(preset("x3"))
    t = 60
    clean = character(orbits, tables, t)
    for u in clean.charges():
        low = next(e for e, c in enumerate(clean.entries[u].coeffs) if c)
        for exponent in {low - 1, low, t} - {-1}:
            table = character(orbits, tables, t)
            table.entries[u].coeffs[exponent] += 1
            found = False
            for i in range(orbits.d):
                got = [str(r) if isinstance(r, RecursionMismatch) else (r.kind, r.cells)
                       for r in check_recursions(table, i)]
                assert got == [_outcome(_reference_length_step, table, i),
                               _outcome(_reference_adjacent_charge, table, i)]
                found |= isinstance(got[0], str)
            assert found, (u, exponent)


@pytest.mark.parametrize("name", PRESETS)
def test_every_planted_fault_is_caught(name):
    # The recursions and A_0 = 1 fix the character, so +1 at any (charge,
    # exponent) of the table, q^0 through q^24, must fail some orbit's check.
    orbits, tables = analyze(preset(name))
    table = character(orbits, tables, 24)
    planted = missed = 0
    for m in table.charges():
        coeffs = table.entries[m].coeffs
        for e in range(len(coeffs)):
            coeffs[e] += 1
            planted += 1
            missed += all(isinstance(r, RecursionCheck) for i in range(orbits.d)
                          for r in check_recursions(table, i))
            coeffs[e] -= 1
    assert (planted, missed) == (25 * len(table.entries), 0)


def test_clean_recursion_scan_reports_no_difference(capsys, monkeypatch):
    # The term-by-term scan runs only for a pair that fails.
    from twistchar import cli

    calls = []
    monkeypatch.setattr(QSeries, "first_difference",
                        lambda self, other: calls.append(1))
    assert cli.main(["verify", "--preset", "x3", "--recursion", "-T", "200"]) == 0
    assert calls == []
    capsys.readouterr()


def test_verify_scans_each_orbit_once(capsys, monkeypatch):
    from twistchar import cli, qseries

    calls = []

    def counted(table, i):
        calls.append(i)
        return check_recursions(table, i)

    def refuse(table, i):
        pytest.fail("a one-kind view ran a scan of its own")

    monkeypatch.setattr(cli, "check_recursions", counted)
    monkeypatch.setattr(qseries, "check_recursion", refuse)
    monkeypatch.setattr(qseries, "check_coefficient_recursion", refuse)
    for name in PRESETS:
        calls.clear()
        assert cli.main(["verify", "--preset", name, "--recursion", "-T", "40"]) == 0
        assert calls == list(range(analyze(preset(name))[0].d))
    capsys.readouterr()


def test_every_series_lives_on_its_parity_class(random_lattices):
    # validate sets k = 2 lcm(l_i), so the steps have gcd 2 and A_m is zero
    # at every exponent of the other parity than Q(m)/2.
    lattices = [analyze(preset(name)) for name in PRESETS] + list(random_lattices)
    for orbits, tables in lattices:
        table = character(orbits, tables, 40)
        assert gcd(*table.steps) == 2
        for m, s in table.entries.items():
            base = quadratic_value(table.charge_matrix, m) // 2
            assert s.coeffs[base] == 1
            assert all((e - base) % 2 == 0 for e, _ in s.items()), m


def _planted_off_parity(table):
    # Copies of the table, each with an off-parity fault: +1 at every
    # off-parity exponent e of every charge m; and, for each orbit i with
    # u = m + e_i in the table, A_m's q^e and A_u's q^(e + off) / (1 - q^sh)
    # bumped together, so that the dense identity of (m, u) still holds.
    a, t = table.charge_matrix, table.truncation

    def copy():
        return table._replace(entries={m: QSeries(list(s.coeffs))
                                       for m, s in table.entries.items()})

    for m in table.charges():
        base = quadratic_value(a, m) // 2
        for e in range(1 - base % 2, t + 1, 2):
            single = copy()
            single.entries[m].coeffs[e] += 1
            yield single
            for i in range(table.d):
                u = m[:i] + (m[i] + 1,) + m[i + 1:]
                if u not in table.entries:
                    continue
                off = a[i][i] // 2 + sum(a[j][i] * m[j] for j in range(table.d))
                double = copy()
                double.entries[m].coeffs[e] += 1
                for x in range(e + off, t + 1, table.steps[i] * u[i]):
                    double.entries[u].coeffs[x] += 1
                yield double


@pytest.mark.parametrize("name", PRESETS)
def test_off_parity_faults_are_judged_as_the_dense_scans_judge_them(name):
    # A pair with a nonzero on the other parity class leaves the stride-2
    # comparison for the term-by-term scan, which decides; every verdict and
    # mismatch must be the reference scans' (with their A_0 = 1 check).
    orbits, tables = analyze(preset(name))
    planted, verdicts = 0, set()
    for table in _planted_off_parity(character(orbits, tables, 24)):
        planted += 1
        for i in range(orbits.d):
            got = [str(r) if isinstance(r, RecursionMismatch) else (r.kind, r.cells)
                   for r in check_recursions(table, i)]
            assert got == [_outcome(_reference_length_step, table, i),
                           _outcome(_reference_adjacent_charge, table, i)]
            verdicts.add(isinstance(got[0], str))
    # With one orbit, each fault reaches the one direction's scan.
    assert planted > 20 and verdicts == ({True} if orbits.d == 1 else {False, True})


def test_odd_shift_is_scanned_term_by_term():
    # The stride-2 comparison is sound only for an even shift s_i u_i.  On
    # this hand-made table with step 3, A_1 = q + q^3 + q^5 would pass it
    # (shift 3 // 2 on the odd class), but (1 - q^3) A_1 != q A_0 at q^3.
    table = CharacterTable(d=1, k=3, truncation=6, charge_matrix=((2,),), steps=(3,),
                           entries={(0,): QSeries.one(6),
                                    (1,): QSeries([0, 1, 0, 1, 0, 1, 0])})
    got = [str(r) for r in check_recursions(table, 0)]
    assert got == [_outcome(_reference_length_step, table, 0),
                   _outcome(_reference_adjacent_charge, table, 0)]
    assert got[0] == "length-step recursion fails at charge (1,), exponent 3: 1 != 0 (orbit 0)"


# ------------------------------------------------------- partition identities


def test_separated_partition_counts():
    # n = 5 admits exactly 5, 4+1, 3+1+1; gap-1 pairs and triples are out.
    assert [separated_partition_count(n) for n in range(6)] == [1, 1, 2, 1, 3, 3]
    with pytest.raises(ValueError):
        separated_partition_count(-1)
    with pytest.raises(ValueError):
        separated_partition_counts(-1)


def test_separated_counts_against_brute_force():
    def brute(n):
        count = 0

        def rec(remaining, max_part, parts):
            nonlocal count
            if remaining == 0:
                ok = all(parts.count(p) <= 2 for p in parts) and all(
                    abs(a - b) != 1 for a in parts for b in parts
                )
                count += bool(ok)
                return
            for p in range(min(remaining, max_part), 0, -1):
                rec(remaining - p, p, parts + [p])

        rec(n, n, [])
        return count

    for n in range(13):
        assert separated_partition_count(n) == brute(n)
    assert separated_partition_counts(12) == [brute(n) for n in range(13)]


def test_x3_identity_at_large_truncation():
    # A recursive count once hit Python's recursion limit here.
    report = verify_partition_identity("x3", 500)
    assert report.all_match


def test_rogers_ramanujan_sum_coefficients():
    assert dict(rogers_ramanujan_sum(10).items()) == {
        0: 1, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 3, 7: 3, 8: 4, 9: 5, 10: 6
    }


def test_halved_exponents():
    assert dict(halved_exponents(series(8, {0: 1, 2: 3, 8: 1})).items()) == {
        0: 1, 1: 3, 4: 1
    }
    assert halved_exponents(series(9, {})).truncation == 4
    with pytest.raises(ValueError, match="^odd exponent 3 present; cannot halve$"):
        halved_exponents(series(8, {2: 1, 3: 1, 5: 2}))


@pytest.mark.parametrize("name", ["rank1", "swap2", "x3", "x4"])
def test_evaluate_at_one_is_the_sum_of_the_entries(name):
    table = character(*analyze(preset(name)), 60)
    total = sum(table.entries.values(), QSeries.zero(60))
    assert table.evaluate_at_one() == total
    assert table._replace(entries={}).evaluate_at_one() == QSeries.zero(60)


def test_identity_only_wired_for_x3_and_x4():
    with pytest.raises(ValueError):
        verify_partition_identity("rank1", 10)
    with pytest.raises(ValueError):
        verify_partition_identity("nope", 10)


def test_x3_identity_matches():
    report = verify_partition_identity("x3", 20)
    assert report.all_match
    assert len(report.comparisons) == 1
    assert report.comparisons[0].first_mismatch is None


def test_x4_printed_product_differs_but_mod9_matches():
    report = verify_partition_identity("x4", 20)
    printed, mod9 = report.comparisons
    assert printed.matches is False
    assert (printed.first_mismatch, printed.lhs, printed.rhs) == (2, 1, 2)
    assert mod9.matches is True
    assert not report.all_match
    data = report.to_json_dict()
    assert data["comparisons"][0]["first_mismatch"] == 2
    assert data["comparisons"][1]["matches"] is True
    assert list(data) == ["preset", "truncation", "comparisons"]
    assert data["comparisons"][0] == {"label": printed.label, "matches": False,
                                      "first_mismatch": 2, "lhs": "1", "rhs": "2"}
    assert list(data["comparisons"][0]) == ["label", "matches", "first_mismatch",
                                            "lhs", "rhs"]
    assert data["comparisons"][1]["lhs"] is None


X4_SIDES = (
    ("infinite product 1/((q;q)(q^3;q)(q^6;q)(q^9;q))", ((1, 1), (3, 1), (6, 1), (9, 1))),
    ("infinite product 1/((q;q^9)(q^3;q^9)(q^6;q^9)(q^8;q^9)) "
     "[alternate modulus-9 form]", ((1, 9), (3, 9), (6, 9), (8, 9))),
)


def _reference_identity_report(name, truncation):
    # The report with each x4 product side computed in full, through q^T.
    orbits, tables = analyze(preset(name))
    summed = halved_exponents(character(orbits, tables, 2 * truncation).evaluate_at_one())
    if name == "x3":
        sides = [("separated-partition count (parts repeat <= 2, no gap-1 pairs)",
                  QSeries(separated_partition_counts(truncation)))]
    else:
        sides = [(label, inverse_poch_product(factors, truncation))
                 for label, factors in X4_SIDES]
    comparisons = []
    for label, side in sides:
        diff = summed.first_difference(side)
        comparisons.append(IdentityComparison(label, diff is None, *(diff or (None,) * 3)))
    return IdentityReport(name, truncation, tuple(comparisons))


@pytest.mark.parametrize("truncation", [0, 1, 2, 3, 7, 8, 9, 16, 17, 100, 500])
@pytest.mark.parametrize("name", ["x3", "x4"])
def test_identity_report_equals_the_full_product_report(name, truncation):
    assert verify_partition_identity(name, truncation) == \
        _reference_identity_report(name, truncation)


@pytest.mark.parametrize("name", ["x3", "x4"])
def test_identity_cli_output_equals_the_full_product_output(name, capsys, monkeypatch):
    from twistchar import cli

    def outputs():
        got = []
        for strict in ((), ("--strict-identities",)):
            for fmt in ("text", "json"):
                code = cli.main(["verify", "--preset", name, "--identities", "-T", "60",
                                 *strict, "--format", fmt])
                got.append((code, capsys.readouterr().out))
        return got

    stopped = outputs()
    monkeypatch.setattr(cli, "verify_partition_identity", _reference_identity_report)
    assert stopped == outputs()
    assert [code for code, _ in stopped] == ([0, 0, 0, 0] if name == "x3" else [0, 0, 1, 1])


def test_x4_printed_product_stops_at_its_first_mismatch(monkeypatch):
    # The printed product first differs at q^2; it is never built past q^16,
    # while the matching modulus-9 side reaches the truncation.
    from twistchar import qseries

    built = []

    def recorded(factors, truncation):
        built.append((tuple(factors), truncation))
        return inverse_poch_product(factors, truncation)

    monkeypatch.setattr(qseries, "inverse_poch_product", recorded)
    report = verify_partition_identity("x4", 500)
    assert report.comparisons[0].first_mismatch == 2
    (_, printed), (_, mod9) = X4_SIDES
    assert 0 < max(t for f, t in built if f == printed) <= 16
    assert max(t for f, t in built if f == mod9) == 500


@pytest.mark.parametrize("exponent", [0, 7, 8, 9, 16, 17, 40, 99, 100])
def test_product_mismatch_past_the_first_truncation_is_the_full_products(exponent):
    # A mismatch found at truncation 8, 16, ..., or at T itself, is the one
    # the full product shows.
    factors = ((1, 9), (3, 9))
    full = inverse_poch_product(factors, 100)
    summed = QSeries(list(full.coeffs))
    summed.coeffs[exponent] += 1
    assert _compare_product("p", summed, factors) == IdentityComparison(
        "p", False, exponent, full.coeffs[exponent] + 1, full.coeffs[exponent])
    assert _compare_product("p", full, factors) == IdentityComparison(
        "p", True, None, None, None)


def test_x3_summed_character_has_even_exponents_only():
    orbits, tables = analyze(preset("x3"))
    total = character(orbits, tables, 30).evaluate_at_one()
    assert all(e % 2 == 0 for e, _ in total.items())


# ------------------------------------------------------------- property tests


small_series = st.builds(
    series,
    st.just(12),
    st.dictionaries(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=-5, max_value=5),
        max_size=6,
    ),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QSeries.zero(12) == a
    assert a * QSeries.one(12) == a
    assert (a - a).is_zero


# Lengths 1-80 drawn first, so that long lists are as likely as short ones.
signed_lists = st.integers(min_value=1, max_value=80).flatmap(
    lambda n: st.lists(st.integers(min_value=-50, max_value=50), min_size=n, max_size=n))


def _add_part_by_index(coeffs, part):
    # Reference: the partition-count pass as one index loop.
    for n in range(part, len(coeffs)):
        coeffs[n] += coeffs[n - part]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(signed_lists, st.one_of(st.integers(min_value=1, max_value=9),
                               st.integers(min_value=1, max_value=100)))
def test_add_part_matches_the_index_loop(coeffs, part):
    # Parts with part^2 < len, part^2 >= len and part >= len all occur.
    want = list(coeffs)
    _add_part_by_index(want, part)
    _add_part(coeffs, part)
    assert coeffs == want


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=80))
def test_poch_infinite_matches_the_factor_loop(start, step, t):
    want = [1] + [0] * t
    for a in range(start, t + 1, step):
        for n in range(t, a - 1, -1):
            want[n] -= want[n - a]
    assert poch_infinite(start, step, t).coeffs == want


@settings(max_examples=120, deadline=None, derandomize=True)
@given(signed_lists, signed_lists)
def test_add_and_sub_match_termwise_sums(a, b):
    n = min(len(a), len(b))
    assert (QSeries(a) + QSeries(b)).coeffs == [a[e] + b[e] for e in range(n)]
    assert (QSeries(a) - QSeries(b)).coeffs == [a[e] - b[e] for e in range(n)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(small_series, small_series, st.integers(min_value=0, max_value=12))
def test_truncation_stability(a, b, t):
    assert (a + b).truncated(t) == a.truncated(t) + b.truncated(t)
    assert (a * b).truncated(t) == a.truncated(t) * b.truncated(t)


def _series_by_products(orbits, tables, truncation, m):
    # Reference: charge m's series as a product of truncated series, one
    # poch_inverse factor per orbit, multiplied with QSeries.__mul__.
    base = quadratic_value(tables.char_matrix, m) // 2
    out = QSeries.one(truncation - base)
    for i, mult in enumerate(m):
        if mult:
            step = orbits.k // orbits.lengths[i]
            out = out * poch_inverse(step, mult, truncation - base)
    return out.shifted(base)


def _assert_character_equals_products(orbits, tables, truncation, every=1):
    # The table holds the reference enumerator's charges in sorted order,
    # and every `every`-th of them carries the product reference's series.
    table = character(orbits, tables, truncation)
    charges = enumerate_charges(tables.char_matrix, truncation)
    assert list(table.entries) == charges
    for m in charges[::every]:
        assert table.entries[m] == _series_by_products(orbits, tables, truncation, m), m
    return len(charges[::every])


@pytest.mark.parametrize("name", PRESETS + ("3-cycle",))
def test_character_equals_product_of_series(name):
    if name == "3-cycle":
        lattice = lattice_from_config(
            {"rank": 3, "gram": [[2, 1, 1], [1, 2, 1], [1, 1, 2]], "perm": "(1 2 3)"}
        )
    else:
        lattice = preset(name)
    orbits, tables = analyze(lattice)
    _assert_character_equals_products(orbits, tables, 200)


def test_random_characters_equal_product_of_series(random_lattices):
    # Up to five orbits: deeper prefix trees than any preset's.
    for orbits, tables in random_lattices:
        _assert_character_equals_products(orbits, tables, 60)


def test_x3_character_at_large_truncation_equals_products_on_a_sample():
    orbits, tables = analyze(preset("x3"))
    assert _assert_character_equals_products(orbits, tables, 1200, every=10) >= 20
