"""Brute-force quotient oracle and two-variable relation membership."""

import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from twistchar import quotient, twisted
from twistchar.cyclotomic import ExactMatrix, NoSolution, get_field, rational_binomial
from twistchar.lattice import analyze
from twistchar.modular import rank_mod, root_prime
from twistchar.pascal import verify_invertible
from twistchar.presets import lattice_from_config, preset
from twistchar.qseries import character
from twistchar.quotient import (
    BudgetExceeded,
    PreconditionViolated,
    TwistedVariable,
    build_relations,
    compare_with_character,
    enumerate_monomials,
    membership_matrix,
    membership_matrix_decomposition,
    membership_pascal_spec,
    new_relations_membership,
    new_relations_sweep,
    quotient_dimension,
)

PRESETS = ("rank1", "swap2", "x3", "x4")
THREE_CYCLE = analyze(lattice_from_config(
    {"rank": 3, "gram": [[2, 1, 1], [1, 2, 1], [1, 1, 2]], "perm": "(1 2 3)"}
))
# Orbits of lengths 2, 1, 1: pairs of unequal steps s_i != s_j.
PAIR_AND_FIXED = analyze(lattice_from_config({
    "rank": 4,
    "gram": [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],
    "perm": "(1 2)(3)(4)",
}))


@pytest.fixture(scope="module")
def data():
    return {name: analyze(preset(name)) for name in PRESETS}


def V(orbit, weight):
    return TwistedVariable(orbit, weight)


def _a_half(orbits, tables, i):
    # a_i = c_ii / (2 l_i), c_ii the sum of orbit i's rotated self-pairings.
    return Fraction(sum(tables.rotated[i][i]), 2 * orbits.lengths[i])


def _root_order(orbits, tables, i):
    # l_i, doubled when l_i is even and (rep_i, sigma^(l_i/2) rep_i) is odd.
    l_i = orbits.lengths[i]
    return 2 * l_i if l_i % 2 == 0 and tables.rotated[i][i][l_i // 2] % 2 else l_i


def _in_mode_set(orbits, tables, i, n):
    # Orbit i's modes: (1/l_i) Z, shifted by 1/(2 l_i) when its root order is 2 l_i.
    l_i = orbits.lengths[i]
    shift = Fraction(1, 2 * l_i) if _root_order(orbits, tables, i) != l_i else 0
    return ((n - shift) * l_i).denominator == 1


# ------------------------------------------------------------------- monomials


def test_enumerate_monomials_single_orbit(data):
    orbits, tables = data["rank1"]
    assert enumerate_monomials(orbits, tables, (2,), 4) == [(V(0, 2), V(0, 2))]
    assert enumerate_monomials(orbits, tables, (2,), 8) == [
        (V(0, 2), V(0, 6)),
        (V(0, 4), V(0, 4)),
    ]
    # Odd weights are unreachable: every variable weight is even.
    assert enumerate_monomials(orbits, tables, (2,), 7) == []
    assert enumerate_monomials(orbits, tables, (0,), 0) == [()]
    assert enumerate_monomials(orbits, tables, (0,), 3) == []


@pytest.mark.parametrize("name", PRESETS)
def test_enumerate_monomials_bidegrees_are_exact(name, data):
    orbits, tables = data[name]
    d = orbits.d
    charge = tuple(1 for _ in range(d))
    for weight in range(12):
        for mono in enumerate_monomials(orbits, tables, charge, weight):
            assert sum(v.weight for v in mono) == weight
            assert tuple(sum(v.orbit == i for v in mono) for i in range(d)) == charge
            assert tuple(sorted(mono)) == mono


def _reference_monomials(orbits, tables, charge, weight):
    # Every multiset of admissible weights per orbit, filtered by total weight.
    per_orbit = []
    for i, m in enumerate(charge):
        start, step = quotient._var_start_step(orbits, tables, i)
        per_orbit.append(combinations_with_replacement(range(start, weight + 1, step), m))
    return sorted(
        tuple(V(i, w) for i, ws in enumerate(choice) for w in ws)
        for choice in product(*per_orbit) if sum(map(sum, choice)) == weight
    )


@pytest.mark.parametrize("name", PRESETS + ("3-cycle",))
def test_enumerate_monomials_equals_the_reference_lists(name, data):
    # The last slot is placed, not searched: the lists and their order are
    # those of a search over every multiset of weights.
    orbits, tables = THREE_CYCLE if name == "3-cycle" else data[name]
    starts = [quotient._var_start_step(orbits, tables, i)[0] for i in range(orbits.d)]
    checked = 0
    for charge in quotient._charges_up_to(starts, 3, 16):
        for weight in range(17):
            expected = _reference_monomials(orbits, tables, charge, weight)
            assert enumerate_monomials(orbits, tables, charge, weight) == expected
            checked += len(expected)
    assert checked


def test_enumerate_monomials_rejects_bad_bidegree(data):
    orbits, tables = data["rank1"]
    with pytest.raises(PreconditionViolated):
        enumerate_monomials(orbits, tables, (1, 1), 4)
    with pytest.raises(PreconditionViolated):
        enumerate_monomials(orbits, tables, (-1,), 4)
    with pytest.raises(PreconditionViolated):
        enumerate_monomials(orbits, tables, (1,), -2)


# ------------------------------------------------------------------- relations


def test_relation_family_structure(data):
    orbits, tables = data["rank1"]
    gens = build_relations(orbits, tables, (0, 0), 4)
    assert [(g.rotation, g.power) for g in gens] == [(0, 1), (0, 2)]
    assert all(g.weight == 8 for g in gens)
    # The cross pair (-1, -3) merges with (-3, -1): coefficient 2.
    expected = (
        (2, (V(0, 2), V(0, 6))),
        (1, (V(0, 4), V(0, 4))),
    )
    for g in gens:
        assert tuple((int(c.rational_value()), m) for c, m in g.terms) == expected


def test_zero_generator_is_kept(data):
    orbits, tables = data["rank1"]
    gens = build_relations(orbits, tables, (0, 0), 2)
    assert len(gens) == 2
    [(coeff, mono)] = gens[0].terms
    assert coeff.rational_value() == 1
    assert mono == (V(0, 2), V(0, 2))
    assert gens[1].terms == ()


def test_relations_need_admissible_modes(data):
    orbits, tables = data["rank1"]
    # Total degree 3/2 is not a sum of two integer modes below -1/2, and
    # 1/3 is not even a weight (t * k = 2/3).
    for t in (Fraction(3, 2), Fraction(1, 3)):
        with pytest.raises(PreconditionViolated):
            build_relations(orbits, tables, (0, 0), t)


def test_cross_pair_relations_exist(data):
    orbits, tables = data["x3"]
    for pair in ((0, 1), (1, 0)):
        gens = build_relations(orbits, tables, pair, Fraction(3, 2))
        assert gens
        assert all(g.orbit_pair == pair for g in gens)


# ------------------------------------------------- weights against modes


def _mode_coeff(orbits, tables, i, r, m, n):
    # Reference coefficient of x_i(n) in relation (r, m): the root of order
    # L_i at mode n, eta^(r * (n * L_i) * (k / L_i)), times
    # binomial(-n - gram_ii/2, m - 1).
    k, big_l = orbits.k, _root_order(orbits, tables, i)
    exponent = r * (n * big_l) * (k // big_l)
    assert exponent.denominator == 1
    return get_field(k).eta_to(int(exponent)) * rational_binomial(
        -n - Fraction(tables.rotated[i][i][0], 2), m - 1
    )


def _mode_family(orbits, tables, i, j, weight):
    # Reference family in Fraction modes: the ordered decompositions
    # -t = n1 + n2 into admissible modes of orbits i and j, t = weight / k.
    k, l_i = orbits.k, orbits.lengths[i]
    t = Fraction(weight, k)
    a_i, a_j = _a_half(orbits, tables, i), _a_half(orbits, tables, j)
    pairs = []
    s1 = 0
    while a_i + Fraction(s1, l_i) <= t - a_j:
        n1 = -a_i - Fraction(s1, l_i)
        if _in_mode_set(orbits, tables, j, -t - n1):
            pairs.append(n1)
        s1 += 1
    if not pairs:
        return []
    field = get_field(k)
    gens = []
    for r in range(l_i):
        for m in range(1, tables.rotated[i][j][r] + 1):
            acc = {}
            for n1 in pairs:
                mono = tuple(sorted((V(i, int(-n1 * k)), V(j, int((t + n1) * k)))))
                coeff = _mode_coeff(orbits, tables, i, r, m, n1)
                acc[mono] = acc.get(mono, field.zero()) + coeff
            terms = tuple((c, mono) for mono, c in sorted(acc.items()) if c)
            gens.append(((i, j), r, m, weight, terms))
    return gens


@pytest.mark.parametrize("name", ("swap2", "x3", "x4", "3-cycle", "pair-and-fixed"))
def test_weights_match_the_mode_formulas(name, data):
    # The oracle alone cannot see a sign error in the root exponent (with
    # r -> -r it reports no mismatch on swap2, x3 or x4), so every family
    # and membership matrix is checked against the formulas in modes.
    orbits, tables = {
        "3-cycle": THREE_CYCLE, "pair-and-fixed": PAIR_AND_FIXED
    }.get(name) or data[name]
    slices = quotient._Slices(orbits, tables)
    nonempty = 0
    for i in range(orbits.d):
        for j in range(orbits.d):
            for weight in range(25):
                family = [
                    (g.orbit_pair, g.rotation, g.power, g.weight, g.terms)
                    for g in slices.family(i, j, weight)
                ]
                assert family == _mode_family(orbits, tables, i, j, weight)
                nonempty += any(terms for *_, terms in family)
            l_i, a_i = orbits.lengths[i], _a_half(orbits, tables, i)
            matrix = membership_matrix(orbits, tables, i, j)
            assert matrix.rows == tuple(
                tuple(
                    _mode_coeff(orbits, tables, i, r, m, -a_i - Fraction(p, l_i))
                    for p in range(matrix.ncols)
                )
                for r in range(l_i)
                for m in range(1, tables.rotated[i][j][r] + 1)
            )
    assert nonempty


def test_oracle_and_sweep_see_the_relation_roots(data, monkeypatch):
    # With every root of unity replaced by 1 (rotation 0), swap2's relations
    # no longer present the algebra: 6 mismatches and 3 non-members.  x3 and
    # x4 cannot see this mutation (no mismatch, no non-member), so swap2 is
    # the test case.
    real = quotient._relation_coeff
    monkeypatch.setattr(
        quotient, "_relation_coeff",
        lambda orbits, tables, i, r, m, w: real(orbits, tables, i, 0, m, w),
    )
    orbits, tables = data["swap2"]
    assert compare_with_character(orbits, tables, 3, 24).mismatches
    assert not all(c.member for c in new_relations_sweep(orbits, tables))


# ------------------------------------------------------------------ dimensions


def test_quotient_dimensions_single_orbit(data):
    orbits, tables = data["rank1"]
    assert quotient_dimension(orbits, tables, (2,), 4) == 0
    assert quotient_dimension(orbits, tables, (2,), 8) == 1
    assert quotient_dimension(orbits, tables, (0,), 0) == 1


def test_quotient_dimensions_swapped_pair(data):
    orbits, tables = data["swap2"]
    dims = [quotient_dimension(orbits, tables, (2,), w) for w in (6, 8, 10, 12)]
    assert dims == [0, 0, 0, 1]


def test_quotient_dimensions_mixed_charge(data):
    orbits, tables = data["x3"]
    dims = [quotient_dimension(orbits, tables, (1, 1), w) for w in (6, 8, 10)]
    assert dims == [0, 0, 1]


# ---------------------------------------------------------------------- oracle


def test_small_oracle_report(data):
    orbits, tables = data["rank1"]
    report = compare_with_character(orbits, tables, 2, 10)
    assert report.all_ok
    assert report.mismatches == ()
    assert len(report.cells) == 10
    assert report.empty_cells == 23
    first = report.cells[0]
    assert (first.charge, first.weight) == ((0,), 0)
    assert first.dimension == first.coefficient == 1
    assert first.to_json_dict()["status"] == "ok"
    assert list(first.to_json_dict()) == ["charge", "weight", "monomials", "relations",
                                          "rank", "dimension", "coefficient", "status"]
    with pytest.raises(AttributeError):
        first.rank = 0


def test_oracle_cells_match_character_directly(data):
    orbits, tables = data["swap2"]
    report = compare_with_character(orbits, tables, 2, 12)
    table = character(orbits, tables, 12)
    for cell in report.cells:
        assert cell.coefficient == table.series(cell.charge).coeff(cell.weight)
        assert cell.dimension == cell.monomials - cell.rank


def test_oracle_text_table_and_json(data):
    orbits, tables = data["rank1"]
    report = compare_with_character(orbits, tables, 2, 8)
    text = report.text_table()
    assert "all consistent" in text
    assert "MISMATCH" not in text
    a = report.to_json_dict()
    b = compare_with_character(orbits, tables, 2, 8).to_json_dict()
    assert a == b
    assert a["all_ok"] is True


# ---------------------------------------------------------------------- budget


def test_budget_caps_matrix_size(data, monkeypatch):
    orbits, tables = data["rank1"]
    monkeypatch.setattr(quotient, "MAX_COLUMNS", 1)
    with pytest.raises(BudgetExceeded, match="column budget"):
        quotient_dimension(orbits, tables, (2,), 8)
    with pytest.raises(BudgetExceeded, match="column budget"):
        compare_with_character(orbits, tables, 2, 8)
    monkeypatch.setattr(quotient, "MAX_COLUMNS", 2000)
    monkeypatch.setattr(quotient, "MAX_ROWS", 1)
    with pytest.raises(BudgetExceeded, match="row count"):
        quotient_dimension(orbits, tables, (2,), 8)
    with pytest.raises(BudgetExceeded, match="row count"):
        compare_with_character(orbits, tables, 2, 8)
    with pytest.raises(BudgetExceeded, match="row count"):
        new_relations_membership(orbits, tables, 0, 0, 1, 0)


def test_column_budget_is_checked_before_any_enumeration(data, monkeypatch):
    def refuse(*args):
        pytest.fail("a basis was enumerated before the column check")

    monkeypatch.setattr(quotient, "enumerate_monomials", refuse)
    orbits, tables = data["rank1"]
    with pytest.raises(BudgetExceeded, match=r"2172 monomials .*\(6,\), weight=82"):
        compare_with_character(orbits, tables, 6, 90)
    with pytest.raises(BudgetExceeded, match="2172 monomials"):
        quotient_dimension(orbits, tables, (6,), 82)


@pytest.mark.parametrize("name", PRESETS + ("3-cycle",))
def test_basis_sizes_are_partition_counts(name, data):
    orbits, tables = THREE_CYCLE if name == "3-cycle" else data[name]
    slices = quotient._Slices(orbits, tables)
    lows = [start for start, _ in slices.start_step]
    for charge in quotient._charges_up_to(lows, 3, 30):
        assert slices.sizes(charge, 30) == [
            len(enumerate_monomials(orbits, tables, charge, w)) for w in range(31)
        ]


def test_cells_below_their_lowest_weight_are_not_enumerated(monkeypatch):
    enumerated = []
    enumerate_real = quotient.enumerate_monomials

    def enumerate_counted(orbits, tables, charge, weight):
        enumerated.append((tuple(charge), weight))
        return enumerate_real(orbits, tables, charge, weight)

    monkeypatch.setattr(quotient, "enumerate_monomials", enumerate_counted)
    orbits, tables = analyze(lattice_from_config(
        {"rank": 3, "gram": [[2, 0, 0], [0, 2, 0], [0, 0, 2]], "perm": "(1)(2)(3)"}
    ))
    assert compare_with_character(orbits, tables, 6, 4).all_ok
    starts = [tables.char_matrix[i][i] // 2 for i in range(orbits.d)]
    assert enumerated
    assert all(
        weight >= sum(m * start for m, start in zip(charge, starts))
        for charge, weight in enumerated
    )
    # The shortcut applies only to a valid bidegree.
    slices = quotient._Slices(orbits, tables)
    for charge, weight in (((0, 0), 0), ((-1, 0, 0), 0), ((1, 0, 0), -1)):
        with pytest.raises(PreconditionViolated):
            slices.basis(charge, weight)


def test_window_visits_only_charges_that_can_hold_a_monomial(monkeypatch):
    # Rank 5, Gram 2I, trivial isometry: of the 53130 charge vectors up to 20,
    # only the 126 of entry sum <= 4 can hold a monomial of weight <= 4.
    calls = []
    basis_real = quotient._Slices.basis
    monkeypatch.setattr(
        quotient._Slices, "basis",
        lambda self, *bidegree: calls.append(bidegree) or basis_real(self, *bidegree),
    )
    orbits, tables = analyze(lattice_from_config({
        "rank": 5,
        "gram": [[2 * (i == j) for j in range(5)] for i in range(5)],
        "perm": "(1)",
    }))
    report = compare_with_character(orbits, tables, 20, 4)
    assert report.all_ok
    assert (len(report.cells), report.empty_cells) == (26, 53130 * 5 - 26)
    assert len(calls) <= 200


# --------------------------------------------------------------------- sharing


def test_oracle_builds_each_basis_and_family_once(data, monkeypatch):
    bases, families = Counter(), Counter()
    enumerate_real, generators_real = quotient.enumerate_monomials, quotient._generators

    def enumerate_counted(orbits, tables, charge, weight):
        bases[tuple(charge), weight] += 1
        return enumerate_real(orbits, tables, charge, weight)

    def generators_counted(slices, i, j, weight, firsts):
        families[i, j, weight] += 1
        return generators_real(slices, i, j, weight, firsts)

    monkeypatch.setattr(quotient, "enumerate_monomials", enumerate_counted)
    monkeypatch.setattr(quotient, "_generators", generators_counted)
    orbits, tables = data["x3"]
    before = compare_with_character(orbits, tables, 3, 20)
    assert bases and families
    assert max(bases.values()) == 1 and max(families.values()) == 1
    monkeypatch.undo()
    assert compare_with_character(orbits, tables, 3, 20) == before


@pytest.mark.parametrize("name", PRESETS)
def test_sweep_ranks_each_relation_slice_once(name, data, monkeypatch):
    # One rank per nontrivial cell with its target appended, plus one per
    # distinct bidegree for the relation rows alone.
    ranked = []
    rank_real = ExactMatrix.rank
    monkeypatch.setattr(
        ExactMatrix, "rank", lambda self: ranked.append(self.nrows) or rank_real(self)
    )
    orbits, tables = data[name]
    cells = [c for c in new_relations_sweep(orbits, tables) if not c.trivial]
    bidegrees = set()
    for c in cells:
        target = _mode_target(orbits, tables, c.i, c.j, c.s, c.t)
        charge = tuple(sum(v.orbit == a for v in target) for a in range(orbits.d))
        bidegrees.add((charge, sum(v.weight for v in target)))
    assert len(ranked) == len(cells) + len(bidegrees)


@pytest.mark.parametrize("name, builds", [("swap2", 6), ("x3", 9), ("x4", 10)])
def test_sweep_builds_relation_rows_once_per_cell(name, builds, data, monkeypatch):
    # One build per nontrivial cell: the rank with the target appended and
    # the rank without it share the cell's rows.
    calls = []
    rows_real = quotient._relation_rows
    monkeypatch.setattr(
        quotient, "_relation_rows",
        lambda *args: calls.append(args) or rows_real(*args),
    )
    cells = new_relations_sweep(*data[name])
    assert len(calls) == sum(not c.trivial for c in cells) == builds


# ------------------------------------------------------------------ membership


def test_membership_range_validation(data):
    orbits, tables = data["x3"]
    # Pair (0, 1) allows only (s, t) = (0, 0).
    assert new_relations_membership(orbits, tables, 0, 1, 0, 0) in (True, False)
    with pytest.raises(PreconditionViolated):
        new_relations_membership(orbits, tables, 0, 1, 0, 1)
    with pytest.raises(PreconditionViolated):
        new_relations_membership(orbits, tables, 0, 0, -1, 0)


def test_membership_trivial_cell_has_inadmissible_mode(data):
    orbits, tables = data["x3"]
    assert new_relations_membership(orbits, tables, 1, 0, 0, 1) is True
    cells = new_relations_sweep(orbits, tables)
    trivial = [(c.i, c.j, c.s, c.t) for c in cells if c.trivial]
    assert trivial == [(1, 0, 0, 1)]


@pytest.mark.parametrize(
    "name,total,trivial",
    [("rank1", 3, 0), ("swap2", 6, 0), ("x3", 10, 1), ("x4", 13, 3)],
)
def test_membership_sweeps(name, total, trivial, data):
    orbits, tables = data[name]
    cells = new_relations_sweep(orbits, tables)
    assert len(cells) == total
    assert sum(c.trivial for c in cells) == trivial
    assert all(c.member for c in cells)
    sample = cells[0].to_json_dict()
    assert set(sample) == {"pair", "s", "t", "member", "trivial"}


def test_membership_sweep_refuses_past_its_budget_before_any_work(data, monkeypatch):
    # x4 has 13 instances: admitted at a budget of 13, refused at 12 before
    # its memo (and the field) is built.
    monkeypatch.setattr(quotient, "MAX_MEMBERSHIPS", 13)
    assert len(new_relations_sweep(*data["x4"])) == 13
    monkeypatch.setattr(quotient, "MAX_MEMBERSHIPS", 12)
    monkeypatch.setattr(quotient, "_Slices", None)
    with pytest.raises(BudgetExceeded, match="13 instances, over the budget of 12"):
        new_relations_sweep(*data["x4"])


def _mode_target(orbits, tables, i, j, s, t):
    # x_i(-a_i - s/l_i) * x_j(-a_j - t/l_i) from the mode formula (weight
    # -n * k), or None when the second mode is not admissible for orbit j.
    l_i, k = orbits.lengths[i], orbits.k
    n1 = -_a_half(orbits, tables, i) - Fraction(s, l_i)
    n2 = -_a_half(orbits, tables, j) - Fraction(t, l_i)
    if not _in_mode_set(orbits, tables, j, n2):
        return None
    return tuple(sorted((V(i, int(-n1 * k)), V(j, int(-n2 * k)))))


def _solve_membership(orbits, tables, i, j, s, t):
    # Reference: the target monomial is a combination of the relation rows
    # iff the transposed system has a solution.
    target = _mode_target(orbits, tables, i, j, s, t)
    if target is None:
        return True
    charge = tuple(sum(v.orbit == a for v in target) for a in range(orbits.d))
    weight = sum(v.weight for v in target)
    slices = quotient._Slices(orbits, tables)
    monomials = [slices.key(m) for m in enumerate_monomials(orbits, tables, charge, weight)]
    blocks = quotient._blocks(slices, charge, weight)[0]
    rows = quotient._relation_rows(blocks, slices.keyed)
    if not rows:
        return False
    # Rows are keyed by monomial; every key they hold is a basis monomial's.
    assert set().union(*rows, [slices.key(target)]) <= set(monomials)
    zero = get_field(orbits.k).zero()
    dense = [[row.get(c, zero) for c in monomials] for row in rows]
    span = ExactMatrix(get_field(orbits.k), tuple(zip(*dense)), len(rows))
    try:
        span.solve([1 if mono == slices.key(target) else 0 for mono in monomials])
        return True
    except NoSolution:
        return False


@pytest.mark.parametrize("name", PRESETS + ("3-cycle",))
def test_membership_by_rank_matches_solving(name, data):
    orbits, tables = THREE_CYCLE if name == "3-cycle" else data[name]
    cells = new_relations_sweep(orbits, tables)
    assert cells
    for c in cells:
        assert c.member == _solve_membership(orbits, tables, c.i, c.j, c.s, c.t)


def test_membership_by_rank_matches_solving_on_thinned_relations(data, monkeypatch):
    # With only every third relation row, some monomials leave the span, so
    # both answers are compared on non-members too.
    full = quotient._relation_rows
    monkeypatch.setattr(
        quotient, "_relation_rows", lambda *args, **kw: full(*args, **kw)[::3]
    )
    orbits, tables = data["swap2"]
    cells = new_relations_sweep(orbits, tables)
    assert not all(c.member for c in cells)
    for c in cells:
        assert c.member == _solve_membership(orbits, tables, c.i, c.j, c.s, c.t)


BENCHMARK_WINDOWS = (("swap2", 4, 36), ("x3", 4, 36), ("x4", 4, 36), ("rank1", 4, 56))
LARGE_WINDOWS = (("x3", 6, 48), ("x4", 6, 48), ("rank1", 6, 60))


def test_oracle_ranks_are_all_certified(data, random_lattices, monkeypatch):
    # A bound that stopped proving ranks would only cost speed, since the
    # cell falls back to exact elimination; here the fallback is an error.
    def no_fallback(self):
        pytest.fail("rank fell back to exact elimination")

    monkeypatch.setattr(ExactMatrix, "_echelon", no_fallback)
    windows = [(data[name], c, w) for name, c, w in BENCHMARK_WINDOWS + LARGE_WINDOWS]
    windows += [(lattice, 3, 20) for lattice in random_lattices]
    for (orbits, tables), charge_total, weight_bound in windows:
        report = compare_with_character(orbits, tables, charge_total, weight_bound)
        assert report.all_ok and not report.exact
        assert report.proved == sum(1 for c in report.cells if c.monomials)


# Two 3-cycles whose cycles pair unevenly: rotated (2, 0, 2) against (2, 2, 0).
TWO_THREE_CYCLES = {
    "rank": 6,
    "gram": [[4, 2, 0, 2, 2, 2], [2, 4, 0, 2, 0, 0], [0, 0, 4, 2, 0, 2],
             [2, 2, 2, 4, 0, 2], [2, 0, 0, 0, 4, 2], [2, 0, 2, 2, 2, 4]],
    "perm": [6, 5, 2, 1, 3, 4],
}


def test_uneven_three_cycles_need_no_exact_elimination():
    # P_10(y2, y1) is P_01(y1, y2) times eta^2, a cube root of unity and not
    # +-1.  F holds the pair as P_01 only, and certificate (b) against that
    # factor lets leads or mod p prove every rank: (leads, mod p, exact).
    orbits, tables = analyze(lattice_from_config(TWO_THREE_CYCLES))
    assert (tables.rotated[0][1], tables.rotated[1][0]) == ((2, 0, 2), (2, 2, 0))
    p01, p10 = (twisted.pair_factor(orbits, tables, *pair) for pair in ((0, 1), (1, 0)))
    eta2 = get_field(orbits.k).eta_to(2)
    assert {(e1, e2): c for (e2, e1), c in p10.items()} == {
        e: eta2 * c for e, c in p01.items()}
    for charge_total, weight_bound, counts in ((2, 16, (17, 5, 0)), (3, 24, (41, 17, 0))):
        report = compare_with_character(orbits, tables, charge_total, weight_bound)
        assert (report.leads, report.proved - report.leads, report.exact) == counts
        assert report.all_ok


def _swaps_to_plus_or_minus(orbits, tables):
    # The symmetry the oracle once required of every ordered pair before it
    # used either bound: P_ji(y2, y1) = +-P_ij(y1, y2), with + when i = j.
    for i in range(orbits.d):
        for j in range(orbits.d):
            factor = twisted.pair_factor(orbits, tables, i, j)
            swapped = {(e2, e1): c for (e1, e2), c
                       in twisted.pair_factor(orbits, tables, j, i).items()}
            negated = {e: -c for e, c in factor.items()}
            if swapped != factor and (i == j or swapped != negated):
                return False
    return True


def test_lattices_without_the_plus_minus_symmetry_need_no_exact_elimination(
    two_three_cycle_inputs, wide_inputs, monkeypatch
):
    # The 15 two-3-cycle draws, and the wide draws whose cross factors swap
    # to a root of unity other than +-1: at (2, 16) no rank is exact, and the
    # JSON is the all-exact oracle's.
    uneven = [inp for inp in wide_inputs if not _swaps_to_plus_or_minus(*analyze(inp))]
    assert len(uneven) == 13
    lattices = [analyze(inp) for inp in two_three_cycle_inputs + uneven]
    assert sum(not _swaps_to_plus_or_minus(*lattice) for lattice in lattices) == 21
    for orbits, tables in lattices:
        report = compare_with_character(orbits, tables, 2, 16)
        assert report.all_ok and report.proved and not report.exact
        assert report.to_json_dict() == _all_exact_json(orbits, tables, 2, 16, monkeypatch)


def test_an_overstated_coefficient_is_a_mismatch(data, monkeypatch):
    # rank1's coefficient at ((2,), 12) raised from 2 to 3.  A target
    # |B| - 3 = 0 taken from the table would be met by any rows; the target
    # comes from the twisted module's count c* = 2 instead, and a cell whose
    # coefficient differs from c* takes its rank from exact elimination.
    character_real = quotient.character

    def overstated(orbits, tables, truncation):
        table = character_real(orbits, tables, truncation)
        table.entries[(2,)].coeffs[12] += 1
        return table

    monkeypatch.setattr(quotient, "character", overstated)
    report = compare_with_character(*data["rank1"], 3, 20)
    (cell,) = report.mismatches
    assert (cell.charge, cell.weight, cell.monomials, cell.rank, cell.coefficient) == (
        (2,), 12, 3, 1, 3)
    assert report.exact == 1


# ------------------------------------------------------------ leading monomials


def _lead_cells(orbits, tables, charge_total, weight_bound):
    # Per populated cell: the lead count, the number of distinct least keys
    # of the rows mod p, and the rank mod p of those rows.
    slices = quotient._Slices(orbits, tables, charge_total)
    p, _ = root_prime(orbits.k)
    starts = [start for start, _ in slices.start_step]
    for charge in quotient._charges_up_to(starts, charge_total, weight_bound):
        sizes = slices.sizes(charge, weight_bound)
        for weight in range(slices.lowest(charge), weight_bound + 1):
            if sizes[weight]:
                blocks = quotient._blocks(slices, charge, weight)[0]
                rows = quotient._relation_rows(blocks, slices.family_mod_p)
                leads = len({min(row) for row in rows if row})
                count = len({cof + lead for cofs, key in blocks
                             for lead in slices.leads[key] for cof in cofs})
                yield count, leads, rank_mod(rows, p, len(rows))


@pytest.mark.parametrize("name, charge_total, weight_bound", BENCHMARK_WINDOWS)
def test_lead_count_is_the_rows_distinct_least_keys(name, charge_total, weight_bound,
                                                    data):
    cells = list(_lead_cells(*data[name], charge_total, weight_bound))
    assert cells and all(count == leads <= rank for count, leads, rank in cells)
    # On rank1 the leading keys reach the rank at every cell; elsewhere some
    # cells need the elimination mod p.
    assert any(count < rank for count, _, rank in cells) == (name != "rank1")


def test_lead_count_is_the_rows_distinct_least_keys_on_the_draws(random_lattices):
    for lattice in random_lattices:
        cells = list(_lead_cells(*lattice, 3, 16))
        assert cells and all(count == leads <= rank for count, leads, rank in cells)


@pytest.mark.parametrize("name, charge_total, weight_bound, by_leads, populated", [
    ("rank1", 4, 56, 107, 107), ("swap2", 4, 36, 45, 61),
    ("x3", 4, 36, 179, 181), ("x4", 4, 36, 156, 159),
])
def test_benchmark_windows_need_no_exact_elimination(name, charge_total, weight_bound,
                                                     by_leads, populated, data):
    report = compare_with_character(*data[name], charge_total, weight_bound)
    assert (report.leads, report.proved, report.exact) == (by_leads, populated, 0)


@pytest.mark.parametrize("name, charge_total, weight_bound, counts", [
    ("x3", 6, 48, (448, 9, 0)), ("x4", 6, 60, (517, 19, 0)),
    ("swap2", 6, 60, (105, 49, 0)),
])
def test_larger_windows_pin_their_proof_methods(name, charge_total, weight_bound,
                                                counts, data):
    # (leads, mod p, exact) cell counts, as the test above pins them on the
    # benchmark windows: a change of the split prime, or of the rows built
    # mod p, that pushes a cell onto another method fails here.
    report = compare_with_character(*data[name], charge_total, weight_bound)
    assert (report.leads, report.proved - report.leads, report.exact) == counts


@pytest.mark.parametrize("name, charge_total, weight_bound, populated", [
    ("swap2", 4, 36, 61), ("x3", 4, 36, 181), ("x4", 4, 36, 159), ("rank1", 4, 56, 107),
])
def test_proved_cells_walk_their_blocks_once(name, charge_total, weight_bound,
                                             populated, data, monkeypatch):
    # The leading keys and the rows mod p share one list of blocks.
    walks = []
    blocks_real = quotient._blocks
    monkeypatch.setattr(
        quotient, "_blocks", lambda *args: walks.append(args[1:]) or blocks_real(*args)
    )
    report = compare_with_character(*data[name], charge_total, weight_bound)
    assert report.proved == populated and not report.exact
    assert len(walks) == len(set(walks)) == populated


def _reference_blocks(slices, charge, weight):
    # The all-pairs scan that _blocks replaced: every ordered orbit pair,
    # skipped where the cofactor charge goes negative.
    blocks = []
    for i in range(slices.orbits.d):
        for j in range(slices.orbits.d):
            cof_charge = tuple(c - (a == i) - (a == j) for a, c in enumerate(charge))
            if min(cof_charge) < 0:
                continue
            top = weight - slices.start_step[i][0] - slices.start_step[j][0]
            sizes = slices.sizes(cof_charge, max(top, slices.bound))
            blocks += [(slices.basis(cof_charge, cof_weight), (i, j, weight - cof_weight))
                       for cof_weight in range(slices.lowest(cof_charge), top + 1)
                       if sizes[cof_weight]]
    return blocks


def test_blocks_equal_the_all_pairs_reference(data, census):
    lattices = [(data[name], 4, 36) for name in PRESETS]
    lattices += [(analyze(inp), 3, 20) for inp in census]
    cells = 0
    for (orbits, tables), charge_total, weight_bound in lattices:
        slices = quotient._Slices(orbits, tables, charge_total, weight_bound)
        starts = [start for start, _ in slices.start_step]
        for charge in quotient._charges_up_to(starts, charge_total, weight_bound):
            for weight in range(slices.lowest(charge), weight_bound + 1):
                blocks = quotient._blocks(slices, charge, weight)[0]
                assert blocks == _reference_blocks(slices, charge, weight), (charge, weight)
                cells += bool(blocks)
    assert cells


def _reference_charges(lows, total, bound):
    # The recursion that _charges_up_to replaced: the first entry, then every
    # charge of the rest.
    if not lows:
        return [()]
    return [(v,) + rest for v in range(min(total, bound // lows[0]) + 1)
            for rest in _reference_charges(lows[1:], total - v, bound - v * lows[0])]


def test_charges_up_to_equals_the_recursive_reference():
    checked = 0
    for d in range(1, 5):
        for lows in product((1, 2, 3, 5), repeat=d):
            for total, bound in product(range(5), range(0, 16, 3)):
                charges = quotient._charges_up_to(list(lows), total, bound)
                assert charges == _reference_charges(list(lows), total, bound)
                checked += len(charges)
    assert checked


def test_charges_up_to_needs_no_recursion_for_many_orbits():
    # 3000 orbits would pass the recursion limit one level per orbit.
    units = [(0,) * i + (1,) + (0,) * (2999 - i) for i in reversed(range(3000))]
    assert quotient._charges_up_to([1] * 3000, 1, 1) == [(0,) * 3000] + units


def test_keyed_family_is_memoized(data):
    slices = quotient._Slices(*data["x3"])
    key = 0, 1, 18
    keyed = slices.keyed(key)
    assert keyed and slices.keyed(key) is keyed
    assert keyed == [[(c, slices.key(m)) for c, m in g.terms]
                     for g in slices.family(*key)]


# ------------------------------------------------------------- monomial keys


def _reference_rows(slices, charge, weight, family):
    # The row builder the integer keys replaced: each product a sorted tuple
    # of variables, its column its position in the lexicographic basis.
    # family(key) gives one list of (entry, monomial) terms per generator.
    orbits, tables = slices.orbits, slices.tables
    basis = enumerate_monomials(orbits, tables, charge, weight)
    index = {mono: pos for pos, mono in enumerate(basis)}
    rows = []
    for i in range(orbits.d):
        for j in range(orbits.d):
            cof_charge = tuple(c - (a == i) - (a == j) for a, c in enumerate(charge))
            if min(cof_charge) < 0:
                continue
            top = weight - slices.start_step[i][0] - slices.start_step[j][0]
            for cof_weight in range(slices.lowest(cof_charge), top + 1):
                cofs = enumerate_monomials(orbits, tables, cof_charge, cof_weight)
                if not cofs:
                    continue
                gens = family((i, j, weight - cof_weight))
                if gens is None:
                    return None
                rows += ({index[tuple(sorted(cof + mono))]: c for c, mono in gen}
                         for cof in cofs for gen in gens)
    return rows


def _check_keyed_rows(orbits, tables, charge_total, weight_bound):
    # Every cell of the window: the keyed rows, exact and mod p, equal the
    # reference rows entry for entry once keys are mapped to positions.
    slices = quotient._Slices(orbits, tables, charge_total)
    starts = [start for start, _ in slices.start_step]
    split = root_prime(orbits.k)

    def exact(key):
        return [g.terms for g in slices.family(*key)]

    def residues(key):
        factor = slices.factor(*key[:2])
        return twisted.family_mod_p(slices.family(*key), factor, starts, *split)

    rows = 0
    for charge in quotient._charges_up_to(starts, charge_total, weight_bound):
        for weight in range(slices.lowest(charge), weight_bound + 1):
            basis = enumerate_monomials(orbits, tables, charge, weight)
            position = {slices.key(mono): pos for pos, mono in enumerate(basis)}
            assert len(position) == len(basis), (charge, weight)
            blocks = quotient._blocks(slices, charge, weight)[0]
            for family, form in ((exact, slices.keyed), (residues, slices.family_mod_p)):
                expected = _reference_rows(slices, charge, weight, family)
                keyed = None if any(form(key) is None for _, key in blocks) else (
                    quotient._relation_rows(blocks, form))
                assert (keyed is None) == (expected is None)
                assert expected is None or [
                    {position[key]: entry for key, entry in row.items()} for row in keyed
                ] == expected, (charge, weight)
                rows += len(keyed or ())
    return rows


@pytest.mark.parametrize("name, charge_total, weight_bound", BENCHMARK_WINDOWS + LARGE_WINDOWS)
def test_keyed_rows_equal_the_reference_rows(name, charge_total, weight_bound, data):
    assert _check_keyed_rows(*data[name], charge_total, weight_bound)


def test_keyed_rows_equal_the_reference_rows_on_the_draws(random_lattices):
    assert all(_check_keyed_rows(*lattice, 3, 20) for lattice in random_lattices)


def test_key_width_guard_raises_under_optimization(data):
    # Fields of 2 bits hold multiplicities up to 3; with a fourth copy of a
    # variable its key would be the key of the next variable, so a charge
    # entry of 4 is refused, by a check that python -O keeps.
    slices = quotient._Slices(*data["rank1"], 3)
    (start, step), = slices.start_step
    assert slices.key((V(0, start),) * 4) == slices.key((V(0, start + step),))
    code = (
        "from twistchar import quotient\n"
        "from twistchar.lattice import analyze\n"
        "from twistchar.presets import preset\n"
        "slices = quotient._Slices(*analyze(preset('rank1')), 3)\n"
        "assert False, 'asserts must be stripped'\n"
        "try:\n"
        "    quotient._blocks(slices, (4,), 16)\n"
        "except quotient.PreconditionViolated as error:\n"
        "    print('refused', error)\n"
    )
    src = str(Path(quotient.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stdout) == (
        0, "refused charge (4,) overflows 2-bit keys\n"
    ), run.stderr
    slices = quotient._Slices(*data["rank1"], 4)
    assert quotient._relation_rows(quotient._blocks(slices, (4,), 16)[0], slices.keyed)


@pytest.mark.parametrize("name, charge_total, weight_bound", BENCHMARK_WINDOWS)
def test_proved_path_enumerates_only_cofactor_bases(name, charge_total, weight_bound,
                                                    data, monkeypatch):
    # A cell's own basis is counted, never built; a cofactor has two
    # variables fewer than its cell.
    sums = []
    enumerate_real = quotient.enumerate_monomials

    def enumerate_counted(orbits, tables, charge, weight):
        sums.append(sum(charge))
        return enumerate_real(orbits, tables, charge, weight)

    monkeypatch.setattr(quotient, "enumerate_monomials", enumerate_counted)
    report = compare_with_character(*data[name], charge_total, weight_bound)
    assert report.proved and not report.exact
    assert sums and max(sums) <= charge_total - 2


@pytest.mark.parametrize("name, charge_total, weight_bound", BENCHMARK_WINDOWS)
def test_rows_are_built_from_nonempty_cofactor_bases_only(
    name, charge_total, weight_bound, data, monkeypatch
):
    # _blocks skips each cofactor weight whose partition count is 0, on the
    # proved path, the exact path and the membership sweep alike.
    empty = []
    enumerate_real = quotient.enumerate_monomials

    def enumerate_counted(orbits, tables, charge, weight):
        basis = enumerate_real(orbits, tables, charge, weight)
        if not basis:
            empty.append((tuple(charge), weight))
        return basis

    monkeypatch.setattr(quotient, "enumerate_monomials", enumerate_counted)
    compare_with_character(*data[name], charge_total, weight_bound)
    new_relations_sweep(*data[name])
    monkeypatch.setattr(quotient, "family_mod_p", lambda *args: None)
    report = compare_with_character(*data[name], 3, 20)
    assert report.exact and not empty


def _all_exact_json(orbits, tables, charge_total, weight_bound, monkeypatch):
    # The oracle with certificate (b) forced to fail: every cell with row
    # blocks takes its rank from exact elimination.  Only a cell with none
    # is proved, by its empty lead count.
    with monkeypatch.context() as patch:
        patch.setattr(quotient, "family_mod_p", lambda *args: None)
        report = compare_with_character(orbits, tables, charge_total, weight_bound)
    assert report.exact and report.proved == report.leads
    return report.to_json_dict()


@pytest.mark.parametrize("name", PRESETS)
def test_oracle_equals_the_all_exact_oracle(name, data, monkeypatch):
    orbits, tables = data[name]
    report = compare_with_character(orbits, tables, 3, 24)
    assert report.proved and not report.exact
    assert report.to_json_dict() == _all_exact_json(orbits, tables, 3, 24, monkeypatch)


def _mutate(monkeypatch, mutation):
    real = quotient._relation_coeff
    monkeypatch.setattr(
        quotient, "_relation_coeff",
        lambda orbits, tables, i, r, m, w: real(orbits, tables, i, *mutation(r, m), w),
    )


@pytest.mark.parametrize("mutation", [
    lambda r, m: (r, m + 1),  # binomial(., m - 1) -> binomial(., m)
    lambda r, m: (r + 1, m),  # the rotation's root, r -> r + 1
], ids=["binomial", "rotation"])
def test_certificate_b_sends_mutated_relations_to_exact_ranks(mutation, data, monkeypatch):
    orbits, tables = data["swap2"]
    _mutate(monkeypatch, mutation)
    report = compare_with_character(orbits, tables, 3, 24)
    assert report.exact
    assert report.to_json_dict() == _all_exact_json(orbits, tables, 3, 24, monkeypatch)


def test_the_upper_bound_sees_the_root_one_mutation(data, monkeypatch):
    # Certificate (b) holds for the weaker ideal; the rank mod p falls short
    # of |B| - coefficient, and exact elimination reports the mismatches.
    orbits, tables = data["swap2"]
    _mutate(monkeypatch, lambda r, m: (0, m))
    report = compare_with_character(orbits, tables, 3, 24)
    assert report.mismatches
    assert report.exact >= len(report.mismatches)
    assert report.to_json_dict() == _all_exact_json(orbits, tables, 3, 24, monkeypatch)


def test_a_small_prime_falls_back_on_zero_residues_and_denominators(data, monkeypatch):
    # Mod 2 with eta -> 1, a ring map on Z[eta][1/D] for k = 4 and odd D:
    # some of swap2's relation families have even denominators, and some
    # cells lose rank mod 2.  Both fall back to exact elimination.
    orbits, tables = data["swap2"]
    exact = _all_exact_json(orbits, tables, 3, 24, monkeypatch)
    undefined, short = [], []
    image_real, rank_real = twisted.image, quotient.rank_mod

    def image(nums, den, p, omega):
        out = image_real(nums, den, p, omega)
        undefined.append(out is None)
        return out

    def rank_mod(rows, p, limit):
        out = rank_real(rows, p, limit)
        short.append(out < limit)
        return out

    monkeypatch.setattr(quotient, "root_prime", lambda k: (2, 1))
    monkeypatch.setattr(twisted, "image", image)
    monkeypatch.setattr(quotient, "rank_mod", rank_mod)
    report = compare_with_character(orbits, tables, 3, 24)
    assert any(undefined) and any(short)
    assert report.exact > sum(short)
    assert report.to_json_dict() == exact


# ------------------------------------------------------- membership as Pascal


def test_membership_matrix_hand_value(data):
    orbits, tables = data["x3"]
    m = membership_matrix(orbits, tables, 1, 0)
    field = m.field
    one = field.one()
    assert m.rows == ((one, one), (-one, one))
    assert m.det() == field.from_rational(2)


@pytest.mark.parametrize("name", PRESETS)
def test_membership_matrix_factors_through_pascal_stack(name, data):
    orbits, tables = data[name]
    for i in range(orbits.d):
        for j in range(orbits.d):
            m = membership_matrix(orbits, tables, i, j)
            assert m.nrows == m.ncols
            assert m.det()
            scalars, pascal_form = membership_matrix_decomposition(
                orbits, tables, i, j
            )
            assert len(scalars) == m.nrows
            assert pascal_form.nrows == m.nrows
            for r in range(m.nrows):
                for c in range(m.ncols):
                    assert m.rows[r][c] == scalars[r] * pascal_form.rows[r][c]


@pytest.mark.parametrize("name", PRESETS)
def test_membership_pascal_spec_is_invertible(name, data):
    orbits, tables = data[name]
    for i in range(orbits.d):
        for j in range(orbits.d):
            spec = membership_pascal_spec(orbits, tables, i, j)
            assert spec.conductor == orbits.lengths[i]
            assert spec.block_sizes == tables.rotated[i][j]
            assert verify_invertible(spec).invertible


def test_membership_spec_hand_value(data):
    orbits, tables = data["x3"]
    spec = membership_pascal_spec(orbits, tables, 1, 0)
    assert spec.conductor == 2
    assert spec.block_sizes == (1, 1)
    assert spec.z == Fraction(-1, 2)
    assert spec.w == Fraction(1, 2)
