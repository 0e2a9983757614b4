"""Seeded random valid lattices and the census, beyond the four presets.

The draws come from the ``random_lattices`` fixture in ``conftest.py``.
On every kept lattice the oracle, the membership sweep, the monomial
enumerator, the character's lowest weights and both character recursions
are checked, and a relation mutation that sends every root of unity to 1
must be caught exactly on the lattices whose relations see those roots.
The oracle, the membership sweep and both recursions also run on every
pair of the ``census`` fixture, and the oracle on every wide draw.
"""

from itertools import combinations_with_replacement, product

from twistchar import quotient
from twistchar.lattice import analyze
from twistchar.qseries import (
    RecursionCheck,
    character,
    check_coefficient_recursion,
    check_recursion,
    check_recursions,
)
from twistchar.quotient import (
    TwistedVariable,
    compare_with_character,
    enumerate_monomials,
    new_relations_sweep,
)

CHARGE_BOUND, WEIGHT_BOUND = 3, 20


def _sees_the_roots(orbits, tables):
    # A pair (i, j) with l_j > 1 and a nonzero rotated pairing at r >= 1: its
    # relation family has a generator whose root varies along the family.
    return any(
        orbits.lengths[j] > 1 and any(tables.rotated[i][j][1:])
        for i in range(orbits.d) for j in range(orbits.d)
    )


def _window(orbits):
    for charge in product(range(CHARGE_BOUND + 1), repeat=orbits.d):
        if sum(charge) <= CHARGE_BOUND:
            for weight in range(WEIGHT_BOUND + 1):
                yield charge, weight


def _brute_force_monomials(orbits, tables, charge, weight):
    # Every multiset of each orbit's weights start_i + p * s_i, combined over
    # the orbits, kept at the exact weight and sorted.
    per_orbit = []
    for i, m in enumerate(charge):
        start, step = tables.char_matrix[i][i] // 2, orbits.k // orbits.lengths[i]
        per_orbit.append([
            tuple(TwistedVariable(i, w) for w in ws)
            for ws in combinations_with_replacement(range(start, weight + 1, step), m)
        ])
    monos = (sum(parts, ()) for parts in product(*per_orbit))
    return sorted(m for m in monos if sum(v.weight for v in m) == weight)


def test_random_lattices_pass_the_oracle_and_the_sweep(random_lattices):
    for orbits, tables in random_lattices:
        assert compare_with_character(orbits, tables, CHARGE_BOUND, WEIGHT_BOUND).all_ok
        assert all(c.member for c in new_relations_sweep(orbits, tables))


def test_random_oracles_equal_the_all_exact_oracle(random_lattices, monkeypatch):
    for orbits, tables in random_lattices:
        report = compare_with_character(orbits, tables, 3, 16)
        assert not report.exact
        monkeypatch.setattr(quotient, "family_mod_p", lambda *args: None)
        exact = compare_with_character(orbits, tables, 3, 16)
        monkeypatch.undo()
        assert exact.exact and report.to_json_dict() == exact.to_json_dict()


def test_wide_draws_pass_the_oracle_without_exact_elimination(wide_inputs):
    # Every rank of every cell at (2, 16) by leads or mod p, on all 2000 draws.
    for inp in wide_inputs:
        report = compare_with_character(*analyze(inp), 2, 16)
        assert report.all_ok and not report.exact, inp


def test_random_lattices_enumerate_like_brute_force(random_lattices):
    for orbits, tables in random_lattices:
        for charge, weight in _window(orbits):
            assert enumerate_monomials(orbits, tables, charge, weight) == (
                _brute_force_monomials(orbits, tables, charge, weight)
            )


def test_random_character_series_start_at_the_lowest_weight(random_lattices):
    # The oracle visits no cell below sum_i m_i * start_i, so no character
    # coefficient may sit there.
    for orbits, tables in random_lattices:
        table = character(orbits, tables, WEIGHT_BOUND)
        starts = [tables.char_matrix[i][i] // 2 for i in range(orbits.d)]
        for charge in table.charges():
            lowest = sum(m * start for m, start in zip(charge, starts))
            assert not any(table.series(charge).coeffs[:lowest])


def test_random_characters_pass_both_recursions(random_lattices):
    for orbits, tables in random_lattices:
        table = character(orbits, tables, 60)
        for i in range(orbits.d):
            assert check_recursion(table, i).cells > 0
            assert check_coefficient_recursion(table, i).cells > 0


def test_random_lattices_see_the_relation_roots(random_lattices, monkeypatch):
    # With every root of unity sent to 1 (rotation 0), the oracle or the
    # sweep must fail on exactly the lattices whose relations see the roots.
    sees = [_sees_the_roots(orbits, tables) for orbits, tables in random_lattices]
    assert 4 * sum(sees) >= len(random_lattices)
    real = quotient._relation_coeff
    monkeypatch.setattr(
        quotient, "_relation_coeff",
        lambda orbits, tables, i, r, m, w: real(orbits, tables, i, 0, m, w),
    )
    caught = [
        bool(compare_with_character(orbits, tables, CHARGE_BOUND, WEIGHT_BOUND)
             .mismatches)
        or not all(c.member for c in new_relations_sweep(orbits, tables))
        for orbits, tables in random_lattices
    ]
    assert caught == sees


def test_census_passes_the_oracle_the_sweep_and_both_recursions(census):
    for inp in census:
        orbits, tables = analyze(inp)
        assert compare_with_character(orbits, tables, CHARGE_BOUND, WEIGHT_BOUND).all_ok, inp
        assert all(c.member for c in new_relations_sweep(orbits, tables)), inp
        table = character(orbits, tables, 40)
        for i in range(orbits.d):
            assert all(isinstance(res, RecursionCheck)
                       for res in check_recursions(table, i)), (inp, i)
