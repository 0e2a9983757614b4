"""The twisted-module lower bound: pair factors, the two facts the
``twisted`` docstring proves of them, certificate (b), and a reference Phi
on whole bases.

``_phi`` is the functional model written out in full: the coefficient of
prod_a y_a^e_a in prod_{a<b} P(y_a, y_b) * E, as a polynomial in the
Heisenberg symbols a_i(s).  On whole windows, rank Phi(B) must equal the
character coefficient and every relation row must map to 0, which is
what certificate (b) proves without building Phi.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

import pytest

from twistchar import quotient
from twistchar.cyclotomic import ExactMatrix, get_field
from twistchar.lattice import analyze
from twistchar.presets import preset
from twistchar.qseries import character
from twistchar.twisted import pair_factor, pair_factors, vanishes

PRESETS = ("rank1", "swap2", "x3", "x4")


@pytest.fixture(scope="module")
def data():
    return {name: analyze(preset(name)) for name in PRESETS}


def _families(orbits, tables, weight_bound):
    slices = quotient._Slices(orbits, tables)
    for i in range(orbits.d):
        for j in range(orbits.d):
            for weight in range(weight_bound + 1):
                gens = slices.family(i, j, weight)
                if gens:
                    yield i, j, gens


def _starts(tables):
    return [row[i] // 2 for i, row in enumerate(tables.char_matrix)]


def _failures(orbits, tables, weight_bound, symmetrize=True):
    factors = pair_factors(orbits, tables)
    starts = _starts(tables)
    return sum(
        not vanishes(gen, factors[i, j], starts, symmetrize and i == j)
        for i, j, gens in _families(orbits, tables, weight_bound)
        for gen in gens
    )


# ---------------------------------------------------------------- factors


def test_pair_factor_hand_values(data):
    field = get_field(2)
    assert pair_factor(*data["rank1"], 0, 0) == {
        (2, 0): field.one(), (1, 1): field.from_rational(-2), (0, 2): field.one()
    }
    # swap2: (y1 - y2)^2 (y1 + y2), the second root zeta^-1 = -1.
    field = get_field(4)
    assert pair_factor(*data["swap2"], 0, 0) == {
        (3, 0): field.one(), (2, 1): field.from_rational(-1),
        (1, 2): field.from_rational(-1), (0, 3): field.one(),
    }


def test_pair_factor_degrees_are_half_the_character_matrix(data, random_lattices):
    for orbits, tables in [data[n] for n in PRESETS] + random_lattices:
        for (i, j), factor in pair_factors(orbits, tables).items():
            assert {sum(e) for e in factor} == {tables.char_matrix[i][j] // 2}


def test_pair_factors_below_the_diagonal_are_the_swapped_upper_factors(data):
    # x3: F holds its cross pair as P_01 = y1^2 - y2^2, y1 of orbit 0.  In
    # orbit 1's coordinates first that is y2^2 - y1^2, not P_10 = y1^2 - y2^2.
    orbits, tables = data["x3"]
    field = get_field(orbits.k)
    factors = pair_factors(orbits, tables)
    assert factors[0, 1] == pair_factor(orbits, tables, 0, 1) == {
        (2, 0): field.one(), (0, 2): field.from_rational(-1)}
    assert factors[1, 0] == {(0, 2): field.one(), (2, 0): field.from_rational(-1)}
    assert pair_factor(orbits, tables, 1, 0) == {
        (2, 0): field.one(), (0, 2): field.from_rational(-1)}


# ------------------------------------------- the two facts of the docstring


@pytest.fixture(scope="module")
def all_lattices(data, random_lattices, census, wide_inputs):
    """The presets, the draws, the census and the wide draws, each with its
    pair factors."""
    lattices = [data[n] for n in PRESETS] + random_lattices
    lattices += [analyze(inp) for inp in census + wide_inputs]
    return [(orbits, tables, pair_factors(orbits, tables)) for orbits, tables in lattices]


def test_diagonal_factors_equal_their_swap(all_lattices):
    for orbits, tables, factors in all_lattices:
        for i in range(orbits.d):
            assert factors[i, i] == {(e2, e1): c for (e1, e2), c in factors[i, i].items()}


def test_pairings_have_the_period_of_both_cycles(all_lattices):
    for orbits, tables, _ in all_lattices:
        for i, row in enumerate(tables.rotated):
            for j, pairings in enumerate(row):
                g = gcd(orbits.lengths[i], orbits.lengths[j])
                assert pairings == tuple(pairings[r % g] for r in range(len(pairings)))


def test_factor_exponents_lie_on_their_orbit_lattices(all_lattices):
    for orbits, tables, factors in all_lattices:
        steps = [orbits.nu_order // length for length in orbits.lengths]
        for (i, j), factor in factors.items():
            assert all(e1 % steps[i] == 0 and e2 % steps[j] == 0 for e1, e2 in factor)


# -------------------------------------------------------------- certificate b


@pytest.mark.parametrize("name", PRESETS)
def test_certificate_b_holds_on_the_presets(name, data):
    assert _failures(*data[name], 48) == 0


def test_certificate_b_holds_on_the_draws(random_lattices):
    assert sum(_failures(o, t, 20) for o, t in random_lattices) == 0


def test_unsymmetrized_certificate_b_fails_on_rank1(data):
    orbits, tables = data["rank1"]
    total = sum(len(gens) for *_, gens in _families(orbits, tables, 56))
    failures = _failures(orbits, tables, 56, symmetrize=False)
    assert total == 54 and failures == 48


def test_certificate_b_catches_the_binomial_mutation(data, monkeypatch):
    real = quotient._relation_coeff
    monkeypatch.setattr(
        quotient, "_relation_coeff",
        lambda orbits, tables, i, r, m, w: real(orbits, tables, i, r, m + 1, w),
    )
    for name in PRESETS:
        assert _failures(*data[name], 20) > 0, name


def test_certificate_b_catches_the_rotation_mutation(data, monkeypatch):
    real = quotient._relation_coeff
    monkeypatch.setattr(
        quotient, "_relation_coeff",
        lambda orbits, tables, i, r, m, w: real(orbits, tables, i, r + 1, m, w),
    )
    for name in ("swap2", "x3", "x4"):
        assert _failures(*data[name], 20) > 0, name


def test_certificate_b_passes_the_root_one_mutation(data, monkeypatch):
    # Every root sent to 1 only weakens the ideal, which no lower bound can
    # see; the oracle's upper bound does (test_quotient).
    real = quotient._relation_coeff
    monkeypatch.setattr(
        quotient, "_relation_coeff",
        lambda orbits, tables, i, r, m, w: real(orbits, tables, i, 0, m, w),
    )
    assert _failures(*data["swap2"], 20) == 0


# ------------------------------------------------------------- reference Phi


@lru_cache(maxsize=None)
def _exp_coefficient(step, n, f):
    # [y^f] exp(sum_s a(s) (n / s) y^s), s over the multiples of step, as
    # {sorted tuple of parts s: rational}: one term per partition of f.
    if f == 0:
        return {(): Fraction(1)}
    out = {}

    def rec(left, largest, parts):
        if left == 0:
            coeff = Fraction(1)
            for s in set(parts):
                mult = parts.count(s)
                coeff *= Fraction(n, s) ** mult / factorial(mult)
            out[tuple(parts)] = coeff
            return
        for s in range(min(left, largest), 0, -1):
            if s % step == 0:
                rec(left - s, s, parts + [s])

    rec(f, f, [])
    return out


def _phi(orbits, tables, factors, mono):
    # Phi(mono) as {Heisenberg monomial: scalar}, where a Heisenberg monomial
    # is a sorted tuple of symbols (orbit, s).
    field = get_field(orbits.k)
    starts = _starts(tables)
    exps = [(v.weight - starts[v.orbit]) // 2 for v in mono]
    size = len(mono)
    # prod_{a<b} P(y_a, y_b), cut to exponents within exps.
    product = {(0,) * size: field.one()}
    for a in range(size):
        for b in range(a + 1, size):
            factor = factors[mono[a].orbit, mono[b].orbit]
            out = {}
            for e, c in product.items():
                for (x1, x2), p in factor.items():
                    f = list(e)
                    f[a] += x1
                    f[b] += x2
                    if f[a] <= exps[a] and f[b] <= exps[b]:
                        f = tuple(f)
                        out[f] = out.get(f, field.zero()) + c * p
            product = out
    result = {}
    for e, c in product.items():
        terms = {(): c}
        for v, x, y in zip(mono, e, exps):
            step = orbits.nu_order // orbits.lengths[v.orbit]
            merged = {}
            for t, value in terms.items():
                for parts, q in _exp_coefficient(step, orbits.nu_order, y - x).items():
                    key = tuple(sorted(t + tuple((v.orbit, s) for s in parts)))
                    merged[key] = merged.get(key, field.zero()) + value * q
            terms = merged
        for t, value in terms.items():
            result[t] = result.get(t, field.zero()) + value
    return {t: value for t, value in result.items() if value}


def _check_phi_window(orbits, tables, charge_total, weight_bound):
    # Every populated cell: rank Phi(B) = coefficient, Phi(rows) = 0.
    factors = pair_factors(orbits, tables)
    field = get_field(orbits.k)
    table = character(orbits, tables, weight_bound)
    slices = quotient._Slices(orbits, tables, charge_total)
    starts = [s for s, _ in slices.start_step]
    charges = quotient._charges_up_to(starts, charge_total, weight_bound)
    cells = 0
    for charge in charges:
        for weight in range(slices.lowest(charge), weight_bound + 1):
            basis = quotient.enumerate_monomials(orbits, tables, charge, weight)
            if not basis:
                continue
            # Rows are keyed by monomial: images by key, one per monomial.
            images = {slices.key(mono): _phi(orbits, tables, factors, mono) for mono in basis}
            assert len(images) == len(basis)
            columns = sorted({t for image in images.values() for t in image})
            matrix = ExactMatrix(field, tuple(
                tuple(image.get(t, field.zero()) for t in columns)
                for image in images.values()
            ), len(columns))
            assert matrix.rank() == table.series(charge).coeff(weight), (charge, weight)
            blocks = quotient._blocks(slices, charge, weight)[0]
            for row in quotient._relation_rows(blocks, slices.keyed):
                total = {}
                for col, entry in row.items():
                    for t, value in images[col].items():
                        total[t] = total.get(t, field.zero()) + entry * value
                assert not any(total.values()), (charge, weight)
            cells += 1
    return cells


@pytest.mark.parametrize("name, cells", [
    ("rank1", 34), ("swap2", 30), ("x3", 76), ("x4", 66),
])
def test_reference_phi_on_the_presets(name, cells, data):
    assert _check_phi_window(*data[name], 3, 24) == cells


def test_reference_phi_on_the_draws(random_lattices):
    assert sum(_check_phi_window(o, t, 3, 16) for o, t in random_lattices) == 820
