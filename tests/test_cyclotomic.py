"""Field arithmetic and exact linear algebra, pinned against hand values."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from twistchar import modular, quotient, twisted
from twistchar.cyclotomic import (
    CyclotomicField,
    DimensionMismatch,
    ExactMatrix,
    NoSolution,
    NotADivisor,
    _divide_monic,
    _lower_terms,
    cyclotomic_polynomial,
    get_field,
    rational_binomial,
)
from twistchar.lattice import analyze
from twistchar.presets import preset
from twistchar.qseries import character

CONDUCTORS = (2, 3, 4, 6, 12)
# Arithmetic is also checked at degrees 1, 4, 4 and 8, where the inverse
# multiplies up to seven Galois conjugates.
ARITHMETIC_CONDUCTORS = CONDUCTORS + (1, 5, 8, 30)
# phi(k) for the conductors used throughout.
DEGREES = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4, 30: 8}


def _scalars(conductor):
    field = get_field(conductor)
    coeff = st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5
    )
    return st.lists(coeff, min_size=field.degree, max_size=field.degree).map(
        field.from_coeffs
    )


def test_rational_binomial_matches_comb():
    for n in range(8):
        for m in range(8):
            assert rational_binomial(n, m) == math.comb(n, m)
    assert rational_binomial(3, 5) == 0


def test_rational_binomial_negative_one_alternates():
    assert [rational_binomial(-1, m) for m in range(6)] == [1, -1, 1, -1, 1, -1]


def test_rational_binomial_fractional_arguments():
    assert rational_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert rational_binomial(Fraction(-3, 2), 3) == Fraction(-35, 16)
    assert rational_binomial(Fraction(7, 3), 0) == 1


def test_rational_binomial_rejects_negative_lower_index():
    with pytest.raises(ValueError):
        rational_binomial(2, -1)


@given(
    z=st.fractions(min_value=-20, max_value=20, max_denominator=12),
    m=st.integers(min_value=0, max_value=9),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_rational_binomial_is_the_product_formula(z, m):
    # Negative, non-integer and integer z, and m = 0 (the empty product).
    expected = Fraction(1)
    for i in range(m):
        expected *= z - i
    expected /= math.factorial(m)
    got = rational_binomial(z, m)
    assert type(got) is Fraction and got == expected
    if z.denominator == 1:
        assert rational_binomial(int(z), m) == expected


def test_rational_binomial_edge_cases():
    assert rational_binomial(Fraction(-5, 3), 0) == 1
    assert rational_binomial(-4, 3) == -20
    assert rational_binomial(Fraction(-1, 2), 3) == Fraction(-5, 16)
    assert rational_binomial(Fraction(5, 2), 4) == Fraction(-5, 128)


def test_cyclotomic_polynomial_small_table():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_multiply_to_x_n_minus_one():
    for n in (6, 8, 9, 10, 12):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                factor = cyclotomic_polynomial(d)
                out = [0] * (len(prod) + len(factor) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(factor):
                        out[i + j] += a * b
                prod = out
        assert prod == [-1] + [0] * (n - 1) + [1]


@lru_cache(maxsize=None)
def _divisor_by_divisor(n):
    # The reference construction: x^n - 1 divided by Phi_d for every proper
    # divisor d of n.
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = _divisor_by_divisor(d)
            deg = len(den) - 1
            _divide_monic(poly, _lower_terms(den), deg)
            assert not any(poly[:deg]), (n, d)
            poly = poly[deg:]
    return tuple(poly)


def test_cyclotomic_polynomial_equals_the_divisor_by_divisor_construction():
    for n in [*range(1, 301), 720, 2310]:
        assert cyclotomic_polynomial(n) == _divisor_by_divisor(n), n


def test_field_degrees():
    for k, deg in DEGREES.items():
        assert get_field(k).degree == deg


def test_eta_is_primitive():
    for k in CONDUCTORS:
        field = get_field(k)
        eta = field.eta
        assert eta ** k == field.one()
        for m in range(1, k):
            if k % m == 0:
                assert eta ** m != field.one()


def test_eta_to_wraps_exponents():
    field = get_field(12)
    assert field.eta_to(13) == field.eta
    assert field.eta_to(-1) == field.eta_to(11)
    assert field.eta_to(-1) * field.eta == field.one()
    for k in CONDUCTORS:
        field = get_field(k)
        for e in range(-2 * k, 2 * k):
            assert field.eta_to(e) == field.eta ** e


@pytest.mark.parametrize("k", (1, 2, 3, 4, 12, 60, 420))
def test_eta_powers_are_the_reduced_monomials(k):
    # Each power is eta times the last; x**e reduced from scratch agrees.
    field = get_field(k)
    for e in range(k):
        assert field.eta_to(e).nums == tuple(field._reduce([0] * e + [1])), e
        assert field.eta_to(e).den == 1


@pytest.mark.parametrize("k", (1, 2, 12, 60, 420))
def test_eta_powers_asked_in_any_order_are_the_reduced_monomials(k):
    # A fresh field, powers asked for out of order and past either end of
    # 0..k-1: each steps up from the nearest power built before it.
    field = CyclotomicField(k)
    for e in [7 * k // 9, k - 1, k // 3, 5 * k + 2, -1, -4 * k - 3, 1, k, 0]:
        assert field.eta_to(e).nums == tuple(field._reduce([0] * (e % k) + [1])), e
    assert field.eta_to(5 * k + 2) == field.eta_to(2) == field.eta_to(-k + 2)


def test_eta_powers_take_linear_time_in_the_conductor():
    # k = 9240 = lcm(2, ..., 11), the order of a rank-30 permutation lattice's
    # isometry.  Reducing each x**e from scratch is quadratic in k and took
    # minutes; asked for in turn, each power is one step from the last.
    src = str(Path(modular.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    )}
    code = (
        "from twistchar.cyclotomic import get_field\n"
        "k = 9240\n"
        "field = get_field(k)\n"
        "powers = [field.eta_to(e) for e in range(k)]\n"
        "ok = all(list(field.eta_to(e).nums) == field._reduce([0] * e + [1])\n"
        "         for e in (k, k + 1, 2 * k - 1, 2 * k + 5))\n"
        "ok = ok and all(list(field.eta_to(-e).nums) == field._reduce([0] * (k - e) + [1])\n"
        "                for e in (1, 2, k - 1))\n"
        "print(field.degree, len(set(p.nums for p in powers)), ok)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=20)
    assert (run.returncode, run.stdout) == (0, "1920 9240 True\n"), run.stderr


@pytest.mark.parametrize("conductor", (1, 2, 3, 4, 5, 6, 8, 12))
def test_from_coeffs_reduces_vectors_of_any_length(conductor):
    # Vectors up to length 3k, i.e. well past the 2*degree - 1 terms of a
    # product, are reduced modulo the cyclotomic polynomial.
    field = get_field(conductor)
    for length in range(1, 3 * conductor + 1):
        vec = [Fraction((3 * e) % 7 - 3, 1 + e % 4) for e in range(length)]
        expected = sum(
            (field.eta_to(e) * c for e, c in enumerate(vec)), field.zero()
        )
        assert field.from_coeffs(vec) == expected, length


def test_fourth_root_squares_to_minus_one():
    field = get_field(4)
    i = field.eta
    assert i * i == field.from_rational(-1)
    assert i ** 4 == field.one()


def test_root_of_unity_orders():
    field = get_field(12)
    for order in (1, 2, 3, 4, 6, 12):
        z = field.root_of_unity(order)
        assert z ** order == field.one()
        if order > 1:
            assert z != field.one()
    cube = field.root_of_unity(3)
    # Primitive cube root satisfies z^2 + z + 1 = 0.
    assert cube * cube + cube + 1 == field.zero()


def test_root_of_unity_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        get_field(4).root_of_unity(3)
    with pytest.raises(NotADivisor):
        get_field(6).root_of_unity(4)


def test_scalar_str_formats():
    field = get_field(4)
    v = field.from_coeffs([2, Fraction(-1, 2)])
    assert str(v) == "2 - 1/2*eta"
    assert str(field.zero()) == "0"
    assert str(field.eta) == "eta"


def test_rational_detection():
    field = get_field(4)
    assert field.from_rational(Fraction(5, 3)).is_rational
    assert field.from_rational(Fraction(5, 3)).rational_value() == Fraction(5, 3)
    assert not field.eta.is_rational
    with pytest.raises(ValueError):
        field.eta.rational_value()


def test_division_and_inverse_hand_case():
    field = get_field(4)
    i = field.eta
    # 1 / (1 + i) = (1 - i) / 2
    v = (field.one() + i).inverse()
    assert v == field.from_coeffs([Fraction(1, 2), Fraction(-1, 2)])
    assert (field.one() + i) / (field.one() + i) == field.one()


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        get_field(4).zero().inverse()


@pytest.mark.parametrize("k", (1, 2, 12, 9240))
def test_rational_inverse_is_its_reciprocal(k):
    # No Galois conjugate is formed: in Q(eta_9240) there are 1919 of them.
    field = get_field(k)
    for x in (1, -1, 2, Fraction(-3, 7), Fraction(10 ** 20 + 1, 6)):
        assert field.from_rational(x).inverse() == field.from_rational(1 / Fraction(x))
        assert (field.from_rational(x) ** -2).rational_value() == Fraction(x) ** -2


def test_mixed_arithmetic_with_ints_and_fractions():
    field = get_field(6)
    eta = field.eta
    assert 1 + eta == eta + 1
    assert 2 * eta - eta == eta
    assert (eta * Fraction(1, 2)) * 2 == eta
    assert eta - eta == field.zero()


@pytest.mark.parametrize("conductor", ARITHMETIC_CONDUCTORS)
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_field_axioms(conductor, data):
    a = data.draw(_scalars(conductor))
    b = data.draw(_scalars(conductor))
    c = data.draw(_scalars(conductor))
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == get_field(conductor).zero()


@pytest.mark.parametrize("conductor", ARITHMETIC_CONDUCTORS)
@given(data=st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_inverse_roundtrip(conductor, data):
    field = get_field(conductor)
    a = data.draw(_scalars(conductor).filter(bool))
    assert a * a.inverse() == field.one()
    assert (a ** -2) * a * a == field.one()


# ------------------------- integer numerators against a Fraction reference
#
# The reference stores an element of Q(eta) as a tuple of Fraction
# coefficients, reduced by plain long division by Phi_k, and inverts by
# Gaussian elimination on the multiplication matrix: no code shared with
# the scalar beyond the cyclotomic polynomial.

REFERENCE_CONDUCTORS = (1, 3, 4, 5, 6, 8, 12)


def _ref_reduce(vec, k):
    phi = cyclotomic_polynomial(k)
    n = len(phi) - 1
    vec = [Fraction(c) for c in vec] + [Fraction(0)] * max(n - len(vec), 0)
    for i in range(len(vec) - 1, n - 1, -1):
        c = vec[i]
        for j, m in enumerate(phi):
            vec[i - n + j] -= c * m
    return tuple(vec[:n])


def _ref_mul(a, b, k):
    conv = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    return _ref_reduce(conv, k)


def _ref_inverse(a, k):
    # Solve a * x = 1: column j of the system is a * eta^j.
    n = len(a)
    cols = [_ref_mul(a, _ref_reduce([0] * j + [1], k), k) for j in range(n)]
    aug = [[cols[j][i] for j in range(n)] + [Fraction(i == 0)] for i in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[pivot] = aug[pivot], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [x - aug[r][c] * y for x, y in zip(aug[r], aug[c])]
    return tuple(row[n] for row in aug)


def _ref_pow(a, e, k):
    if e < 0:
        a, e = _ref_inverse(a, k), -e
    out = _ref_reduce([1], k)
    for _ in range(e):
        out = _ref_mul(out, a, k)
    return out


def _ref_hash(a, k):
    return hash(a[0]) if not any(a[1:]) else hash((k, a))


def _ref_str(a):
    terms = []
    for e, c in enumerate(a):
        if c:
            mon = "" if e == 0 else "eta" if e == 1 else f"eta^{e}"
            if not mon:
                terms.append(str(c))
            elif abs(c) == 1:
                terms.append(("-" if c < 0 else "") + mon)
            else:
                terms.append(f"{c}*{mon}")
    out = terms[0] if terms else "0"
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _assert_canonical(x, k):
    assert x.field.conductor == k and len(x.nums) == x.field.degree
    assert all(type(a) is int for a in x.nums) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    if not any(x.nums):
        assert x.den == 1


def _agrees(x, ref, k):
    _assert_canonical(x, k)
    assert x.coeffs == ref
    assert all(type(c) is Fraction for c in x.coeffs)
    assert hash(x) == _ref_hash(ref, k)
    assert str(x) == _ref_str(ref)
    assert x.is_rational == (not any(ref[1:]))
    if x.is_rational:
        assert x.rational_value() == ref[0] and x == ref[0]


def _ref_vectors(k, length=None):
    coeff = st.fractions(
        min_value=Fraction(-30), max_value=Fraction(30), max_denominator=12
    )
    degree = get_field(k).degree
    # Sparse vectors too, so that zero, rationals and cancellations occur.
    coeff = st.one_of(st.just(Fraction(0)), st.integers(-2, 2).map(Fraction), coeff)
    size = length or degree
    return st.lists(coeff, min_size=size, max_size=size)


@pytest.mark.parametrize("k", REFERENCE_CONDUCTORS)
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_scalar_arithmetic_matches_the_fraction_reference(k, data):
    field = get_field(k)
    va, vb = data.draw(_ref_vectors(k)), data.draw(_ref_vectors(k))
    a, b = field.from_coeffs(va), field.from_coeffs(vb)
    ra, rb = _ref_reduce(va, k), _ref_reduce(vb, k)
    _agrees(a, ra, k)
    _agrees(a + b, tuple(x + y for x, y in zip(ra, rb)), k)
    _agrees(a - b, tuple(x - y for x, y in zip(ra, rb)), k)
    _agrees(-a, tuple(-x for x in ra), k)
    _agrees(a * b, _ref_mul(ra, rb, k), k)
    _agrees(a * a, _ref_mul(ra, ra, k), k)
    q = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=9))
    _agrees(a * q, tuple(x * q for x in ra), k)
    _agrees(q - a, (q - ra[0],) + tuple(-y for y in ra[1:]), k)
    _agrees(a + q, (ra[0] + q,) + ra[1:], k)
    assert (a == b) == (ra == rb)
    assert (a + 0 == a) and (a - a == 0) and (a == a.field.zero()) == (not any(ra))
    e = data.draw(st.integers(min_value=-3, max_value=4))
    if any(ra):
        inv = _ref_inverse(ra, k)
        _agrees(a.inverse(), inv, k)
        _agrees(b / a, _ref_mul(rb, inv, k), k)
        _agrees(a ** e, _ref_pow(ra, e, k), k)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        if e >= 0:
            _agrees(a ** e, _ref_pow(ra, e, k), k)


@pytest.mark.parametrize("k", REFERENCE_CONDUCTORS)
@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_from_coeffs_matches_the_reference_at_any_length(k, data):
    length = data.draw(st.integers(min_value=0, max_value=3 * k))
    vec = data.draw(_ref_vectors(k, length))
    _agrees(get_field(k).from_coeffs(vec), _ref_reduce(vec, k), k)


@pytest.mark.parametrize("k", REFERENCE_CONDUCTORS)
def test_canonical_forms_of_constants_and_roots(k):
    field = get_field(k)
    _agrees(field.zero(), _ref_reduce([], k), k)
    _agrees(field.one(), _ref_reduce([1], k), k)
    for e in range(-k, 2 * k):
        _agrees(field.eta_to(e), _ref_reduce([0] * (e % k) + [1], k), k)
    for value in (0, 7, -3, Fraction(6, 4), Fraction(-10, 15)):
        _agrees(field.from_rational(value), _ref_reduce([value], k), k)
        _agrees(field.from_rational(value) * 0, _ref_reduce([], k), k)
    # A common factor of the numerators cancels into the denominator.
    half = field.from_coeffs([Fraction(1, 2)] * field.degree)
    _agrees(half * 4, _ref_reduce([2] * field.degree, k), k)
    assert (half * 4).den == 1


def test_matrix_det_and_inverse_rational():
    field = get_field(2)
    m = ExactMatrix.from_rows(field, [[1, 2], [3, 4]])
    assert m.det() == field.from_rational(-2)
    inv = m.inverse()
    assert m * inv == ExactMatrix.identity(field, 2)
    assert inv * m == ExactMatrix.identity(field, 2)


def test_matrix_rank_hand_cases():
    field = get_field(2)
    assert ExactMatrix.from_rows(field, [[1, 2], [2, 4]]).rank() == 1
    assert ExactMatrix.from_rows(field, [[1, 2], [3, 4]]).rank() == 2
    assert ExactMatrix.from_rows(field, [[0, 0]] * 3).rank() == 0
    assert ExactMatrix.identity(field, 4).rank() == 4


def test_matrix_det_over_gaussian_field():
    field = get_field(4)
    i = field.eta
    m = ExactMatrix.from_rows(field, [[1, i], [i, 1]])
    assert m.det() == field.from_rational(2)
    singular = ExactMatrix.from_rows(field, [[1, i], [-i, 1]])
    assert singular.det() == field.zero()
    assert singular.rank() == 1


def test_solve_square_system():
    field = get_field(2)
    m = ExactMatrix.from_rows(field, [[1, 2], [3, 4]])
    x = m.solve([5, 11])
    assert x == [field.one(), field.from_rational(2)]


def test_solve_underdetermined_sets_free_variables_to_zero():
    field = get_field(2)
    m = ExactMatrix.from_rows(field, [[1, 1]])
    assert m.solve([3]) == [field.from_rational(3), field.zero()]


def test_solve_inconsistent_raises():
    field = get_field(2)
    m = ExactMatrix.from_rows(field, [[1], [1]])
    with pytest.raises(NoSolution):
        m.solve([1, 2])


def test_solve_rejects_bad_rhs_length():
    field = get_field(2)
    with pytest.raises(DimensionMismatch):
        ExactMatrix.identity(field, 2).solve([1])


def test_inverse_of_singular_raises():
    field = get_field(2)
    with pytest.raises(NoSolution):
        ExactMatrix.from_rows(field, [[1, 2], [2, 4]]).inverse()
    with pytest.raises(DimensionMismatch):
        ExactMatrix.from_rows(field, [[1, 2]]).inverse()


def test_stack_shapes():
    field = get_field(2)
    m = ExactMatrix.from_rows(field, [[1, 2, 3], [4, 5, 6]])
    s = m.stack(ExactMatrix.from_rows(field, [[7, 8, 9]]))
    assert (s.nrows, s.ncols) == (3, 3)
    assert s.rows[2] == tuple(field.from_rational(v) for v in (7, 8, 9))


def test_first_difference_reports_position():
    field = get_field(2)
    a = ExactMatrix.from_rows(field, [[1, 2], [3, 4]])
    b = ExactMatrix.from_rows(field, [[1, 2], [3, 5]])
    assert a.first_difference(a) is None
    pos = a.first_difference(b)
    assert pos[0] == 1 and pos[1] == 1


def _random_matrix(data, field, nrows, ncols):
    entries = data.draw(
        st.lists(
            st.integers(min_value=-4, max_value=4),
            min_size=nrows * ncols,
            max_size=nrows * ncols,
        )
    )
    return ExactMatrix.from_rows(
        field, [entries[r * ncols : (r + 1) * ncols] for r in range(nrows)]
    )


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_rank_is_transpose_invariant(data):
    field = get_field(4)
    m = _random_matrix(data, field, 3, 4)
    transposed = ExactMatrix(field, tuple(zip(*m.rows)), m.nrows)
    assert m.rank() == transposed.rank()


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_det_is_multiplicative(data):
    field = get_field(4)
    a = _random_matrix(data, field, 3, 3)
    b = _random_matrix(data, field, 3, 3)
    assert (a * b).det() == a.det() * b.det()


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_solve_returns_actual_solutions(data):
    field = get_field(4)
    a = _random_matrix(data, field, 3, 3)
    x = [field.from_rational(v) for v in data.draw(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3)
    )]
    rhs = [
        sum((a.rows[r][c] * x[c] for c in range(3)), field.zero())
        for r in range(3)
    ]
    got = a.solve(rhs)
    back = [
        sum((a.rows[r][c] * got[c] for c in range(3)), field.zero())
        for r in range(3)
    ]
    assert back == rhs


# ------------------------------------ rank mod p, the oracle's certified rank


def _oracle_cells(name_or_lattice, charge_total, weight_bound):
    # The window's cells with monomials, as compare_with_character visits
    # them: (memo, charge, weight, |B|, coefficient).
    if isinstance(name_or_lattice, str):
        name_or_lattice = analyze(preset(name_or_lattice))
    orbits, tables = name_or_lattice
    slices = quotient._Slices(orbits, tables, charge_total)
    table = character(orbits, tables, weight_bound)
    lows = [start for start, _ in slices.start_step]
    for charge in quotient._charges_up_to(lows, charge_total, weight_bound):
        for weight in range(slices.lowest(charge), weight_bound + 1):
            monomials = len(quotient.enumerate_monomials(orbits, tables, charge, weight))
            if monomials:
                coeff = table.series(charge).coeff(weight)
                yield slices, charge, weight, monomials, coeff


class _Proof(NamedTuple):
    proved: bool
    target: int  # |B| - coefficient
    monomials: int
    rows: int
    rank: int


def _certified_and_exact(cells) -> list[_Proof]:
    # Per cell, the oracle's (row count, rank, proved), each rank checked
    # against exact elimination of the same rows.
    out = []
    for slices, charge, weight, monomials, coeff in cells:
        rows, rank, method = quotient._oracle_rank(
            slices, charge, weight, monomials - coeff
        )
        assert (rows, rank) == slices.rank(charge, weight)
        out.append(_Proof(method != "exact", monomials - coeff, monomials, rows, rank))
    return out


@pytest.mark.parametrize("draw", (1, 2, 3, 4, 5, 8, 12))
def test_certified_rank_of_rank_deficient_products(draw, random_lattices):
    # The rows of I(m, w) are the products cofactor * relation, far more
    # than their rank.  On a random lattice's window the rank mod p of those
    # products meets |B| - coefficient at every cell, which proves it, and it
    # equals exact elimination's rank.
    cells = _certified_and_exact(_oracle_cells(random_lattices[draw], 3, 16))
    assert all(c.proved and c.rank == c.target for c in cells)
    assert any(c.rank < c.rows for c in cells)


def test_certified_rank_rejects_an_entry_equal_to_the_prime(monkeypatch):
    # Every relation entry 0 mod p, as an entry equal to the prime is: the
    # rank mod p is 0, which proves only the cells whose target is 0; every
    # other cell takes its rank from exact elimination.
    monkeypatch.setattr(twisted, "image", lambda nums, den, p, omega: 0)
    cells = _certified_and_exact(_oracle_cells("swap2", 3, 24))
    assert all(c.proved == (c.target == 0) for c in cells)
    assert any(c.target for c in cells)


def test_certified_rank_rejects_a_denominator_divisible_by_the_prime(monkeypatch):
    field = get_field(3)
    p, omega = modular.root_prime(3)

    def image(scalar):
        return modular.image(scalar.nums, scalar.den, p, omega)

    assert image(field.from_rational(Fraction(1, p))) is None
    assert image(field.from_coeffs([3, Fraction(1, 2 * p)])) is None
    assert image(field.eta) == omega
    assert image(field.from_coeffs([Fraction(1, 2), 3])) == (
        pow(2, -1, p) + 3 * omega
    ) % p
    # With p dividing a denominator of every relation entry, only the cells
    # without rows are proved; the others fall back to exact elimination.
    monkeypatch.setattr(twisted, "image", lambda nums, den, p, omega: None)
    cells = _certified_and_exact(_oracle_cells("swap2", 3, 24))
    assert all(c.proved == (c.rows == 0) for c in cells)
    assert any(c.rows for c in cells)


def test_certified_rank_on_empty_and_full_rank_shapes():
    # rank1's window has cells without rows (one variable: rank 0, the
    # coefficient is |B|) and cells of full column rank (below the
    # character's lowest weight m^2: coefficient 0, rank |B|); all proved.
    cells = _certified_and_exact(_oracle_cells("rank1", 4, 24))
    assert all(c.proved and c.rank == c.target for c in cells)
    assert any(c.rows == c.rank == 0 for c in cells)
    assert any(0 < c.rank == c.monomials for c in cells)


def test_rank_mod_stops_at_its_limit():
    p = 101
    rows = [{0: 1}, {1: 1}, {2: 1}]
    assert modular.rank_mod([dict(r) for r in rows], p, 2) == 2
    assert modular.rank_mod([dict(r) for r in rows], p, 0) == 0
    assert modular.rank_mod([{0: 1, 1: 2}, {0: 2, 1: 4}, {}], p, 3) == 1


@pytest.mark.parametrize("conductor", (1, 2, 3, 4, 6, 12))
def test_rational_scalars_hash_as_their_value(conductor):
    field = get_field(conductor)
    for value in (0, 1, -3, Fraction(2, 3), Fraction(-7, 4)):
        scalar = field.from_rational(value)
        assert scalar == value and hash(scalar) == hash(value)
        assert hash(scalar) == hash(Fraction(value))
        assert len({scalar, value}) == 1
    assert len({field.one(), 1, Fraction(1)}) == 1
