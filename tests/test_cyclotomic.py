"""Field arithmetic and exact linear algebra, pinned against hand values."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from twistchar.cyclotomic import (
    DimensionMismatch,
    ExactMatrix,
    NoSolution,
    NotADivisor,
    cyclotomic_polynomial,
    get_field,
    rational_binomial,
)

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
    assert ExactMatrix.zeros(field, 3, 2).rank() == 0
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


def test_transpose_and_stack_shapes():
    field = get_field(2)
    m = ExactMatrix.from_rows(field, [[1, 2, 3], [4, 5, 6]])
    t = m.transpose()
    assert (t.nrows, t.ncols) == (3, 2)
    assert t.transpose() == m
    s = m.stack(ExactMatrix.from_rows(field, [[7, 8, 9]]))
    assert (s.nrows, s.ncols) == (3, 3)
    assert s.rows[2] == tuple(field.from_rational(v) for v in (7, 8, 9))
    empty = ExactMatrix.zeros(field, 0, 3)
    assert empty.transpose().nrows == 3
    assert empty.transpose().ncols == 0


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
    assert m.rank() == m.transpose().rank()


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
