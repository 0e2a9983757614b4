"""Exact arithmetic in cyclotomic fields, and exact dense linear algebra.

A scalar is an element of Q(eta) with eta a fixed primitive k-th root of
unity, stored as a coefficient vector of length phi(k) reduced modulo the
k-th cyclotomic polynomial Phi_k by synthetic division.  The representation
is canonical, so equality and zero tests are plain coefficient comparisons.
The inverse of a is the product of its Galois conjugates a(eta**j), j a
unit mod k other than 1, divided by the norm of a.  All coefficients are
``fractions.Fraction``; nothing here ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence, Union

Rational = Union[int, Fraction]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class NotADivisor(ValueError):
    """Requested root order does not divide the field conductor."""


class DimensionMismatch(ValueError):
    """Matrix shapes are incompatible for the requested operation."""


class NoSolution(ArithmeticError):
    """The linear system has no solution."""


def rational_binomial(z: Rational, m: int) -> Fraction:
    """Generalized binomial coefficient z*(z-1)*...*(z-m+1) / m!.

    Defined for any rational z and integer m >= 0; in particular
    rational_binomial(-1, m) == (-1)**m.
    """
    if m < 0:
        raise ValueError(f"binomial lower index must be >= 0, got {m}")
    num = _ONE
    zf = Fraction(z)
    for i in range(m):
        num *= zf - i
    return num / math.factorial(m)


def _divide_monic(vec: list, terms: Sequence[tuple[int, Rational]], n: int) -> None:
    # Synthetic division, in place, of vec (coefficients low-to-high) by
    # x^n + sum(m * x^j for j, m in terms), terms holding the nonzero lower
    # coefficients.  Afterwards vec[:n] is the remainder, vec[n:] the quotient.
    # Cyclotomic coefficients are almost always +-1, which need no product.
    for i in range(len(vec) - 1, n - 1, -1):
        c = vec[i]
        if c:
            base = i - n
            for j, m in terms:
                if m == 1:
                    vec[base + j] -= c
                elif m == -1:
                    vec[base + j] += c
                else:
                    vec[base + j] -= c * m


def _lower_terms(monic: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple((j, m) for j, m in enumerate(monic[:-1]) if m)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients (low-to-high) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError(f"conductor must be >= 1, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_polynomial(d)
            deg = len(den) - 1
            _divide_monic(poly, _lower_terms(den), deg)
            if any(poly[:deg]):
                raise ArithmeticError("inexact polynomial division")
            poly = poly[deg:]
    return tuple(poly)


@lru_cache(maxsize=None)
def get_field(conductor: int) -> "CyclotomicField":
    return CyclotomicField(conductor)


class CyclotomicField:
    """Q(eta) for eta = a primitive ``conductor``-th root of unity."""

    def __init__(self, conductor: int) -> None:
        modulus = cyclotomic_polynomial(conductor)
        self.conductor = conductor
        self.degree = len(modulus) - 1
        self._terms = _lower_terms(modulus)
        # eta**e for 0 <= e < conductor, and the units j > 1 mod conductor.
        self._eta_powers = tuple(
            tuple(self._reduce([_ZERO] * e + [_ONE])) for e in range(conductor)
        )
        self._units = tuple(
            j for j in range(2, conductor) if math.gcd(j, conductor) == 1
        )

    def __repr__(self) -> str:
        return f"CyclotomicField({self.conductor})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CyclotomicField):
            return self.conductor == other.conductor
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("CyclotomicField", self.conductor))

    def _make(self, coeffs: Sequence[Fraction]) -> "CyclotomicScalar":
        return CyclotomicScalar(self, tuple(coeffs))

    def zero(self) -> "CyclotomicScalar":
        return self._make([_ZERO] * self.degree)

    def one(self) -> "CyclotomicScalar":
        return self.from_rational(1)

    def from_rational(self, value: Rational) -> "CyclotomicScalar":
        coeffs = [_ZERO] * self.degree
        coeffs[0] = Fraction(value)
        return self._make(coeffs)

    def from_coeffs(self, coeffs: Iterable[Rational]) -> "CyclotomicScalar":
        return self._make(self._reduce([Fraction(c) for c in coeffs]))

    def _reduce(self, vec: list[Fraction]) -> list[Fraction]:
        # vec modulo the cyclotomic polynomial, padded to the field degree;
        # vec itself is overwritten.
        vec += [_ZERO] * (self.degree - len(vec))
        _divide_monic(vec, self._terms, self.degree)
        return vec[: self.degree]

    def root_of_unity(self, order: int) -> "CyclotomicScalar":
        """A primitive ``order``-th root of unity: eta**(conductor/order)."""
        if order < 1 or self.conductor % order != 0:
            raise NotADivisor(
                f"order {order} does not divide conductor {self.conductor}"
            )
        return self.eta_to(self.conductor // order)

    def eta_to(self, e: int) -> "CyclotomicScalar":
        """eta**e for any integer e."""
        return self._make(self._eta_powers[e % self.conductor])

    @property
    def eta(self) -> "CyclotomicScalar":
        return self.eta_to(1)


class CyclotomicScalar:
    """An element of a fixed cyclotomic field, in canonical reduced form."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]) -> None:
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other: object) -> "CyclotomicScalar | None":
        if isinstance(other, CyclotomicScalar):
            if other.field.conductor != self.field.conductor:
                return None
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other: object) -> "CyclotomicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._make([a + b for a, b in zip(self.coeffs, o.coeffs)])

    __radd__ = __add__

    def __sub__(self, other: object) -> "CyclotomicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._make([a - b for a, b in zip(self.coeffs, o.coeffs)])

    def __rsub__(self, other: object) -> "CyclotomicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "CyclotomicScalar":
        return self.field._make([-a for a in self.coeffs])

    def __mul__(self, other: object) -> "CyclotomicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        field, a, b = self.field, self.coeffs, o.coeffs
        n = field.degree
        conv = [_ZERO] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        _divide_monic(conv, field._terms, n)
        return field._make(conv[:n])

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicScalar":
        if not self:
            raise ZeroDivisionError("cyclotomic scalar is zero")
        # adj is the product of the Galois conjugates of a, sigma_j: eta ->
        # eta**j for the units j > 1; a * adj is the norm of a, a rational.
        field = self.field
        adj = None
        for j in field._units:
            conj = [_ZERO] * field.conductor
            for e, c in enumerate(self.coeffs):
                conj[j * e % field.conductor] = c
            conj = field._make(field._reduce(conj))
            adj = conj if adj is None else adj * conj
        if adj is None:
            return field._make([_ONE / self.coeffs[0]])
        norm = (self * adj).coeffs[0]
        return field._make([c / norm for c in adj.coeffs])

    def __truediv__(self, other: object) -> "CyclotomicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> "CyclotomicScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> "CyclotomicScalar":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self) -> int:
        return hash((self.field.conductor, self.coeffs))

    @property
    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def __str__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if not c:
                continue
            if e == 0:
                terms.append(str(c))
            else:
                mon = "eta" if e == 1 else f"eta^{e}"
                if c == 1:
                    terms.append(mon)
                elif c == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{c}*{mon}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"<{self} in Q(eta_{self.field.conductor})>"


Entry = Union[int, Fraction, CyclotomicScalar]


class ExactMatrix:
    """Dense matrix over a fixed cyclotomic field, with exact elimination.

    Pivoting is deterministic: columns are scanned left to right, and within
    a column the first row with a nonzero entry is chosen.
    """

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(
        self,
        field: CyclotomicField,
        rows: tuple[tuple[CyclotomicScalar, ...], ...],
        ncols: int,
    ) -> None:
        self.field = field
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def from_rows(
        cls, field: CyclotomicField, rows: Sequence[Sequence[Entry]]
    ) -> "ExactMatrix":
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise DimensionMismatch("ragged rows")
        else:
            ncols = 0
        coerced = tuple(
            tuple(_coerce_entry(field, e) for e in row) for row in rows
        )
        return cls(field, coerced, ncols)

    @classmethod
    def identity(cls, field: CyclotomicField, n: int) -> "ExactMatrix":
        one, zero = field.one(), field.zero()
        return cls(
            field,
            tuple(
                tuple(one if i == j else zero for j in range(n)) for i in range(n)
            ),
            n,
        )

    @classmethod
    def zeros(cls, field: CyclotomicField, nrows: int, ncols: int) -> "ExactMatrix":
        zero = field.zero()
        return cls(field, tuple((zero,) * ncols for _ in range(nrows)), ncols)

    def transpose(self) -> "ExactMatrix":
        if self.rows:
            cols = tuple(tuple(col) for col in zip(*self.rows))
        else:
            cols = tuple(() for _ in range(self.ncols))
        return ExactMatrix(self.field, cols, self.nrows)

    def stack(self, other: "ExactMatrix") -> "ExactMatrix":
        if other.ncols != self.ncols:
            raise DimensionMismatch(
                f"cannot stack {self.ncols}-column and {other.ncols}-column matrices"
            )
        return ExactMatrix(self.field, self.rows + other.rows, self.ncols)

    def __mul__(self, other: object) -> "ExactMatrix":
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise DimensionMismatch(
                    f"cannot multiply {self.nrows}x{self.ncols} by "
                    f"{other.nrows}x{other.ncols}"
                )
            zero = self.field.zero()
            out = []
            for row in self.rows:
                acc = [zero] * other.ncols
                for k, a in enumerate(row):
                    if a:
                        orow = other.rows[k]
                        for j in range(other.ncols):
                            if orow[j]:
                                acc[j] = acc[j] + a * orow[j]
                out.append(tuple(acc))
            return ExactMatrix(self.field, tuple(out), other.ncols)
        if isinstance(other, (int, Fraction, CyclotomicScalar)):
            s = _coerce_entry(self.field, other)
            return ExactMatrix(
                self.field,
                tuple(tuple(s * e for e in row) for row in self.rows),
                self.ncols,
            )
        return NotImplemented

    def __rmul__(self, other: object) -> "ExactMatrix":
        if isinstance(other, (int, Fraction, CyclotomicScalar)):
            return self * other
        return NotImplemented

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise DimensionMismatch("shape mismatch in subtraction")
        return ExactMatrix(
            self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
            self.ncols,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field.conductor == other.field.conductor
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:  # pragma: no cover - not used as dict key
        return hash((self.field.conductor, self.rows))

    def first_difference(
        self, other: "ExactMatrix"
    ) -> tuple[int, int, CyclotomicScalar, CyclotomicScalar] | None:
        """(i, j, self[i][j], other[i][j]) at the first differing entry, or None."""
        for i in range(self.nrows):
            for j in range(self.ncols):
                if self.rows[i][j] != other.rows[i][j]:
                    return i, j, self.rows[i][j], other.rows[i][j]
        return None

    def _echelon(self) -> tuple[list[list[CyclotomicScalar]], list[int], int]:
        rows = [list(r) for r in self.rows]
        pivot_cols: list[int] = []
        sign = 1
        pr = 0
        for col in range(self.ncols):
            pivot_row = None
            for r in range(pr, len(rows)):
                if rows[r][col]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            if pivot_row != pr:
                rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
                sign = -sign
            inv = rows[pr][col].inverse()
            for r in range(pr + 1, len(rows)):
                if rows[r][col]:
                    factor = rows[r][col] * inv
                    rows[r][col] = self.field.zero()
                    for c in range(col + 1, self.ncols):
                        if rows[pr][c]:
                            rows[r][c] = rows[r][c] - factor * rows[pr][c]
            pivot_cols.append(col)
            pr += 1
            if pr == len(rows):
                break
        return rows, pivot_cols, sign

    def rank(self) -> int:
        _, pivots, _ = self._echelon()
        return len(pivots)

    def det(self) -> CyclotomicScalar:
        if self.nrows != self.ncols:
            raise DimensionMismatch("determinant requires a square matrix")
        rows, pivots, sign = self._echelon()
        if len(pivots) < self.nrows:
            return self.field.zero()
        out = self.field.from_rational(sign)
        for i in range(self.nrows):
            out = out * rows[i][i]
        return out

    def solve(self, rhs: Sequence[Entry]) -> list[CyclotomicScalar]:
        """One exact solution of self * x = rhs, or NoSolution.

        Accepts rectangular systems; free variables are set to zero.
        """
        if len(rhs) != self.nrows:
            raise DimensionMismatch(
                f"rhs length {len(rhs)} != row count {self.nrows}"
            )
        b = [_coerce_entry(self.field, e) for e in rhs]
        aug = ExactMatrix(
            self.field,
            tuple(row + (bi,) for row, bi in zip(self.rows, b)),
            self.ncols + 1,
        )
        rows, pivots, _ = aug._echelon()
        if pivots and pivots[-1] == self.ncols:
            raise NoSolution("inconsistent linear system")
        zero = self.field.zero()
        x = [zero] * self.ncols
        for r in range(len(pivots) - 1, -1, -1):
            col = pivots[r]
            acc = rows[r][self.ncols]
            for c in range(col + 1, self.ncols):
                if rows[r][c] and x[c]:
                    acc = acc - rows[r][c] * x[c]
            x[col] = acc * rows[r][col].inverse()
        return x

    def inverse(self) -> "ExactMatrix":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inverse requires a square matrix")
        n = self.nrows
        one, zero = self.field.one(), self.field.zero()
        aug = ExactMatrix(
            self.field,
            tuple(
                row + tuple(one if i == j else zero for j in range(n))
                for i, row in enumerate(self.rows)
            ),
            2 * n,
        )
        rows, pivots, _ = aug._echelon()
        if len(pivots) < n or pivots[n - 1] != n - 1:
            raise NoSolution("matrix is singular")
        # Back-substitute to reduced form.
        for r in range(n - 1, -1, -1):
            inv = rows[r][r].inverse()
            rows[r] = [e * inv for e in rows[r]]
            for up in range(r):
                f = rows[up][r]
                if f:
                    rows[up] = [
                        a - f * b for a, b in zip(rows[up], rows[r])
                    ]
        return ExactMatrix(
            self.field, tuple(tuple(row[n:]) for row in rows), n
        )

    def __str__(self) -> str:
        body = "\n".join(
            "[" + ", ".join(str(e) for e in row) + "]" for row in self.rows
        )
        return f"ExactMatrix {self.nrows}x{self.ncols} over Q(eta_{self.field.conductor}):\n{body}"

    __repr__ = __str__


def _coerce_entry(field: CyclotomicField, e: Entry) -> CyclotomicScalar:
    if isinstance(e, CyclotomicScalar):
        if e.field.conductor != field.conductor:
            raise DimensionMismatch(
                f"entry from conductor {e.field.conductor} in conductor "
                f"{field.conductor} matrix"
            )
        return e
    if isinstance(e, (int, Fraction)):
        return field.from_rational(e)
    raise TypeError(f"cannot coerce {type(e).__name__} into a cyclotomic scalar")
