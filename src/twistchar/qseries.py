"""Truncated q-series, multigraded characters, and partition identities.

A QSeries is a sparse map from non-negative integer exponents to integer
coefficients, exact through a truncation order T (series are known modulo
q^(T+1)).  Binary operations produce a result whose truncation is the
smaller of the operands'; shifting by q^c extends the truncation by c, so
no operation ever invents unknown coefficients or drops known ones.

Character exponents are normalized: the stored exponent is k times the
conformal weight above the twisted vacuum, which is always a non-negative
integer, and the zero-charge series is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt
from typing import Iterable, Mapping, Sequence, Union

from .lattice import OrbitData, PairingTables

NORMALIZATION = "k-weight-shifted"


class RecursionMismatch(AssertionError):
    """A character series fails one of its defining recursions."""

    def __init__(
        self, kind: str, orbit: int, charge: tuple[int, ...], exponent: int,
        lhs: int, rhs: int,
    ) -> None:
        self.kind = kind
        self.orbit = orbit
        self.charge = charge
        self.exponent = exponent
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(
            f"{kind} recursion fails at charge {charge}, exponent {exponent}: "
            f"{lhs} != {rhs} (orbit {orbit})"
        )


class QSeries:
    """Truncated power series in q with integer coefficients."""

    __slots__ = ("truncation", "coeffs")

    def __init__(self, truncation: int, coeffs: Mapping[int, int] | None = None):
        if truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {truncation}")
        self.truncation = truncation
        data = {}
        if coeffs:
            for e, c in coeffs.items():
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                if c and e <= truncation:
                    data[e] = c
        self.coeffs = data

    @classmethod
    def zero(cls, truncation: int) -> "QSeries":
        return cls(truncation)

    @classmethod
    def one(cls, truncation: int) -> "QSeries":
        return cls(truncation, {0: 1})

    def coeff(self, n: int) -> int:
        if n > self.truncation:
            raise ValueError(
                f"coefficient {n} beyond truncation {self.truncation}"
            )
        return self.coeffs.get(n, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def truncated(self, truncation: int) -> "QSeries":
        if truncation > self.truncation:
            raise ValueError(
                f"cannot extend truncation {self.truncation} to {truncation}"
            )
        return QSeries(truncation, self.coeffs)

    def shifted(self, c: int) -> "QSeries":
        """Multiply by q^c (c >= 0); the truncation grows with the shift."""
        if c < 0:
            raise ValueError(f"shift must be >= 0, got {c}")
        return QSeries(
            self.truncation + c, {e + c: v for e, v in self.coeffs.items()}
        )

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.truncation, other.truncation)
        out = {e: c for e, c in self.coeffs.items() if e <= t}
        for e, c in other.coeffs.items():
            if e <= t:
                out[e] = out.get(e, 0) + c
        return QSeries(t, out)

    def __neg__(self) -> "QSeries":
        return QSeries(self.truncation, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["QSeries", int]) -> "QSeries":
        if isinstance(other, int):
            return QSeries(
                self.truncation, {e: c * other for e, c in self.coeffs.items()}
            )
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.truncation, other.truncation)
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            if e1 > t:
                continue
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                if e <= t:
                    out[e] = out.get(e, 0) + c1 * c2
        return QSeries(t, out)

    def __rmul__(self, other: int) -> "QSeries":
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.truncation == other.truncation and self.coeffs == other.coeffs

    def first_difference(self, other: "QSeries") -> tuple[int, int, int] | None:
        """(exponent, self coeff, other coeff) at the lowest differing
        exponent within both truncations, or None."""
        t = min(self.truncation, other.truncation)
        for e in sorted(
            set(self.coeffs) | set(other.coeffs)
        ):
            if e > t:
                break
            a, b = self.coeffs.get(e, 0), other.coeffs.get(e, 0)
            if a != b:
                return e, a, b
        return None

    def __str__(self) -> str:
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            for e, c in self.items():
                if e == 0:
                    parts.append(str(c))
                else:
                    mon = "q" if e == 1 else f"q^{e}"
                    if c == 1:
                        parts.append(mon)
                    elif c == -1:
                        parts.append(f"-{mon}")
                    else:
                        parts.append(f"{c}*{mon}")
            body = parts[0]
            for p in parts[1:]:
                body += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return f"{body} + O(q^{self.truncation + 1})"

    __repr__ = __str__


def poch_inverse(b: int, m: int, truncation: int) -> QSeries:
    """Truncated 1 / (q^b; q^b)_m.

    Equivalently the generating series of partitions into parts drawn from
    {b, 2b, ..., mb}.
    """
    if b < 1 or m < 0:
        raise ValueError(f"need b >= 1 and m >= 0, got b={b}, m={m}")
    coeffs = [0] * (truncation + 1)
    coeffs[0] = 1
    for j in range(1, m + 1):
        part = j * b
        for n in range(part, truncation + 1):
            coeffs[n] += coeffs[n - part]
    return QSeries(truncation, {n: c for n, c in enumerate(coeffs) if c})


def poch_infinite(start: int, step: int, truncation: int) -> QSeries:
    """Truncated (q^start; q^step)_inf = prod_{j>=0} (1 - q^(start + j*step))."""
    if start < 1 or step < 1:
        raise ValueError(f"need start >= 1 and step >= 1, got {start}, {step}")
    out = QSeries.one(truncation)
    for a in range(start, truncation + 1, step):
        out = out * QSeries(truncation, {0: 1, a: -1})
    return out


def inverse_poch_product(
    factors: Iterable[tuple[int, int]], truncation: int
) -> QSeries:
    """Truncated prod over (start, step) of 1 / (q^start; q^step)_inf.

    Computed as a partition-count table: each factor contributes parts
    start, start+step, ... each with its own unlimited multiplicity.
    """
    coeffs = [0] * (truncation + 1)
    coeffs[0] = 1
    for start, step in factors:
        if start < 1 or step < 1:
            raise ValueError(f"need start >= 1 and step >= 1, got {start}, {step}")
        for part in range(start, truncation + 1, step):
            for n in range(part, truncation + 1):
                coeffs[n] += coeffs[n - part]
    return QSeries(truncation, {n: c for n, c in enumerate(coeffs) if c})


@dataclass
class CharacterTable:
    """Multigraded character: one series per charge vector.

    ``charge_matrix`` is the integer zero-mode pairing matrix scaled by k;
    the series for charge m starts at exponent (m^T A m) / 2 and only
    charges whose starting exponent is within the truncation appear.
    """

    d: int
    k: int
    truncation: int
    charge_matrix: tuple[tuple[int, ...], ...]
    steps: tuple[int, ...]
    entries: dict[tuple[int, ...], QSeries] = field(default_factory=dict)

    def charges(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)

    def series(self, m: Sequence[int]) -> QSeries:
        return self.entries.get(tuple(m), QSeries.zero(self.truncation))

    def coefficient(self, m: Sequence[int], n: int) -> int:
        return self.series(m).coeff(n)

    def evaluate_at_one(self) -> QSeries:
        total = QSeries.zero(self.truncation)
        for m in self.charges():
            total = total + self.entries[m].truncated(self.truncation)
        return total

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "k": self.k,
            "truncation": self.truncation,
            "normalization": NORMALIZATION,
            "charges": [
                {
                    "m": list(m),
                    "series": {
                        str(e): str(c) for e, c in self.entries[m].items()
                    },
                }
                for m in self.charges()
            ],
        }


def quadratic_value(
    matrix: Sequence[Sequence[int]], m: Sequence[int]
) -> int:
    return sum(
        matrix[i][j] * m[i] * m[j] for i in range(len(m)) for j in range(len(m))
    )


def enumerate_charges(
    matrix: Sequence[Sequence[int]], truncation: int
) -> list[tuple[int, ...]]:
    """All charge vectors whose starting exponent (m^T A m)/2 is <= truncation.

    The search box prunes on the diagonal alone; that is a true lower bound
    for the quadratic form because the matrix is entrywise non-negative.
    """
    d = len(matrix)
    bounds = [isqrt(2 * truncation // matrix[i][i]) for i in range(d)]
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], diag_sum: int) -> None:
        i = len(prefix)
        if i == d:
            m = tuple(prefix)
            if quadratic_value(matrix, m) <= 2 * truncation:
                out.append(m)
            return
        for v in range(bounds[i] + 1):
            ds = diag_sum + matrix[i][i] * v * v
            if ds > 2 * truncation:
                break
            rec(prefix + [v], ds)

    rec([], 0)
    return sorted(out)


def character(
    orbits: OrbitData, tables: PairingTables, truncation: int
) -> CharacterTable:
    """Multigraded character with normalized integer exponents.

    Each charge m contributes q^((m^T A m)/2) times a product of inverse
    Pochhammer factors with exponent step k / length_i.  The charge matrix
    is positive definite, so each coefficient is a finite sum: orbit-sum
    vectors have disjoint supports, so their Gram matrix inherits the
    positive definiteness ``validate`` proved for the lattice.
    """
    matrix = tables.char_matrix
    steps = tuple(orbits.k // l for l in orbits.lengths)
    table = CharacterTable(
        d=orbits.d,
        k=orbits.k,
        truncation=truncation,
        charge_matrix=tuple(tuple(row) for row in matrix),
        steps=steps,
    )
    for m in enumerate_charges(matrix, truncation):
        base, odd = divmod(quadratic_value(matrix, m), 2)
        if odd:
            raise ArithmeticError(f"charge {m} has odd norm {2 * base + 1}")
        series = QSeries.one(truncation - base)
        for i, mult in enumerate(m):
            if mult:
                series = series * poch_inverse(steps[i], mult, truncation - base)
        table.entries[m] = series.shifted(base)
    return table


@dataclass(frozen=True)
class RecursionCheck:
    """Summary of a passed recursion check (failures raise instead)."""

    kind: str
    orbit: int
    truncation: int
    cells: int


def check_recursion(table: CharacterTable, i: int) -> RecursionCheck:
    """Verify the length-step recursion in direction i for every charge.

    Each charge series must equal its own image shifted by step_i * m_i
    plus, when m_i >= 1, the (m - e_i) series shifted by the pairing offset.
    Raises RecursionMismatch at the first differing coefficient.
    """
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
    return RecursionCheck("length-step", i, table.truncation, cells)


def check_coefficient_recursion(table: CharacterTable, i: int) -> RecursionCheck:
    """Verify the adjacent-charge coefficient recursion in direction i.

    For each charge m, (series at m + e_i) * (1 - q^(step_i * (m_i + 1)))
    must equal the m series shifted by A_ii/2 + sum_j m_j A_ji.  Raises
    RecursionMismatch at the first differing coefficient.
    """
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
    return RecursionCheck("adjacent-charge", i, table.truncation, cells)


def separated_partition_counts(truncation: int) -> list[int]:
    """Counts for n = 0..truncation of partitions of n with no part repeated
    more than twice and no two parts differing by exactly 1."""
    if truncation < 0:
        raise ValueError(f"n must be >= 0, got {truncation}")
    # Row p holds the counts with every part <= p; branching on the
    # multiplicity (0, 1 or 2) of p leaves parts <= p - 2 for the rest.
    width = truncation + 1
    below2 = [1] + [0] * truncation  # parts <= p - 2
    below1 = list(below2)  # parts <= p - 1
    for p in range(1, width):
        row = list(below1)
        for n in range(p, width):
            row[n] += below2[n - p]
            if n >= 2 * p:
                row[n] += below2[n - 2 * p]
        below2, below1 = below1, row
    return below1


def separated_partition_count(n: int) -> int:
    """Partitions of n with no part repeated more than twice and no two
    parts differing by exactly 1."""
    return separated_partition_counts(n)[n]


def rogers_ramanujan_sum(truncation: int) -> QSeries:
    """Truncated sum over m of q^(m^2) / (q; q)_m."""
    total = QSeries.zero(truncation)
    m = 0
    while m * m <= truncation:
        total = total + poch_inverse(1, m, truncation - m * m).shifted(m * m)
        m += 1
    return total


def halved_exponents(series: QSeries) -> QSeries:
    """Substitute q^2 -> q; every exponent must be even."""
    for e in series.coeffs:
        if e % 2:
            raise ValueError(f"odd exponent {e} present; cannot halve")
    return QSeries(
        series.truncation // 2,
        {e // 2: c for e, c in series.coeffs.items()},
    )


@dataclass(frozen=True)
class IdentityComparison:
    label: str
    matches: bool
    first_mismatch: int | None
    lhs: int | None
    rhs: int | None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "matches": self.matches,
            "first_mismatch": self.first_mismatch,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
        }


@dataclass(frozen=True)
class IdentityReport:
    preset: str
    truncation: int
    comparisons: tuple[IdentityComparison, ...]

    @property
    def all_match(self) -> bool:
        return all(c.matches for c in self.comparisons)

    def to_json_dict(self) -> dict:
        return {
            "preset": self.preset,
            "truncation": self.truncation,
            "comparisons": [c.to_json_dict() for c in self.comparisons],
        }


def _compare(label: str, lhs: QSeries, rhs: QSeries) -> IdentityComparison:
    diff = lhs.first_difference(rhs)
    if diff is None:
        return IdentityComparison(label, True, None, None, None)
    return IdentityComparison(label, False, diff[0], diff[1], diff[2])


def verify_partition_identity(name: str, truncation: int) -> IdentityReport:
    """Compare a preset's summed character with candidate partition sides.

    x3: the summed character (in the substituted variable obtained by
    halving the normalized exponents) is compared with the direct count of
    partitions in which no part repeats more than twice and no two parts
    differ by 1 -- a real check.

    x4: the summed character is compared with two candidate infinite
    products; the report records agreement or the first mismatch for each,
    and callers decide whether a mismatch is fatal.
    """
    from .presets import preset
    from .lattice import analyze

    if name not in ("x3", "x4"):
        raise ValueError(f"no partition identity is wired for preset {name!r}")
    orbits, tables = analyze(preset(name))
    summed = halved_exponents(
        character(orbits, tables, 2 * truncation).evaluate_at_one()
    )
    if name == "x3":
        counts = QSeries(
            truncation, dict(enumerate(separated_partition_counts(truncation)))
        )
        comparisons = (
            _compare("separated-partition count (parts repeat <= 2, no gap-1 pairs)",
                     summed, counts),
        )
    else:
        printed = inverse_poch_product(((1, 1), (3, 1), (6, 1), (9, 1)), truncation)
        mod9 = inverse_poch_product(((1, 9), (3, 9), (6, 9), (8, 9)), truncation)
        comparisons = (
            _compare("infinite product 1/((q;q)(q^3;q)(q^6;q)(q^9;q))",
                     summed, printed),
            _compare(
                "infinite product 1/((q;q^9)(q^3;q^9)(q^6;q^9)(q^8;q^9)) "
                "[alternate modulus-9 form]",
                summed, mod9),
        )
    return IdentityReport(name, truncation, comparisons)
