"""Truncated q-series, multigraded characters, and partition identities.

A QSeries is a dense list of the T + 1 integer coefficients of q^0..q^T,
exact through its truncation order T (series are known modulo q^(T+1)).
Binary operations produce a result whose truncation is the smaller of the
operands'; shifting by q^c extends the truncation by c, so no operation
ever invents unknown coefficients or drops known ones.

Character exponents are normalized: the stored exponent is k times the
conformal weight above the twisted vacuum, which is always a non-negative
integer, and the zero-charge series is exactly 1.

Parity lemma: A_m is zero at each exponent not = Q(m)/2 (mod 2).  Proof:
``validate`` sets k = 2 lcm(l_i), so each step s_i = k / l_i is even, and
gcd_i s_i = 2 (for each prime p, some l_i holds lcm's full power of p, and
p does not divide that lcm / l_i).  So prod_i 1 / (q^s_i; q^s_i)_(m_i) is a
series in x = q^2, and A_m lives on the class of base_m = Q(m)/2.  For u =
m + e_i, Q(u) = Q(m) + 2 (A m)_i + A_ii, so base_u = base_m + off (off =
A_ii/2 + (A m)_i), and s_i u_i is even: both sides of (1 - q^(s_i u_i)) A_u
= q^off A_m lie on the class of base_u.
"""

from itertools import accumulate, compress, count
from math import isqrt, prod
from operator import add, mul, sub
from typing import Iterable, NamedTuple, Sequence, Union

from .lattice import OrbitData, PairingTables

NORMALIZATION = "k-weight-shifted"

# Refusal threshold for a character table: charge search box x (T + 1).
MAX_TABLE_CELLS = 10 ** 7


class BudgetExceeded(RuntimeError):
    """The requested table, bidegree or matrix exceeds its budget."""


class RecursionMismatch(AssertionError):
    """A character series fails one of its defining recursions."""

    def __init__(self, kind: str, orbit: int, charge: tuple[int, ...],
                 exponent: int, lhs: int, rhs: int) -> None:
        super().__init__(kind, orbit, charge, exponent, lhs, rhs)
        self.kind, self.orbit, self.charge = kind, orbit, charge
        self.exponent, self.lhs, self.rhs = exponent, lhs, rhs

    def __str__(self) -> str:
        return (f"{self.kind} recursion fails at charge {self.charge}, exponent "
                f"{self.exponent}: {self.lhs} != {self.rhs} (orbit {self.orbit})")


class QSeries:
    """Truncated power series in q: ``coeffs[n]`` is the integer coefficient
    of q^n for n = 0..truncation, zeros included."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: list[int]):
        if not coeffs:
            raise ValueError("a series needs at least its q^0 coefficient")
        self.coeffs = coeffs

    @property
    def truncation(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, truncation: int) -> "QSeries":
        return cls([0] * (truncation + 1))

    @classmethod
    def one(cls, truncation: int) -> "QSeries":
        out = cls.zero(truncation)
        out.coeffs[0] = 1
        return out

    def coeff(self, n: int) -> int:
        if n > self.truncation:
            raise ValueError(
                f"coefficient {n} beyond truncation {self.truncation}"
            )
        return self.coeffs[n] if n >= 0 else 0

    def items(self) -> list[tuple[int, int]]:
        """The nonzero terms (exponent, coefficient), in ascending order."""
        c = self.coeffs
        return list(zip(compress(count(), c), filter(None, c)))

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncated(self, truncation: int) -> "QSeries":
        if not 0 <= truncation <= self.truncation:
            raise ValueError(
                f"cannot truncate order {self.truncation} to {truncation}"
            )
        return QSeries(self.coeffs[: truncation + 1])

    def shifted(self, c: int) -> "QSeries":
        """Multiply by q^c (c >= 0); the truncation grows with the shift."""
        if c < 0:
            raise ValueError(f"shift must be >= 0, got {c}")
        return QSeries([0] * c + self.coeffs)

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries(list(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return QSeries(list(map(sub, self.coeffs, other.coeffs)))

    def __mul__(self, other: Union["QSeries", int]) -> "QSeries":
        if isinstance(other, int):
            return QSeries([c * other for c in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        t = min(self.truncation, other.truncation)
        out = [0] * (t + 1)
        for e1, c1 in enumerate(self.coeffs[: t + 1]):
            if c1:
                for e2, c2 in enumerate(other.coeffs[: t + 1 - e1]):
                    out[e1 + e2] += c1 * c2
        return QSeries(out)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def first_difference(self, other: "QSeries") -> tuple[int, int, int] | None:
        """(exponent, self coeff, other coeff) at the lowest differing
        exponent within both truncations, or None."""
        n = min(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs[:n], other.coeffs[:n]
        if a == b:
            return None
        return next((e, x, y) for e, (x, y) in enumerate(zip(a, b)) if x != y)

    def __str__(self) -> str:
        body = ""
        for e, c in self.items():
            mon = "" if e == 0 else "q" if e == 1 else f"q^{e}"
            num = str(abs(c))
            term = num if not mon else mon if num == "1" else f"{num}*{mon}"
            sign = "-" if c < 0 else ""
            body += f" {sign or '+'} {term}" if body else sign + term
        return f"{body or '0'} + O(q^{self.truncation + 1})"

    __repr__ = __str__


def poch_inverse(b: int, m: int, truncation: int) -> QSeries:
    """Truncated 1 / (q^b; q^b)_m.

    Equivalently the generating series of partitions into parts drawn from
    {b, 2b, ..., mb}.
    """
    if b < 1 or m < 0:
        raise ValueError(f"need b >= 1 and m >= 0, got b={b}, m={m}")
    return _partition_series([j * b for j in range(1, m + 1)], truncation)


def _partition_series(parts: Iterable[int], truncation: int) -> QSeries:
    # Truncated prod over the parts of 1 / (1 - q^part), the generating
    # series of partitions into the parts, a part listed twice counting as
    # two distinct parts.
    out = QSeries.one(truncation)
    for part in parts:
        _add_part(out.coeffs, part)
    return out


def _add_part(coeffs: list[int], part: int) -> None:
    # Multiply the truncated series in place by 1 / (1 - q^part): one
    # partition-count pass, as a running sum per residue class mod part or
    # row by row of part terms, whichever is at most sqrt(len) C-level steps.
    if part * part < len(coeffs):
        for r in range(part):
            coeffs[r::part] = accumulate(coeffs[r::part])
    else:
        for s in range(part, len(coeffs), part):
            coeffs[s:s + part] = map(add, coeffs[s:s + part], coeffs[s - part:s])


def poch_infinite(start: int, step: int, truncation: int) -> QSeries:
    """Truncated (q^start; q^step)_inf = prod_{j>=0} (1 - q^(start + j*step))."""
    if start < 1 or step < 1:
        raise ValueError(f"need start >= 1 and step >= 1, got {start}, {step}")
    out = QSeries.one(truncation)
    coeffs = out.coeffs
    for a in range(start, truncation + 1, step):
        # Multiply by (1 - q^a); map is read whole before the slice is set.
        coeffs[a:] = map(sub, coeffs[a:], coeffs)
    return out


def inverse_poch_product(
    factors: Iterable[tuple[int, int]], truncation: int
) -> QSeries:
    """Truncated prod over (start, step) of 1 / (q^start; q^step)_inf.

    Computed as a partition-count table: each factor contributes parts
    start, start+step, ... each with its own unlimited multiplicity.
    """
    factors = list(factors)
    for start, step in factors:
        if start < 1 or step < 1:
            raise ValueError(f"need start >= 1 and step >= 1, got {start}, {step}")
    parts = [a for start, step in factors for a in range(start, truncation + 1, step)]
    return _partition_series(parts, truncation)


class CharacterTable(NamedTuple):
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
    entries: dict[tuple[int, ...], QSeries]

    def charges(self) -> list[tuple[int, ...]]:
        return sorted(self.entries)

    def series(self, m: Sequence[int]) -> QSeries:
        found = self.entries.get(tuple(m))
        return found if found is not None else QSeries.zero(self.truncation)

    def evaluate_at_one(self) -> QSeries:
        coeffs = [s.coeffs for s in self.entries.values()]
        return QSeries(list(map(sum, zip([0] * (self.truncation + 1), *coeffs))))

    def to_json(self) -> str:
        """``json.dumps(..., indent=2)`` of the table, written directly: per
        charge m, the nonzero coefficients as strings keyed by exponent."""
        charges = []
        for m in self.charges():
            c = self.entries[m].coeffs
            terms = ",\n        ".join(
                map('"{}": "{}"'.format, compress(count(), c), filter(None, c)))
            charges.append(
                '    {\n      "m": [\n        ' + ",\n        ".join(map(str, m))
                + '\n      ],\n      "series": '
                + ("{\n        " + terms + "\n      }" if terms else "{}") + "\n    }")
        return (f'{{\n  "d": {self.d},\n  "k": {self.k},\n  "truncation": '
                f'{self.truncation},\n  "normalization": "{NORMALIZATION}",\n'
                '  "charges": [\n' + ",\n".join(charges) + "\n  ]\n}")


def character(
    orbits: OrbitData, tables: PairingTables, truncation: int
) -> CharacterTable:
    """Multigraded character with normalized integer exponents.

    Each charge m with norm Q(m) = m^T A m <= 2T contributes q^(Q(m)/2)
    times the product over i of 1 / (q^s_i; q^s_i)_(m_i), s_i = k / length_i.
    The charge matrix is positive definite, so each coefficient is a finite
    sum: orbit-sum vectors have disjoint supports, so their Gram matrix
    inherits the positive definiteness ``validate`` proved for the lattice.

    The charges are walked depth-first as a prefix tree: a charge m whose
    last raised orbit is i has the children m + e_j for j >= i, so each
    charge is reached once, by raising orbit 0, then orbit 1, and so on.
    The child's product is m's times the single factor
    1 / (1 - q^((m_j + 1) * s_j)): one partition-count pass over m's
    coefficients in x = q^2 (the parity lemma), cut to the child's own
    truncation, and written once into its dense series by a strided slice.
    Its norm is Q(m) + 2 (A m)_j + A_jj, and every norm is even: ``analyze``
    proves that A has an even diagonal (A_jj = (k / l_j) c_jj, and k / l_j
    is even).  A child whose norm exceeds 2T is pruned with its whole
    subtree, and this is exact: A is entrywise non-negative, because
    ``validate`` refuses a negative Gram entry, so norms only grow down the
    tree.  Children are visited in decreasing j, which enters the charges
    in sorted order.

    Raises BudgetExceeded, before building anything, when the charge search
    box (each m_i up to the largest value with A_ii m_i^2 <= 2T) times T + 1
    exceeds MAX_TABLE_CELLS.
    """
    matrix = tables.char_matrix
    d = len(matrix)
    cells = (truncation + 1) * prod(
        isqrt(2 * truncation // matrix[i][i]) + 1 for i in range(d)
    )
    if cells > MAX_TABLE_CELLS:
        raise BudgetExceeded(
            f"character table needs {cells} cells (charge search box x (T+1)), "
            f"over the budget of {MAX_TABLE_CELLS}"
        )
    steps = tuple(orbits.k // l for l in orbits.lengths)
    table = CharacterTable(d=orbits.d, k=orbits.k, truncation=truncation,
                           charge_matrix=matrix,
                           steps=steps, entries={})
    # (charge, last raised orbit, norm, product coefficients in x = q^2); a
    # stack, not recursion, so deep trees cannot hit the recursion limit.
    stack = [((0,) * d, 0, 0, [1] + [0] * (truncation // 2))]
    while stack:
        m, last, norm, xs = stack.pop()
        table.entries[m] = series = QSeries.zero(truncation)
        series.coeffs[norm // 2::2] = xs
        for j in range(last, d):
            child_norm = norm + 2 * sum(map(mul, matrix[j], m)) + matrix[j][j]
            if child_norm > 2 * truncation:
                continue
            child = m[:j] + (m[j] + 1,) + m[j + 1:]
            child_xs = xs[: (truncation - child_norm // 2) // 2 + 1]
            _add_part(child_xs, child[j] * steps[j] // 2)
            stack.append((child, j, child_norm, child_xs))
    return table


class RecursionCheck(NamedTuple):
    """Summary of a passed recursion check (failures raise instead)."""

    kind: str
    orbit: int
    truncation: int
    cells: int


def check_recursions(
    table: CharacterTable, i: int
) -> tuple[RecursionCheck | RecursionMismatch, RecursionCheck | RecursionMismatch]:
    """Check the character recursion in direction i once, in both its forms.

    For each charge m and u = m + e_i the exact sequences give A_u =
    q^(step_i u_i) A_u + q^off A_m, off = A_ii/2 + sum_j m_j A_ji.  One pass
    over the sorted charges m checks each pair once.  A_m starts at b =
    Q(m)/2 and q^off A_m at h = b + off; by the parity lemma the pair holds
    when A_u vanishes below h and A_m below b, both vanish on the other
    class from there, and (1 - q^(step_i u_i)) A_u equals q^off A_m on h's
    class, compared at stride 2 as one list.  Any other pair is scanned
    term by term, and passes if no term differs; else its first differing
    exponent gives the mismatches that replace the (length-step,
    adjacent-charge) RecursionChecks: A_u against both shifted terms, and
    A_u - q^(step_i u_i) A_u against q^off A_m.  Length-step also counts
    each u outside the table; where u_i = 0 it holds with shift 0.  The
    charges must be closed under u -> u - e_i, as ``character``'s are since
    A >= 0.  Last, A_0 = 1 is checked, a difference reported at the zero
    charge by both kinds.  Passing in every direction i proves the table the
    character mod q^(T+1): 1 - q^(step_i u_i) is a unit of Z[[q]] for
    u_i >= 1, so A_u is fixed by A_(u - e_i), and so, by induction on sum u,
    by A_0 = 1.
    """
    a, t = table.charge_matrix, table.truncation
    absent, outside = QSeries.zero(t), 0
    for m in table.charges():
        u = m[:i] + (m[i] + 1,) + m[i + 1:]
        c = table.entries.get(u, absent).coeffs
        outside += c is absent.coeffs
        am = [sum(map(mul, col, m)) for col in zip(*a)]
        sh, off = table.steps[i] * u[i], a[i][i] // 2 + am[i]
        b = sum(map(mul, am, m)) // 2
        low, h = table.entries[m].coeffs, b + off
        tail, half = c[h::2], sh // 2
        if (not sh % 2 and not any(c[:h]) and not any(c[h + 1::2]) and not any(low[:b])
                and not any(low[b + 1::2]) and low[b:b + 2 * len(tail):2]
                == tail[:half] + list(map(sub, tail[half:], tail))):
            continue
        up = table.series(u)
        shifted, lower = up.shifted(sh), table.entries[m].shifted(off)
        if (diff := up.first_difference(shifted + lower)) is None:
            continue
        e, lhs, rhs = diff
        return (RecursionMismatch("length-step", i, u, e, lhs, rhs),
                RecursionMismatch("adjacent-charge", i, u, e,
                                  lhs - shifted.coeffs[e], lower.coeffs[e]))
    zero, one = (0,) * table.d, QSeries.one(t)
    if table.series(zero) != one:
        e, lhs, rhs = table.series(zero).first_difference(one)
        return (RecursionMismatch("length-step", i, zero, e, lhs, rhs),
                RecursionMismatch("adjacent-charge", i, zero, e, lhs, rhs))
    cells = len(table.entries)
    return (RecursionCheck("length-step", i, t, cells + outside),
            RecursionCheck("adjacent-charge", i, t, cells))


def _raised(result: RecursionCheck | RecursionMismatch) -> RecursionCheck:
    if isinstance(result, RecursionMismatch):
        raise result
    return result


def check_recursion(table: CharacterTable, i: int) -> RecursionCheck:
    """The length-step half of ``check_recursions``; raises its mismatch."""
    return _raised(check_recursions(table, i)[0])


def check_coefficient_recursion(table: CharacterTable, i: int) -> RecursionCheck:
    """The adjacent-charge half of ``check_recursions``; raises its mismatch."""
    return _raised(check_recursions(table, i)[1])


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
        row[p:] = map(add, row[p:], below2)
        row[2 * p:] = map(add, row[2 * p:], below2)
        below2, below1 = below1, row
    return below1


def rogers_ramanujan_sum(truncation: int) -> QSeries:
    """Truncated sum over m of q^(m^2) / (q; q)_m."""
    total = QSeries.zero(truncation)
    for m in range(isqrt(truncation) + 1):
        total = total + poch_inverse(1, m, truncation - m * m).shifted(m * m)
    return total


def halved_exponents(series: QSeries) -> QSeries:
    """Substitute q^2 -> q; every exponent must be even."""
    if any(series.coeffs[1::2]):
        e = next(e for e, c in series.items() if e % 2)
        raise ValueError(f"odd exponent {e} present; cannot halve")
    return QSeries(series.coeffs[::2])


class IdentityComparison(NamedTuple):
    label: str
    matches: bool
    first_mismatch: int | None
    lhs: int | None
    rhs: int | None

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "lhs": None if self.lhs is None else str(self.lhs),
                "rhs": None if self.rhs is None else str(self.rhs)}


class IdentityReport(NamedTuple):
    preset: str
    truncation: int
    comparisons: tuple[IdentityComparison, ...]

    def to_json_dict(self) -> dict:
        return {**self._asdict(),
                "comparisons": [c.to_json_dict() for c in self.comparisons]}


def _compare(label: str, lhs: QSeries, rhs: QSeries) -> IdentityComparison:
    diff = lhs.first_difference(rhs)
    return IdentityComparison(label, diff is None, *(diff or (None, None, None)))


def _compare_product(label: str, summed: QSeries, factors) -> IdentityComparison:
    # Truncations 8, 16, ... up to T, until one differs: a truncated product
    # is exact through its truncation, so its first mismatch is the full one's.
    t, n = summed.truncation, 8
    while True:
        comparison = _compare(label, summed, inverse_poch_product(factors, min(n, t)))
        if not comparison.matches or n >= t:
            return comparison
        n *= 2


def verify_partition_identity(name: str, truncation: int) -> IdentityReport:
    """Compare a preset's summed character with candidate partition sides.

    x3: the summed character (in the substituted variable obtained by
    halving the normalized exponents) is compared with the direct count of
    partitions in which no part repeats more than twice and no two parts
    differ by 1 -- a real check.

    x4: the summed character is compared with two candidate infinite
    products; the report records agreement or the first mismatch for each,
    and callers decide whether a mismatch is fatal.  Each product is
    computed only through its first mismatch, at doubling truncations.
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
        counts = QSeries(separated_partition_counts(truncation))
        comparisons = (
            _compare("separated-partition count (parts repeat <= 2, no gap-1 pairs)",
                     summed, counts),
        )
    else:
        comparisons = (
            _compare_product("infinite product 1/((q;q)(q^3;q)(q^6;q)(q^9;q))",
                             summed, ((1, 1), (3, 1), (6, 1), (9, 1))),
            _compare_product(
                "infinite product 1/((q;q^9)(q^3;q^9)(q^6;q^9)(q^8;q^9)) "
                "[alternate modulus-9 form]",
                summed, ((1, 9), (3, 9), (6, 9), (8, 9))),
        )
    return IdentityReport(name, truncation, comparisons)
