"""Brute-force comparison oracle for the character coefficients.

The graded commutative algebra on variables x_i(n), one family per orbit
with n running over the orbit's admissible negative modes, is cut down by
the quadratic relation families carrying root-of-unity weights.  For each
bidegree (charge vector, normalized weight) this module enumerates the
monomial basis, expands every relation times every cofactor monomial, and
computes the quotient dimension by exact rank over the ambient cyclotomic
field.  Matching those dimensions against the character coefficients is
the ground-truth test that the relations present the graded algebra.

Weights are normalized exactly as in the character tables: a variable of
mode n has integer weight -n * k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cyclotomic import (
    CyclotomicScalar,
    ExactMatrix,
    NoSolution,
    get_field,
    rational_binomial,
)
from .lattice import OrbitData, PairingTables
from .pascal import PascalSpec, stacked_with_root
from .qseries import character


class BudgetExceeded(RuntimeError):
    """The requested bidegree or matrix exceeds the configured budget."""


class PreconditionViolated(ValueError):
    """Arguments fall outside the precondition of the requested operation."""


@dataclass(frozen=True)
class OracleBudget:
    """Refusal thresholds for oracle computations."""

    charge_total: int = 3
    weight: int = 24
    max_rows: int = 20000
    max_cols: int = 2000


class TwistedVariable(NamedTuple):
    """One algebra generator: orbit index and normalized (positive) weight."""

    orbit: int
    weight: int

    def mode(self, k: int) -> Fraction:
        return Fraction(-self.weight, k)


Monomial = tuple[TwistedVariable, ...]


def monomial_weight(mono: Monomial) -> int:
    return sum(v.weight for v in mono)


def monomial_charge(mono: Monomial, d: int) -> tuple[int, ...]:
    counts = [0] * d
    for v in mono:
        counts[v.orbit] += 1
    return tuple(counts)


@dataclass(frozen=True)
class RelationGenerator:
    """One relation: labels (orbit pair, rotation r, power m) plus the
    expanded terms in the two-variable monomial basis at its weight."""

    orbit_pair: tuple[int, int]
    rotation: int
    power: int
    weight: int
    terms: tuple[tuple[CyclotomicScalar, Monomial], ...]


def _var_start_step(
    orbits: OrbitData, tables: PairingTables, i: int
) -> tuple[int, int]:
    return tables.char_matrix[i][i] // 2, orbits.k // orbits.lengths[i]


def _weight_multisets(
    count: int, min_weight: int, step: int, cap: int
) -> list[tuple[int, ...]]:
    if count == 0:
        return [()]
    out = []
    w = min_weight
    while w * count <= cap:
        for rest in _weight_multisets(count - 1, w, step, cap - w):
            out.append((w,) + rest)
        w += step
    return out


def enumerate_monomials(
    orbits: OrbitData,
    tables: PairingTables,
    charge: Sequence[int],
    weight: int,
) -> list[Monomial]:
    """All monomials of the given charge vector and exact total weight,
    in lexicographic order."""
    d = orbits.d
    if len(charge) != d or any(c < 0 for c in charge) or weight < 0:
        raise PreconditionViolated(
            f"bad bidegree: charge={tuple(charge)}, weight={weight}"
        )
    per_orbit = []
    for i in range(d):
        start, step = _var_start_step(orbits, tables, i)
        per_orbit.append(_weight_multisets(charge[i], start, step, weight))
    out: list[Monomial] = []

    def rec(i: int, acc: list[TwistedVariable], used: int) -> None:
        if i == d:
            if used == weight:
                out.append(tuple(acc))
            return
        for ws in per_orbit[i]:
            total = sum(ws)
            if used + total <= weight:
                rec(i + 1, acc + [TwistedVariable(i, w) for w in ws], used + total)

    rec(0, [], 0)
    return sorted(out)


def _mode_pairs(
    orbits: OrbitData,
    tables: PairingTables,
    i: int,
    j: int,
    t: Fraction,
) -> list[tuple[Fraction, Fraction]]:
    # Ordered decompositions -t = n1 + n2 with n1, n2 admissible negative
    # modes of orbits i and j.
    a_i, a_j = tables.a_half[i], tables.a_half[j]
    l_i = orbits.lengths[i]
    pairs = []
    s1 = 0
    while a_i + Fraction(s1, l_i) <= t - a_j:
        n1 = -a_i - Fraction(s1, l_i)
        n2 = -t - n1
        if orbits.contains_mode(j, n2):
            pairs.append((n1, n2))
        s1 += 1
    return pairs


def _integral(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} {value} is not an integer")
    return int(value)


def _pair_monomial(
    orbits: OrbitData, i: int, j: int, n1: Fraction, n2: Fraction
) -> Monomial:
    # x_i(n1) * x_j(n2) as a sorted monomial of normalized weights.
    k = orbits.k
    return tuple(sorted((
        TwistedVariable(i, _integral(-n1 * k, "variable weight")),
        TwistedVariable(j, _integral(-n2 * k, "variable weight")),
    )))


def _relation_coeff(
    orbits: OrbitData, tables: PairingTables, i: int, r: int, m: int, n: Fraction
) -> CyclotomicScalar:
    # Weight of x_i(n) in relation (rotation r, power m) of orbit i: the
    # rotation's root of unity of order L_i at mode n, times
    # binomial(-n - gram_ii/2, m - 1).
    k, big_l = orbits.k, orbits.root_orders[i]
    root = get_field(k).eta_to(
        r * _integral(n * big_l, "root exponent") * (k // big_l)
    )
    return root * rational_binomial(
        -n - Fraction(tables.rotated[i][i][0], 2), m - 1
    )


def _generators(
    orbits: OrbitData,
    tables: PairingTables,
    i: int,
    j: int,
    t: Fraction,
    pairs: list[tuple[Fraction, Fraction]],
) -> list[RelationGenerator]:
    field = get_field(orbits.k)
    weight = _integral(t * orbits.k, "relation weight")
    monos = [(n1, _pair_monomial(orbits, i, j, n1, n2)) for n1, n2 in pairs]
    gens = []
    for r in range(orbits.lengths[i]):
        for m in range(1, tables.rotated[i][j][r] + 1):
            acc: dict[Monomial, CyclotomicScalar] = {}
            for n1, mono in monos:
                coeff = _relation_coeff(orbits, tables, i, r, m, n1)
                acc[mono] = acc.get(mono, field.zero()) + coeff
            terms = tuple(
                (c, mono) for mono, c in sorted(acc.items()) if c
            )
            gens.append(RelationGenerator((i, j), r, m, weight, terms))
    return gens


def build_relations(
    orbits: OrbitData,
    tables: PairingTables,
    pair: tuple[int, int],
    t: Fraction,
) -> list[RelationGenerator]:
    """The full relation family for one ordered orbit pair at total degree t.

    One generator per rotation r < length_i and power 1 <= m <= pairing of
    the r-th rotation with orbit j; generators whose coefficients all vanish
    are kept as zero rows.  Requires -t to admit at least one decomposition
    into admissible modes.
    """
    i, j = pair
    t = Fraction(t)
    pairs = _mode_pairs(orbits, tables, i, j, t)
    if not pairs:
        raise PreconditionViolated(
            f"-{t} is not a sum of admissible modes of orbits {i} and {j}"
        )
    return _generators(orbits, tables, i, j, t, pairs)


def _relation_rows(
    orbits: OrbitData,
    tables: PairingTables,
    charge: tuple[int, ...],
    weight: int,
    monomials: list[Monomial],
    max_rows: int | None = None,
) -> list[list[CyclotomicScalar]]:
    field = get_field(orbits.k)
    index = {mono: pos for pos, mono in enumerate(monomials)}
    rows: list[list[CyclotomicScalar]] = []
    d = orbits.d
    for i in range(d):
        for j in range(d):
            needed = [0] * d
            needed[i] += 1
            needed[j] += 1
            if any(charge[a] < needed[a] for a in range(d)):
                continue
            cof_charge = tuple(charge[a] - needed[a] for a in range(d))
            min_gen = (
                tables.char_matrix[i][i] + tables.char_matrix[j][j]
            ) // 2
            for cof_weight in range(weight - min_gen + 1):
                cofs = enumerate_monomials(orbits, tables, cof_charge, cof_weight)
                if not cofs:
                    continue
                t = Fraction(weight - cof_weight, orbits.k)
                pairs = _mode_pairs(orbits, tables, i, j, t)
                if not pairs:
                    continue
                gens = _generators(orbits, tables, i, j, t, pairs)
                if max_rows is not None and len(rows) + len(cofs) * len(gens) > max_rows:
                    raise BudgetExceeded(
                        f"relation row count exceeds budget ({max_rows}) at "
                        f"bidegree (charge={charge}, weight={weight})"
                    )
                for cof in cofs:
                    for gen in gens:
                        row = [field.zero()] * len(monomials)
                        for coeff, mono in gen.terms:
                            full = tuple(sorted(cof + mono))
                            row[index[full]] = row[index[full]] + coeff
                        rows.append(row)
    return rows


def _bidegree_data(
    orbits: OrbitData,
    tables: PairingTables,
    charge: tuple[int, ...],
    weight: int,
    budget: OracleBudget,
) -> tuple[int, int, int]:
    """(monomial count, relation row count, rank) for one bidegree."""
    if sum(charge) > budget.charge_total or weight > budget.weight:
        raise BudgetExceeded(
            f"bidegree (charge={charge}, weight={weight}) exceeds budget "
            f"(charge_total={budget.charge_total}, weight={budget.weight})"
        )
    monomials = enumerate_monomials(orbits, tables, charge, weight)
    if not monomials:
        return 0, 0, 0
    if len(monomials) > budget.max_cols:
        raise BudgetExceeded(
            f"{len(monomials)} monomials at bidegree (charge={charge}, "
            f"weight={weight}) exceed the column budget ({budget.max_cols})"
        )
    rows = _relation_rows(
        orbits, tables, charge, weight, monomials, max_rows=budget.max_rows
    )
    if not rows:
        return len(monomials), 0, 0
    field = get_field(orbits.k)
    matrix = ExactMatrix(
        field, tuple(tuple(r) for r in rows), len(monomials)
    )
    return len(monomials), len(rows), matrix.rank()


def quotient_dimension(
    orbits: OrbitData,
    tables: PairingTables,
    charge: Sequence[int],
    weight: int,
    budget: OracleBudget | None = None,
) -> int:
    """Dimension of the bidegree slice of the algebra modulo the relations."""
    budget = budget or OracleBudget()
    n_monos, _, rank = _bidegree_data(
        orbits, tables, tuple(charge), weight, budget
    )
    return n_monos - rank


@dataclass(frozen=True)
class OracleCell:
    charge: tuple[int, ...]
    weight: int
    monomials: int
    relations: int
    rank: int
    dimension: int
    coefficient: int

    @property
    def ok(self) -> bool:
        return self.dimension == self.coefficient

    def to_json_dict(self) -> dict:
        return {
            "charge": list(self.charge),
            "weight": self.weight,
            "monomials": self.monomials,
            "relations": self.relations,
            "rank": self.rank,
            "dimension": self.dimension,
            "coefficient": self.coefficient,
            "status": "ok" if self.ok else "MISMATCH",
        }


@dataclass(frozen=True)
class OracleReport:
    charge_total: int
    weight_bound: int
    cells: tuple[OracleCell, ...]
    empty_cells: int

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def mismatches(self) -> tuple[OracleCell, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def text_table(self) -> str:
        header = (
            f"{'charge':<12}{'weight':>7}{'monos':>7}{'rels':>6}"
            f"{'rank':>6}{'dim':>5}{'char':>6}  status"
        )
        lines = [header, "-" * len(header)]
        for c in self.cells:
            lines.append(
                f"{str(c.charge):<12}{c.weight:>7}{c.monomials:>7}"
                f"{c.relations:>6}{c.rank:>6}{c.dimension:>5}"
                f"{c.coefficient:>6}  {'ok' if c.ok else 'MISMATCH'}"
            )
        lines.append(
            f"{len(self.cells)} populated bidegrees checked "
            f"({self.empty_cells} empty), "
            f"{'all consistent' if self.all_ok else f'{len(self.mismatches)} MISMATCHES'}"
        )
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "charge_total": self.charge_total,
            "weight_bound": self.weight_bound,
            "cells": [c.to_json_dict() for c in self.cells],
            "empty_cells": self.empty_cells,
            "all_ok": self.all_ok,
        }


def _charges_up_to(d: int, total: int) -> list[tuple[int, ...]]:
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], left: int) -> None:
        if len(prefix) == d:
            out.append(tuple(prefix))
            return
        for v in range(left + 1):
            rec(prefix + [v], left - v)

    rec([], total)
    return sorted(out)


def compare_with_character(
    orbits: OrbitData,
    tables: PairingTables,
    charge_total: int = 3,
    weight_bound: int = 24,
    budget: OracleBudget | None = None,
) -> OracleReport:
    """Quotient dimension vs character coefficient over a budgeted window.

    Covers every charge vector with entry sum <= charge_total and every
    normalized weight <= weight_bound; bidegrees with neither monomials nor
    a character coefficient are counted but not listed.
    """
    budget = budget or OracleBudget(charge_total=charge_total, weight=weight_bound)
    table = character(orbits, tables, weight_bound)
    cells = []
    empty = 0
    for charge in _charges_up_to(orbits.d, charge_total):
        series = table.series(charge)
        for weight in range(weight_bound + 1):
            n_monos, n_rows, rank = _bidegree_data(
                orbits, tables, charge, weight, budget
            )
            coeff = series.coeff(weight)
            if n_monos == 0 and coeff == 0:
                empty += 1
                continue
            cells.append(
                OracleCell(
                    charge=charge,
                    weight=weight,
                    monomials=n_monos,
                    relations=n_rows,
                    rank=rank,
                    dimension=n_monos - rank,
                    coefficient=coeff,
                )
            )
    return OracleReport(
        charge_total=charge_total,
        weight_bound=weight_bound,
        cells=tuple(cells),
        empty_cells=empty,
    )


def new_relations_membership(
    orbits: OrbitData,
    tables: PairingTables,
    i: int,
    j: int,
    s: int,
    t: int,
) -> bool:
    """Whether x_i(-a_i - s/l_i) * x_j(-a_j - t/l_i) lies in the relation ideal.

    The allowed range is s, t >= 0 with s + t <= l_i * (zero-mode pairing
    of i with j) - 1; outside it PreconditionViolated is raised.  When the
    second mode is not admissible for orbit j the monomial vanishes by
    convention and membership holds trivially.  Otherwise membership is
    decided by solving for the monomial in the span of the ideal's
    bidegree slice over the cyclotomic field.
    """
    # lengths[i] times the zero-mode pairing of i with j: the number of
    # (rotation, power) relation labels of the pair.
    bound = sum(tables.rotated[i][j])
    if s < 0 or t < 0 or s + t > bound - 1:
        raise PreconditionViolated(
            f"(s, t) = ({s}, {t}) outside the range s, t >= 0, "
            f"s + t <= {bound - 1}"
        )
    l_i = orbits.lengths[i]
    n1 = -tables.a_half[i] - Fraction(s, l_i)
    n2 = -tables.a_half[j] - Fraction(t, l_i)
    if not orbits.contains_mode(j, n2):
        return True
    target = _pair_monomial(orbits, i, j, n1, n2)
    charge = monomial_charge(target, orbits.d)
    weight = monomial_weight(target)
    monomials = enumerate_monomials(orbits, tables, charge, weight)
    rows = _relation_rows(orbits, tables, charge, weight, monomials)
    if not rows:
        return False
    field = get_field(orbits.k)
    span = ExactMatrix(
        field, tuple(tuple(r) for r in rows), len(monomials)
    ).transpose()
    rhs = [1 if mono == target else 0 for mono in monomials]
    try:
        span.solve(rhs)
        return True
    except NoSolution:
        return False


@dataclass(frozen=True)
class MembershipCell:
    """One (orbit pair, mode offsets) instance of the two-variable
    membership statement; trivial means the second variable vanishes
    because its mode is inadmissible."""

    i: int
    j: int
    s: int
    t: int
    member: bool
    trivial: bool

    def to_json_dict(self) -> dict:
        return {
            "pair": [self.i, self.j],
            "s": self.s,
            "t": self.t,
            "member": self.member,
            "trivial": self.trivial,
        }


def new_relations_sweep(
    orbits: OrbitData, tables: PairingTables
) -> tuple[MembershipCell, ...]:
    """Membership over the full allowed (s, t) range of every orbit pair."""
    cells = []
    for i in range(orbits.d):
        for j in range(orbits.d):
            bound = sum(tables.rotated[i][j])
            l_i = orbits.lengths[i]
            for s in range(bound):
                for t in range(bound - s):
                    n2 = -tables.a_half[j] - Fraction(t, l_i)
                    cells.append(
                        MembershipCell(
                            i,
                            j,
                            s,
                            t,
                            new_relations_membership(orbits, tables, i, j, s, t),
                            not orbits.contains_mode(j, n2),
                        )
                    )
    return tuple(cells)


def membership_matrix(
    orbits: OrbitData, tables: PairingTables, i: int, j: int
) -> ExactMatrix:
    """The square coefficient matrix underlying the membership argument.

    Rows are labeled by (rotation r, power m), columns by the mode offset
    p; the entry is the rotation's root-of-unity weight at mode
    -a_i - p/l_i times binomial(a_i + p/l_i - gram_ii/2, m - 1).  Square of
    size l_i * (zero-mode pairing), and always invertible.
    """
    l_i = orbits.lengths[i]
    a_i = tables.a_half[i]
    size = sum(tables.rotated[i][j])
    rows = [
        tuple(
            _relation_coeff(orbits, tables, i, r, m, -a_i - Fraction(p, l_i))
            for p in range(size)
        )
        for r in range(l_i)
        for m in range(1, tables.rotated[i][j][r] + 1)
    ]
    return ExactMatrix(get_field(orbits.k), tuple(rows), size)


def membership_matrix_decomposition(
    orbits: OrbitData, tables: PairingTables, i: int, j: int
) -> tuple[tuple[CyclotomicScalar, ...], ExactMatrix]:
    """Per-row scalars and the Pascal-block form of the membership matrix.

    Row (r, m) of membership_matrix equals scalar[row] times the same row
    of a stacked root-of-unity Pascal matrix with root order l_i, block
    sizes given by the rotated pairings, z = a_i - gram_ii/2 and w = 1/l_i.
    """
    k = orbits.k
    field = get_field(k)
    l_i = orbits.lengths[i]
    a_i = tables.a_half[i]
    gram_ii = Fraction(tables.rotated[i][i][0], 2)
    # The p-dependent part of the root weight is a power of the primitive
    # l_i-th root eta^(-k/l_i); the remainder is a per-row scalar.
    zeta = field.eta_to(-k // l_i)
    scalars = []
    for r in range(l_i):
        scalar = field.eta_to(_integral(-r * a_i * k, "root exponent"))
        scalars.extend([scalar] * tables.rotated[i][j][r])
    pascal_form = stacked_with_root(
        field,
        zeta,
        tables.rotated[i][j],
        a_i - gram_ii,
        Fraction(1, l_i),
    )
    return tuple(scalars), pascal_form


def membership_pascal_spec(
    orbits: OrbitData, tables: PairingTables, i: int, j: int
) -> PascalSpec:
    """Block spec whose stacked matrix certifies the membership argument."""
    a_i = tables.a_half[i]
    gram_ii = Fraction(tables.rotated[i][i][0], 2)
    return PascalSpec(
        conductor=orbits.lengths[i],
        block_sizes=tables.rotated[i][j],
        z=a_i - gram_ii,
        w=Fraction(1, orbits.lengths[i]),
    )
