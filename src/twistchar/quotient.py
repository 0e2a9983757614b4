"""Comparison oracle for the character coefficients.

The graded commutative algebra has one family of variables per orbit i,
of normalized integer weights start_i + p * s_i (p >= 0), where
start_i = A_ii / 2 and s_i = k / l_i is the orbit's step; quadratic
relation families with root-of-unity coefficients cut it down.  The
variable of weight w is x_i(n) at mode n = -w / k; modes appear only at
the boundary (``build_relations``, the membership offsets s, t).

For each bidegree (charge vector, weight) the oracle counts the monomial
basis B as partitions and proves dim Q = |B| - rank I by two bounds, I
spanned by every relation times every cofactor monomial.  Lower: certificate
(b) of ``twisted`` gives dim Q >= c* = |B(m, w - delta)|, the twisted
module's count, delta = m^T A m / 2 - sum_i m_i * start_i.  Upper:
rank I >= |B| - c* mod the split prime (eta -> omega).  Where a bound fails,
or the character coefficient differs from c*, exact elimination over the
cyclotomic field gives the rank.

Row columns are integer keys: x_i(start_i + p * s_i) adds
1 << (p * d + i) * b, so a product's key is the sum of its factors' keys.
Lemma: the row cof * g then has its least key at cof + lead(g), lead(g) the
least key of g's nonzero residues, and rows with pairwise distinct least
keys are triangular, so independent.  The count of distinct cof + lead(g)
thus bounds the rank mod p from below before any row is built; only where
it falls short of |B| - c* are the rows built and eliminated mod p.

One memo per call (``_Slices``) holds the cofactor bases (the only ones
enumerated), relation coefficients, families and each family's two keyed
forms, exact and mod p with least keys; a proved cell walks its row blocks
(``_blocks``) once.  A window walks only the charges whose lowest weight
sum_i m_i * start_i is in range and counts its empty cells in closed form.
A bidegree over MAX_COLUMNS monomials, counted as partitions, is refused
before any basis is built, and one over MAX_ROWS rows before its rows or
leading keys are read.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import NamedTuple, Sequence

from .cyclotomic import CyclotomicScalar, ExactMatrix, get_field, rational_binomial
from .lattice import OrbitData, PairingTables
from .modular import rank_mod, root_prime
from .pascal import PascalSpec, stacked_with_root
from .qseries import BudgetExceeded, _partition_series, character
from .twisted import family_mod_p, ordered_factor

# Refusal thresholds per bidegree: monomials (matrix columns) and relation
# rows.
MAX_COLUMNS = 2000
MAX_ROWS = 20000
# The most membership instances per sweep, about 100 s of work: c (c + 1) / 2
# per orbit pair, c its pairing sum; Gram [[60]] has 1830, in 19 s.
MAX_MEMBERSHIPS = 4000


class PreconditionViolated(ValueError):
    """Arguments fall outside the precondition of the requested operation."""


class TwistedVariable(NamedTuple):
    """One algebra generator: orbit index and normalized (positive) weight."""

    orbit: int
    weight: int


Monomial = tuple[TwistedVariable, ...]


class RelationGenerator(NamedTuple):
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


def enumerate_monomials(
    orbits: OrbitData, tables: PairingTables, charge: Sequence[int], weight: int
) -> list[Monomial]:
    """All monomials of the given charge vector and exact total weight,
    in lexicographic order."""
    if len(charge) != orbits.d or any(c < 0 for c in charge) or weight < 0:
        raise PreconditionViolated(
            f"bad bidegree: charge={tuple(charge)}, weight={weight}"
        )
    # One slot per variable, orbit by orbit; floor[p] is the lowest weight
    # of slots p, p + 1, ...  Weights are chosen in increasing order, so the
    # output is lexicographic and needs no sort.
    slots = [
        (i, *_var_start_step(orbits, tables, i))
        for i in range(orbits.d) for _ in range(charge[i])
    ]
    if not slots:
        return [] if weight else [()]
    floor = [sum(start for _, start, _ in slots[p:]) for p in range(len(slots) + 1)]
    out: list[Monomial] = []

    def rec(p: int, acc: list[TwistedVariable], left: int) -> None:
        i, w, step = slots[p]
        if acc and acc[-1].orbit == i:
            w = acc[-1].weight
        if p == len(slots) - 1:  # the last slot takes the weight left
            if left >= w and (left - w) % step == 0:
                out.append((*acc, TwistedVariable(i, left)))
            return
        while w + floor[p + 1] <= left:
            acc.append(TwistedVariable(i, w))
            rec(p + 1, acc, left - w)
            acc.pop()
            w += step

    rec(0, [], weight)
    return out


def _relation_coeff(
    orbits: OrbitData, tables: PairingTables, i: int, r: int, m: int, w: int
) -> CyclotomicScalar:
    # Coefficient of orbit i's variable of weight w (mode -w/k) in relation
    # (rotation r, power m) of orbit i: the rotation's root of unity
    # eta^(-r * w), times binomial(w/k - gram_ii/2, m - 1).
    k = orbits.k
    return get_field(k).eta_to(-r * w) * rational_binomial(
        Fraction(w, k) - Fraction(tables.rotated[i][i][0], 2), m - 1
    )


def _generators(
    slices: "_Slices", i: int, j: int, weight: int, firsts: list[int]
) -> list[RelationGenerator]:
    # firsts: the orbit-i weights w1 of the pairs x_i * x_j of this weight.
    orbits, tables, field = slices.orbits, slices.tables, slices.field
    monos = [
        (w1, tuple(sorted((TwistedVariable(i, w1), TwistedVariable(j, weight - w1)))))
        for w1 in firsts
    ]
    gens = []
    for r in range(orbits.lengths[i]):
        for m in range(1, tables.rotated[i][j][r] + 1):
            acc: dict[Monomial, CyclotomicScalar] = {}
            for w1, mono in monos:
                coeff = slices.coeff(i, r, m, w1)
                acc[mono] = acc.get(mono, field.zero()) + coeff
            terms = tuple((c, mono) for mono, c in sorted(acc.items()) if c)
            gens.append(RelationGenerator((i, j), r, m, weight, terms))
    return gens


def build_relations(
    orbits: OrbitData, tables: PairingTables, pair: tuple[int, int], t: Fraction
) -> list[RelationGenerator]:
    """The full relation family for one ordered orbit pair at total degree t.

    One generator per rotation r < length_i and power 1 <= m <= pairing of
    the r-th rotation with orbit j; generators whose coefficients all vanish
    are kept as zero rows.  Requires -t to admit at least one decomposition
    into admissible modes, that is, the weight t * k to be a sum of variable
    weights of orbits i and j.
    """
    i, j = pair
    t = Fraction(t)
    weight, slices = t * orbits.k, _Slices(orbits, tables)
    firsts = weight.denominator == 1 and slices.pair_weights(i, j, int(weight))
    if not firsts:
        raise PreconditionViolated(
            f"-{t} is not a sum of admissible modes of orbits {i} and {j}"
        )
    return _generators(slices, i, j, int(weight), firsts)


class _Slices:
    """Per-call memo of the bidegree slices of one lattice: basis keys and
    sizes, relation coefficients by (i, r, m, w1), relation families by (i,
    j, relation weight) with their two keyed forms, exact (``keyed``) and
    mod the split prime with least keys (``family_mod_p``), each memoized
    once, (row count, rank) of I(m, w) by (charge, weight), and F's factor
    by ordered orbit pair (``factor``, ``ordered_factor``) where
    ``family_mod_p`` first needs it.  Key fields are ``width`` bits, for
    charge entries up to ``top``; ``bound`` is the window's weight bound."""

    def __init__(self, orbits: OrbitData, tables: PairingTables, top: int = 2,
                 bound: int = 0):
        self.orbits, self.tables, self.bound = orbits, tables, bound
        self.field = get_field(orbits.k)
        self.bases, self.families, self.ranks = {}, {}, {}
        self.exact, self.residues, self.leads = {}, {}, {}
        self.counts, self.width = {}, max(top, 2).bit_length()
        self.coeff = lru_cache(None)(lambda *key: _relation_coeff(orbits, tables, *key))
        self.factor = lru_cache(None)(lambda i, j: ordered_factor(orbits, tables, i, j))
        self.start_step = [_var_start_step(orbits, tables, i) for i in range(orbits.d)]

    def key(self, mono: Monomial) -> int:
        d, b, start_step = self.orbits.d, self.width, self.start_step
        return sum(1 << ((w - start_step[i][0]) // start_step[i][1] * d + i) * b
                   for i, w in mono)

    def lowest(self, charge: Sequence[int]) -> int:
        """sum_i m_i * start_i, the lowest weight of any charge-m monomial."""
        return sum(m * start for m, (start, _) in zip(charge, self.start_step))

    def sizes(self, charge: tuple[int, ...], bound: int) -> list[int]:
        """|B(charge, w)| for w = 0..bound without enumerating: the coefficient
        of q^(w - sum_i m_i * start_i) in prod_i 1 / (q^s_i; q^s_i)_(m_i),
        memoized."""
        if (charge, bound) not in self.counts:
            # zip: enumerate_monomials refuses a charge of the wrong length later.
            parts = [j * step for m, (_, step) in zip(charge, self.start_step)
                     for j in range(1, m + 1)]
            shift = self.lowest(charge)
            counts = _partition_series(parts, max(bound - shift, 0)).coeffs
            self.counts[charge, bound] = ([0] * shift + counts)[:bound + 1]
        return self.counts[charge, bound]

    def check_columns(self, charges: list, lo: int, hi: int) -> None:
        """Refuse the first cell (charge, lo <= weight <= hi), in window
        order, whose basis would exceed MAX_COLUMNS."""
        for charge in charges:
            sizes = self.sizes(charge, hi)
            for weight in range(max(lo, 0), hi + 1):
                if sizes[weight] > MAX_COLUMNS:
                    raise BudgetExceeded(
                        f"{sizes[weight]} monomials at bidegree (charge={charge}, "
                        f"weight={weight}) exceed the column budget ({MAX_COLUMNS})"
                    )

    def basis(self, charge: tuple[int, ...], weight: int) -> tuple[int, ...]:
        # Tuples: a window's many empty bases are then one untracked object.
        if (charge, weight) not in self.bases:
            self.bases[charge, weight] = tuple(map(self.key, enumerate_monomials(
                self.orbits, self.tables, charge, weight
            )))
        return self.bases[charge, weight]

    def pair_weights(self, i: int, j: int, weight: int) -> list[int]:
        """The weights w1 of orbit i's variables for which weight - w1 is a
        weight of orbit j's, in increasing order."""
        (start_i, s_i), (start_j, s_j) = self.start_step[i], self.start_step[j]
        return [w1 for w1 in range(start_i, weight - start_j + 1, s_i)
                if (weight - w1 - start_j) % s_j == 0]

    def family(self, i: int, j: int, weight: int) -> list[RelationGenerator]:
        if (i, j, weight) not in self.families:
            firsts = self.pair_weights(i, j, weight)
            self.families[i, j, weight] = firsts and _generators(
                self, i, j, weight, firsts)
        return self.families[i, j, weight]

    def keyed(self, key: tuple[int, int, int]) -> list:
        """Per generator of family key, its (coefficient, monomial key)s."""
        if key not in self.exact:
            self.exact[key] = [[(c, self.key(m)) for c, m in g.terms]
                               for g in self.family(*key)]
        return self.exact[key]

    def family_mod_p(self, key: tuple[int, int, int]) -> list | None:
        """Per generator of family key, its nonzero (residue, monomial key)s,
        least keys into ``leads``; None where certificate (b) fails."""
        if key not in self.residues:
            starts = [start for start, _ in self.start_step]
            gens = family_mod_p(self.family(*key), self.factor(*key[:2]), starts,
                                *root_prime(self.orbits.k))
            gens = self.residues[key] = gens and [
                [(r, self.key(m)) for r, m in terms] for terms in gens]
            self.leads[key] = {min(k for _, k in g) for g in gens or () if g}
        return self.residues[key]

    def rank(self, charge: tuple[int, ...], weight: int, target=None):
        """(row count, rank) of I(charge, weight), memoized; with a target
        monomial's key, of those rows plus the target's unit row, not
        memoized.  Each call builds the rows at most once, and a call with a
        target memoizes the rank without it on the way."""
        key = charge, weight
        if target is None and key in self.ranks:
            return self.ranks[key]
        rows = _relation_rows(_blocks(self, charge, weight)[0], self.keyed)

        def rank_of_rows() -> int:
            zero, columns = self.field.zero(), sorted(set().union(*rows))
            dense = tuple(tuple(row.get(c, zero) for c in columns) for row in rows)
            return ExactMatrix(self.field, dense, len(columns)).rank() if rows else 0

        if key not in self.ranks:
            self.ranks[key] = len(rows), rank_of_rows()
        if target is None:
            return self.ranks[key]
        rows.append({target: self.field.one()})
        return len(rows), rank_of_rows()


def _blocks(slices: _Slices, charge: tuple[int, ...], weight: int) -> tuple[list, int]:
    """The rows of I(m, w) in blocks (cofactor keys, family key (i, j,
    relation weight)), one row cof * g per cofactor and generator of the
    family, and their count.  Refused once the count would exceed
    MAX_ROWS."""
    # Keys add while no multiplicity overflows its field.
    if max(charge) >> slices.width:
        raise PreconditionViolated(f"charge {charge} overflows {slices.width}-bit keys")
    blocks, n_rows = [], 0
    support = [a for a, c in enumerate(charge) if c]  # orbits a cofactor can drop
    for i in support:
        for j in support:
            cof_charge = tuple(c - (a == i) - (a == j) for a, c in enumerate(charge))
            if min(cof_charge) < 0:
                continue
            top = weight - slices.start_step[i][0] - slices.start_step[j][0]
            # One bound per charge, so the size lists come from the memo.
            sizes = slices.sizes(cof_charge, max(top, slices.bound))
            for cof_weight in range(slices.lowest(cof_charge), top + 1):
                if not sizes[cof_weight]:
                    continue
                cofs = slices.basis(cof_charge, cof_weight)
                key = i, j, weight - cof_weight
                # Both forms keep one term list per generator, zero ones too.
                n_rows += len(cofs) * len(slices.family(*key))
                if n_rows > MAX_ROWS:
                    raise BudgetExceeded(
                        f"relation row count exceeds budget ({MAX_ROWS}) at "
                        f"bidegree (charge={charge}, weight={weight})")
                blocks.append((cofs, key))
    return blocks, n_rows


def _relation_rows(blocks: list, form) -> list[dict]:
    """The rows cof * g of ``_blocks`` as {monomial key: entry}, g's terms
    from form(family key): ``_Slices.keyed`` or ``_Slices.family_mod_p``."""
    # A generator's terms have distinct keys, and so do their products with
    # one cofactor: each entry is placed, never summed.
    return [{cof + key: c for c, key in gen}
            for cofs, gens in [(cofs, form(key)) for cofs, key in blocks]
            for cof in cofs for gen in gens]


def _oracle_rank(
    slices: _Slices, charge: tuple[int, ...], weight: int, target: int
) -> tuple[int, int, str]:
    """(row count, rank, method) of I(m, w).  The rank is target = |B| - c*
    when the distinct leading keys number target ("leads") or, when they
    fall short, the rank mod p of the rows reaches it ("mod p"); otherwise,
    and for target < 0, it comes from exact elimination ("exact")."""
    if target >= 0:
        blocks, n_rows = _blocks(slices, charge, weight)
        if all(slices.family_mod_p(key) is not None for _, key in blocks):
            leads = len({cof + lead for cofs, key in blocks
                         for lead in slices.leads[key] for cof in cofs})
            if leads == target:
                return n_rows, target, "leads"
            # Above the target the lower bound dim Q >= c* is contradicted.
            if leads < target:
                rows = _relation_rows(blocks, slices.family_mod_p)
                if rank_mod(rows, root_prime(slices.orbits.k)[0], target) == target:
                    return n_rows, target, "mod p"
    return (*slices.rank(charge, weight), "exact")


def quotient_dimension(
    orbits: OrbitData, tables: PairingTables, charge: Sequence[int], weight: int
) -> int:
    """Dimension of the bidegree slice of the algebra modulo the relations."""
    charge = tuple(charge)
    slices = _Slices(orbits, tables, max(charge, default=0), weight)
    slices.check_columns([charge], weight, weight)
    return len(slices.basis(charge, weight)) - slices.rank(charge, weight)[1]


class OracleCell(NamedTuple):
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
        # The fields in their order, then the status.
        return {**self._asdict(), "charge": list(self.charge),
                "status": "ok" if self.ok else "MISMATCH"}


class OracleReport(NamedTuple):
    # Not in the JSON: the ranks the two one-prime bounds proved (of them, by
    # leading monomials alone) and those from exact elimination.
    charge_total: int
    weight_bound: int
    cells: tuple[OracleCell, ...]
    empty_cells: int
    proved: int = 0
    exact: int = 0
    leads: int = 0

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def mismatches(self) -> tuple[OracleCell, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def text_table(self) -> str:
        header = (f"{'charge':<12}{'weight':>7}{'monos':>7}{'rels':>6}"
                  f"{'rank':>6}{'dim':>5}{'char':>6}  status")
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


def _charges_up_to(lows: list[int], total: int, bound: int) -> list[tuple[int, ...]]:
    """Charge vectors m with entry sum <= total and lowest weight
    sum_i m_i * lows[i] <= bound, in lexicographic order."""
    # Depth first without recursion: m, then m raised at one orbit past its
    # last nonzero entry, popped last orbit and smallest value first.
    out, stack = [], [((0,) * len(lows), 0, total, bound)]
    while stack:
        m, first, left, room = stack.pop()
        out.append(m)
        if left:
            stack += [(m[:i] + (v,) + m[i + 1:], i + 1, left - v, room - v * lows[i])
                      for i in range(first, len(lows))
                      for v in range(min(left, room // lows[i]), 0, -1)]
    return out


def compare_with_character(
    orbits: OrbitData, tables: PairingTables, charge_total: int, weight_bound: int
) -> OracleReport:
    """Quotient dimension vs character coefficient over a budgeted window.

    Covers every charge vector with entry sum <= charge_total and every
    normalized weight <= weight_bound; bidegrees with neither monomials nor
    a character coefficient are counted but not listed.
    """
    table = character(orbits, tables, weight_bound)
    slices = _Slices(orbits, tables, charge_total, weight_bound)
    # Pairings are non-negative, so delta = m^T A m / 2 - sum_i m_i * start_i
    # >= 0: a character series (it starts at q^(m^T A m / 2)) and a basis are
    # both zero below their charge's lowest weight, where no cell is visited.
    # The lower bound is c* = |B(m, w - delta)|; a cell whose coefficient
    # differs from c* goes to exact elimination.
    charges = _charges_up_to([start for start, _ in slices.start_step],
                             charge_total, weight_bound)
    slices.check_columns(charges, 0, weight_bound)
    cells, methods, matrix = [], Counter(), tables.char_matrix
    for charge in charges:
        series, sizes = table.series(charge), slices.sizes(charge, weight_bound)
        delta = sum(x * charge[a] * charge[b] for a, row in enumerate(matrix)
                    for b, x in enumerate(row)) // 2 - slices.lowest(charge)
        lowers = [0] * delta + sizes
        for weight in range(slices.lowest(charge), weight_bound + 1):
            n_monos, coeff = sizes[weight], series.coeff(weight)
            target = n_monos - coeff if coeff == lowers[weight] else -1
            n_rows, rank, method = _oracle_rank(
                slices, charge, weight, target) if n_monos else (0, 0, None)
            methods[method] += 1
            if n_monos or coeff:
                cells.append(OracleCell(charge, weight, n_monos, n_rows, rank,
                                        n_monos - rank, coeff))
    empty = comb(charge_total + orbits.d, orbits.d) * (weight_bound + 1) - len(cells)
    return OracleReport(
        charge_total, weight_bound, tuple(cells), empty,
        methods["leads"] + methods["mod p"], methods["exact"], methods["leads"],
    )


def new_relations_membership(
    orbits: OrbitData, tables: PairingTables, i: int, j: int, s: int, t: int
) -> bool:
    """Whether x_i(-a_i - s/l_i) * x_j(-a_j - t/l_i) lies in the relation ideal.

    The two variables have weights start_i + s * s_i and start_j + t * s_i.
    The allowed range is s, t >= 0 with s + t <= l_i * (zero-mode pairing
    of i with j) - 1; outside it PreconditionViolated is raised.  When t * s_i
    is not a multiple of s_j, the second mode is not admissible for orbit j,
    the monomial vanishes by convention and membership holds trivially.
    Otherwise the monomial is a member iff appending it to the rows of the
    ideal's bidegree slice leaves their rank over the cyclotomic field
    unchanged.
    """
    # lengths[i] times the zero-mode pairing of i with j: the number of
    # (rotation, power) relation labels of the pair.
    bound = sum(tables.rotated[i][j])
    if s < 0 or t < 0 or s + t > bound - 1:
        raise PreconditionViolated(
            f"(s, t) = ({s}, {t}) outside the range s, t >= 0, s + t <= {bound - 1}")
    return _membership(_Slices(orbits, tables), i, j, s, t)


def _membership(slices: _Slices, i: int, j: int, s: int, t: int) -> bool:
    # (s, t) in the allowed range: new_relations_membership checks it, and
    # the sweep walks only that range.
    (start_i, s_i), (start_j, s_j) = slices.start_step[i], slices.start_step[j]
    if t * s_i % s_j:
        return True
    w1, w2 = start_i + s * s_i, start_j + t * s_i
    target = TwistedVariable(i, w1), TwistedVariable(j, w2)
    charge = tuple((a == i) + (a == j) for a in range(slices.orbits.d))
    # The target call first: it builds the rows once and memoizes the rank
    # without the target, which the second call reads.
    with_target = slices.rank(charge, w1 + w2, slices.key(target))[1]
    return with_target == slices.rank(charge, w1 + w2)[1]


class MembershipCell(NamedTuple):
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
        return {"pair": [self.i, self.j], "s": self.s, "t": self.t,
                "member": self.member, "trivial": self.trivial}


def new_relations_sweep(
    orbits: OrbitData, tables: PairingTables
) -> tuple[MembershipCell, ...]:
    """Membership over the full allowed (s, t) range of every orbit pair;
    BudgetExceeded before any work past MAX_MEMBERSHIPS instances."""
    # Only pairs with a nonzero pairing sum c have instances: c (c + 1) / 2.
    pairs = [(i, j, c) for i, row in enumerate(tables.rotated)
             for j, c in enumerate(map(sum, row)) if c]
    instances = sum(c * (c + 1) // 2 for *_, c in pairs)
    if instances > MAX_MEMBERSHIPS:
        raise BudgetExceeded(f"the membership sweep has {instances} instances, "
                             f"over the budget of {MAX_MEMBERSHIPS}")
    slices = _Slices(orbits, tables)
    cells = []
    for i, j, bound in pairs:
        s_i, s_j = slices.start_step[i][1], slices.start_step[j][1]
        for s in range(bound):
            for t in range(bound - s):
                member = _membership(slices, i, j, s, t)
                cells.append(MembershipCell(i, j, s, t, member, t * s_i % s_j != 0))
    return tuple(cells)


def membership_matrix(
    orbits: OrbitData, tables: PairingTables, i: int, j: int
) -> ExactMatrix:
    """The square coefficient matrix underlying the membership argument.

    Rows are labeled by (rotation r, power m), columns by the offset p;
    the entry is the coefficient of orbit i's variable of weight
    start_i + p * s_i (mode -a_i - p/l_i) in relation (r, m): the root
    eta^(-r * weight) times binomial(a_i + p/l_i - gram_ii/2, m - 1).
    Square of size l_i * (zero-mode pairing), and always invertible.
    """
    start_i, s_i = _var_start_step(orbits, tables, i)
    size = sum(tables.rotated[i][j])
    weights = [start_i + p * s_i for p in range(size)]
    rows = [tuple(_relation_coeff(orbits, tables, i, r, m, w) for w in weights)
            for r in range(orbits.lengths[i])
            for m in range(1, tables.rotated[i][j][r] + 1)]
    return ExactMatrix(get_field(orbits.k), tuple(rows), size)


def membership_matrix_decomposition(
    orbits: OrbitData, tables: PairingTables, i: int, j: int
) -> tuple[tuple[CyclotomicScalar, ...], ExactMatrix]:
    """Per-row scalars and the Pascal-block form of the membership matrix.

    Row (r, m) of membership_matrix equals scalar[row] times the same row
    of a stacked root-of-unity Pascal matrix with root order l_i, block
    sizes given by the rotated pairings, z = a_i - gram_ii/2 and w = 1/l_i.
    """
    field = get_field(orbits.k)
    start_i, s_i = _var_start_step(orbits, tables, i)
    spec = membership_pascal_spec(orbits, tables, i, j)
    # The root at weight start_i + p * s_i is eta^(-r * start_i) times the
    # p-th power of zeta^r, zeta = eta^(-s_i) a primitive l_i-th root.
    scalars = []
    for r in range(orbits.lengths[i]):
        scalars.extend([field.eta_to(-r * start_i)] * tables.rotated[i][j][r])
    pascal_form = stacked_with_root(
        field, field.eta_to(-s_i), spec.block_sizes, spec.z, spec.w
    )
    return tuple(scalars), pascal_form


def membership_pascal_spec(
    orbits: OrbitData, tables: PairingTables, i: int, j: int
) -> PascalSpec:
    """Block spec whose stacked matrix certifies the membership argument."""
    a_i = Fraction(tables.char_matrix[i][i], 2 * orbits.k)
    gram_ii = Fraction(tables.rotated[i][i][0], 2)
    return PascalSpec(
        conductor=orbits.lengths[i],
        block_sizes=tables.rotated[i][j],
        z=a_i - gram_ii,
        w=Fraction(1, orbits.lengths[i]),
    )
