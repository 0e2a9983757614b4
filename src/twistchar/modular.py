"""Ranks and determinants proved by arithmetic modulo a prime.

The rank r of a matrix mod p is a lower bound on its rank over Q, since a
minor that is nonzero mod p is nonzero over Q.  It is the rank when r is
the smaller dimension, or when the ncols - r kernel vectors of the reduced
echelon form mod p, lifted to Q by rational reconstruction (Wang, Guy and
Davenport 1982), satisfy M * v = 0 exactly.  Each such vector is 1 on its
own free column and 0 on the other free columns, so they are independent.
Otherwise there is no answer, and the caller eliminates exactly.

For a root order k, ``root_prime(k)`` gives the first prime p = 1 (mod k)
above 2^61 with an element omega of exact order k, so that eta -> omega
maps Z[eta] (and every fraction whose denominator p does not divide) to
F_p as a ring homomorphism.  A determinant nonzero mod p is then nonzero
over Q(eta), and two determinants that differ mod p differ over Q(eta);
agreement mod p proves nothing.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

PRIME = (1 << 61) - 1
# Numerators and denominators up to this bound are recovered from a residue.
_LIFT_BOUND = math.isqrt(PRIME // 2)


def proved_rank(rows: list[dict[int, Fraction]], ncols: int) -> int | None:
    """The rank over Q of the sparse rows {col: value}, or None.

    None when a denominator vanishes mod PRIME, when a kernel entry cannot
    be lifted, or when a lifted kernel vector fails the exact check.
    """
    residues: dict[Fraction, int] = {}
    reduced = []
    for row in rows:
        out = {}
        for col, c in row.items():
            residue = residues.get(c)
            if residue is None:
                den = c.denominator % PRIME
                if not den:
                    return None
                residue = residues[c] = c.numerator * pow(den, -1, PRIME) % PRIME
            if residue:
                out[col] = residue
        reduced.append(out)
    full = min(len(rows), ncols)
    pivots = _echelon(reduced, full)
    if len(pivots) == full:
        return full
    _reduce(pivots)
    # The rows by columns, each row scaled to integers by its denominators.
    columns: list[list[tuple[int, int]]] = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        den = math.lcm(*(c.denominator for c in row.values()))
        for col, c in row.items():
            columns[col].append((i, c.numerator * (den // c.denominator)))
    for free in range(ncols):
        if free in pivots:
            continue
        vector = {free: Fraction(1)}
        for col, pivot in pivots.items():
            if free in pivot:
                lifted = _lift(-pivot[free] % PRIME)
                if lifted is None:
                    return None
                vector[col] = lifted
        den = math.lcm(*(c.denominator for c in vector.values()))
        product = [0] * len(rows)
        for col, c in vector.items():
            scaled = c.numerator * (den // c.denominator)
            for i, a in columns[col]:
                product[i] += a * scaled
        if any(product):
            return None
    return len(pivots)


def _echelon(rows: list[dict[int, int]], limit: int) -> dict[int, dict[int, int]]:
    # Echelon form mod PRIME of sparse rows {col: residue}, which are
    # consumed: pivot column -> row, scaled to 1 there and zero left of it.
    # Shortest rows first keeps fill-in low (about 5x fewer updates on the
    # oracle's matrices); stops early once `limit` pivots are found.
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, PRIME)
                pivots[col] = {c: v * inv % PRIME for c, v in row.items()}
                break
            _subtract(row, row[col], pivot)
        if len(pivots) == limit:
            break
    return pivots


def _reduce(pivots: dict[int, dict[int, int]]) -> None:
    # Reduced echelon form, in place: every pivot column is cleared from
    # the other pivot rows, working from the rightmost pivot leftwards.
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for other in [c for c in row if c != col and c in pivots]:
            _subtract(row, row[other], pivots[other])


def _subtract(row: dict[int, int], factor: int, pivot: dict[int, int]) -> None:
    # row -= factor * pivot mod PRIME, in place, dropping entries that vanish.
    for c, v in pivot.items():
        x = (row.get(c, 0) - factor * v) % PRIME
        if x:
            row[c] = x
        else:
            del row[c]


def _lift(residue: int) -> Fraction | None:
    # The fraction n/m with |n|, m <= _LIFT_BOUND and n = m * residue mod
    # PRIME, read off the extended Euclidean remainder sequence, or None
    # when the sequence yields no denominator that small.
    r0, r1 = PRIME, residue
    t0, t1 = 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _LIFT_BOUND:
        return None
    return Fraction(r1, t1)


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d % 2:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def root_prime(k: int) -> tuple[int, int]:
    """(p, omega): the first prime p = 1 (mod k) above 2^61, and
    omega = g^((p-1)/k) for the least g >= 2 that gives exact order k."""
    p = (1 << 61) + 1 + (-(1 << 61)) % k
    while not is_prime(p):
        p += k
    factors = [q for q in range(2, k + 1) if k % q == 0 and is_prime(q)]
    g = 2
    while True:
        omega = pow(g, (p - 1) // k, p)
        if all(pow(omega, k // q, p) != 1 for q in factors):
            return p, omega
        g += 1


def residue(x: Fraction, p: int) -> int | None:
    """x mod p, or None when p divides the denominator of x."""
    den = x.denominator % p
    return x.numerator * pow(den, -1, p) % p if den else None


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant mod p of a square matrix of residues; rows are consumed."""
    n = len(rows)
    det = 1
    for c in range(n):
        pivot = next((r for r in range(c, n) if rows[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        top = rows[c]
        det = det * top[c] % p
        inv = pow(top[c], -1, p)
        for row in rows[c + 1:]:
            factor = row[c] * inv % p
            if factor:
                for j in range(c + 1, n):
                    row[j] = (row[j] - factor * top[j]) % p
    return det
