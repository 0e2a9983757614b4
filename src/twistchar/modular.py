"""Ranks and determinants proved by arithmetic modulo a prime.

For a root order k, ``root_prime(k)`` gives the first prime p = 1 (mod k)
above 2^61 with an element omega of exact order k, so that eta -> omega
maps Z[eta] (and every fraction whose denominator p does not divide) to
F_p as a ring homomorphism.  A minor nonzero mod p is then nonzero over
Q(eta): the rank mod p of a matrix is a lower bound on its rank over
Q(eta), and a determinant nonzero mod p is nonzero.  Two determinants that
differ mod p differ over Q(eta); agreement mod p proves nothing.  The
oracle takes its upper bounds on quotient dimensions from ``rank_mod``, the
Pascal sweep its invertibility proofs from ``det_mod``.
"""

from functools import lru_cache
from typing import Sequence


def rank_mod(rows: list[dict[int, int]], p: int, limit: int) -> int:
    """The rank mod p of the sparse rows {col: residue}, counted up to limit;
    the rows are consumed."""
    # Echelon form: pivot column -> row, scaled to 1 there and zero left of
    # it.  Shortest rows first keeps fill-in low (about 5x fewer updates on
    # the oracle's matrices); elimination stops once `limit` pivots are found.
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        if len(pivots) >= limit:
            break
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                break
            # row -= row[col] * pivot mod p, dropping entries that vanish.
            factor = row[col]
            for c, v in pivot.items():
                x = (row.get(c, 0) - factor * v) % p
                if x:
                    row[c] = x
                else:
                    del row[c]
    return len(pivots)


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


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, increasing, by trial division."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] * (n > 1)


@lru_cache(maxsize=None)
def root_prime(k: int) -> tuple[int, int]:
    """(p, omega): the first prime p = 1 (mod k) above 2^61, and
    omega = g^((p-1)/k) for the least g >= 2 that gives exact order k."""
    p = (1 << 61) + 1 + (-(1 << 61)) % k
    while not is_prime(p):
        p += k
    factors = prime_factors(k)
    g = 2
    while True:
        omega = pow(g, (p - 1) // k, p)
        if all(pow(omega, k // q, p) != 1 for q in factors):
            return p, omega
        g += 1


def image(nums: Sequence[int], den: int, p: int, omega: int) -> int | None:
    """The image mod p of sum_e nums[e] * eta^e / den under eta -> omega, or
    None when p divides den; a rational a/b is ((a,), b)."""
    if not den % p:
        return None
    acc = 0
    for a in reversed(nums):  # Horner's rule
        acc = (acc * omega + a) % p
    return acc * pow(den, -1, p) % p


def det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant mod p of a square matrix of residues; rows are consumed."""
    # Division-free: row -> t * row - f * top scales det by the pivot t.
    n = len(rows)
    det = scale = 1
    for c in range(n):
        for pivot in range(c, n):
            if rows[pivot][c]:
                break
        else:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        top, t = rows[c], rows[c][c]
        det = det * t % p
        for row in rows[c + 1:]:
            f = row[c]
            if f:
                scale = scale * t % p
                for j in range(c + 1, n):
                    row[j] = (t * row[j] - f * top[j]) % p
    return det * pow(scale, -1, p) % p
