"""The principal subspace of the twisted module: a lower bound on dim Q.

Lemma: a linear map Phi on span B(m, w) that kills I(m, w) gives
dim Q(m, w) >= rank Phi(B(m, w)).  Phi is the functional model of the
twisted vertex operators on the vacuum (Lepowsky, PNAS 1985; Bakalov-Kac,
"Twisted modules over lattice vertex algebras", 2004).  With n = k / 2,
y_a = x_a^(1/n) and h = n / l_i, let P_ij(y1, y2) = prod_{r < l_i}
(y1^h - zeta^(-r) y2^h)^rotated[i][j][r], zeta = eta^(k / l_i), and
E = exp(sum_a sum_s a_o(a)(s) (n / s) y_a^s), s over the positive multiples
of n / l_o(a), the a_i(s) free symbols.  Phi(monomial) is the coefficient
of prod_a y_a^((w_a - start_o(a)) / 2) in
F = prod_{a<b} P_o(a)o(b)(y_a, y_b) E, the variables in sorted order, so
o(a) <= o(b): F's factor in y1 of orbit i and y2 of orbit j is F_ij =
P_ij(y1, y2) for i <= j, P_ji(y2, y1) for i > j (``ordered_factor``).

P_ii is symmetric: swapping y1 and y2 turns the factor of r into
-zeta^(-r) times the factor of l - r (l = l_i), of the same power
rotated[i][i][r] = rotated[i][i][l - r] (``analyze``), and these scalars
multiply to 1: r and l - r != r give zeta^(-l) = 1 to one power, r = 0
gives -1 to an even diagonal entry, r = l / 2 gives -zeta^(-l/2) = 1.  So F
is symmetric in each orbit's variables.  Exponents stay on their lattices:
sigma^(l_j) fixes rep_j, so rotated[i][j][r] = (sigma^r rep_i, rep_j) has
period g = gcd(l_i, l_j), and the factors of r, r + g, ... multiply to
y1^(n/g) - zeta^(-r l_i / g) y2^(n/g) (zeta^(-g) has order l_i / g), n / g
a multiple of both orbits' steps n / l_i and n / l_j.

Certificate (b): each relation generator g of the pair (i, j), read as
lambda_g(f) = sum over its terms c x_i(w1) x_j(w2) of c [y1^e1 y2^e2] f,
e = (w - start) / 2, vanishes on F_ij y1^a y2^b for all a, b >= 0, on
F_ii (y1^a y2^b + y1^b y2^a) when i = j.  Fixing a cofactor's exponents in
F leaves F_ij(y_u, y_v) S(y_u, y_v) in g's two variables, S symmetric when
i = j, so Phi(cof * g) = lambda_g(F_ij S) = 0 monomial by monomial of S, and
Phi(I) = 0 at every charge at once.

rank Phi(B(m, w)) is the character coefficient: the [a^mu] E are products
of each orbit's power sums in steps of h, which span the polynomials
symmetric in each orbit's y^h, of dimension the number of partition tuples
[q^t] prod_i 1 / (q^s_i; q^s_i)_(m_i).  Multiplying by the nonzero prod P
is injective and keeps every exponent on its orbit's lattice, so the
coefficients at B's exponents determine the product.  As
2 deg P_ij = 2h sum_r rotated[i][j][r] = A_ij, the shift is m^T A m / 2.
"""

from typing import Sequence

from .cyclotomic import CyclotomicScalar, get_field
from .lattice import OrbitData, PairingTables
from .modular import image

# {(e1, e2): coefficient of y1^e1 y2^e2}, zero coefficients dropped.
Factor = dict[tuple[int, int], CyclotomicScalar]


def pair_factor(orbits: OrbitData, tables: PairingTables, i: int, j: int) -> Factor:
    """P_ij(y1, y2), homogeneous in y1^h and y2^h with h = n / l_i."""
    field, l_i = get_field(orbits.k), orbits.lengths[i]
    h, zero = orbits.k // (2 * l_i), field.zero()
    coeffs = [field.one()]  # coeffs[t]: the coefficient of y1^((N-t)h) y2^(th)
    for r, power in enumerate(tables.rotated[i][j]):
        root = field.eta_to(-r * (orbits.k // l_i))
        for _ in range(power):
            coeffs = [a - root * b for a, b in zip(coeffs + [zero], [zero] + coeffs)]
    top = len(coeffs) - 1
    return {((top - t) * h, t * h): c for t, c in enumerate(coeffs) if c}


def ordered_factor(orbits: OrbitData, tables: PairingTables, i: int, j: int) -> Factor:
    """F_ij: P_ij for i <= j, P_ji with its two exponents swapped for i > j."""
    factor = pair_factor(orbits, tables, min(i, j), max(i, j))
    return factor if i <= j else {(e2, e1): c for (e1, e2), c in factor.items()}


def vanishes(gen, factor: Factor, starts: Sequence[int], symmetric: bool) -> bool:
    """Certificate (b) for one ``quotient.RelationGenerator``."""
    i, j = gen.orbit_pair
    # acc[a] = lambda_g(F_ij y1^a y2^b), b = free - a, at every a where some
    # term meets F_ij's support; every other a gives 0.
    acc: dict[int, CyclotomicScalar] = {}
    for c, mono in gen.terms:
        v1, v2 = mono if mono[0].orbit == i else mono[::-1]
        e1, e2 = (v1.weight - starts[i]) // 2, (v2.weight - starts[j]) // 2
        free = e1 + e2 - sum(next(iter(factor)))
        for (x1, x2), coeff in factor.items():
            if x1 <= e1 and x2 <= e2:
                a = e1 - x1
                acc[a] = acc[a] + c * coeff if a in acc else c * coeff
    if symmetric:
        acc = {a: v + acc[free - a] if free - a in acc else v for a, v in acc.items()}
    return not any(acc.values())


def family_mod_p(gens, factor: Factor, starts: Sequence[int], p: int, omega: int):
    """The generators' terms as (residue, monomial) mod p, eta -> omega, zero
    residues dropped, when certificate (b) holds for each; None when it
    fails or p divides a denominator."""
    out = [[(image(c.nums, c.den, p, omega), m) for c, m in g.terms] for g in gens]
    if any(r is None for terms in out for r, _ in terms) or not all(
        vanishes(g, factor, starts, g.orbit_pair[0] == g.orbit_pair[1]) for g in gens
    ):
        return None
    return [[(r, m) for r, m in terms if r] for terms in out]
