"""Stacked root-of-unity Pascal blocks, with replayed row-reduction proofs.

A block spec fixes a root order k, block heights N_0..N_{k-1} summing to N,
and rationals z and w (w nonzero).  Block r has entries
eta^(p*r) * binomial(z + p*w, i) for row i < N_r and column p < N; the
stacked N x N matrix is invertible for every such choice: with x_r = eta^r,
its determinant is the confluent Vandermonde closed form (Krattenthaler,
"Advanced determinant calculus", 1999)
prod_r (w*x_r)^C(N_r, 2) * prod_{r<s} (x_s - x_r)^(N_r*N_s).  This module
proves det != 0 modulo a prime (``modular``), or exactly over the
cyclotomic field where the residue is 0 or undefined; a residue that
differs from the closed form's proves the determinant wrong.  It also
replays, entry by entry, the two row-reduction arguments behind it.  A
failed identity raises PascalIdentityError naming the first bad entry;
nothing is ever patched to force agreement.
"""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple, Sequence

from .cyclotomic import (
    CyclotomicField,
    CyclotomicScalar,
    Entry,
    ExactMatrix,
    Rational,
    _coerce_entry,
    get_field,
    rational_binomial,
)
from .modular import det_mod, image, root_prime
from .qseries import BudgetExceeded


class PascalIdentityError(AssertionError):
    """A replayed matrix identity failed; reports the first differing entry."""

    def __init__(
        self,
        identity: str,
        row: int,
        col: int,
        got: CyclotomicScalar,
        expected: CyclotomicScalar,
    ) -> None:
        self.identity = identity
        self.row = row
        self.col = col
        self.got = got
        self.expected = expected
        super().__init__(
            f"identity {identity!r} fails at entry ({row}, {col}): "
            f"got {got}, expected {expected}"
        )


class _Spec(NamedTuple):
    conductor: int
    block_sizes: tuple[int, ...]
    z: Fraction
    w: Fraction


class PascalSpec(_Spec):
    """Parameters of a stacked root-of-unity Pascal matrix."""

    __slots__ = ()
    # ``_replace`` builds through ``_make``, so it validates too.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, conductor, block_sizes, z: Rational, w: Rational) -> "PascalSpec":
        # Fraction(x) copies even a Fraction, a cost the sweep would pay per spec.
        z = z if isinstance(z, Fraction) else Fraction(z)
        w = w if isinstance(w, Fraction) else Fraction(w)
        self = super().__new__(cls, conductor, block_sizes, z, w)
        if self.conductor < 1:
            raise ValueError(f"conductor must be >= 1, got {self.conductor}")
        if len(self.block_sizes) != self.conductor:
            raise ValueError(
                f"{len(self.block_sizes)} block sizes for conductor {self.conductor}"
            )
        if any(n < 0 for n in self.block_sizes):
            raise ValueError(f"negative block size in {self.block_sizes}")
        if sum(self.block_sizes) < 1:
            raise ValueError("block sizes must sum to at least 1")
        if self.w == 0:
            raise ValueError("w must be nonzero")
        return self


def _common_field(*values: Entry) -> CyclotomicField:
    for v in values:
        if isinstance(v, CyclotomicScalar):
            return v.field
    return get_field(1)


def _powers(x: CyclotomicScalar, count: int) -> list[CyclotomicScalar]:
    out = [x.field.one()]
    for _ in range(count - 1):
        out.append(out[-1] * x)
    return out


def a_matrix(
    field: CyclotomicField, x: Entry, z: Rational, w: Rational, p: int, q: int
) -> ExactMatrix:
    """p x q matrix with entries x^j * binomial(z + j*w, i)."""
    xs = _powers(_coerce_entry(field, x), q)
    rows = tuple(
        tuple(xs[j] * rational_binomial(z + j * w, i) for j in range(q))
        for i in range(p)
    )
    return ExactMatrix(field, rows, q)


def _z_matrix(field: CyclotomicField, z: Rational, p: int) -> ExactMatrix:
    rows = [[rational_binomial(z, i - j) if i >= j else 0 for j in range(p)]
            for i in range(p)]
    return ExactMatrix.from_rows(field, rows)


def _m_stage_matrix(
    field: CyclotomicField, w: Rational, n: int, p: int, q: int
) -> ExactMatrix:
    # Stage-n target of the row reduction: Pascal rows through n, then rows
    # binomial(j-1, n) * binomial(j*w, i-n); the j = 0 column of the lower
    # rows uses binomial(-1, n) = (-1)^n.
    rows = [[rational_binomial(j, i) for j in range(q)] if i <= n else
            [rational_binomial(j - 1, n) * rational_binomial(j * w, i - n)
             for j in range(q)] for i in range(p)]
    return ExactMatrix.from_rows(field, rows)


def _diagonal(
    field: CyclotomicField, entries: Sequence[CyclotomicScalar]
) -> ExactMatrix:
    zero, n = field.zero(), len(entries)
    return ExactMatrix(field, tuple(
        tuple(e if i == j else zero for j in range(n)) for i, e in enumerate(entries)
    ), n)


def _q_stage_matrix(field: CyclotomicField, w: Rational, n: int, p: int) -> ExactMatrix:
    # Identity of size n+1, then a lower-bidiagonal tail: row i has
    # (i-1-n-(n+1)w)/((n+1)w) below the diagonal and (i-n)/((n+1)w) on it.
    denom = (n + 1) * Fraction(w)
    rows = []
    for i in range(p):
        row = [Fraction(0)] * p
        if i <= n:
            row[i] = Fraction(1)
        else:
            row[i] = Fraction(i - n) / denom
            if i - 1 > n:
                row[i - 1] = (i - 1 - n - denom) / denom
        rows.append(row)
    return ExactMatrix.from_rows(field, rows)


def _assert_equal(identity: str, got: ExactMatrix, expected: ExactMatrix) -> None:
    # Each caller builds both sides from one (p, q) or (n, s, t): shapes agree.
    if (diff := got.first_difference(expected)) is not None:
        raise PascalIdentityError(identity, *diff)


def _reduction_stages(
    field: CyclotomicField, w: Rational, m: ExactMatrix, p: int
) -> list[ExactMatrix]:
    """[m, Q(0) m, Q(1) Q(0) m, ...]: the p-row m after each reduction stage,
    no product of the Q(n) formed.  From M = a_matrix(field, 1, 0, w, p, q),
    stage n is _m_stage_matrix(field, w, n, p, q), and the last is Pascal.

    No determinant is taken: each Q(n) is lower bidiagonal with diagonal
    entries 1 or (i - n)/((n + 1) w), i > n, nonzero because every caller
    validates w != 0; so each Q(n) is invertible."""
    stages = [m]
    for n in range(p - 1):
        stages.append(_q_stage_matrix(field, w, n, p) * stages[-1])
    return stages


def stacked_with_root(
    field: CyclotomicField,
    root: CyclotomicScalar,
    block_sizes: Sequence[int],
    z: Rational,
    w: Rational,
) -> ExactMatrix:
    """Stack blocks built from successive powers of ``root``.

    Block r has entries root^(p*r) * binomial(z + p*w, i).
    """
    n = sum(block_sizes)
    rows = tuple(
        row
        for r, height in enumerate(block_sizes)
        for row in a_matrix(field, root ** r, z, w, height, n).rows
    )
    return ExactMatrix(field, rows, n)


def build_stacked(spec: PascalSpec) -> ExactMatrix:
    field = get_field(spec.conductor)
    return stacked_with_root(
        field, field.root_of_unity(spec.conductor), spec.block_sizes, spec.z, spec.w
    )


class InvertibilityResult(NamedTuple):
    invertible: bool
    # False: det_p differs from the closed form mod p, which proves the
    # determinant is not the closed form.  True: they agree mod p, which
    # proves nothing more.  None: nothing was compared.
    closed_form: bool | None
    method: str  # what proved `invertible`: "mod-p" or "exact"


# maxsize=1 here and below: the sweep asks for each key ``samples`` times in a row.
@lru_cache(maxsize=1)
def _root_powers(p: int, omega: int, k: int, n: int) -> tuple[tuple[int, ...], ...]:
    # Row r < k holds omega^(r*c) mod p for the columns c < n.
    return tuple(tuple(pow(omega, r * c, p) for c in range(n)) for r in range(k))


def _stacked_mod(
    sizes: tuple[int, ...], z: int, w: int, p: int, omega: int
) -> list[list[int]]:
    # The stacked matrix mod p with eta -> omega: block r, row i, column c
    # holds omega^(c*r) * binomial(z + c*w, i), i! a unit since i < N < p.
    n = sum(sizes)
    binoms = [[1] * n]
    for i in range(1, max(sizes)):
        inv = pow(i, -1, p)
        binoms.append(
            [b * (z + c * w - i + 1) * inv % p for c, b in enumerate(binoms[-1])]
        )
    rows = []
    for xs, height in zip(_root_powers(p, omega, len(sizes), n), sizes):
        rows += ([a * b % p for a, b in zip(xs, binoms[i])] for i in range(height))
    return rows


@lru_cache(maxsize=1)
def _root_factor(k: int, sizes: tuple[int, ...]) -> int:
    # The closed form's part free of z and w, mod p, with x_r = omega^r:
    # prod_r x_r^C(N_r, 2) * prod_{r<s} (x_s - x_r)^(N_r*N_s).  A factor of
    # an empty block is a 0-th power, 1, so only nonempty blocks are visited.
    p, omega = root_prime(k)
    blocks = [(pow(omega, r, p), n) for r, n in enumerate(sizes) if n]
    out = 1
    for b, (x_r, n_r) in enumerate(blocks):
        out = out * pow(x_r, n_r * (n_r - 1) // 2, p) % p
        for x_s, n_s in blocks[b + 1:]:
            out = out * pow(x_s - x_r, n_r * n_s, p) % p
    return out


def verify_invertible(spec: PascalSpec) -> InvertibilityResult:
    """Invertibility of the stacked matrix, proved mod p or exactly.

    The matrix is built modulo the prime p of ``root_prime(k)``, and
    det_p != 0 proves det != 0.  det_p is compared with the closed form mod
    p.  When p divides the denominator of z or w, or det_p = 0, the exact
    determinant over Q(eta) decides invertibility.
    """
    k, sizes = spec.conductor, spec.block_sizes
    p, omega = root_prime(k)
    z, w = (image((x.numerator,), x.denominator, p, omega) for x in (spec.z, spec.w))
    if z is None or w is None:
        return InvertibilityResult(bool(build_stacked(spec).det()), None, "exact")
    det = det_mod(_stacked_mod(sizes, z, w, p, omega), p)
    w_power = sum(n * (n - 1) // 2 for n in sizes)
    agrees = det == _root_factor(k, sizes) * pow(w, w_power, p) % p
    invertible = bool(det) or bool(build_stacked(spec).det())
    return InvertibilityResult(invertible, agrees, "mod-p" if det else "exact")


class FactorizationReport(NamedTuple):
    """Successful replay of the triangular factorization argument."""

    p: int
    q: int
    x: str
    z: Fraction
    w: Fraction
    stages: int


def factorization_check(
    x: Entry, z: Rational, w: Rational, p: int, q: int
) -> FactorizationReport:
    """Replay the factorization A = Z*M*H and the reduction of M to Pascal.

    Checks, entry by entry: the product decomposition of the p x q matrix
    x^j * binomial(z + j*w, i) into a lower-triangular Toeplitz factor, the
    binomial-grid factor M, and the diagonal of powers; each intermediate
    row-reduction stage; and the final reduced Pascal form.  Raises
    PascalIdentityError on the first failure.  Each stage matrix Q(n) is
    invertible (``_reduction_stages``), so no determinant is taken.
    """
    if p < 1 or q < 1:
        raise ValueError(f"need p >= 1 and q >= 1, got p={p}, q={q}")
    if Fraction(w) == 0:
        raise ValueError("w must be nonzero")
    field = _common_field(x)
    xc = _coerce_entry(field, x)
    if not xc:
        raise ValueError("x must be nonzero")
    a = a_matrix(field, xc, z, w, p, q)
    zm = _z_matrix(field, z, p)
    m = a_matrix(field, 1, 0, w, p, q)
    h = _diagonal(field, _powers(xc, q))
    _assert_equal("product decomposition (A = Z*M*H)", zm * m * h, a)
    stages = _reduction_stages(field, w, m, p)
    for n in range(1, p):
        _assert_equal(f"stage {n} row reduction (P({n})*M)",
                      stages[n], _m_stage_matrix(field, w, n, p, q))
    return FactorizationReport(
        p=p, q=q, x=str(xc), z=Fraction(z), w=Fraction(w), stages=max(p - 2, 0)
    )


class TwoBlocksReport(NamedTuple):
    """Successful replay of the two-stack row-equivalence argument."""

    n: int
    s: int
    t: int
    x: str
    y: str


def _eliminator(
    field: CyclotomicField, x: CyclotomicScalar, y: CyclotomicScalar, s: int, t: int
) -> ExactMatrix:
    # Q' = [[I, 0], [Q, I]], where Q[i][j] = -(y/x)^i * binomial(j, i) *
    # ((y - x)/x)^(j - i) for j >= i eliminates the upper block from the lower.
    x_inv, zero = x.inverse(), field.zero()
    ratio, shift = y * x_inv, (y - x) * x_inv
    ident = ExactMatrix.identity(field, s + t).rows
    return ExactMatrix(field, ident[:s] + tuple(
        tuple(-(ratio ** i) * rational_binomial(j, i) * shift ** (j - i) if j >= i
              else zero for j in range(s)) + ident[s + i][s:]
        for i in range(t)
    ), s + t)


def two_blocks_check(
    x: Entry, y: Entry, n: int, s: int, t: int
) -> TwoBlocksReport:
    """Replay the row equivalence of two stacked power-Pascal blocks.

    B stacks the s-row block at x over the t-row block at y; B' replaces
    the lower block by the (y - x) block A' compressed through the shifted
    upper-triangular C.  Each identity of the argument is checked entrywise,
    once: Q'B = [upper; W C], W = V A (A the (y - x) block at z = s),
    Z(s) Z(-s) = I and U A = A', U = Q(t - 2) ... Q(0) Z(-s) at w = 1
    applied one factor at a time.  Requires x != y, both nonzero,
    s >= t >= 0, s + t <= n.

    They imply the rest: (U')^-1 (V')^-1 Q' B = blockdiag(I, U V^-1) Q' B =
    [upper; U V^-1 W C] = [upper; A' C] = B', and T = blockdiag(I, U V^-1) Q'
    is invertible by construction (Q' unit lower triangular; V diagonal with
    entries y^i (y - x)^(s - i) != 0; each Q(n) invertible and Z(-s) unit
    lower triangular), so B' = T B has the row space of B.  With t = 0 both
    stacks are the upper block, and nothing is replayed.
    """
    field = _common_field(x, y)
    xc, yc = _coerce_entry(field, x), _coerce_entry(field, y)
    if not xc or not yc:
        raise ValueError("x and y must be nonzero")
    if xc == yc:
        raise ValueError("x and y must differ")
    if not (s >= t >= 0 and s + t <= n and n >= 1):
        raise ValueError(
            f"need s >= t >= 0 and s + t <= n with n >= 1, got n={n}, s={s}, t={t}"
        )
    report = TwoBlocksReport(n=n, s=s, t=t, x=str(xc), y=str(yc))
    if t == 0:
        return report
    d = yc - xc

    upper = a_matrix(field, xc, 0, 1, s, n)
    b = upper.stack(a_matrix(field, yc, 0, 1, t, n))
    # C = [0 | C'] with C'[i][j] = binomial(s+j, s+i) * x^(j-i) above the diagonal.
    zero = field.zero()
    xs = _powers(xc, n - s)
    c = ExactMatrix.from_rows(field, [
        [zero] * s + [
            xs[j - i] * rational_binomial(s + j, s + i) if j >= i else zero
            for j in range(n - s)
        ]
        for i in range(n - s)
    ])

    w_direct = ExactMatrix.from_rows(field, [
        [rational_binomial(s + j, i) * yc ** i * d ** (s + j - i) for j in range(n - s)]
        for i in range(t)
    ])
    _assert_equal(
        "eliminated lower block (Q'B = [A'; W*C])",
        _eliminator(field, xc, yc, s, t) * b,
        upper.stack(w_direct * c),
    )

    inner = a_matrix(field, d, s, 1, t, n - s)
    v = _diagonal(field, [(yc ** i) * (d ** (s - i)) for i in range(t)])
    _assert_equal("diagonal extraction (W = V*A)", v * inner, w_direct)

    # Z(s)^-1 = Z(-s) by Vandermonde's identity; replayed, not assumed.
    z_inv = _z_matrix(field, -s, t)
    _assert_equal(
        "Toeplitz inverse (Z(s)*Z(-s) = I)",
        _z_matrix(field, s, t) * z_inv,
        ExactMatrix.identity(field, t),
    )
    _assert_equal(
        "inner block reduction (U*A = A')",
        _reduction_stages(field, 1, z_inv * inner, t)[-1],
        a_matrix(field, d, 0, 1, t, n - s),
    )
    return report


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All ordered tuples of ``parts`` non-negative integers summing to total,
    in lexicographic order: stars and bars, the parts - 1 bars at increasing
    positions among total + parts - 1 slots."""
    slots = total + parts - 1
    return [tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
            for bars in combinations(range(slots), parts - 1)]


def random_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    """Seeded random rational with numerator in [-9, 9], denominator in [1, 9]."""
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value or not nonzero:
            return value


class SweepFailure(NamedTuple):
    kind: str
    params: str
    message: str


class PascalSweepReport(NamedTuple):
    max_k: int
    max_n: int
    samples: int
    proof_samples: int
    seed: int
    specs_checked: int
    factorizations_checked: int
    two_blocks_checked: int
    failures: tuple[SweepFailure, ...]
    # Specs whose invertibility was proved mod p and by exact elimination;
    # not part of the JSON report.
    proved_mod_p: int
    proved_exact: int

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # The fields in their order, less the proof methods, then the status.
        out = {**self._asdict(), "failures": [f._asdict() for f in self.failures]}
        del out["proved_mod_p"], out["proved_exact"]
        return {**out, "ok": self.ok}


# The most invertibility specs a sweep may run, and the most proof samples
# (a factorization and a two-stack replay, about 2 ms), each ~100 s of work.
MAX_SWEEP_SPECS = 10 ** 6
MAX_PROOF_SAMPLES = 5 * 10 ** 4


def pascal_check(
    max_k: int, max_n: int, samples: int, seed: int, proof_samples: int
) -> PascalSweepReport:
    """Seeded sweep: invertibility over all block shapes, plus proof replays.

    For every root order k <= max_k and every composition of every total
    N <= max_n into k blocks, draws ``samples`` random (z, w) pairs and
    proves the stacked determinant nonzero (``verify_invertible``), failing
    the spec as ``closed-form`` when it provably differs from the closed
    form; then replays the factorization and two-stack arguments on
    ``proof_samples`` random instances each.  Identical arguments produce
    identical reports.

    Raises BudgetExceeded before any work once the spec count, samples times
    sum_{k <= max_k} (C(max_n + k, k) - 1), summed in k, passes
    MAX_SWEEP_SPECS, or proof_samples passes MAX_PROOF_SAMPLES.
    """
    specs = 0
    for k in range(1, max_k + 1):
        specs += samples * (comb(max_n + k, k) - 1)
        if specs > MAX_SWEEP_SPECS:
            raise BudgetExceeded(f"pascal sweep needs at least {specs} stacked "
                                 f"specs, over the budget of {MAX_SWEEP_SPECS}")
    if proof_samples > MAX_PROOF_SAMPLES:
        raise BudgetExceeded(f"pascal sweep needs {proof_samples} proof samples, "
                             f"over the budget of {MAX_PROOF_SAMPLES}")
    rng = random.Random(seed)
    failures: list[SweepFailure] = []
    methods = {"mod-p": 0, "exact": 0}
    for k in range(1, max_k + 1):
        for total in range(1, max_n + 1):
            for shape in compositions(total, k):
                for _ in range(samples):
                    z = random_rational(rng)
                    w = random_rational(rng, nonzero=True)
                    result = verify_invertible(PascalSpec(k, shape, z, w))
                    methods[result.method] += 1
                    if result.invertible and result.closed_form is not False:
                        continue
                    params = f"k={k} blocks={shape} z={z} w={w}"
                    if not result.invertible:
                        failures.append(SweepFailure(
                            "invertibility", params, "determinant is zero"
                        ))
                    if result.closed_form is False:
                        failures.append(SweepFailure(
                            "closed-form", params, "not the closed form mod p"
                        ))
    for _ in range(proof_samples):
        p = rng.randint(1, 6)
        q = rng.randint(1, 6)
        x = random_rational(rng, nonzero=True)
        z = random_rational(rng)
        w = random_rational(rng, nonzero=True)
        try:
            factorization_check(x, z, w, p, q)
        except PascalIdentityError as exc:
            failures.append(
                SweepFailure(
                    "factorization", f"x={x} z={z} w={w} p={p} q={q}", str(exc)
                )
            )
    for _ in range(proof_samples):
        n = rng.randint(1, 6)
        s = rng.randint(0, n)
        t = rng.randint(0, min(s, n - s))
        x = random_rational(rng, nonzero=True)
        while True:
            y = random_rational(rng, nonzero=True)
            if y != x:
                break
        try:
            two_blocks_check(x, y, n, s, t)
        except PascalIdentityError as exc:
            failures.append(
                SweepFailure(
                    "two-blocks", f"x={x} y={y} n={n} s={s} t={t}", str(exc)
                )
            )
    return PascalSweepReport(
        max_k=max_k,
        max_n=max_n,
        samples=samples,
        proof_samples=proof_samples,
        seed=seed,
        specs_checked=sum(methods.values()),
        factorizations_checked=proof_samples,
        two_blocks_checked=proof_samples,
        failures=tuple(failures),
        proved_mod_p=methods["mod-p"],
        proved_exact=methods["exact"],
    )
