"""Validation of a lattice with a permutation isometry, and its orbit data.

The input is an integer Gram matrix (symmetric, even diagonal, positive
definite, entrywise non-negative) together with a permutation of the basis
that preserves the Gram form.  From the permutation's cycle structure the
module derives everything downstream components need: cycle lengths, the
doubled order k, the per-orbit evenness flags, the allowed mode sets, the
rotated pairings, the character matrix and the vacuum weight.
"""

import re
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence, Union

PermSpec = Union[str, Sequence[int]]


class LatticeError(ValueError):
    """Base class for invalid lattice inputs."""


class NotSymmetric(LatticeError):
    pass


class NotEven(LatticeError):
    pass


class NotPositiveDefinite(LatticeError):
    pass


class NegativeEntry(LatticeError):
    pass


class NotIsometry(LatticeError):
    pass


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def _is_int(value: object) -> bool:
    """Whether value is an integer proper; bools and floats are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_permutation(spec: PermSpec, rank: int) -> tuple[int, ...]:
    """Normalize a permutation given in cycle notation or one-line form.

    Cycle strings use 1-based indices, e.g. "(1)(2 3)"; fixed points may be
    omitted.  One-line sequences list the 1-based image of each index.  The
    returned tuple is 0-based one-line form.
    """
    if isinstance(spec, str):
        stripped = spec.replace(",", " ").strip()
        if not stripped or _CYCLE_RE.sub("", stripped).strip():
            raise LatticeError(f"malformed cycle notation: {spec!r}")
        image = list(range(rank))
        seen: set[int] = set()
        for body in _CYCLE_RE.findall(stripped):
            try:
                entries = [int(tok) for tok in body.split()]
            except ValueError:
                raise LatticeError(f"non-integer cycle entry in {spec!r}") from None
            if not entries:
                continue
            for e in entries:
                if not 1 <= e <= rank:
                    raise LatticeError(f"cycle entry {e} outside 1..{rank}")
                if e - 1 in seen:
                    raise LatticeError(f"index {e} appears twice in {spec!r}")
                seen.add(e - 1)
            for pos, e in enumerate(entries):
                image[e - 1] = entries[(pos + 1) % len(entries)] - 1
        return tuple(image)
    if not isinstance(spec, (list, tuple)) or not all(map(_is_int, spec)):
        raise LatticeError(
            f"permutation must be a cycle string or a list of integers, got {spec!r}"
        )
    one_line = list(spec)
    if sorted(one_line) != list(range(1, rank + 1)):
        raise LatticeError(
            f"one-line permutation must be a rearrangement of 1..{rank}, got {one_line}"
        )
    return tuple(x - 1 for x in one_line)


class LatticeInput(NamedTuple):
    """Gram matrix plus basis permutation, indices 0-based internally."""

    rank: int
    gram: tuple[tuple[int, ...], ...]
    perm: tuple[int, ...]

    @classmethod
    def make(cls, gram: Sequence[Sequence[int]], perm: PermSpec) -> "LatticeInput":
        if not isinstance(gram, (list, tuple)) or not all(
            isinstance(row, (list, tuple)) and all(map(_is_int, row)) for row in gram
        ):
            raise LatticeError("Gram matrix must be an array of integer rows")
        rows = tuple(tuple(row) for row in gram)
        rank = len(rows)
        if rank == 0:
            raise LatticeError("empty Gram matrix")
        if any(len(r) != rank for r in rows):
            raise LatticeError("Gram matrix is not square")
        return cls(rank=rank, gram=rows, perm=parse_permutation(perm, rank))

    def cycle_string(self) -> str:
        cycles = _cycles_of(self.perm)
        return "".join(
            "(" + " ".join(str(i + 1) for i in c) + ")" for c in cycles
        )


class OrbitData(NamedTuple):
    """Cycle structure of the isometry and the derived mode-set data.

    ``root_orders[i]`` is the order of the root of unity attached to orbit
    i's modes (the cycle length, doubled when the evenness condition
    fails), and ``mode_offsets[i]`` is the offset of the allowed mode set
    inside (1/length) * Z: allowed modes are mode_offsets[i] + (1/length) * Z.
    """

    cycles: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    lengths: tuple[int, ...]
    nu_order: int
    k: int
    evenness: tuple[bool, ...]
    root_orders: tuple[int, ...]
    mode_offsets: tuple[Fraction, ...]
    vacuum_weight: Fraction

    @property
    def d(self) -> int:
        return len(self.cycles)

    def contains_mode(self, i: int, n: Fraction) -> bool:
        """Whether n lies in orbit i's allowed mode set."""
        return ((Fraction(n) - self.mode_offsets[i]) * self.lengths[i]).denominator == 1


class PairingTables(NamedTuple):
    """Zero-mode pairings of the orbit representatives, as integers.

    ``rotated[i][j][r]`` is the pairing of the r-th rotation of orbit i's
    representative with orbit j's representative, and c_ij is its sum over
    r.  ``char_matrix`` is A = (k / l_i) c_ij.  These two are all that runs
    read; ``analyze --format json`` prints three more scalings of c_ij,
    formed at print time: the zero-mode pairing c_ij / l_i = A_ij / k, the
    twisted Gram matrix (the Gram sums over both cycles) l_j c_ij, and the
    minimal degree a_i = c_ii / (2 l_i) = A_ii / (2k) of orbit i's lowest
    admissible variable, negated.  ``analyze`` proves these equal the
    definitions.
    """

    char_matrix: tuple[tuple[int, ...], ...]
    rotated: tuple[tuple[tuple[int, ...], ...], ...]


def _cycles_of(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = perm[start]
        while j != start:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def _check_positive_definite(gram: Sequence[Sequence[int]]) -> None:
    # Sylvester's criterion from one elimination without row swaps: while
    # every earlier leading minor is positive, the leading minor of order r
    # is the product of the first r pivots.  Rows stay ints until one is
    # eliminated.
    n = len(gram)
    m = [list(row) for row in gram]
    minor = 1
    for col in range(n):
        pivot = m[col][col]
        minor *= pivot
        if minor <= 0:
            raise NotPositiveDefinite(
                f"leading principal minor of order {col + 1} is {minor}"
            )
        for r in range(col + 1, n):
            if m[r][col]:
                f = Fraction(m[r][col]) / pivot
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]


def validate(inp: LatticeInput) -> OrbitData:
    """Check every input invariant and derive the orbit data.

    Raises a LatticeError subclass naming the violated invariant and the
    offending indices (0-based).
    """
    gram, perm, rank = inp.gram, inp.perm, inp.rank
    for i in range(rank):
        for j in range(i + 1, rank):
            if gram[i][j] != gram[j][i]:
                raise NotSymmetric(f"gram[{i}][{j}] != gram[{j}][{i}]")
    for i in range(rank):
        if gram[i][i] <= 0 or gram[i][i] % 2:
            raise NotEven(f"diagonal entry gram[{i}][{i}] = {gram[i][i]}")
    for i in range(rank):
        for j in range(rank):
            if gram[i][j] < 0:
                raise NegativeEntry(f"gram[{i}][{j}] = {gram[i][j]} < 0")
    _check_positive_definite(gram)
    for i in range(rank):
        for j in range(rank):
            if gram[perm[i]][perm[j]] != gram[i][j]:
                raise NotIsometry(f"pairing of ({i}, {j}) not preserved")

    cycles = _cycles_of(perm)
    reps = tuple(c[0] for c in cycles)
    lengths = tuple(len(c) for c in cycles)
    nu_order = lcm(*lengths)
    k = 2 * nu_order

    evenness = []
    for cyc, rep, length in zip(cycles, reps, lengths):
        if length % 2:
            evenness.append(True)
        else:
            half = cyc[length // 2]
            evenness.append(gram[rep][half] % 2 == 0)
    evenness = tuple(evenness)

    root_orders = tuple(
        l if even else 2 * l for l, even in zip(lengths, evenness)
    )
    mode_offsets = tuple(
        Fraction(0) if even else Fraction(1, 2 * l)
        for l, even in zip(lengths, evenness)
    )

    dims = _eigenspace_dims(lengths, k)
    weight = Fraction(
        sum(j * (k - j) * dims[j] for j in range(1, k)), 4 * k * k
    )

    return OrbitData(
        cycles=cycles,
        reps=reps,
        lengths=lengths,
        nu_order=nu_order,
        k=k,
        evenness=evenness,
        root_orders=root_orders,
        mode_offsets=mode_offsets,
        vacuum_weight=weight,
    )


def _eigenspace_dims(lengths: Sequence[int], k: int) -> list[int]:
    return [
        sum(1 for l in lengths if j % (k // l) == 0) for j in range(k)
    ]


def eigenspace_dim(orbits: OrbitData, j: int) -> int:
    """Dimension of the eta^j eigenspace of the isometry on the ambient space."""
    if not 0 <= j < orbits.k:
        raise ValueError(f"eigenvalue exponent {j} outside 0..{orbits.k - 1}")
    return _eigenspace_dims(orbits.lengths, orbits.k)[j]


def analyze(inp: LatticeInput) -> tuple[OrbitData, PairingTables]:
    """Validate the input and derive the pairing tables of its orbits.

    Write sigma for the isometry, rep_i for orbit i's representative, l_i
    for its cycle length and c_ij = sum_r (sigma^r rep_i, rep_j), the sum of
    ``rotated[i][j]``.  Three facts make A and every table that
    ``analyze --format json`` prints a scaling of c_ij, with no check left
    to run:

    - The isometry gives every vector sigma^t rep_j of cycle j the pairing
      sum c_ij with cycle i (sigma^-t permutes cycle i).  So the Gram sum
      over both cycles, the printed twisted Gram matrix, is l_j c_ij, and
      the zero-mode pairing, that sum over l_i l_j, is c_ij / l_i = A_ij / k.
    - k / l_i = 2 lcm(l) / l_i is an even integer, so A = (k / l_i) c_ij is
      integral with an even diagonal, and every norm m^T A m is even.
    - Rotations r and l_i - r pair equally with rep_i (apply sigma^-r, then
      symmetry), and the r = 0 term is an even diagonal entry.  So c_ii is
      even for odd l_i, and c_ii = (rep_i, sigma^(l_i/2) rep_i) (mod 2) for
      even l_i: c_ii is even exactly when ``validate`` sets orbit i's
      evenness flag.  Hence -a_i, a_i = c_ii / (2 l_i) = A_ii / (2k) the
      printed minimal degree, lies in the mode set offset + (1/l_i) Z, and
      a_i times the root order is an integer.
    """
    orbits = validate(inp)
    rotated = tuple(
        tuple(tuple(inp.gram[a][rep] for a in cycle) for rep in orbits.reps)
        for cycle in orbits.cycles
    )
    return orbits, PairingTables(
        char_matrix=tuple(
            tuple(orbits.k // len(cycle) * sum(pairs) for pairs in row)
            for cycle, row in zip(orbits.cycles, rotated)
        ),
        rotated=rotated,
    )
