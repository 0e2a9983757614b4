"""Validation of a lattice with a permutation isometry, and its orbit data.

The input is an integer Gram matrix (symmetric, even diagonal, positive
definite, entrywise non-negative) together with a permutation of the basis
that preserves the Gram form.  The module keeps what runs read: the cycles,
their lengths and the doubled order k (``OrbitData``), and the rotated
pairings with the character matrix (``PairingTables``).  The evenness flags,
mode sets and vacuum weight are closed forms in these, which only
``analyze`` prints (``cli.cmd_analyze``).
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
    """Cycle structure of the isometry: the cycles, their lengths l_i and
    k = 2 lcm(l_i), twice the isometry's order.

    Orbit i's representative is ``cycles[i][0]``.  Its evenness flag, root
    order, mode offset and the twisted vacuum weight are closed forms in
    the lengths and the rotated pairings; ``analyze`` prints them and
    proves the forms.
    """

    cycles: tuple[tuple[int, ...], ...]
    lengths: tuple[int, ...]
    k: int

    @property
    def d(self) -> int:
        return len(self.cycles)


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
    lengths = tuple(len(c) for c in cycles)
    return OrbitData(cycles=cycles, lengths=lengths, k=2 * lcm(*lengths))


def analyze(inp: LatticeInput) -> tuple[OrbitData, PairingTables]:
    """Validate the input and derive the pairing tables of its orbits.

    Write sigma for the isometry, rep_i = ``cycles[i][0]`` for orbit i's
    representative, l_i for its cycle length and c_ij = sum_r
    (sigma^r rep_i, rep_j), the sum of ``rotated[i][j]``.  Four facts make
    A and every number that ``analyze`` prints a closed form in the lengths
    and c_ij, with no check left to run:

    - The isometry gives every vector sigma^t rep_j of cycle j the pairing
      sum c_ij with cycle i (sigma^-t permutes cycle i).  So the Gram sum
      over both cycles, the printed twisted Gram matrix, is l_j c_ij, and
      the zero-mode pairing, that sum over l_i l_j, is c_ij / l_i = A_ij / k.
    - k / l_i = 2 lcm(l) / l_i is an even integer, so A = (k / l_i) c_ij is
      integral with an even diagonal, and every norm m^T A m is even.
    - Orbit i is even when l_i is odd or (rep_i, sigma^(l_i/2) rep_i) is
      even; then its root order is l_i and its modes are (1/l_i) Z, and
      otherwise 2 l_i and 1/(2 l_i) + (1/l_i) Z.  Rotations r and l_i - r
      pair equally with rep_i (apply sigma^-r, then symmetry), and the
      r = 0 term is an even diagonal entry.  So c_ii is even for odd l_i,
      and c_ii = (rep_i, sigma^(l_i/2) rep_i) (mod 2) for even l_i: orbit i
      is even exactly when c_ii is.  Hence -a_i, a_i = c_ii / (2 l_i) =
      A_ii / (2k) the printed minimal degree, lies in orbit i's mode set,
      and a_i times the root order is an integer.
    - The twisted vacuum weight is (1/4k^2) sum_j j (k - j) dim h_(j), h_(j)
      the eta^j eigenspace of sigma (Lepowsky).  A cycle of length l spans
      one eigenvector for each exponent j = t k / l, t < l, and
      sum_(t<l) t (l - t) = l (l^2 - 1) / 6, so the weight is
      sum_i (l_i^2 - 1) / (24 l_i).
    """
    orbits = validate(inp)
    reps = [cycle[0] for cycle in orbits.cycles]
    rotated = tuple(
        tuple(tuple(inp.gram[a][rep] for a in cycle) for rep in reps)
        for cycle in orbits.cycles
    )
    return orbits, PairingTables(
        char_matrix=tuple(
            tuple(orbits.k // len(cycle) * sum(pairs) for pairs in row)
            for cycle, row in zip(orbits.cycles, rotated)
        ),
        rotated=rotated,
    )
