"""Shared fixtures: valid lattices beyond the four presets.

Seeded draws: each takes a random permutation of n <= 5 letters and gives
each orbit of unordered index pairs under it one Gram value: 2 or 4 on the
diagonal, 0, 1 or 2 off it.  A draw is kept when ``analyze`` accepts it
and k <= 12.  The wide draws go up to n = 7 and keep every valid draw.
The two-3-cycle draws fix the permutation (1 2 3)(4 5 6) and keep the
first valid ones.

The census of rank <= CENSUS_RANK: every Gram matrix with diagonal in
{2, 4} and off-diagonal entries in {0, 1, 2, 3}, with every permutation
that preserves it, one pair per relabelling class, kept when ``analyze``
accepts it.  CENSUS_RANK is 3 unless the environment variable
TWISTCHAR_CENSUS_RANK sets it (rank 4 takes about 40 s: run
``TWISTCHAR_CENSUS_RANK=4 python -m pytest -q -k census tests/``).
"""

import os
import random
from itertools import combinations, permutations, product

import pytest

from twistchar.lattice import LatticeError, LatticeInput, analyze

SEED, KEPT, MAX_DRAWS, WIDE, TWO_THREE_CYCLES = 5, 25, 1000, 2000, 15


def _draw(rng, max_rank=5, perm=None):
    if perm is None:
        perm = list(range(rng.randint(2, max_rank)))
        rng.shuffle(perm)
    n = len(perm)
    gram = [[None] * n for _ in range(n)]
    for a, b in product(range(n), repeat=2):
        if gram[a][b] is None:
            value = rng.choice((2, 4) if a == b else (0, 1, 2))
            x, y = a, b
            while gram[x][y] is None:
                gram[x][y] = gram[y][x] = value
                x, y = perm[x], perm[y]
    return gram, [p + 1 for p in perm]


@pytest.fixture(scope="session")
def random_inputs():
    """The first KEPT valid draws, as lattice inputs."""
    rng = random.Random(SEED)
    kept = []
    for _ in range(MAX_DRAWS):
        inp = LatticeInput.make(*_draw(rng))
        try:
            orbits, _ = analyze(inp)
        except LatticeError:
            continue
        if orbits.k <= 12:
            kept.append(inp)
            if len(kept) == KEPT:
                return kept
    pytest.fail(f"only {len(kept)} of {MAX_DRAWS} draws were valid lattices")


@pytest.fixture(scope="session")
def random_lattices(random_inputs):
    """The kept draws, as (orbits, tables) pairs."""
    return [analyze(inp) for inp in random_inputs]


def _valid_draws(count, **draw_args):
    # The first count draws that analyze accepts, as lattice inputs.
    rng = random.Random(SEED)
    kept = []
    while len(kept) < count:
        inp = LatticeInput.make(*_draw(rng, **draw_args))
        try:
            analyze(inp)
        except LatticeError:
            continue
        kept.append(inp)
    return kept


@pytest.fixture(scope="session")
def wide_inputs():
    """WIDE valid draws of rank <= 7, with no bound on k."""
    return _valid_draws(WIDE, max_rank=7)


@pytest.fixture(scope="session")
def two_three_cycle_inputs():
    """The first TWO_THREE_CYCLES valid draws of rank 6 with the isometry
    (1 2 3)(4 5 6)."""
    return _valid_draws(TWO_THREE_CYCLES, perm=[1, 2, 0, 4, 5, 3])


CENSUS_RANK = int(os.environ.get("TWISTCHAR_CENSUS_RANK", "3"))


def _relabelled(gram, perm, pi):
    # Index a becomes pi[a]: the Gram matrix and the permutation conjugated.
    n = len(perm)
    new_gram, new_perm = [[0] * n for _ in range(n)], [0] * n
    for a, b in product(range(n), repeat=2):
        new_gram[pi[a]][pi[b]] = gram[a][b]
    for a in range(n):
        new_perm[pi[a]] = pi[perm[a]]
    return tuple(map(tuple, new_gram)), tuple(new_perm)


@pytest.fixture(scope="session")
def census():
    """The census of rank <= CENSUS_RANK, as lattice inputs: per class the
    least (Gram, permutation) over the relabellings, in sorted order."""
    classes = set()
    for n in range(1, CENSUS_RANK + 1):
        pairs = list(combinations(range(n), 2))
        for diagonal in product((2, 4), repeat=n):
            for off in product(range(4), repeat=len(pairs)):
                gram = [[0] * n for _ in range(n)]
                for a, x in enumerate(diagonal):
                    gram[a][a] = x
                for (a, b), x in zip(pairs, off):
                    gram[a][b] = gram[b][a] = x
                for perm in permutations(range(n)):
                    if all(gram[perm[a]][perm[b]] == gram[a][b]
                           for a, b in product(range(n), repeat=2)):
                        classes.add(min(_relabelled(gram, perm, pi)
                                        for pi in permutations(range(n))))
    kept = []
    for gram, perm in sorted(classes):
        inp = LatticeInput.make(gram, [p + 1 for p in perm])
        try:
            analyze(inp)
        except LatticeError:
            continue
        kept.append(inp)
    return kept
