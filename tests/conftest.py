"""Shared fixtures: seeded random valid lattices beyond the four presets.

Each draw takes a random permutation of n <= 5 letters and gives each
orbit of unordered index pairs under it one Gram value: 2 or 4 on the
diagonal, 0, 1 or 2 off it.  A draw is kept when ``analyze`` accepts it
and k <= 12.
"""

import random
from itertools import product

import pytest

from twistchar.lattice import LatticeError, LatticeInput, analyze

SEED, KEPT, MAX_DRAWS = 5, 25, 1000


def _draw(rng):
    n = rng.randint(2, 5)
    perm = list(range(n))
    rng.shuffle(perm)
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
def random_lattices():
    """The first KEPT valid draws, as (orbits, tables) pairs."""
    rng = random.Random(SEED)
    kept = []
    for _ in range(MAX_DRAWS):
        gram, perm = _draw(rng)
        try:
            orbits, tables = analyze(LatticeInput.make(gram, perm))
        except LatticeError:
            continue
        if orbits.k <= 12:
            kept.append((orbits, tables))
            if len(kept) == KEPT:
                return kept
    pytest.fail(f"only {len(kept)} of {MAX_DRAWS} draws were valid lattices")
