"""Built-in example lattices and the lattice config-file format.

Config files are JSON objects with keys:

  rank  -- positive integer
  gram  -- row-major integer array, either flat (rank*rank entries) or nested
  perm  -- permutation, as a 1-based one-line array or a cycle string "(1)(2 3)"
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .lattice import LatticeError, LatticeInput

PRESET_NAMES = ("rank1", "swap2", "x3", "x4")

_PRESETS = {
    # Single vector of squared length 2, trivial isometry.
    "rank1": ([[2]], "(1)"),
    # Two swapped vectors pairing oddly with each other: the evenness
    # condition fails and modes live in 1/4 + (1/2)Z.
    "swap2": ([[2, 1], [1, 2]], "(1 2)"),
    # Fixed vector plus a 2-cycle.
    "x3": ([[2, 1, 1], [1, 2, 0], [1, 0, 2]], "(1)(2 3)"),
    # Fixed vector plus a 3-cycle.
    "x4": ([[2, 1, 1, 1], [1, 2, 0, 0], [1, 0, 2, 0], [1, 0, 0, 2]], "(1)(2 3 4)"),
}


def preset(name: str) -> LatticeInput:
    try:
        gram, perm = _PRESETS[name]
    except KeyError:
        raise LatticeError(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return LatticeInput.make(gram, perm)


def lattice_from_config(data: dict) -> LatticeInput:
    try:
        rank = data["rank"]
        gram = data["gram"]
        perm = data["perm"]
    except KeyError as missing:
        raise LatticeError(f"config missing key {missing}") from None
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise LatticeError(f"rank must be an integer, got {rank!r}")
    if not isinstance(gram, list):
        raise LatticeError(f"gram must be an array, got {gram!r}")
    if gram and not isinstance(gram[0], list):
        if len(gram) != rank * rank:
            raise LatticeError(
                f"flat gram array has {len(gram)} entries, expected {rank * rank}"
            )
        gram = [gram[r * rank : (r + 1) * rank] for r in range(rank)]
    if len(gram) != rank:
        raise LatticeError(f"gram has {len(gram)} rows, expected {rank}")
    return LatticeInput.make(gram, perm)


def load_lattice(path: Union[str, Path]) -> LatticeInput:
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise LatticeError(f"cannot read lattice config {path}: {exc}") from None
    if not isinstance(data, dict):
        raise LatticeError("lattice config must be a JSON object")
    return lattice_from_config(data)
