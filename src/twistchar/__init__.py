"""Exact arithmetic for principal subspaces of twisted lattice modules.

Validates an even lattice with a permutation isometry, builds the orbit
and pairing data, produces truncated multigraded characters with their
recursion checks and partition-identity comparisons, replays the
root-of-unity Pascal matrix arguments, and cross-checks character
coefficients against brute-force quotient dimensions.

The package root holds only ``__version__``; import from the submodules.
"""

__version__ = "0.1.0"
