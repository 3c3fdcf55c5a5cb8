"""Exact intersection rings of iterated blow-ups over the rationals.

The package builds the graded ring of a wonderful compactification from a
burrow diagram (building-set elements, per-burrow rings, restriction and
pushforward maps, Chern data), decomposes it additively, and runs complete
duality / discrepancy analyses.  All arithmetic is exact.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
