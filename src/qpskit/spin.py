"""The spin values qpskit supports, and the check that a spin is one of them.

The spin operators themselves have one convention in the package: the
Hermitian matrices of ``grid.spin_matrices_numeric``, on which the grid
realizes S1, S2, S3. The exact engine never substitutes matrices; it
straightens S products symbolically (``expr``). This module imports
neither numpy nor the exact engine.
"""

from __future__ import annotations

from fractions import Fraction

SUPPORTED_SPINS = (Fraction(0), Fraction(1, 2), Fraction(1),
                   Fraction(3, 2), Fraction(2))


class SpinConfigError(ValueError):
    """Unsupported spin value."""


def check_spin(s) -> Fraction:
    s = Fraction(s)
    if s not in SUPPORTED_SPINS:
        raise SpinConfigError(f"unsupported spin {s}; expected one of "
                              f"{[str(v) for v in SUPPORTED_SPINS]}")
    return s
