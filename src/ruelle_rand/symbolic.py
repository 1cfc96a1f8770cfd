"""The alphabet {0, ..., m-1} of the one-sided full shift.

Depth-n words, the level-n cylinders of the shift, are handled everywhere
by their base-m index k, read most-significant letter first, so depth-n
words enumerate 0 .. m^n - 1 and the m-adic time of w.0^inf is k / m^n.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Alphabet:
    """Alphabet {0, 1, ..., m-1} of the full shift."""

    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"alphabet needs at least two letters, got m={self.m}")
