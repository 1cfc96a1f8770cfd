"""Exact correspondence between right-continuous step functions on [0, 1]
with jumps at level-n m-adic points and functions constant on depth-n
cylinders of the full shift.

On these finite-dimensional subspaces the correspondence is pure index
relabeling: interval [k/m^n, (k+1)/m^n) <-> word of index k. The left-limit
convention at an m-adic point t = k/m^n is carried by the lex-smaller of
the two sequences mapping to t, which lives in cylinder k - 1 and picks up
the step value on the interval to the left; both directions are therefore
array copies and every isometry test runs at zero tolerance.

isometry-check runs theta, theta_inverse and sup_norm. The Brownian grid
itself needs no projection: transfer.build_potential reads its left
endpoints at the same word indices, and power_iterate returns h as a
CylinderFunction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbolic import Alphabet


def _frozen_array(v, n: int, m: int) -> np.ndarray:
    a = np.asarray(v, dtype=np.float64)
    if a.shape != (m**n,):
        raise ValueError(f"level {n} over m={m} needs {m**n} values, got {a.shape}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function: right_values[k] on [k/m^n, (k+1)/m^n),
    terminal_value at t = 1."""

    level: int
    alphabet: Alphabet
    right_values: np.ndarray
    terminal_value: float

    def __post_init__(self):
        object.__setattr__(
            self, "right_values",
            _frozen_array(self.right_values, self.level, self.alphabet.m))


@dataclass(frozen=True)
class CylinderFunction:
    """Function constant on depth-n cylinders, indexed by base-m word index."""

    level: int
    alphabet: Alphabet
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values",
            _frozen_array(self.values, self.level, self.alphabet.m))


def theta(F: StepFunction) -> CylinderFunction:
    """Step function -> cylinder function, exact."""
    return CylinderFunction(F.level, F.alphabet, F.right_values)


def theta_inverse(f: CylinderFunction) -> StepFunction:
    """Cylinder function -> step function, exact inverse of theta.

    The terminal value is values[-1]: t = 1 sits in the closure of the
    last cylinder, whose all-(m-1) tail represents it.
    """
    return StepFunction(f.level, f.alphabet, f.values, float(f.values[-1]))


def sup_norm(F_or_f: StepFunction | CylinderFunction) -> float:
    """Sup norm, max |values|; identical on both sides of theta."""
    v = F_or_f.right_values if isinstance(F_or_f, StepFunction) else F_or_f.values
    return float(np.max(np.abs(v)))

