"""Brownian motion on [0, 1] restricted to the level-n m-adic grid.

Paths are built by bridge refinement: level 0 draws B_1, and each later
level fills the m - 1 interior grid points of every existing interval from
independent Gaussian innovations. The innovation stream for level l of a
path is keyed by (seed, l), so refine() extends a path bit-for-bit the way
a direct deeper sample() would have built it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import level_stream, rekey
from .symbolic import Alphabet


# largest grid sample() and refine() build, in cells m^level: 128 MiB a
# vector, of which a level-24 binary solve holds several
MAX_CELLS = 2**24


def check_cells(level: int, alphabet: Alphabet) -> None:
    """Refuse a depth whose m^level cells exceed MAX_CELLS, before anything
    that size is allocated."""
    if alphabet.m**level > MAX_CELLS:
        raise ValueError(f"level {level} over m={alphabet.m} has "
                         f"{alphabet.m}^{level} cells, more than the budget "
                         f"of {MAX_CELLS}")


@dataclass(frozen=True)
class BrownianGrid:
    """B at the grid points k / m^level, k = 0 .. m^level. values[0] == 0."""

    level: int
    alphabet: Alphabet
    values: np.ndarray
    seed: int
    zero_noise: bool = False
    generation: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.alphabet.m**self.level + 1,):
            raise ValueError(
                f"level {self.level} grid over m={self.alphabet.m} needs "
                f"{self.alphabet.m**self.level + 1} values, got {v.shape}"
            )
        if v[0] != 0.0:
            raise ValueError("grid must start at B_0 = 0")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class PathStats:
    max: float
    min: float
    integral: float
    holder_constant: float
    gamma: float


def _fill_level(old: np.ndarray, level: int, m: int,
                stream: np.random.Generator | None) -> np.ndarray:
    """Bridge-fill the interior points taking level -> level + 1, with
    innovations drawn from stream, the stream of level + 1 (None for zero
    noise)."""
    K = m**level
    span = float(m) ** (-level)
    delta = span / m
    new = np.empty(K * m + 1)
    new[::m] = old
    if stream is None:
        z = np.zeros((K, m - 1))
    else:
        z = stream.standard_normal((K, m - 1))
    prev = old[:-1]
    right = old[1:]
    for j in range(1, m):
        gap = (m - j + 1) * delta
        sd = math.sqrt(delta * (gap - delta) / gap)
        cur = prev + (delta / gap) * (right - prev) + sd * z[:, j - 1]
        new[j::m] = cur
        prev = cur
    return new


def sample(level: int, alphabet: Alphabet = Alphabet(2), seed: int = 0,
           zero_noise: bool = False) -> BrownianGrid:
    """Simulate B on the level-n grid from scratch.

    Deterministic in (level, alphabet, seed, zero_noise); agrees with any
    chain of refine() calls reaching the same level from the same seed.
    """
    if level < 0:
        raise ValueError("level must be >= 0")
    check_cells(level, alphabet)
    m = alphabet.m
    if zero_noise:
        stream = None
        values = np.zeros(2)
    else:
        # one Philox per path, re-keyed for each level
        stream = level_stream(seed, 0)
        values = np.array([0.0, stream.standard_normal()])
    for l in range(level):
        if stream is not None:
            rekey(stream, seed, l + 1)
        values = _fill_level(values, l, m, stream)
    return BrownianGrid(level, alphabet, values, seed, zero_noise)


def refine(grid: BrownianGrid) -> BrownianGrid:
    """One bridge refinement: same path, one level deeper."""
    check_cells(grid.level + 1, grid.alphabet)
    stream = (None if grid.zero_noise
              else level_stream(grid.seed, grid.level + 1))
    values = _fill_level(grid.values, grid.level, grid.alphabet.m, stream)
    return BrownianGrid(grid.level + 1, grid.alphabet, values, grid.seed,
                        grid.zero_noise, grid.generation + 1)


def holder_constant(grid: BrownianGrid, gamma: float = 0.4) -> float:
    """Empirical Holder constant max |B_t - B_s| / |t - s|^gamma over m-adic
    spans at every scale (scale 0 is the full span, the deepest scale the
    adjacent grid pairs)."""
    if not 0.0 < gamma < 0.5:
        raise ValueError("gamma must lie in (0, 1/2)")
    v = grid.values
    m = grid.alphabet.m
    holder = 0.0
    for j in range(grid.level + 1):
        step = m ** (grid.level - j)
        ends = v[::step]
        incr = np.max(np.abs(np.diff(ends))) if ends.size > 1 else 0.0
        holder = max(holder, incr / float(m) ** (-j * gamma))
    return float(holder)


def stats(grid: BrownianGrid, gamma: float = 0.4) -> PathStats:
    """Path summaries on the grid: extrema, trapezoid integral, and the
    holder_constant at gamma."""
    holder = holder_constant(grid, gamma)
    v = grid.values
    t = np.linspace(0.0, 1.0, v.size)
    return PathStats(
        max=float(np.max(v)),
        min=float(np.min(v)),
        integral=float(np.trapezoid(v, t)),
        holder_constant=holder,
        gamma=gamma,
    )
