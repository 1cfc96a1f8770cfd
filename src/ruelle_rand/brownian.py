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
# vector, of which a level-24 binary spectrum holds about three at its peak
MAX_CELLS = 2**24

# exponent of every Holder constant the package reports or bounds with;
# Brownian paths are gamma-Holder for every gamma < 1/2
HOLDER_GAMMA = 0.4


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


# the process's one Philox generator, built on first use
_stream = None


def _keyed(seed: int, level: int) -> np.random.Generator:
    """The process's one generator, keyed as level_stream(seed, level):
    re-keying it costs a fraction of building a generator, so sample() and
    refine() re-key it for each (path, level) they draw."""
    global _stream
    if _stream is None:
        _stream = level_stream(seed, level)
    else:
        rekey(_stream, seed, level)
    return _stream


def _fill_level(old: np.ndarray, level: int, m: int,
                stream: np.random.Generator | None) -> np.ndarray:
    """Bridge-fill the interior points taking level -> level + 1, with
    innovations drawn from stream, the stream of level + 1 (None for zero
    noise).

    Each interior point is prev + (delta / gap) (right - prev) + sd z,
    evaluated in that order straight into its slot of the new grid, so the
    only temporary is the innovation block z.
    """
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
        cur = new[j::m]
        np.subtract(right, prev, out=cur)
        np.multiply(cur, delta / gap, out=cur)
        np.add(prev, cur, out=cur)
        zj = z[:, j - 1]
        zj *= sd
        np.add(cur, zj, out=cur)
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
        values = np.zeros(2)
    else:
        values = np.array([0.0, _keyed(seed, 0).standard_normal()])
    for l in range(level):
        stream = None if zero_noise else _keyed(seed, l + 1)
        values = _fill_level(values, l, m, stream)
    return BrownianGrid(level, alphabet, values, seed, zero_noise)


def refine(grid: BrownianGrid) -> BrownianGrid:
    """One bridge refinement: same path, one level deeper."""
    check_cells(grid.level + 1, grid.alphabet)
    stream = (None if grid.zero_noise
              else _keyed(grid.seed, grid.level + 1))
    values = _fill_level(grid.values, grid.level, grid.alphabet.m, stream)
    return BrownianGrid(grid.level + 1, grid.alphabet, values, grid.seed,
                        grid.zero_noise)


def holder_constant(grid: BrownianGrid,
                    gamma: float = HOLDER_GAMMA) -> float:
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


def stats(grid: BrownianGrid, gamma: float = HOLDER_GAMMA) -> PathStats:
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
