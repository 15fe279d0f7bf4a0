"""Sparse dyadic sampling grids and recovery of functions from their samples.

The recovery operator truncates the hierarchical series at total level ``m``;
the samples it reads form the union of the anisotropic tensor lattices
``{t / (ell * 2**k_j)}`` over all level vectors with ``|k|_1 = m`` (lattices
are nested, so lower levels add nothing).  Points are stored as exact
rationals: deduplication across levels is by value, never by float rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

import numpy as np

from .bspline import shifts_per_level
from .quasi_interp import (
    HierCoeffs,
    MissingSamples,
    QIScheme,
    SampleCache,
    _compositions,
    decompose,
    multi_indices,
)

__all__ = [
    "SmolyakIndexSet",
    "SampleGrid",
    "MissingSamples",
    "enumerate_grid",
    "count_points",
    "recover",
    "grid_level_gap",
]


def grid_level_gap(ell: int) -> int:
    """Levels separating the sampling lattice from the knot lattice: ceil(log2 ell)."""
    return (ell - 1).bit_length()


@dataclass(frozen=True)
class SmolyakIndexSet:
    """All level vectors k in Z_+^d with |k|_1 <= m, graded lexicographic."""

    d: int
    m: int
    indices: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.d < 1 or self.m < 0:
            raise ValueError("need d >= 1 and m >= 0")
        object.__setattr__(self, "indices", tuple(multi_indices(self.d, self.m)))

    def __iter__(self):
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)


PointKey = tuple[Fraction, ...]


@dataclass(frozen=True)
class SampleGrid:
    """The deduplicated point set read by recovery at total level ``m``.

    ``points`` are exact rational coordinates, sorted; ``provenance[i]`` is
    the componentwise-minimal level vector whose lattice contains point ``i``.
    """

    d: int
    m: int
    ell: int
    points: tuple[PointKey, ...]
    provenance: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array([[float(c) for c in p] for p in self.points], dtype=np.float64)

    def __contains__(self, point: PointKey) -> bool:
        return tuple(Fraction(c) for c in point) in self._index

    @property
    def _index(self) -> frozenset:
        idx = getattr(self, "_index_cache", None)
        if idx is None:
            idx = frozenset(self.points)
            object.__setattr__(self, "_index_cache", idx)
        return idx


def _min_axis_level(ell: int, coord: Fraction, m: int) -> int:
    for a in range(m + 1):
        if (coord * shifts_per_level(ell, a)).denominator == 1:
            return a
    raise ValueError(f"{coord} is not a lattice point up to level {m}")


def enumerate_grid(d: int, m: int, scheme: QIScheme) -> SampleGrid:
    """Materialize the sample grid with exact deduplication."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    ell = scheme.ell
    seen: set[PointKey] = set()
    for k in _compositions(m, d):
        axes = [
            [Fraction(t, shifts_per_level(ell, kj)) for t in range(shifts_per_level(ell, kj))]
            for kj in k
        ]
        seen.update(itertools.product(*axes))
    points = tuple(sorted(seen))
    provenance = tuple(
        tuple(_min_axis_level(ell, c, m) for c in p) for p in points
    )
    return SampleGrid(d, m, ell, points, provenance)


def count_points(d: int, m: int, scheme: QIScheme) -> int:
    """Cardinality of the sample grid, computed without materializing points.

    Counts points by their per-axis minimal levels: level ``a`` contributes
    ``ell`` new points for ``a = 0`` and ``ell * 2**(a-1)`` for ``a >= 1``,
    and a point belongs to the grid iff its minimal levels sum to <= m.
    """
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    ell = scheme.ell
    new_per_level = [ell] + [ell << (a - 1) for a in range(1, m + 1)]
    per_sum = np.array(new_per_level, dtype=object)
    acc = per_sum.copy()
    for _ in range(d - 1):
        nxt = np.zeros(m + 1, dtype=object)
        for j in range(m + 1):
            nxt[j] = sum(acc[j - t] * per_sum[t] for t in range(j + 1))
        acc = nxt
    return int(sum(acc))


def recover(
    scheme: QIScheme,
    d: int,
    m: int,
    values: Mapping[PointKey, float] | None = None,
    f: Callable | None = None,
) -> HierCoeffs:
    """Build the recovery operator's hierarchical coefficients at level ``m``.

    Exactly one of ``values`` (a map from exact grid points to samples; no
    function evaluations happen) and ``f`` (a torus function) must be given.

    Raises:
        MissingSamples: the value map lacks a required grid point.
    """
    if (values is None) == (f is None):
        raise ValueError("supply exactly one of `values` and `f`")
    if values is not None:
        cache = SampleCache.from_values(values, scheme.ell, d)
    else:
        cache = SampleCache(f, scheme.ell, d)
    return decompose(scheme, None if values is not None else f, m, d, cache=cache)
