"""Sparse dyadic sampling grids and recovery of functions from their samples.

The recovery operator truncates the hierarchical series at total level ``m``;
the samples it reads form the union of the anisotropic tensor lattices
``{t / (ell * 2**k_j)}`` over all level vectors with ``|k|_1 = m`` (lattices
are nested, so lower levels add nothing).  The union is the disjoint union of
the hierarchical blocks with ``|a|_1 <= m`` (see ``SampleCache``), so points
are integer positions on the level-``m`` lattice and need no deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .quasi_interp import (
    HierCoeffs,
    MissingSamples,
    QIScheme,
    block_axis,
    decompose,
    multi_indices,
)

__all__ = [
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


PointKey = tuple[Fraction, ...]


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """The point set read by recovery at total level ``m``.

    ``index`` rows are the sorted points ``index[i] / (ell * 2**m)``;
    ``provenance[i]`` is the componentwise-minimal level vector (the block)
    of point ``i``.  Both are ``(n, d)`` int64 arrays.
    """

    d: int
    m: int
    ell: int
    index: np.ndarray
    provenance: np.ndarray

    @property
    def n(self) -> int:
        return len(self.index)

    @property
    def points(self) -> tuple[PointKey, ...]:
        """The points as exact rational coordinates, built on demand."""
        L = self.ell << self.m
        return tuple(tuple(Fraction(t, L) for t in row) for row in self.index.tolist())

    def as_array(self) -> np.ndarray:
        return self.index / (self.ell << self.m)


def enumerate_grid(d: int, m: int, scheme: QIScheme) -> SampleGrid:
    """Materialize the sample grid as its hierarchical blocks, sorted by
    coordinates: block ``a`` takes, on axis ``j``, the positions of the
    level-``m`` lattice in the slice ``block_axis(ell, a_j).within(ell * 2**m)``."""
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    ell = scheme.ell
    positions = np.arange(ell << m, dtype=np.int64)
    index, provenance = [], []
    for a in multi_indices(d, m):
        axes = np.meshgrid(*(positions[block_axis(ell, aj).within(ell << m)] for aj in a), indexing="ij")
        index.append(np.stack([x.ravel() for x in axes], axis=1))
        provenance.append(np.broadcast_to(np.array(a, dtype=np.int64), index[-1].shape))
    index, provenance = np.concatenate(index), np.concatenate(provenance)
    order = np.lexsort(index.T[::-1])
    index, provenance = index[order], provenance[order]
    index.flags.writeable = provenance.flags.writeable = False
    return SampleGrid(d, m, ell, index, provenance)


def count_points(d: int, m: int, scheme: QIScheme) -> int:
    """Cardinality of the sample grid, computed without materializing points.

    Counts points by their per-axis minimal levels: level ``a`` contributes
    the ``block_axis(ell, a).n`` points of its block axis, and a point
    belongs to the grid iff its minimal levels sum to <= m.
    """
    if d < 1 or m < 0:
        raise ValueError("need d >= 1 and m >= 0")
    per_sum = np.array([block_axis(scheme.ell, a).n for a in range(m + 1)], dtype=object)
    acc = per_sum.copy()
    for _ in range(d - 1):
        nxt = np.zeros(m + 1, dtype=object)
        for j in range(m + 1):
            nxt[j] = sum(acc[j - t] * per_sum[t] for t in range(j + 1))
        acc = nxt
    return int(sum(acc))


def recover(scheme: QIScheme, d: int, m: int, f: Callable) -> HierCoeffs:
    """Build the recovery operator's hierarchical coefficients at level ``m``
    from samples of the torus function ``f``.  Given samples are recovered
    through :meth:`SampleCache.from_lattice` and :func:`decompose`."""
    return decompose(scheme, f, m, d)
