"""Quasi-interpolation schemes and hierarchical spline coefficients.

A scheme is defined by an even spline order ``ell`` and a finite symmetric
mask.  The mask induces a local operator that reproduces all polynomials of
degree below ``ell``; its symbol, an exact rational Laurent polynomial, is
split at build time into the even/odd detail symbols whose shift operators
compute hierarchical coefficients directly from point samples.  Build-time
validation is exact: the detail symbols, and the mask symbol times the
symbol of the spline's integer samples minus one, must factor through
``(z - 1)**ell``, so an invalid mask is rejected deterministically.

Three independent code paths produce detail coefficients:

* :func:`detail_coeff` - literal per-axis composition of the reduced symbol
  with the order-``ell`` difference operator (scalar, used for spot checks);
* :func:`block_coeffs` - the same functionals over a whole lattice at once
  (the production path);
* :func:`block_coeffs_oracle` - differences of plain quasi-interpolants
  re-expanded one level down through the spline refinement identity.

Their agreement is a core test of the package.  Every lattice operation is
one periodic polyphase filter along one axis (:func:`_periodic_filter`):
output ``P*i + p`` sums the taps of phase ``p`` at input ``stride*i``.  The
mask stencil is one phase at stride 1, the even and odd detail stencils are
two phases at stride 2, and the two-scale lift is two phases at stride 1.
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .bspline import (
    InvalidOrder,
    eval_cardinal_exact,
    piece_table,
    shifts_per_level,
)
from . import kernels
from .laurent import LaurentPoly, NotDivisible, float_stencil

__all__ = [
    "NotAQuasiInterpolant",
    "MissingSamples",
    "QIScheme",
    "HierCoeffs",
    "SampleCache",
    "LatticeAxis",
    "block_axis",
    "BUILTIN_MASKS",
    "build_scheme",
    "builtin_scheme",
    "multi_indices",
    "detail_coeff",
    "block_coeffs",
    "block_coeffs_oracle",
    "quasi_coeffs",
    "decompose",
    "as_batch_function",
    "grid_values",
]


class NotAQuasiInterpolant(ValueError):
    """The mask does not reproduce all polynomials of degree < ell."""


class MissingSamples(ValueError):
    """A required grid sample is absent from the given samples."""

    def __init__(self, point: tuple[Fraction, ...]):
        self.point = point
        coords = ", ".join(str(c) for c in point)
        super().__init__(f"no sample value for grid point ({coords})")


# ---------------------------------------------------------------------------
# multi-indices
# ---------------------------------------------------------------------------


def _compositions(total: int, d: int) -> Iterator[tuple[int, ...]]:
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, d - 1):
            yield (first,) + rest


def multi_indices(d: int, max_sum: int) -> Iterator[tuple[int, ...]]:
    """All k in Z_+^d with |k|_1 <= max_sum, graded lexicographic order."""
    for total in range(max_sum + 1):
        yield from _compositions(total, d)


# ---------------------------------------------------------------------------
# scheme construction
# ---------------------------------------------------------------------------

BUILTIN_MASKS: dict[str, tuple[int, tuple[str, ...]]] = {
    "faber": (2, ("1",)),
    "cubic": (4, ("-1/6", "4/3", "-1/6")),
}


@dataclass(frozen=True, eq=False)
class QIScheme:
    """A validated quasi-interpolation scheme, frozen for evaluation.

    The exact rational symbols are kept for reporting and serialization; the
    ``stencil_*`` fields are their one-time floating-point copies, stored as
    ``(lowest_exponent, weights)`` pairs for the lattice correlations.
    """

    ell: int
    mu: int
    lam: tuple[Fraction, ...]  # mask row lambda(-mu..mu)
    p_lambda: LaurentPoly
    p_even: LaurentPoly
    p_odd: LaurentPoly
    p_even_star: LaurentPoly
    p_odd_star: LaurentPoly
    norm_lambda: Fraction
    scheme_id: str
    stencil_lambda: tuple[int, np.ndarray]
    stencil_even: tuple[int, np.ndarray]
    stencil_odd: tuple[int, np.ndarray]
    stencil_even_star: tuple[int, np.ndarray]
    stencil_odd_star: tuple[int, np.ndarray]
    stencil_delta: tuple[int, np.ndarray]

    def to_json(self) -> dict:
        return {
            "ell": self.ell,
            "mask": [str(c) for c in self.lam],
            "scheme_id": self.scheme_id,
            "p_lambda": self.p_lambda.to_json(),
            "p_even_star": self.p_even_star.to_json(),
            "p_odd_star": self.p_odd_star.to_json(),
            "norm_lambda": str(self.norm_lambda),
            "norm_even_star": str(self.p_even_star.coeff_abs_sum()),
            "norm_odd_star": str(self.p_odd_star.coeff_abs_sum()),
        }


def _reproduces_polynomials(ell: int, row: tuple[Fraction, ...]) -> bool:
    """Whether the mask row ``lambda(-mu..mu)`` reproduces polynomials of
    degree < ``ell``: whether ``lambda(z) * Phi(z) - 1`` has the factor
    ``(z-1)**ell``, for ``Phi`` the symbol of the centred spline's integer
    samples ``M_ell(j + ell/2)``."""
    half = ell // 2
    lam = LaurentPoly(-(len(row) // 2), row)
    phi = LaurentPoly(1 - half, [eval_cardinal_exact(ell, j + half) for j in range(1 - half, half)])
    try:
        (lam * phi - LaurentPoly.one()).divide_exact(LaurentPoly(0, (-1, 1)) ** ell)
    except NotDivisible:
        return False
    return True


def build_scheme(ell: int, mask: Sequence) -> QIScheme:
    """Derive and validate a scheme from an even order and a symmetric mask.

    ``mask`` is the full coefficient row ``lambda(-mu), ..., lambda(mu)`` as
    exact rationals (ints, `Fraction`, or strings like ``"-1/6"``).

    Raises:
        InvalidOrder: ``ell`` odd or < 2.
        ValueError: mask not symmetric or too short for the order.
        NotAQuasiInterpolant: the mask fails polynomial reproduction (the
            detail symbols or ``lambda(z) * Phi(z) - 1`` do not factor
            through ``(z-1)**ell``).
    """
    if ell < 2 or ell % 2:
        raise InvalidOrder(f"order must be even and >= 2, got {ell}")
    row = tuple(Fraction(c) for c in mask)
    if len(row) % 2 == 0:
        raise ValueError("mask must have odd length lambda(-mu..mu)")
    if row != row[::-1]:
        raise ValueError("mask must be symmetric: lambda(-j) == lambda(j)")
    # Short masks are zero-padded to the minimum half-width for the order.
    while len(row) // 2 < ell // 2 - 1:
        row = (Fraction(0),) + row + (Fraction(0),)
    mu = len(row) // 2

    half = ell // 2
    p_lambda = LaurentPoly(half - mu, row)
    sum_even = LaurentPoly.from_pairs({-2 * j: comb(ell, 2 * j) for j in range(half + 1)})
    sum_odd = LaurentPoly.from_pairs({-2 * j - 1: comb(ell, 2 * j + 1) for j in range(half)})
    scale = Fraction(1, 2 ** (ell - 1))
    p_lambda_sq = p_lambda.substitute_z_squared()
    p_even_part = scale * (p_lambda_sq * sum_even)
    p_odd_part = scale * (p_lambda_sq * sum_odd)
    p_even = p_lambda - p_even_part
    p_odd = p_lambda - p_odd_part

    d_ell = LaurentPoly(0, (Fraction(-1), Fraction(1))) ** ell
    try:
        p_even_star = p_even.divide_exact(d_ell)
        p_odd_star = p_odd.divide_exact(d_ell)
    except NotDivisible as exc:
        raise NotAQuasiInterpolant(
            f"detail symbol lacks the (z-1)^{ell} factor: {exc}"
        ) from exc
    if not _reproduces_polynomials(ell, row):
        raise NotAQuasiInterpolant(
            f"mask does not reproduce polynomials of degree < {ell}"
        )

    mask_str = ",".join(str(c) for c in row)
    return QIScheme(
        ell=ell,
        mu=mu,
        lam=row,
        p_lambda=p_lambda,
        p_even=p_even,
        p_odd=p_odd,
        p_even_star=p_even_star,
        p_odd_star=p_odd_star,
        norm_lambda=sum((abs(c) for c in row), Fraction(0)),
        scheme_id=f"ell{ell}[{mask_str}]",
        stencil_lambda=float_stencil(p_lambda),
        stencil_even=float_stencil(p_even),
        stencil_odd=float_stencil(p_odd),
        stencil_even_star=float_stencil(p_even_star),
        stencil_odd_star=float_stencil(p_odd_star),
        stencil_delta=float_stencil(d_ell),
    )


def builtin_scheme(name: str) -> QIScheme:
    try:
        ell, mask = BUILTIN_MASKS[name]
    except KeyError:
        raise KeyError(f"unknown builtin scheme {name!r}; have {sorted(BUILTIN_MASKS)}")
    return build_scheme(ell, mask)


# ---------------------------------------------------------------------------
# function adapters and the sample cache
# ---------------------------------------------------------------------------


def as_batch_function(f, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """Normalize a torus function to batch form ``(n, d) -> (n,)``.

    Accepts objects with an ``eval_points`` method and batch callables: ``f``
    takes the ``(n, d)`` array of points, or its ``(n,)`` column at
    ``d == 1``, and returns ``n`` values; a result of any other shape is a
    ``ValueError``.  The values keep the source's own dtype, so a complex
    source stays complex.
    """
    if hasattr(f, "eval_points"):
        return lambda P: np.asarray(f.eval_points(P))

    def batched(P: np.ndarray) -> np.ndarray:
        out = np.asarray(f(P[:, 0] if d == 1 else P))
        if out.shape != (P.shape[0],):
            raise ValueError(f"a batch callable returned shape {out.shape} for {P.shape[0]} points")
        return out

    return batched


@dataclass(frozen=True)
class LatticeAxis:
    """The ``n`` points ``(r + s*i) / (s*n)``, ``i < n``, with ``0 <= r < s``: the
    lattice ``x0 + i/n`` shifted by ``x0 = r / (s*n)``, less than one step.

    ``LatticeAxis(0, 1, N)`` is the quadrature lattice ``i/N``,
    :func:`block_axis` gives the sample blocks, and ``LatticeAxis(r, s, N/s)``
    is the residue class ``r + s*t`` of ``i/N``.  Membership and slicing are
    integer arithmetic.
    """

    r: int
    s: int
    n: int

    def __post_init__(self):
        if not 0 <= self.r < self.s or self.n < 0:
            raise ValueError(f"need 0 <= r < s and n >= 0, got {self}")

    @property
    def x0(self) -> float:
        """The first point, ``r / (s*n)`` (0.0 on an empty axis)."""
        return self.r / (self.s * self.n) if self.n else 0.0

    def points(self) -> np.ndarray:
        """The points as floats, each the correctly rounded quotient of two exact integers."""
        return (self.r + self.s * np.arange(self.n, dtype=np.int64)) / (self.s * self.n)

    def within(self, N: int) -> slice | None:
        """The strided slice of the lattice ``i/N`` that holds exactly this
        axis, or ``None`` when some point is not on it (or the axis is empty).

        The points are ``j/N`` for ``j = N*r/(s*n) + (N/n)*i``, so ``n`` must
        divide ``N`` and ``s`` the product ``(N/n)*r``.
        """
        if self.n == 0 or N % self.n or (N // self.n) * self.r % self.s:
            return None
        step = N // self.n
        return slice(step * self.r // self.s, None, step)

    def fraction(self, i: int) -> Fraction:
        """Point ``i`` as an exact rational, ``(r + s*i) / (s*n)``."""
        return Fraction(self.r + self.s * i, self.s * self.n)


def block_axis(ell: int, a: int) -> LatticeAxis:
    """The points of sample block level ``a`` on one axis: the level-0
    lattice ``i/ell`` for ``a = 0``, else the points new at level ``a``, the
    odd multiples ``(2i+1) / (ell * 2**a)`` of its mesh."""
    return LatticeAxis(0, 1, ell) if a == 0 else LatticeAxis(1, 2, ell << (a - 1))


def grid_values(f, d: int, axes: Sequence[LatticeAxis]) -> np.ndarray:
    """Values of ``f`` on the tensor grid of the lattice ``axes``.

    ``f.eval_on_axes(axes)`` when ``f`` has that method; otherwise the batch
    form of ``f`` (:func:`as_batch_function`) at the axes' points, on
    row-major slabs of ``kernels._SLAB_ENTRIES`` points, each built from its
    own range of flat indices.  The values keep the source's own dtype.
    """
    if hasattr(f, "eval_on_axes"):
        return np.asarray(f.eval_on_axes(axes))
    batch = as_batch_function(f, d)
    xs = [a.points() for a in axes]
    shape = tuple(len(x) for x in xs)
    size = prod(shape)
    step = kernels._SLAB_ENTRIES
    out = np.empty(0)  # an empty grid; otherwise the first slab sets the dtype
    for start in range(0, size, step):
        index = np.unravel_index(np.arange(start, min(start + step, size)), shape)
        values = batch(np.stack([x[i] for x, i in zip(xs, index)], axis=-1))
        if start == 0:
            out = np.empty(size, dtype=values.dtype)
        out[start : start + step] = values
    return out.reshape(shape)


def _sorted_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows of an ``(n, d)`` array of
    non-negative integers, and whether each row, in that order, starts a run
    of equal rows.  Equal rows keep their given order."""
    order = np.lexsort(rows.T[::-1])
    return order, np.diff(rows[order], axis=0, prepend=-1).any(axis=1)


class SampleCache:
    """Memoizing store of torus samples, one frozen array per hierarchical block.

    Block ``a`` holds the points whose minimal per-axis levels are exactly
    ``a``; the level-``k`` lattice is the union of the blocks ``a <= k``.  A
    missing block is fetched once, from its own points only, and then reused
    everywhere, so the stored values do not depend on the order in which
    lattices are visited.  Fetches run under one lock, so racing threads
    evaluate each point once and ``evaluations`` counts each point once.
    """

    def __init__(self, f, ell: int, d: int):
        self.ell = ell
        self.d = d
        self._blocks: dict[tuple[int, ...], np.ndarray] = {}
        # value-table source: block -> block-local index of its first absent point
        self._absent: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._f = f
        self._lock = threading.Lock()
        self.evaluations = 0

    @classmethod
    def from_lattice(cls, index, level: int, values, ell: int, d: int) -> "SampleCache":
        """A cache reading samples at the points ``index / (ell * 2**level)``, for
        ``(n, d)`` integer positions in ``[0, ell * 2**level)``; a repeated
        position keeps its last value.

        A position's block level and its index inside the block come from the
        slices ``block_axis(ell, a).within(ell * 2**level)``, ``a <= level``,
        and each block has the shape of its :func:`block_axis` axes."""
        index = np.asarray(index, dtype=np.int64).reshape(-1, d)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        # the last row of each position is the first of the reversed rows
        order, starts = _sorted_rows(index[::-1])
        keep = len(index) - 1 - order[starts]
        index, values = index[keep], values[keep]
        axes = [block_axis(ell, a) for a in range(level + 1)]
        block_of, local_of = np.empty((2, ell << level), dtype=np.int64)
        for a, axis in enumerate(axes):
            block_of[axis.within(ell << level)] = a
            local_of[axis.within(ell << level)] = np.arange(axis.n)
        cache = cls(None, ell, d)
        # the rows of each block level, in their given order
        levels = block_of[index]
        order, starts = _sorted_rows(levels)
        groups = np.split(order, np.flatnonzero(starts)[1:])
        for lev, rows in zip(map(tuple, levels[order[starts]].tolist()), groups):
            at = tuple(local_of[index[rows]].T)
            block = np.zeros(tuple(axes[aj].n for aj in lev))
            block[at] = values[rows]
            absent = np.ones(block.shape, dtype=bool)
            absent[at] = False
            if absent.any():
                cache._absent[lev] = tuple(np.argwhere(absent)[0].tolist())
            else:
                block.flags.writeable = False
                cache._blocks[lev] = block
        return cache

    def lattice_values(self, k: Sequence[int]) -> np.ndarray:
        out = np.empty(tuple(self.ell << kj for kj in k), dtype=np.float64)
        for a in itertools.product(*(range(kj + 1) for kj in k)):
            block = self._blocks.get(a)  # a published block is read without the lock
            # block a sits on a strided sub-lattice of the level-k lattice
            where = tuple(block_axis(self.ell, aj).within(self.ell << kj) for aj, kj in zip(a, k))
            out[where] = self._fetch(a) if block is None else block
        return out

    def _fetch(self, a: tuple[int, ...]) -> np.ndarray:
        # the samples of block a, from its own points only
        axes = [block_axis(self.ell, aj) for aj in a]
        if self._f is None:
            first = self._absent.get(a, (0,) * self.d)
            raise MissingSamples(tuple(ax.fraction(i) for ax, i in zip(axes, first)))
        with self._lock:
            if a not in self._blocks:  # else a racing thread fetched it first
                block = np.array(grid_values(self._f, self.d, axes), dtype=np.float64)
                block.flags.writeable = False
                self._blocks[a] = block  # published whole: a racing reader never sees a partial one
                self.evaluations += block.size
            return self._blocks[a]

    def __len__(self) -> int:
        return sum(block.size for block in self._blocks.values())


# ---------------------------------------------------------------------------
# hierarchical coefficients
# ---------------------------------------------------------------------------


# float.__repr__ spelling -> JSON spelling of the non-finite values
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


# Most coefficients that scattered evaluation lifts its blocks to: four slabs
# of the scattered kernel, 4 MiB of float64, next to the 2.5 MiB of the
# kernel's own index and value buffers.  At d = 3, m = 5, ell = 4 it admits
# the two-axis lift (129 024 entries, 14 ms, 2.5 MiB traced at its peak) but
# not the full 128**3 lattice (0.2 s, 73 MiB).  Fixed when the module loads,
# so resizing the slabs later changes no value of HierCoeffs.eval_points.
_LIFT_ENTRIES = 4 * kernels._SLAB_ENTRIES


class HierCoeffs:
    """Sparse hierarchical representation: block level -> coefficient array.

    ``blocks[k]`` holds the coefficients of all shifts at level vector ``k``
    as a dense array of shape ``(ell * 2**k[0], ..., ell * 2**k[d-1])``.
    Built single-writer, then treated as immutable.

    Evaluation first collapses the blocks along their trailing axes
    (:meth:`_collapsed`): the blocks that share their leading levels ``lead``
    are lifted by the spline's two-scale identity to level
    ``max_level - |lead|_1`` on every trailing axis and summed.  Along the
    last axis alone that leaves ``C(max_level + d - 1, d - 1)`` blocks in
    place of ``C(max_level + d, d)`` (21 in place of 56 at d = 3, m = 5).
    On a tensor grid the kernel then sums those blocks as small partial
    fields and reaches the grid one axis at a time, with at most ``d``
    grid-sized products (:func:`sparseqi.kernels.eval_blocks_on_grid`), so
    one axis is enough there.  The scattered kernel gathers ``ell**d``
    coefficients per point and block, so :meth:`eval_points` collapses more
    trailing axes when there are many points (:meth:`_scattered_axes`): 6
    blocks at d = 3, m = 5.  Access, serialization and block norms keep the
    stored per-block form.
    """

    def __init__(self, d: int, ell: int, max_level: int, blocks: Mapping[tuple[int, ...], np.ndarray], scheme_id: str = ""):
        self.d = d
        self.ell = ell
        self.max_level = max_level
        self.scheme_id = scheme_id
        self._blocks: dict[tuple[int, ...], np.ndarray] = {}
        for k, C in blocks.items():
            k = tuple(int(v) for v in k)
            if len(k) != d or any(v < 0 for v in k):
                raise ValueError(f"bad block level vector {k}")
            if sum(k) > max_level:
                raise ValueError(f"block {k} exceeds max level {max_level}")
            expected = tuple(shifts_per_level(ell, kj) for kj in k)
            C = np.asarray(C, dtype=np.float64)
            if C.shape != expected:
                raise ValueError(f"block {k} has shape {C.shape}, expected {expected}")
            self._blocks[k] = C

    # -- access -------------------------------------------------------------

    def block_items(self) -> list[tuple[tuple[int, ...], np.ndarray]]:
        return sorted(self._blocks.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def items(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], float]]:
        """Nonzero entries sorted by (|k|_1, k, s)."""
        for k, C in self.block_items():
            idx = np.nonzero(C)  # row-major
            for s, c in zip(zip(*(i.tolist() for i in idx)), C[idx].tolist()):
                yield k, s, c

    def num_entries(self) -> int:
        return sum(int(np.count_nonzero(C)) for C in self._blocks.values())

    # -- evaluation -----------------------------------------------------------

    def _collapsed(self, axes: int = 1) -> list[tuple[tuple[int, ...], np.ndarray]]:
        """The same combination collapsed along its last ``axes`` axes: one
        block per leading levels ``lead = k[:d - axes]``, at level
        ``max_level - |lead|_1`` on every collapsed axis, as ``(k, C)`` pairs
        sorted by ``k``.

        One Horner step per axis, last axis first.  A step groups the current
        blocks by their levels ahead of its axis and runs up that axis to the
        group's target level ``max_level - |lead|_1``: refine the running sum
        one level, then add the block of that level, whose axes collapsed by
        earlier steps are first lifted to the same target.  The targets depend
        on ``max_level`` alone, and a missing block adds nothing, so a
        combination evaluates to the same bits with or without its all-zero
        blocks.
        """
        blocks = list(self._blocks.items())
        for j in range(self.d - 1, self.d - 1 - axes, -1):
            groups: dict[tuple[int, ...], dict[int, np.ndarray]] = {}
            for k, C in blocks:
                groups.setdefault(k[:j], {})[k[j]] = C
            blocks = []
            for lead in sorted(groups):
                levels = groups[lead]
                top = self.max_level - sum(lead)
                # a block at level a on axis j has its later axes at top - a
                low = min(levels)
                acc = self._lift(levels[low], j + 1, low)
                for level in range(low + 1, top + 1):
                    acc = _refine_axis(acc, j, self.ell)
                    if level in levels:
                        acc += self._lift(levels[level], j + 1, level)
                blocks.append((lead + (top,) * (self.d - j), acc))
        return blocks

    def _lift(self, C: np.ndarray, first: int, levels: int) -> np.ndarray:
        """``C`` refined by ``levels`` levels on each axis from ``first`` on."""
        for axis in range(first, self.d):
            for _ in range(levels):
                C = _refine_axis(C, axis, self.ell)
        return C

    def _collapsed_entries(self, axes: int) -> int:
        """Coefficients of the full combination collapsed along its last ``axes`` axes."""
        leads = multi_indices(self.d - axes, self.max_level) if axes < self.d else [()]
        return sum(
            prod(self.ell << kj for kj in lead) * (self.ell << (self.max_level - sum(lead))) ** axes
            for lead in leads
        )

    def _scattered_axes(self, n: int) -> int:
        """Trailing axes that :meth:`eval_points` collapses for ``n`` points.

        The scattered kernel's work grows with the number of blocks, and each
        collapsed axis more leaves fewer, larger blocks.  Writing their
        entries costs about 100 ns each, which only more than one slab of
        points (a quarter of :data:`_LIFT_ENTRIES`) pays back; past that, the
        most axes whose collapsed entries stay within :data:`_LIFT_ENTRIES`.
        The choice depends on ``d``, ``ell``, ``max_level`` and ``n`` alone.
        """
        if n <= max(1, _LIFT_ENTRIES // (4 * self.ell**self.d)):
            return 1
        return max(c for c in range(1, self.d + 1) if c == 1 or self._collapsed_entries(c) <= _LIFT_ENTRIES)

    def eval_points(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.d:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.d}")
        blocks = self._collapsed(self._scattered_axes(points.shape[0]))
        return kernels.eval_blocks_at_points(points, blocks, piece_table(self.ell))

    def eval_on_axes(self, axes: Sequence[LatticeAxis]) -> np.ndarray:
        if len(axes) != self.d:
            raise ValueError(f"{len(axes)} axes for dimension {self.d}")
        xs = [a.points() for a in axes]
        return kernels.eval_blocks_on_grid(xs, self._collapsed(), self.ell, piece_table(self.ell))

    def __call__(self, x) -> float:
        pt = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, self.d)
        return float(self.eval_points(pt)[0])

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        entries = [
            {"k": list(k), "s": list(s), "c": c} for k, s, c in self.items()
        ]
        return {
            "d": self.d,
            "ell": self.ell,
            "m": self.max_level,
            "scheme_id": self.scheme_id,
            "entries": entries,
        }

    def write_json(self, fh) -> None:
        """Write the coefficient file to the open text file ``fh``:
        ``json.dumps(self.to_json(), indent=2) + "\\n"``, byte for byte,
        formatted block by block from :meth:`block_items`.

        ``indent`` turns off CPython's C encoder, so ``json.dumps`` would walk
        one dict per entry in pure Python; here the entries are joined as
        strings from a block's nonzero values and their row-major shifts, and
        written in runs of about ``kernels._SLAB_ENTRIES // 16`` numbers, so
        the text held at once grows with neither the file nor its largest
        block.  Values are ``float.__repr__``, except that non-finite ones
        take JSON's ``NaN``/``Infinity``/``-Infinity`` spelling.
        """
        sep = ",\n        "
        header = {"d": self.d, "ell": self.ell, "m": self.max_level, "scheme_id": self.scheme_id}
        fh.write(json.dumps(header, indent=2)[: -len("\n}")] + ',\n  "entries": [')  # open, after "scheme_id"
        lead = "\n"  # before the first entry; ",\n" before every later one
        step = max(1, kernels._SLAB_ENTRIES // (16 * (2 * self.d + 1)))  # an entry holds 2d + 1 numbers
        for k, C in self.block_items():
            head = f'    {{\n      "k": [\n        {sep.join(map(str, k))}\n      ],\n      "s": [\n        '
            digits = [list(map(str, range(n))) for n in C.shape]
            flat = np.flatnonzero(C)  # row-major, as np.nonzero in items()
            for start in range(0, len(flat), step):
                at = np.unravel_index(flat[start : start + step], C.shape)
                values = C[at]
                cells = list(map(float.__repr__, values.tolist()))
                if not np.isfinite(values).all():
                    cells = [_JSON_NONFINITE.get(c, c) for c in cells]
                shifts = zip(*([names[i] for i in s.tolist()] for names, s in zip(digits, at)))
                fh.write(lead + ",\n".join(
                    f'{head}{sep.join(s)}\n      ],\n      "c": {c}\n    }}' for s, c in zip(shifts, cells)))
                lead = ",\n"
        fh.write("]\n}\n" if lead == "\n" else "\n  ]\n}\n")

    @classmethod
    def from_json(cls, data: Mapping) -> "HierCoeffs":
        d = int(data["d"])
        ell = int(data["ell"])
        m = int(data["m"])
        blocks: dict[tuple[int, ...], np.ndarray] = {}
        for entry in data["entries"]:
            k = tuple(int(v) for v in entry["k"])
            if k not in blocks:
                blocks[k] = np.zeros(tuple(shifts_per_level(ell, kj) for kj in k))
            blocks[k][tuple(int(v) for v in entry["s"])] = float(entry["c"])
        return cls(d, ell, m, blocks, scheme_id=str(data.get("scheme_id", "")))


# ---------------------------------------------------------------------------
# coefficient functionals
# ---------------------------------------------------------------------------


def _taps(stencil: tuple[int, np.ndarray], shift: int = 0) -> list[tuple[int, float]]:
    """The nonzero taps ``(offset, weight)`` of a ``(lo, weights)`` stencil, in
    order, with every offset moved by ``shift``."""
    lo, weights = stencil
    return [(shift + lo + i, float(w)) for i, w in enumerate(weights) if w != 0.0]


def _periodic_filter(A: np.ndarray, axis: int, phases: Sequence[list[tuple[int, float]]], stride: int) -> np.ndarray:
    """``out[P*i + p] = sum over (o, w) in phases[p] of w * A[(stride*i + o) mod n]``
    along ``axis`` of length ``n``, for ``P = len(phases)`` and ``i < n / stride``,
    summed in list order onto zeros from strided slices of one wrap-padded copy of ``A``."""
    n = A.shape[axis]
    count = n // stride  # outputs per phase
    offsets = [o for taps in phases for o, _ in taps] or [0]
    lo, span = min(offsets), stride * (count - 1) + 1
    padded = np.take(A, np.arange(lo, max(offsets) + span) % n, axis=axis)  # padded[t] = A[(lo + t) mod n]
    out = np.zeros(A.shape[:axis] + (len(phases) * count,) + A.shape[axis + 1 :])
    lead = (slice(None),) * axis
    for p, taps in enumerate(phases):
        dst = out[lead + (slice(p, None, len(phases)),)]
        for o, w in taps:
            dst += w * padded[lead + (slice(o - lo, o - lo + span, stride),)]
    return out


def quasi_coeffs(scheme: QIScheme, cache: SampleCache, k: Sequence[int]) -> np.ndarray:
    """Plain quasi-interpolant coefficients of ``f`` on the level-``k`` lattice."""
    F = cache.lattice_values(k)
    for axis in range(len(k)):
        F = _periodic_filter(F, axis, [_taps(scheme.stencil_lambda)], 1)
    return F


def block_coeffs(scheme: QIScheme, cache: SampleCache, k: Sequence[int]) -> np.ndarray:
    """Detail coefficients of block ``k``: one stencil filter per axis.

    Axes at level 0 carry the plain mask stencil; finer axes carry the even
    detail stencil at even shift indices and the odd one at odd indices.
    """
    F = cache.lattice_values(k)
    for axis, kj in enumerate(k):
        if kj == 0:
            F = _periodic_filter(F, axis, [_taps(scheme.stencil_lambda)], 1)
        else:
            F = _periodic_filter(F, axis, [_taps(scheme.stencil_even), _taps(scheme.stencil_odd, 1)], 2)
    return F


def _refine_axis(A: np.ndarray, axis: int, ell: int) -> np.ndarray:
    # Re-express level-(k-1) coefficients on level k through the two-scale
    # identity of the cardinal spline (periodic indices wrap):
    #   out[2i + p] = sum over j = p, p + 2, ... <= ell of
    #                 comb(ell, j) / 2**(ell - 1) * A[i - (j - p) / 2],
    # summed in increasing j.
    scale = 2.0 ** (1 - ell)
    phases = [[((p - j) // 2, scale * comb(ell, j)) for j in range(p, ell + 1, 2)] for p in (0, 1)]
    return _periodic_filter(A, axis, phases, 1)


def block_coeffs_oracle(scheme: QIScheme, cache: SampleCache, k: Sequence[int]) -> np.ndarray:
    """Detail coefficients of block ``k`` via quasi-interpolant differences.

    Expands the per-axis difference of consecutive-level operators with
    inclusion-exclusion and lifts every coarse term to level ``k`` through
    the refinement identity.  Independent of the derived detail symbols.
    """
    k = tuple(int(v) for v in k)
    d = len(k)
    total = np.zeros(tuple(shifts_per_level(scheme.ell, kj) for kj in k))
    for delta in itertools.product((0, 1), repeat=d):
        coarse = tuple(kj - dj for kj, dj in zip(k, delta))
        if any(v < 0 for v in coarse):
            continue  # the level below 0 is the zero operator
        A = quasi_coeffs(scheme, cache, coarse)
        for axis, dj in enumerate(delta):
            if dj:
                A = _refine_axis(A, axis, scheme.ell)
        if sum(delta) % 2:
            total -= A
        else:
            total += A
    return total


def _axis_operator(scheme: QIScheme, kj: int, sj: int) -> list[tuple[int, float]]:
    # literal composition: reduced detail symbol applied after the order-ell
    # difference for fine axes, the plain mask symbol at level 0
    if kj == 0:
        return _taps(scheme.stencil_lambda)
    star = scheme.stencil_even_star if sj % 2 == 0 else scheme.stencil_odd_star
    return [(a + b, wa * wb) for a, wa in _taps(star) for b, wb in _taps(scheme.stencil_delta)]


def detail_coeff(scheme: QIScheme, k: Sequence[int], s: Sequence[int], f) -> float:
    """Single detail coefficient, axis-sequential scalar evaluation."""
    k = tuple(int(v) for v in k)
    s = tuple(int(v) for v in s)
    d = len(k)
    if len(s) != d:
        raise ValueError("level and shift vectors must have equal length")
    for kj, sj in zip(k, s):
        if not 0 <= sj < shifts_per_level(scheme.ell, kj):
            raise ValueError(f"shift {sj} out of range at level {kj}")
    ops = [_axis_operator(scheme, kj, sj) for kj, sj in zip(k, s)]
    Ls = [shifts_per_level(scheme.ell, kj) for kj in k]
    batch = as_batch_function(f, d)

    points: list[list[float]] = []
    weights: list[float] = []
    for combo in itertools.product(*ops):
        w = 1.0
        pt = []
        for (e, we), sj, L in zip(combo, s, Ls):
            w *= we
            pt.append((sj + e) / L)  # int / int: the correctly rounded point
        weights.append(w)
        points.append(pt)
    if not points:  # a zero detail symbol (e.g. odd shifts of the order-2 scheme)
        return 0.0
    vals = np.asarray(batch(np.array(points, dtype=np.float64)), dtype=np.float64)
    return float(np.dot(weights, vals))


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------


def decompose(scheme: QIScheme, f, m: int, d: int, *, cache: SampleCache | None = None) -> HierCoeffs:
    """Hierarchical coefficients of ``f`` for all blocks with |k|_1 <= m.

    Function values are fetched through a memoizing sample cache; pass one in
    to share samples across calls (the grids are nested in ``m``).
    """
    if m < 0:
        raise ValueError(f"max level must be >= 0, got {m}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if cache is None:
        cache = SampleCache(f, scheme.ell, d)
    blocks = {k: block_coeffs(scheme, cache, k) for k in multi_indices(d, m)}
    return HierCoeffs(d, scheme.ell, m, blocks, scheme_id=scheme.scheme_id)
