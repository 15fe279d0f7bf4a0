"""Quasi-interpolation schemes and hierarchical spline coefficients.

A scheme is defined by an even spline order ``ell`` and a finite symmetric
mask.  The mask induces a local operator that reproduces all polynomials of
degree below ``ell``; its symbol, an exact rational Laurent polynomial, is
split at build time into the even/odd detail symbols whose shift operators
compute hierarchical coefficients directly from point samples.  Build-time
validation is exact: the detail symbols must factor through ``(z - 1)**ell``
and polynomial reproduction is checked in rational arithmetic, so an invalid
mask is rejected deterministically.

Three independent code paths produce detail coefficients:

* :func:`detail_coeff` - literal per-axis composition of the reduced symbol
  with the order-``ell`` difference operator (scalar, used for spot checks);
* :func:`block_coeffs` - the same functionals applied as periodic stencil
  correlations over a whole lattice at once (the production path);
* :func:`block_coeffs_oracle` - differences of plain quasi-interpolants
  re-expanded one level down through the spline refinement identity.

Their agreement is a core test of the package.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .bspline import (
    InvalidOrder,
    cardinal_spline,
    eval_cardinal_exact,
    mesh_size,
    piece_table,
    shifts_per_level,
)
from .kernels import eval_blocks_at_points, eval_blocks_on_grid
from .laurent import LaurentPoly, NotDivisible, float_stencil

__all__ = [
    "NotAQuasiInterpolant",
    "MissingSamples",
    "QIScheme",
    "HierCoeffs",
    "SampleCache",
    "block_positions",
    "BUILTIN_MASKS",
    "build_scheme",
    "builtin_scheme",
    "multi_indices",
    "a_coeff",
    "detail_coeff",
    "detail_coeff_oracle",
    "block_coeffs",
    "block_coeffs_oracle",
    "quasi_coeffs",
    "decompose",
    "as_batch_function",
]


class NotAQuasiInterpolant(ValueError):
    """The mask does not reproduce all polynomials of degree < ell."""


class MissingSamples(ValueError):
    """A required grid sample is absent from the supplied value map."""

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


def _reproduces_polynomials(ell: int, lam: Mapping[int, Fraction], mu: int) -> bool:
    # Exact check on one mesh cell of the non-periodic operator; translation
    # invariance extends equality to the whole line.
    half = ell // 2
    for degree in range(ell):
        for t in range(ell + 1):
            x = Fraction(t, ell + 1)
            total = Fraction(0)
            for s in range(-ell, 1):
                weight = eval_cardinal_exact(ell, x - s)
                if weight == 0:
                    continue
                lam_val = Fraction(0)
                for j in range(-mu, mu + 1):
                    lam_val += lam[j] * Fraction(s - j + half) ** degree
                total += lam_val * weight
            if total != x**degree:
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
            detail symbols do not factor through ``(z-1)**ell``, or the exact
            reproduction check fails).
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
    lam = {j - mu: c for j, c in enumerate(row)}

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
    if not _reproduces_polynomials(ell, lam, mu):
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

    Accepts objects with an ``eval_points`` method, numpy-vectorized
    callables (``f(x)`` on an ``(n,)`` array for ``d == 1`` or on an
    ``(n, d)`` array otherwise), and plain scalar callables.
    """
    if hasattr(f, "eval_points"):
        return lambda P: np.asarray(f.eval_points(P), dtype=np.float64)

    def batched(P: np.ndarray) -> np.ndarray:
        n = P.shape[0]
        # trust a vectorized result only when the batch shape is unambiguous
        # (an (n, d) batch with n == d could alias a per-row convention)
        if d == 1 or n != d:
            try:
                out = np.asarray(f(P[:, 0] if d == 1 else P), dtype=np.float64)
                if out.shape == (n,):
                    return out
            except (TypeError, ValueError, IndexError):
                pass
        return np.array([float(f(row[0] if d == 1 else row)) for row in P])

    return batched


def block_positions(ell: int, a: int, k: int) -> np.ndarray:
    """Positions ``i`` (points ``i / (ell * 2**k)``) of block level ``a <= k`` on
    the level-``k`` axis lattice: the level-0 lattice for ``a = 0``, else the
    points new at level ``a``, the odd multiples of its mesh."""
    if a == 0:
        return np.arange(ell, dtype=np.int64) << k
    return np.arange(1, ell << a, 2, dtype=np.int64) << (k - a)


class SampleCache:
    """Memoizing store of torus samples, one frozen array per hierarchical block.

    Block ``a`` holds the points whose minimal per-axis levels are exactly
    ``a``; the level-``k`` lattice is the union of the blocks ``a <= k``.  A
    missing block is fetched once, from its own points only, and then reused
    everywhere, so the stored values do not depend on the order in which
    lattices are visited.
    """

    def __init__(self, f, ell: int, d: int):
        self.ell = ell
        self.d = d
        self._blocks: dict[tuple[int, ...], np.ndarray] = {}
        # value-table source: block -> block-local index of its first absent point
        self._absent: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._batch = None if f is None else as_batch_function(f, d)
        self._grid = getattr(f, "eval_on_axes", None)
        self.evaluations = 0

    @classmethod
    def from_values(cls, values: Mapping[tuple[Fraction, ...], float], ell: int, d: int) -> "SampleCache":
        """A cache reading a map from exact points to samples; keys that are not
        points of a dyadic lattice in ``[0, 1)**d`` are ignored."""
        keys, vals, scale = [], [], 1
        for key, val in values.items():
            key = tuple(Fraction(c) for c in key)
            # c lies on the level-a lattice iff (c * ell).denominator divides 2**a
            qs = [(c * ell).denominator for c in key]
            if len(key) == d and all(0 <= c < 1 and q & (q - 1) == 0 for c, q in zip(key, qs)):
                keys.append(key)
                vals.append(float(val))
                scale = max(scale, *qs)
        index = [[int(c * ell * scale) for c in key] for key in keys]
        return cls.from_lattice(index, scale.bit_length() - 1, vals, ell, d)

    @classmethod
    def from_lattice(cls, index, level: int, values, ell: int, d: int) -> "SampleCache":
        """A cache reading samples at the points ``index / (ell * 2**level)``, for
        ``(n, d)`` integer positions in ``[0, ell * 2**level)``; a repeated
        position keeps its last value."""
        index = np.asarray(index, dtype=np.int64).reshape(-1, d)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        _, last = np.unique(index[::-1], axis=0, return_index=True)
        keep = len(index) - 1 - last
        index, values = index[keep], values[keep]
        # block level per axis: level minus the trailing zero bits of the
        # position (frexp of its lowest set bit), 0 on multiples of 2**level
        a = np.where(index % (1 << level) == 0, 0, level + 1 - np.frexp(index & -index)[1])
        local = index >> (level - a + (a > 0))
        cache = cls(None, ell, d)
        levels, group = np.unique(a, axis=0, return_inverse=True)
        for g, lev in enumerate(map(tuple, levels.tolist())):
            rows = group.reshape(-1) == g
            at = tuple(local[rows].T)
            block = np.zeros(cache._shape(lev))
            block[at] = values[rows]
            absent = np.ones(block.shape, dtype=bool)
            absent[at] = False
            if absent.any():
                cache._absent[lev] = tuple(np.argwhere(absent)[0].tolist())
            else:
                block.flags.writeable = False
                cache._blocks[lev] = block
        return cache

    def _shape(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple(self.ell << max(aj - 1, 0) for aj in a)

    def _ix(self, a: Sequence[int], k: Sequence[int]):
        return np.ix_(*(block_positions(self.ell, aj, kj) for aj, kj in zip(a, k)))

    def lattice_values(self, k: Sequence[int]) -> np.ndarray:
        out = np.empty(tuple(self.ell << kj for kj in k), dtype=np.float64)
        for a in itertools.product(*(range(kj + 1) for kj in k)):
            block = self._blocks.get(a)
            if block is None:  # publish whole blocks only: a racing reader never sees a partial one
                block = self._blocks.setdefault(a, self._fetch(a))
            out[self._ix(a, k)] = block
        return out

    def _fetch(self, a: tuple[int, ...]) -> np.ndarray:
        # the samples of block a, from its own points only
        pos = [block_positions(self.ell, aj, aj) for aj in a]
        if self._batch is None:
            first = self._absent.get(a, (0,) * self.d)
            raise MissingSamples(
                tuple(Fraction(int(p[i]), self.ell << aj) for p, i, aj in zip(pos, first, a))
            )
        axes = [p / (self.ell << aj) for p, aj in zip(pos, a)]
        if self._grid is not None:
            block = self._grid(axes)
        else:
            block = self._batch(np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.d))
        block = np.array(block, dtype=np.float64).reshape(self._shape(a))
        block.flags.writeable = False
        self.evaluations += block.size
        return block

    def __len__(self) -> int:
        return sum(block.size for block in self._blocks.values())

    def sample_map(self) -> dict[tuple[Fraction, ...], float]:
        """The stored samples keyed by exact coordinates, for export and re-recovery."""
        out: dict[tuple[Fraction, ...], float] = {}
        for a, block in self._blocks.items():
            axes = [
                [Fraction(t, self.ell << aj) for t in block_positions(self.ell, aj, aj).tolist()]
                for aj in a
            ]
            out.update(zip(itertools.product(*axes), block.ravel().tolist()))
        return out


# ---------------------------------------------------------------------------
# hierarchical coefficients
# ---------------------------------------------------------------------------


class HierCoeffs:
    """Sparse hierarchical representation: block level -> coefficient array.

    ``blocks[k]`` holds the coefficients of all shifts at level vector ``k``
    as a dense array of shape ``(ell * 2**k[0], ..., ell * 2**k[d-1])``.
    Built single-writer, then treated as immutable.
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

    def block(self, k: Sequence[int]) -> np.ndarray | None:
        return self._blocks.get(tuple(k))

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

    def eval_points(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.shape[1] != self.d:
            raise ValueError(f"points have dimension {points.shape[1]}, expected {self.d}")
        return eval_blocks_at_points(points, self.block_items(), piece_table(self.ell))

    def eval_on_axes(self, axes: Sequence[np.ndarray]) -> np.ndarray:
        if len(axes) != self.d:
            raise ValueError(f"{len(axes)} axes for dimension {self.d}")
        return eval_blocks_on_grid(axes, self.block_items(), self.ell, piece_table(self.ell))

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


def _axis_correlate(F: np.ndarray, axis: int, lo: int, weights: np.ndarray) -> np.ndarray:
    # out[s] = sum_i weights[i] * F[(s + lo + i) mod L] along the given axis
    out = np.zeros_like(F)
    for i, w in enumerate(weights):
        if w != 0.0:
            out += w * np.roll(F, -(lo + i), axis=axis)
    return out


def quasi_coeffs(scheme: QIScheme, cache: SampleCache, k: Sequence[int]) -> np.ndarray:
    """Plain quasi-interpolant coefficients of ``f`` on the level-``k`` lattice."""
    F = cache.lattice_values(k)
    for axis in range(len(k)):
        F = _axis_correlate(F, axis, *scheme.stencil_lambda)
    return F


def block_coeffs(scheme: QIScheme, cache: SampleCache, k: Sequence[int]) -> np.ndarray:
    """Detail coefficients of block ``k``: stencil correlations per axis.

    Axes at level 0 carry the plain mask stencil; finer axes carry the even
    or odd detail stencil according to the parity of the shift index.
    """
    F = cache.lattice_values(k)
    for axis, kj in enumerate(k):
        if kj == 0:
            F = _axis_correlate(F, axis, *scheme.stencil_lambda)
        else:
            even = _axis_correlate(F, axis, *scheme.stencil_even)
            odd = _axis_correlate(F, axis, *scheme.stencil_odd)
            sel = [slice(None)] * F.ndim
            sel[axis] = slice(1, None, 2)
            even[tuple(sel)] = odd[tuple(sel)]
            F = even
    return F


def _refine_axis(A: np.ndarray, axis: int, ell: int) -> np.ndarray:
    # Re-express level-(k-1) coefficients on level k through the two-scale
    # identity of the cardinal spline (periodic indices wrap).
    L = 2 * A.shape[axis]
    shape = list(A.shape)
    shape[axis] = L
    up = np.zeros(shape, dtype=np.float64)
    sel = [slice(None)] * A.ndim
    sel[axis] = slice(0, None, 2)
    up[tuple(sel)] = A
    scale = 2.0 ** (1 - ell)
    out = np.zeros_like(up)
    for j in range(ell + 1):
        out += (scale * comb(ell, j)) * np.roll(up, j, axis=axis)
    return out


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


def a_coeff(scheme: QIScheme, k: int, s: int, f) -> float:
    """Univariate quasi-interpolant coefficient ``Lambda(f, s)`` at level ``k``."""
    if not 0 <= s < shifts_per_level(scheme.ell, k):
        raise ValueError(f"shift {s} out of range at level {k}")
    h = mesh_size(scheme.ell, k)
    half = scheme.ell // 2
    batch = as_batch_function(f, 1)
    pts = np.array(
        [[float(h * (s - j + half))] for j in range(-scheme.mu, scheme.mu + 1)]
    )
    vals = batch(pts)
    weights = np.array([float(scheme.lam[j + scheme.mu]) for j in range(-scheme.mu, scheme.mu + 1)])
    return float(weights @ vals)


def _axis_operator(scheme: QIScheme, kj: int, sj: int) -> list[tuple[int, float]]:
    # literal composition: reduced detail symbol applied after the order-ell
    # difference for fine axes, the plain mask symbol at level 0
    if kj == 0:
        lo, w = scheme.stencil_lambda
        return [(lo + i, float(wi)) for i, wi in enumerate(w) if wi != 0.0]
    star_lo, star_w = scheme.stencil_even_star if sj % 2 == 0 else scheme.stencil_odd_star
    delta_lo, delta_w = scheme.stencil_delta
    pairs = []
    for i, wi in enumerate(star_w):
        if wi == 0.0:
            continue
        for j, wj in enumerate(delta_w):
            if wj != 0.0:
                pairs.append((star_lo + i + delta_lo + j, float(wi) * float(wj)))
    return pairs


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
    hs = [mesh_size(scheme.ell, kj) for kj in k]
    base = [sj * h for sj, h in zip(s, hs)]
    batch = as_batch_function(f, d)

    points: list[list[float]] = []
    weights: list[float] = []
    for combo in itertools.product(*ops):
        w = 1.0
        pt = []
        for (e, we), b, h in zip(combo, base, hs):
            w *= we
            pt.append(float(b + e * h))
        weights.append(w)
        points.append(pt)
    if not points:  # a zero detail symbol (e.g. odd shifts of the order-2 scheme)
        return 0.0
    vals = batch(np.array(points, dtype=np.float64))
    return float(np.dot(weights, vals))


def detail_coeff_oracle(scheme: QIScheme, k: Sequence[int], s: Sequence[int], f, cache: SampleCache | None = None) -> float:
    """Single detail coefficient via the refinement-expansion oracle."""
    k = tuple(int(v) for v in k)
    if cache is None:
        cache = SampleCache(f, scheme.ell, len(k))
    return float(block_coeffs_oracle(scheme, cache, k)[tuple(int(v) for v in s)])


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
