"""Measurement instruments: torus norms, block norms, rate fits.

Integral norms on the torus use the uniform tensor lattice (the trapezoid
rule collapses to the lattice mean for periodic integrands) for dimension up
to three, and above that a deterministic rank-1 lattice rule with n = largest
prime <= resolution (fast CBC generator, Nuyens & Cools, Math. Comp. 2006).
Reductions run in a fixed chunking order, so repeated runs give identical values.
A single spline needs no lattice: :func:`spline_norm` is its exact norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import inf, isinf, isqrt, pi
from typing import Mapping, Sequence

import numpy as np

from .bspline import cardinal_norm, piece_table
from . import kernels
from .quasi_interp import HierCoeffs, LatticeAxis, as_batch_function, grid_values
from .testfuncs import TrigFunction

__all__ = [
    "ResolutionTooLow",
    "LatticeTooLarge",
    "DegenerateFit",
    "RateFit",
    "FieldDifference",
    "LatticeField",
    "check_size",
    "checked_resolution",
    "default_resolution",
    "sweep_field",
    "lq_norm",
    "recovery_error",
    "spline_norm",
    "sobolev_norm_fourier",
    "lp_block_norm",
    "fit_rate",
]

class ResolutionTooLow(ValueError):
    """Quadrature resolution below the aliasing guard for the level measured."""


class LatticeTooLarge(ValueError):
    """An array of more than ``MAX_LATTICE_POINTS`` entries (:func:`check_size`)."""


class DegenerateFit(ValueError):
    """Rate fit impossible: too few levels or errors that do not decay."""


# Most entries of any array a command sizes from its input (quadrature,
# rank-1 and evaluation lattices, sample grids, fixture boxes, witness
# blocks, the grid kernel's largest basis matrix), 2**27: a 512**3 lattice
# fits.  Its float64 values take 1 GiB.
# Peak traced bytes (tracemalloc) per lattice point: 11.8 for a d = 3
# witness norm at 128**3 (the grid kernel's output, which takes its products
# in slabs, its partial fields and the basis matrices in use), so some
# 1.5 GiB at the limit; 20 for a d = 3 recovery error at 128**3, where the
# fixture's real values hold 8 more while the combination is evaluated, and
# the difference is taken in place.  A d > 3 rank-1 lattice counts 8 entries
# per point for its generator's search (64 traced bytes per point at
# n = 199 999 and 1 999 993, d = 4), or its d coordinates when d > 8.
MAX_LATTICE_POINTS = 1 << 27


def check_size(entries: int, what: str) -> None:
    """Raise :class:`LatticeTooLarge` for an array, described by ``what``, of more
    than ``MAX_LATTICE_POINTS`` entries, counted before anything is allocated."""
    if entries > MAX_LATTICE_POINTS:
        raise LatticeTooLarge(f"{what} exceeds the limit of {MAX_LATTICE_POINTS} entries")


@dataclass(frozen=True)
class RateFit:
    """Fitted decay model ``error(m) ~ C * 2**(-rho*m) * m**beta``."""

    rho: float
    beta: float
    C: float
    residual: float
    range: tuple[int, int]
    model: str

    def to_json(self) -> dict:
        return {
            "rho": self.rho,
            "beta": self.beta,
            "C": self.C,
            "residual": self.residual,
            "range": list(self.range),
            "model": self.model,
        }


# ---------------------------------------------------------------------------
# fields and quadrature
# ---------------------------------------------------------------------------


class FieldDifference:
    """Pointwise difference of two torus fields (e.g. f minus its recovery)."""

    def __init__(self, a, b, d: int | None = None):
        d = d if d is not None else getattr(a, "d", getattr(b, "d", None))
        if d is None:
            raise ValueError("cannot infer dimension; pass d explicitly")
        self.d = d
        self._a, self._b = a, b

    def eval_points(self, P):
        P = np.asarray(P, dtype=np.float64)
        return as_batch_function(self._a, self.d)(P) - as_batch_function(self._b, self.d)(P)

    def eval_on_axes(self, axes):
        a = grid_values(self._a, self.d, axes)
        b = grid_values(self._b, self.d, axes)
        if isinstance(self._b, HierCoeffs) and np.result_type(a, b) == b.dtype:
            # a recovery's grid values are a fresh array: take the difference
            # in it, with the bits of a - b, and make no third grid
            return np.subtract(a, b, out=b)
        return a - b


def default_resolution(d: int, m: int) -> int:
    """Points per axis (d <= 3) or rank-1 lattice size bound (d > 3) for level-m residuals."""
    if d <= 2:
        return 2 ** (m + 3)
    if d == 3:
        return 2 ** (m + 2)
    return 200_000


def _power_mean_norm(values: np.ndarray, q: float) -> float:
    """``(mean |v|**q)**(1/q)``, or ``max |v|`` at ``q = inf``, with no temporary
    the size of real ``values``: ``q = 2`` is one dot product, and other ``q``
    are summed in slabs of ``kernels._SLAB_ENTRIES`` entries."""
    v = np.ravel(values)
    if np.iscomplexobj(v):
        v = np.abs(v)
    if isinf(q):
        return float(np.maximum(v.max(), -v.min()))
    if q == 2:
        return float(np.sqrt(np.vdot(v, v) / v.size))
    total, step = 0.0, kernels._SLAB_ENTRIES
    for lo in range(0, v.size, step):
        total += float(np.sum(np.abs(v[lo : lo + step]) ** q))
    return (total / v.size) ** (1.0 / q)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % t for t in range(2, isqrt(p) + 1))


@lru_cache(maxsize=None)
def _cbc_generator(n: int, d: int) -> tuple[int, ...]:
    """Rank-1 lattice generator for prime ``n`` by fast CBC (``z_1 = 1``, unit weights):
    each component minimises the worst-case error in the Korobov space of smoothness
    one.  Indexing the units mod ``n`` by powers of a primitive root ``g`` makes the
    search over all candidates one cyclic cross-correlation, done by FFT."""
    # the prime factors of n - 1, by trial division up to its square root
    divisors = [t for t in range(1, isqrt(n - 1) + 1) if (n - 1) % t == 0]
    factors = [p for t in divisors for p in (t, (n - 1) // t) if _is_prime(p)]
    g = next(g for g in range(1, n) if all(pow(g, (n - 1) // t, n) != 1 for t in factors))
    # powers[a] = g**a mod n, doubled by one int64 product per step; the
    # products stay below n**2, which int64 holds for every n < 2**31
    powers = np.ones(n - 1, dtype=np.int64)
    a = 1
    while a < n - 1:
        powers[a : 2 * a] = powers[: min(a, n - 1 - a)] * pow(g, a, n) % n
        a *= 2
    t = powers / n
    omega = 2 * pi**2 * (t * t - t + 1 / 6)  # kernel term at g**a / n
    del powers, t
    prod = 1.0 + omega  # product over the chosen components at the point i = g**a
    z = [1]
    fft_omega = np.conj(np.fft.fft(omega))
    for _ in range(1, d):
        # entry b: sum_a prod[a] * omega[a - b], the criterion for z = g**(-b)
        b = int(np.argmin(np.fft.ifft(np.fft.fft(prod) * fft_omega).real))
        z.append(pow(g, -b % (n - 1), n))
        prod = prod * (1.0 + np.roll(omega, b))
    return tuple(z)


def checked_resolution(d: int, resolution: int | None, min_level: int | None) -> int:
    """The resolution :func:`lq_norm` measures at: ``resolution``, or the
    default for ``min_level`` (level 4 when unset), once it passes the guards
    that :func:`lq_norm` documents."""
    if resolution is None:
        resolution = default_resolution(d, min_level if min_level is not None else 4)
    if min_level is not None and d <= 3 and resolution < 2 ** (min_level + 2):
        raise ResolutionTooLow(
            f"resolution {resolution} per axis is below 2**(m+2) = {2 ** (min_level + 2)}"
            f" required for level-{min_level} residuals"
        )
    if d <= 3:
        check_size(resolution**d, f"a quadrature lattice of {resolution}**{d} = {resolution**d} points")
    if d > 3 and resolution < 2:
        raise ResolutionTooLow(f"a rank-1 lattice needs resolution >= 2, got {resolution}")
    if d > 3:
        per = max(d, 8)  # the generator's search, or the lattice's coordinates
        check_size(resolution * per, f"a rank-1 lattice of {resolution}*{per} = {resolution * per} entries")
    return resolution


def lq_norm(
    f, q: float, d: int, resolution: int | None = None, *, min_level: int | None = None
) -> float:
    """Integral quasi-norm of a torus function.

    ``f`` may be a callable, an object with ``eval_on_axes``/``eval_points``
    (hierarchical combinations, trigonometric polynomials, field
    differences), and ``q = inf`` returns the max over the point set: the
    tensor lattice with ``resolution`` points per axis for ``d <= 3``, else a
    deterministic rank-1 lattice of n = largest prime <= ``resolution`` points.

    ``min_level`` arms the aliasing guard: when measuring residuals of a
    level-``m`` recovery the lattice must have at least ``2**(m+2)`` points
    per axis.

    Raises:
        ResolutionTooLow: the guard is armed and the resolution is below it,
            or ``d > 3`` and the resolution is below 2.
        LatticeTooLarge: ``resolution**d`` (``d <= 3``), or the
            ``resolution * max(d, 8)`` entries of the rank-1 lattice and its
            generator (``d > 3``), exceed ``MAX_LATTICE_POINTS``; raised
            before anything is allocated.
    """
    if not (q > 1):
        raise ValueError(f"need q > 1, got {q}")
    resolution = checked_resolution(d, resolution, min_level)
    if d <= 3:
        return _power_mean_norm(grid_values(f, d, [LatticeAxis(0, 1, resolution)] * d), q)
    n = next(p for p in range(resolution, 1, -1) if _is_prime(p))
    # (i * z_j mod n) / n in place, one float64 entry per coordinate: the
    # products stay below n**2, which float64 holds exactly for n < 2**26
    points = np.multiply.outer(np.arange(n, dtype=np.float64), _cbc_generator(n, d))
    np.remainder(points, n, out=points)
    points /= n
    return _power_mean_norm(as_batch_function(f, d)(points), q)


class LatticeField:
    """A torus function evaluated once on the lattice ``(i/N)**d`` and read
    back on its sub-lattices.

    :meth:`eval_on_axes` returns a read-only strided view of the stored
    values when every axis lies on ``i/N`` (:meth:`LatticeAxis.within`).
    Any other grid, and every scattered point, is evaluated by ``f`` itself.
    A view differs from a fresh evaluation of ``f`` on the same points by
    rounding only (the lattice transforms have other lengths).
    """

    def __init__(self, f, d: int, N: int):
        self.d, self.N, self._f = d, N, f
        self._values = grid_values(f, d, [LatticeAxis(0, 1, N)] * d)
        self._values.flags.writeable = False

    def eval_on_axes(self, axes: Sequence[LatticeAxis]) -> np.ndarray:
        index = tuple(a.within(self.N) for a in axes)
        if len(axes) != self.d or None in index:
            return grid_values(self._f, self.d, axes)
        return self._values[index]

    def eval_points(self, P) -> np.ndarray:
        return as_batch_function(self._f, self.d)(np.asarray(P, dtype=np.float64))


def sweep_field(f, d: int, m: int, resolution: int | None = None):
    """``f`` as a level sweep up to ``m`` reads it, for sampling and for
    :func:`recovery_error`.

    For ``d <= 3`` that is a :class:`LatticeField` on the level-``m``
    quadrature lattice of ``N = resolution`` (default
    ``default_resolution(d, m)``) points per axis.  The coarser levels'
    lattices divide it, and so does every sample grid of order ``ell`` when
    ``ell * 2**m`` divides ``N``, as it does at the default resolution for
    orders 2 and 4; other sample blocks are evaluated by ``f``.  For
    ``d > 3`` the norms use rank-1 lattices and ``f`` is returned unchanged.
    The resolution passes the guards of :func:`lq_norm` at level ``m``
    first, so ``ResolutionTooLow`` and ``LatticeTooLarge`` are raised
    before anything is evaluated.
    """
    resolution = checked_resolution(d, resolution, m)
    return LatticeField(f, d, resolution) if d <= 3 else f


def recovery_error(f, hc: HierCoeffs, q: float, resolution: int | None = None) -> float:
    """L_q distance between ``f`` and the recovered combination ``hc``, with
    the guard and default lattice of :func:`lq_norm` at level ``hc.max_level``."""
    return lq_norm(FieldDifference(f, hc, d=hc.d), q, hc.d, resolution, min_level=hc.max_level)


def spline_norm(hc: HierCoeffs, q: float) -> float:
    """Exact L_q norm of a combination with exactly one nonzero coefficient.

    ``c * N_(k,s)`` has norm ``|c| * prod_j ||M||_q * (ell * 2**k_j)**(-1/q)``
    (``1/q = 0`` at ``q = inf``) for every shift ``s``: since
    ``ell * 2**k_j >= ell``, a periodic dilate never overlaps itself.

    Raises:
        ValueError: ``hc`` has no nonzero coefficient, or more than one.
    """
    if hc.num_entries() != 1:
        raise ValueError(f"a closed-form norm needs exactly one nonzero coefficient, got {hc.num_entries()}")
    ((k, _, c),) = hc.items()
    inv_q = 0.0 if isinf(q) else 1.0 / q
    norm = abs(c) * cardinal_norm(hc.ell, q) ** hc.d
    for kj in k:
        norm *= (hc.ell << kj) ** -inv_q
    return norm


# ---------------------------------------------------------------------------
# Fourier-side Sobolev norm (exact, p = 2)
# ---------------------------------------------------------------------------


def sobolev_norm_fourier(f: TrigFunction, r: float) -> float:
    """Mixed Sobolev norm of a trigonometric polynomial (p = 2), exact from
    its coefficients: ``sqrt(sum_s |C_s|**2 * prod_j (1 + s_j**2)**r)``."""
    weight = np.ones(())
    for a in f.freq_axes:
        weight = np.multiply.outer(weight, (1.0 + a.astype(np.float64) ** 2) ** r)
    return float(np.sqrt(np.sum(np.abs(f.C) ** 2 * weight)))


# ---------------------------------------------------------------------------
# block norms
# ---------------------------------------------------------------------------


def lp_block_norm(hc: HierCoeffs, r: float, p: float, *, resolution: int | None = None) -> float:
    """L_p norm of the level-weighted square function of the blocks of ``hc``.

    Forms ``sqrt(sum_k |2**(r|k|) q_k|**2)`` pointwise over the detail blocks
    ``q_k`` of ``hc`` and integrates on the quadrature lattice of
    :func:`lq_norm` at level ``hc.max_level``.  For the blocks of ``f`` up to
    level ``m``, pass ``decompose(scheme, f, m, d)``.

    Raises:
        ValueError: ``p`` outside (1, inf), or ``hc.d > 3``.
        ResolutionTooLow, LatticeTooLarge: the guards of :func:`lq_norm`,
            raised before any block is evaluated.
    """
    if not (1 < p < inf):
        raise ValueError(f"need p in (1, inf), got {p}")
    if hc.d > 3:
        raise ValueError("block norms are quadrature-based and limited to d <= 3")
    resolution = checked_resolution(hc.d, resolution, hc.max_level)
    axes = [LatticeAxis(0, 1, resolution).points()] * hc.d
    table = piece_table(hc.ell)
    square = 0.0
    for k, C in hc.block_items():
        field = kernels.eval_blocks_on_grid(axes, [(k, C)], hc.ell, table)
        square = square + (4.0 ** (r * sum(k))) * field * field
    return _power_mean_norm(np.sqrt(square), p)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def fit_rate(
    errors: Mapping[int, float],
    model: str = "dyadic_logpow",
    *,
    drop_lowest: int | None = None,
) -> RateFit:
    """Least-squares fit of ``log2 error`` against ``m`` (and ``log2 m``).

    ``model`` is ``"pure_dyadic"`` (no log-power term) or ``"dyadic_logpow"``
    with ``beta`` free.  By default the two smallest levels are dropped as
    pre-asymptotic, but never below the four levels a fit requires.

    Raises:
        DegenerateFit: fewer than four levels (after dropping), any
            non-positive or non-finite error, or an error sequence that
            never decays.
    """
    if model not in ("pure_dyadic", "dyadic_logpow"):
        raise ValueError(f"unknown model {model!r}")
    ms = np.array(sorted(errors), dtype=np.float64)
    errs = np.array([errors[int(mv)] for mv in ms], dtype=np.float64)
    if ms.size < 4:
        raise DegenerateFit(f"need at least 4 levels, got {ms.size}")
    if not np.all((errs > 0) & np.isfinite(errs)):
        raise DegenerateFit("errors must be positive and finite")
    drop = min(2, ms.size - 4) if drop_lowest is None else int(drop_lowest)
    if ms.size - drop < 4:
        raise DegenerateFit(f"only {ms.size - drop} levels left after dropping {drop}")
    ms = ms[drop:]
    errs = errs[drop:]
    if np.all(np.diff(errs) >= 0):
        raise DegenerateFit("errors are non-decreasing over the fitted range")

    free_beta = model == "dyadic_logpow"
    if free_beta and ms[0] < 1:
        raise ValueError("log-power fit needs levels m >= 1")
    cols = [np.ones_like(ms), -ms]
    if free_beta:
        cols.append(np.log2(ms))
    sol, *_ = np.linalg.lstsq(np.stack(cols, axis=1), np.log2(errs), rcond=None)
    C, rho = float(2.0 ** float(sol[0])), float(sol[1])
    beta = float(sol[2]) if free_beta else 0.0
    residual = float(np.max(np.abs(errs / (C * 2.0 ** (-rho * ms) * ms**beta) - 1.0)))
    return RateFit(
        rho=rho,
        beta=beta,
        C=C,
        residual=residual,
        range=(int(ms[0]), int(ms[-1])),
        model="dyadic_logpow(free)" if free_beta else model,
    )
