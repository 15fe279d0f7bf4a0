"""Measurement instruments: torus norms, block norms, differences, rate fits.

Integral norms on the torus use the uniform tensor lattice (the trapezoid
rule collapses to the lattice mean for periodic integrands) for dimension up
to three, and above that a deterministic rank-1 lattice rule with n = largest
prime <= resolution (fast CBC generator, Nuyens & Cools, Math. Comp. 2006).
Reductions run in a fixed chunking order, so repeated runs give identical values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, inf, isinf, isqrt, pi
from typing import Iterable, Mapping, Sequence

import numpy as np

from .bspline import piece_table
from .kernels import eval_blocks_on_grid
from .quasi_interp import HierCoeffs, LatticeAxis, QIScheme, SampleCache, as_batch_function, decompose, grid_values
from .testfuncs import TrigFunction

__all__ = [
    "ResolutionTooLow",
    "LatticeTooLarge",
    "DegenerateFit",
    "RateFit",
    "FieldDifference",
    "LatticeField",
    "default_resolution",
    "checked_resolution",
    "sweep_field",
    "lq_norm",
    "recovery_error",
    "sobolev_norm_fourier",
    "lp_block_norm",
    "besov_block_norm",
    "difference",
    "fit_rate",
]

class ResolutionTooLow(ValueError):
    """Quadrature resolution below the aliasing guard for the level measured."""


class LatticeTooLarge(ValueError):
    """Tensor quadrature lattice above ``MAX_LATTICE_POINTS`` points."""


class DegenerateFit(ValueError):
    """Rate fit impossible: too few levels or errors that do not decay."""


# Largest tensor quadrature lattice (d <= 3) that lq_norm allocates, 2**27
# points: a 512**3 lattice fits.  Its float64 values take 1 GiB.  Peak traced
# bytes (tracemalloc) per lattice point: 16.5 for a d = 3 witness norm at
# 128**3 (the grid kernel's output and one grid-sized product), so some
# 2 GiB at the limit; 25 for a d = 3 recovery error at 128**3, where the
# fixture's real values hold 8 more while the combination is evaluated.
MAX_LATTICE_POINTS = 1 << 27

# entries per chunk of a power-mean norm: 512 KiB of float64 temporaries
_NORM_CHUNK = 1 << 16


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
        return grid_values(self._a, self.d, axes) - grid_values(self._b, self.d, axes)


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
    are summed in chunks of :data:`_NORM_CHUNK` entries."""
    v = np.ravel(values)
    if np.iscomplexobj(v):
        v = np.abs(v)
    if isinf(q):
        return float(np.maximum(v.max(), -v.min()))
    if q == 2:
        return float(np.sqrt(np.vdot(v, v) / v.size))
    total = 0.0
    for lo in range(0, v.size, _NORM_CHUNK):
        total += float(np.sum(np.abs(v[lo : lo + _NORM_CHUNK]) ** q))
    return (total / v.size) ** (1.0 / q)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % t for t in range(2, isqrt(p) + 1))


@lru_cache(maxsize=None)
def _cbc_generator(n: int, d: int) -> tuple[int, ...]:
    """Rank-1 lattice generator for prime ``n`` by fast CBC (``z_1 = 1``, unit weights):
    each component minimises the worst-case error in the Korobov space of smoothness
    one.  Indexing the units mod ``n`` by powers of a primitive root ``g`` makes the
    search over all candidates one cyclic cross-correlation, done by FFT."""
    factors = [t for t in range(2, n) if (n - 1) % t == 0 and _is_prime(t)]
    g = next(g for g in range(1, n) if all(pow(g, (n - 1) // t, n) != 1 for t in factors))
    # powers[a] = g**a mod n
    powers = np.array(list(itertools.accumulate(range(n - 2), lambda x, _: x * g % n, initial=1)))
    t = powers / n
    omega = 2 * pi**2 * (t * t - t + 1 / 6)  # kernel term at g**a / n
    prod = 1.0 + omega  # product over the chosen components at the point i = g**a
    z = [1]
    fft_omega = np.conj(np.fft.fft(omega))
    for _ in range(1, d):
        # entry b: sum_a prod[a] * omega[a - b], the criterion for z = g**(-b)
        b = int(np.argmin(np.fft.ifft(np.fft.fft(prod) * fft_omega).real))
        z.append(int(powers[-b % (n - 1)]))
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
    if d <= 3 and resolution**d > MAX_LATTICE_POINTS:
        raise LatticeTooLarge(
            f"a quadrature lattice of {resolution}**{d} = {resolution**d} points exceeds"
            f" the limit of {MAX_LATTICE_POINTS} points"
        )
    if d > 3 and resolution < 2:
        raise ResolutionTooLow(f"a rank-1 lattice needs resolution >= 2, got {resolution}")
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
        LatticeTooLarge: ``d <= 3`` and ``resolution**d`` exceeds
            ``MAX_LATTICE_POINTS``; raised before anything is allocated.
    """
    if not (q > 1):
        raise ValueError(f"need q > 1, got {q}")
    resolution = checked_resolution(d, resolution, min_level)
    if d <= 3:
        return _power_mean_norm(grid_values(f, d, [LatticeAxis(0, 1, resolution)] * d), q)
    n = next(p for p in range(resolution, 1, -1) if _is_prime(p))
    points = np.outer(np.arange(n), _cbc_generator(n, d)) % n / n
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
    the guard and default lattice of :func:`lq_norm` at the finest level in
    the residual: ``hc.max_level``, or ``f.max_level`` when ``f`` is a spline
    combination (a bump at level m + 2 falls between the level-m lattice's points)."""
    level = max(hc.max_level, f.max_level) if isinstance(f, HierCoeffs) else hc.max_level
    return lq_norm(FieldDifference(f, hc, d=hc.d), q, hc.d, resolution, min_level=level)


# ---------------------------------------------------------------------------
# Fourier-side Sobolev norm (exact, p = 2)
# ---------------------------------------------------------------------------


def sobolev_norm_fourier(coeffs, r: float) -> float:
    """Mixed Sobolev norm from finitely many Fourier coefficients (p = 2).

    ``coeffs`` is a trigonometric polynomial, or a mapping from frequency
    vectors to complex coefficients, which is read as one.
    """
    if not isinstance(coeffs, TrigFunction):
        d = len(next(iter(coeffs), ()))
        coeffs = TrigFunction(d, coeffs)
    weight = np.ones(())
    for a in coeffs.freq_axes:
        weight = np.multiply.outer(weight, (1.0 + a.astype(np.float64) ** 2) ** r)
    return float(np.sqrt(np.sum(np.abs(coeffs.C) ** 2 * weight)))


# ---------------------------------------------------------------------------
# block norms
# ---------------------------------------------------------------------------


def _block_fields(f, scheme: QIScheme, m: int, d: int, resolution: int | None, cache):
    """Each detail block ``(k, q_k(f))`` up to level ``m``, lazily, on the quadrature lattice."""
    if d > 3:
        raise ValueError("block norms are quadrature-based and limited to d <= 3")
    resolution = checked_resolution(d, resolution, m)
    hc = decompose(scheme, f, m, d, cache=cache)
    axes = [LatticeAxis(0, 1, resolution).points()] * d
    table = piece_table(scheme.ell)
    return ((k, eval_blocks_on_grid(axes, [(k, C)], scheme.ell, table)) for k, C in hc.block_items())


def lp_block_norm(
    f,
    scheme: QIScheme,
    r: float,
    p: float,
    m: int,
    *,
    d: int,
    resolution: int | None = None,
    cache: SampleCache | None = None,
) -> float:
    """L_p norm of the level-weighted square function of the detail blocks.

    Forms ``sqrt(sum_k |2**(r|k|) q_k(f)|**2)`` pointwise on the quadrature
    lattice, truncated at total level ``m``, and integrates.
    """
    if not (1 < p < inf):
        raise ValueError(f"need p in (1, inf), got {p}")
    square = 0.0
    for k, field in _block_fields(f, scheme, m, d, resolution, cache):
        square = square + (4.0 ** (r * sum(k))) * field * field
    return _power_mean_norm(np.sqrt(square), p)


def besov_block_norm(
    f,
    scheme: QIScheme,
    r: float,
    p: float,
    theta: float,
    m: int,
    *,
    d: int,
    resolution: int | None = None,
    cache: SampleCache | None = None,
) -> float:
    """Besov-style aggregation of per-block L_p norms, truncated at level ``m``.

    ``(sum_k (2**(r|k|) ||q_k(f)||_p)**theta)**(1/theta)``; ``theta = inf``
    takes the supremum over blocks instead.  ``p`` and ``theta`` may be any
    positive exponents (including infinity).
    """
    if p <= 0 or theta <= 0:
        raise ValueError("need p > 0 and theta > 0")
    weighted = [
        2.0 ** (r * sum(k)) * _power_mean_norm(field, p)
        for k, field in _block_fields(f, scheme, m, d, resolution, cache)
    ]
    if isinf(theta):
        return float(max(weighted))
    return float(np.sum(np.array(weighted) ** theta) ** (1.0 / theta))


# ---------------------------------------------------------------------------
# mixed differences
# ---------------------------------------------------------------------------


def difference(f, ell: int, u: Iterable[int], h: Sequence[float], x: Sequence[float]) -> float:
    """Mixed order-``ell`` difference of ``f`` along the axes in ``u``.

    ``u`` holds zero-based axis indices; the empty set returns ``f(x)``.
    Arguments are passed to ``f`` unreduced, so non-periodic windows behave
    as written.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    h = np.atleast_1d(np.asarray(h, dtype=np.float64))
    d = x.size
    axes = sorted(set(int(a) for a in u))
    if any(a < 0 or a >= d for a in axes):
        raise ValueError(f"axis subset {axes} out of range for dimension {d}")
    batch = as_batch_function(f, d)
    if not axes:
        return float(batch(x.reshape(1, d))[0])
    points = []
    weights = []
    for js in itertools.product(range(ell + 1), repeat=len(axes)):
        w = 1.0
        pt = x.copy()
        for a, j in zip(axes, js):
            w *= (-1.0) ** (ell - j) * comb(ell, j)
            pt[a] += j * h[a]
        points.append(pt)
        weights.append(w)
    vals = np.asarray(batch(np.array(points)), dtype=np.float64)
    return float(np.dot(weights, vals))


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
            non-positive error, or an error sequence that never decays.
    """
    if model not in ("pure_dyadic", "dyadic_logpow"):
        raise ValueError(f"unknown model {model!r}")
    ms = np.array(sorted(errors), dtype=np.float64)
    errs = np.array([errors[int(mv)] for mv in ms], dtype=np.float64)
    if ms.size < 4:
        raise DegenerateFit(f"need at least 4 levels, got {ms.size}")
    if np.any(errs <= 0):
        raise DegenerateFit("errors must be positive")
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
