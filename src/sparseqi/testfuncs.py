"""Test functions with known or controllable mixed smoothness.

Trigonometric polynomials carry their Fourier coefficients explicitly, as one
coefficient array over a box of frequencies, so Sobolev norms are exact and
evaluation is separable along the axes.  Grid evaluation takes exact lattice
axes (:class:`sparseqi.quasi_interp.LatticeAxis`), each the points
``x0 + i/n`` for ``i < n``: the quadrature lattices ``i/N`` and the
hierarchical sample blocks, ``i/ell`` at level 0 and ``(2i+1)/(ell*2**a)``
above it, are such lattices.  On one, a polynomial is an inverse DFT of its
coefficients folded modulo ``n`` (aliasing), so each axis costs one pass over
the box plus ``O(n log n)`` per line, instead of a dense phase matrix of
``n`` rows against the box.  A real polynomial's last axis folds only the
residues ``0..n//2`` and takes a real inverse DFT, as each of its lines is
then a real polynomial, so its values are float from the start; when its
box is longer than that half spectrum, the last axis is folded first, as
``irfftn`` orders it, so no full-length complex field is made.  Otherwise
the axes go first to last, and the last one is folded and transformed one
row slab of axis 0 at a time, into the output, so its folded coefficients
are never held whole.  The
witness builders return hierarchical combinations that vanish identically on
the sample grid they are built against.  The tests check it (the level-``m``
decomposition of the single bump is exactly zero), and ``witness`` reports
the largest value on the grid, ``grid_max``, for every level it builds.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from . import kernels
from .quasi_interp import HierCoeffs, LatticeAxis, QIScheme, _compositions
from .smolyak import grid_level_gap

__all__ = [
    "TrigFunction",
    "random_mixed_smooth",
    "witness_g1",
    "witness_g2",
    "builtin_function",
    "g1_level_offset",
    "g2_level_offset",
]

_TWO_PI = 2.0 * np.pi
_SMOOTH_MARGIN = 0.05  # fixed spectral safety margin of the random fixtures


class TrigFunction:
    """A real or complex trigonometric polynomial on the torus.

    The polynomial is stored as a coefficient box: ``freq_axes`` holds the
    sorted integer frequencies of each axis and ``C`` the complex
    coefficients of ``exp(2*pi*i*(s, x))`` over their product, with zeros
    where a mode is absent.  The constructor also accepts a mapping from
    frequency vectors to coefficients and scatters it into such a box.  With
    the ``real`` flag the coefficients must be conjugate symmetric and
    evaluation returns real values.
    """

    def __init__(self, d: int, modes: Mapping[Sequence[int], complex], real: bool = False):
        self._set_box(*_scatter_modes(d, modes), real)

    @classmethod
    def from_box(
        cls, freq_axes: Sequence[np.ndarray], C: np.ndarray, real: bool = False
    ) -> "TrigFunction":
        """Polynomial with coefficients ``C`` over the product of ``freq_axes``."""
        self = cls.__new__(cls)
        self._set_box(freq_axes, C, real)
        return self

    def _set_box(self, freq_axes: Sequence[np.ndarray], C: np.ndarray, real: bool) -> None:
        self.freq_axes = tuple(np.asarray(a, dtype=np.int64) for a in freq_axes)
        self.C = np.array(C, dtype=np.complex128)
        self.C.flags.writeable = False
        self.d = len(self.freq_axes)
        if self.C.shape != tuple(len(a) for a in self.freq_axes):
            raise ValueError(f"coefficient shape {self.C.shape} does not match the frequency axes")
        if any(len(a) == 0 or np.any(np.diff(a) <= 0) for a in self.freq_axes):
            raise ValueError("frequency axes must be nonempty and strictly increasing")
        self.real = bool(real)
        if self.real:
            _check_conjugate_symmetry(self.freq_axes, self.C)

    # -- evaluation -----------------------------------------------------------

    def eval_on_axes(self, axes: Sequence[LatticeAxis]) -> np.ndarray:
        """Values on the tensor grid of the lattice axes ``axes[0] x ... x axes[d-1]``.

        Each axis is the lattice ``x0 + i/n`` of its :class:`LatticeAxis`.
        Axes are folded and inverse-transformed one at a time, first to last
        (:func:`_fold_transform`), at a cost of ``O(box + lattice * log(lattice))``;
        for ``d > 1`` the last axis goes one row slab of axis 0 at a time
        (``kernels._slab_rows``), each written into the output, with the
        bits of a single pass.
        A real polynomial whose last axis has more frequencies than that
        axis's half spectrum (``n//2 + 1`` residues) takes the order of
        ``irfftn`` instead: its last axis is folded first, without its
        transform, so every later array is half-spectrum long on that axis,
        and one real inverse DFT ends the evaluation.
        """
        if len(axes) != self.d:
            raise ValueError(f"need {self.d} axes, got {len(axes)}")
        if any(a.n == 0 for a in axes):
            shape = tuple(a.n for a in axes)
            return np.zeros(shape, dtype=np.float64 if self.real else np.complex128)
        field, last, n = self.C, self.d - 1, axes[-1].n
        early = self.real and len(self.freq_axes[last]) > n // 2 + 1
        if early:
            field = _fold_transform(field, last, self.freq_axes[last], axes[last].x0, n, True, transform=False)
        for j, a in enumerate(axes[:last]):
            field = _fold_transform(field, j, self.freq_axes[j], a.x0, a.n, False)
        if early:
            return np.fft.irfft(field, n, axis=last, norm="forward")
        if last == 0:
            return _fold_transform(field, 0, self.freq_axes[0], axes[0].x0, n, self.real)
        # the last axis one row slab of axis 0 at a time, into the output
        shape = tuple(a.n for a in axes)
        out = np.empty(shape, dtype=np.float64 if self.real else np.complex128)
        rows = kernels._slab_rows(shape)
        for lo in range(0, shape[0], rows):
            out[lo : lo + rows] = _fold_transform(
                field[lo : lo + rows], last, self.freq_axes[last], axes[last].x0, n, self.real)
        return out

    def eval_points_complex(self, P: np.ndarray) -> np.ndarray:
        P = np.atleast_2d(np.asarray(P, dtype=np.float64))
        C = self.C
        n, n0 = P.shape[0], C.shape[0]
        rest = C.size // n0
        # A slab holds at most kernels._SLAB_ENTRIES entries of its widest
        # array (the first-axis product or a phase matrix), and never a single
        # row unless P has one: a one-row product takes another BLAS path that
        # rounds differently, and the values must not depend on the slab size.
        chunk = max(2, kernels._SLAB_ENTRIES // max(rest, *C.shape))
        out = np.empty(n, dtype=np.complex128)
        start = 0
        while start < n:
            stop = n if n - start <= chunk + 1 else start + chunk
            block = P[start:stop]
            E = np.exp(_TWO_PI * 1j * np.outer(block[:, 0], self.freq_axes[0]))
            field = (E @ C.reshape(n0, rest)).reshape((stop - start,) + C.shape[1:])
            for j in range(1, self.d):
                E = np.exp(_TWO_PI * 1j * np.outer(block[:, j], self.freq_axes[j]))
                field = np.einsum("nk,nk...->n...", E, field)
            out[start:stop] = field
            start = stop
        return out

    def eval_points(self, P: np.ndarray) -> np.ndarray:
        vals = self.eval_points_complex(P)
        return vals.real if self.real else vals

    def __call__(self, x) -> float | complex:
        pt = np.atleast_1d(np.asarray(x, dtype=np.float64)).reshape(1, self.d)
        return self.eval_points(pt)[0]


def _scatter_modes(d: int, modes: Mapping[Sequence[int], complex]):
    """(freq_axes, C) holding the nonzero entries of a mode mapping.

    Each axis is the sorted set of frequencies used on it; modes missing from
    the product of the axes get coefficient zero.  An empty mapping gives the
    zero polynomial on the single frequency 0.
    """
    nonzero: dict[tuple[int, ...], complex] = {}
    for s, c in modes.items():
        key = tuple(int(v) for v in s)
        if len(key) != d:
            raise ValueError(f"mode {key} has wrong dimension (expected {d})")
        c = complex(c)
        if c != 0:
            nonzero[key] = c
    if not nonzero:
        return [np.zeros(1, dtype=np.int64)] * d, np.zeros((1,) * d, dtype=np.complex128)
    S = np.array(list(nonzero), dtype=np.int64).reshape(len(nonzero), d)
    freq_axes, index = zip(*(np.unique(S[:, j], return_inverse=True) for j in range(d)))
    C = np.zeros(tuple(len(a) for a in freq_axes), dtype=np.complex128)
    C[index] = list(nonzero.values())
    return freq_axes, C


def _check_conjugate_symmetry(freq_axes: Sequence[np.ndarray], C: np.ndarray) -> None:
    """Raise unless every nonzero mode ``c`` at ``s`` has a mirror at ``-s``
    within ``1e-12 * max(1, |c|)`` of ``conj(c)``, compared as squares.

    Each axis is first extended to its symmetric closure, so reversing every
    axis of the coefficient array maps ``s`` to ``-s``; when every axis is
    its own closure, ``C`` is tested as it is, without a copy.  The rows of
    the first axis are compared in row slabs of about
    ``kernels._SLAB_ENTRIES`` entries (``kernels._slab_rows``), in order, so
    the first mode reported is the first that fails.
    """
    closed = [np.union1d(a, -a) for a in freq_axes]
    if all(len(c) == len(a) for c, a in zip(closed, freq_axes)):
        full = C
    else:
        full = np.zeros(tuple(len(c) for c in closed), dtype=np.complex128)
        full[np.ix_(*(np.searchsorted(c, a) for c, a in zip(closed, freq_axes)))] = C
    mirror = full[(slice(None, None, -1),) * len(closed)]
    rows = kernels._slab_rows(full.shape)
    for lo in range(0, full.shape[0], rows):
        slab = full[lo : lo + rows]
        # At a zero coefficient this tests |c(-s)| > 1e-12, which is the
        # test at the nonzero mirror, so zero entries need no mask.
        gap = np.conj(mirror[lo : lo + rows]) - slab
        bad = gap.real**2 + gap.imag**2 > 1e-24 * np.maximum(1.0, slab.real**2 + slab.imag**2)
        if np.any(bad):
            idx = np.argwhere(bad)[0]
            idx[0] += lo
            s = tuple(int(c[i]) for c, i in zip(closed, idx))
            raise ValueError(f"realness flag set but mode {s} breaks conjugate symmetry")


def _add_scaled(out: np.ndarray, w: complex, part: np.ndarray) -> None:
    """``out += w * part`` in place for ``|w| = 1``, as ``out = w * (conj(w) * out + part)``,
    so no temporary of the size of ``part`` is made; a plain ``+=`` at ``w == 1``."""
    if w == 1:
        out += part
        return
    out *= np.conj(w)
    out += part
    out *= w


def _fold_transform(
    field: np.ndarray, j: int, freqs: np.ndarray, x0: float, n: int, half: bool, transform: bool = True
) -> np.ndarray:
    """Contract axis ``j`` of the contiguous ``field`` against
    ``exp(2*pi*i*freqs[t]*(x0 + i/n))``, as a new contiguous array whose axis
    ``j`` holds ``i < n``.

    Frequency ``s = n*q + r`` (``0 <= r < n``) folds onto residue ``r`` with the
    factor ``exp(2*pi*i*n*q*x0)``, a scalar per period ``q``.  The whole
    periods are one view of shape ``(P, n)`` along the axis, contracted
    against their factors in one ``matmul``; the head and tail partial periods
    are added as slices.  Each residue then takes ``exp(2*pi*i*r*x0)``, and one
    unnormalised inverse DFT in place gives the values.  The fold leaves axis
    ``j`` where it is, so the first fold, which reads the whole box, runs over
    contiguous rows.

    With ``half``, every line of axis ``j`` must be a real polynomial: then
    its folded coefficients are Hermitian (residue ``n - r`` holds the
    conjugate of residue ``r``, whatever ``x0``), so only the residues
    ``r <= n//2`` are folded, and a real inverse DFT returns float values.
    Without ``transform`` the folded residues are returned, phases applied,
    untransformed: ``n`` (or ``n//2 + 1`` with ``half``) long on axis ``j``.
    """
    shape = field.shape
    pre, post = int(np.prod(shape[:j])), int(np.prod(shape[j + 1 :]))
    src = field.reshape(pre, shape[j], post)
    s0 = int(freqs[0])
    if freqs[-1] - s0 + 1 != len(freqs):  # gaps: scatter into the consecutive range
        full = np.zeros((pre, int(freqs[-1]) - s0 + 1, post), dtype=np.complex128)
        full[:, freqs - s0] = src
        src = full
    L = src.shape[1]
    R = n // 2 + 1 if half else n  # the residues folded
    head = min(-s0 % n, L)  # frequencies below the first multiple of n
    P = (L - head) // n  # whole periods
    q0 = -(-s0 // n)  # the first whole period
    tail = head + P * n
    # factors of the head period, the P whole periods and the tail period
    w = np.exp(_TWO_PI * 1j * n * x0 * np.arange(q0 - 1, q0 + P + 1))
    periods = src[:, head:tail].reshape(pre, P, n, post)[:, :, :R].reshape(pre, P, R * post)
    acc = np.matmul(w[1:-1], periods).reshape(pre, R, post)
    r0 = s0 % n  # the head's first residue
    h, t = max(0, min(head, R - r0)), min(L - tail, R)  # head and tail terms folded
    _add_scaled(acc[:, r0 : r0 + h], w[0], src[:, :h])
    _add_scaled(acc[:, :t], w[-1], src[:, tail : tail + t])
    if x0:
        acc *= np.exp(_TWO_PI * 1j * x0 * np.arange(R))[:, None]
    folded = acc.reshape(shape[:j] + (R,) + shape[j + 1 :])
    if not transform:
        return folded
    if half:
        return np.fft.irfft(folded, n, axis=j, norm="forward")
    np.fft.ifft(acc, axis=1, norm="forward", out=acc)
    return folded


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _outer_power(uni: np.ndarray, d: int) -> np.ndarray:
    """``uni[s_0] * uni[s_1] * ... * uni[s_{d-1}]`` over the ``d``-fold index box,
    products taken left to right."""
    box = uni
    for _ in range(d - 1):
        box = np.multiply.outer(box, uni)
    return box


def _symmetric_signs(K: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Random +-1 array over the frequency box with sign[-s] == sign[s]."""
    signs = rng.choice(np.array([-1.0, 1.0]), size=(2 * K + 1,) * d)
    # Row-major, s and -s sit at flat indices t and size - 1 - t, and the
    # first nonzero coordinate of s is negative exactly when t < size // 2:
    # that lower half takes the upper half's signs, reversed.
    flat = signs.reshape(-1)
    half = flat.size // 2
    flat[:half] = flat[:half:-1]
    return signs


def random_mixed_smooth(r_eff: float, K: int, d: int, seed: int) -> TrigFunction:
    """Random real trigonometric polynomial of effective mixed smoothness ``r_eff``.

    Coefficients are random signs times the product envelope
    ``(1 + |s_j|)**(-(r_eff + 1/2 + margin))`` over the full frequency box,
    normalized so the exact mixed Sobolev norm at exponent ``r_eff`` is one.
    The signs square to one and the envelope and the Sobolev weight are
    products over the axes, so the squared norm is the ``d``-th power of one
    axis's sum.  The same seed always produces the same function.
    """
    if r_eff <= 0:
        raise ValueError("need r_eff > 0")
    if K < 1:
        raise ValueError("need K >= 1")
    rng = np.random.default_rng(seed)
    freqs = np.arange(-K, K + 1)
    envelope_1d = (1.0 + np.abs(freqs)) ** (-(r_eff + 0.5 + _SMOOTH_MARGIN))
    coeff = _symmetric_signs(K, d, rng)
    coeff *= _outer_power(envelope_1d, d)

    weight_1d = (1.0 + freqs.astype(np.float64) ** 2) ** r_eff
    coeff /= float(np.sqrt(np.sum(envelope_1d**2 * weight_1d) ** d))

    return TrigFunction.from_box([freqs] * d, coeff, real=True)


def builtin_function(name: str, d: int) -> TrigFunction:
    """Named fixtures for the command-line front end."""
    if name == "sine":
        uni = np.array([0.5j, -0.5j])  # sin(2*pi*x) on frequencies -1, 1
        return TrigFunction.from_box([np.array([-1, 1])] * d, _outer_power(uni, d), real=True)
    raise KeyError(f"unknown builtin function {name!r}; have ['sine']")


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------


def g1_level_offset(ell: int, d: int) -> int:
    """Smallest level surplus making the spread witness vanish on the grid."""
    return 1 + d * (grid_level_gap(ell) - 1)


def g2_level_offset(ell: int, d: int) -> int:
    """Smallest level surplus making the single-bump witness vanish on the grid."""
    return grid_level_gap(ell)


def witness_g1(
    scheme: QIScheme, d: int, m: int, r: float, *, level_offset: int | None = None
) -> HierCoeffs:
    """Spread witness: every block at one total level, disjoint supports per block.

    Blocks sit at total level ``m + level_offset`` with shifts spaced ``ell``
    apart, scaled by ``2**(-r*M) * M**(-(d-1)/2)`` (unit scale; callers
    rescale).  With the default offset the function vanishes at every sample
    grid point of level ``m``.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    offset = g1_level_offset(scheme.ell, d) if level_offset is None else level_offset
    M = m + offset
    if M < 1:
        raise ValueError(f"need m + level_offset >= 1, got {M}")
    amp = 2.0 ** (-r * M) * float(M) ** (-(d - 1) / 2.0)
    ell = scheme.ell
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for k in _compositions(M, d):
        C = np.zeros(tuple(ell << kj for kj in k))
        C[(slice(None, None, ell),) * d] = amp
        blocks[k] = C
    return HierCoeffs(d, ell, M, blocks, scheme_id=scheme.scheme_id)


def witness_g2(
    scheme: QIScheme, d: int, m: int, r: float, p: float, *, level_offset: int | None = None
) -> HierCoeffs:
    """Single-bump witness: one spline at level ``(M, 0, ..., 0)``, scale
    ``2**(-(r - 1/p) * M)``.  Vanishes on the level-``m`` sample grid with the
    default offset."""
    if m < 1:
        raise ValueError("need m >= 1")
    if not 1 < p < np.inf:
        raise ValueError("need p in (1, inf)")
    offset = g2_level_offset(scheme.ell, d) if level_offset is None else level_offset
    M = m + offset
    if M < 1:
        raise ValueError(f"need m + level_offset >= 1, got {M}")
    ell = scheme.ell
    k_star = (M,) + (0,) * (d - 1)
    C = np.zeros(tuple(ell << kj for kj in k_star))
    C[(0,) * d] = 2.0 ** (-(r - 1.0 / p) * M)
    return HierCoeffs(d, ell, M, {k_star: C}, scheme_id=scheme.scheme_id)
