"""Evaluation kernels for hierarchical spline combinations, in numpy.

A combination is a list of ``(k, C)`` pairs where ``k`` is the per-axis level
vector and ``C`` the dense coefficient array of shape
``(ell * 2**k[0], ..., ell * 2**k[d-1])``.  On axis ``j`` a point meets at
most ``ell`` nonzero periodic splines of level ``k[j]``; :func:`_axis_weights`
computes their values and shift indices by Horner's rule on the cardinal
spline's piece table, and both evaluation paths are built on it:

* :func:`eval_blocks_at_points` - scattered points, in slabs whose per-axis
  weights are shared by all blocks: per block, one gather of the ``ell**d``
  coefficients each point meets, then ``d`` contractions, one axis at a time
  (sum factorization);
* :func:`eval_blocks_on_grid` - a tensor grid, one axis at a time against
  dense basis matrices (:func:`spline_basis_matrix`), each held from its
  first use to its last.

:func:`_contract_axis` is the one separable contraction of spline coefficient
boxes, for every dimension; trigonometric fixtures fold and transform instead
(:mod:`sparseqi.testfuncs`).  Axis ``j`` of a box is contracted in BLAS
against a matrix of shape ``(n_j, L_j)``.  That costs ``n_j`` multiply-adds
per entry of the current field and scales its size by ``n_j / L_j``;
exchanging adjacent axes ``i, j`` shows that ``i`` goes first when
``1/L_i - 1/n_i < 1/L_j - 1/n_j``, which minimises the total
(:func:`_axis_order`).  The grid kernel contracts each block along all but
the last axis of that order (on equal grid axes, its shortest coefficient
axis) and sums the small partial fields of equal last axis and level; one
product per axis then takes all of that axis's sums to the grid, so the
grid-sized passes number at most ``d`` however many blocks there are (the
unidirectional principle of Bungartz & Griebel, *Sparse grids*, Acta
Numerica 2004).  That product is added to the output slab by slab, so it
is never held whole.  Orders and groups depend on the shapes and levels
alone, so equal inputs always take the same summation order and give
bit-identical results.

An empty combination evaluates to zero on both paths.  The kernels take the
blocks as given; :class:`sparseqi.quasi_interp.HierCoeffs` collapses its
blocks along trailing axes before calling them.  The grid kernel sees one
block per leading levels ``k[:-1]``; the scattered kernel, given more than
one slab of points, sees one block per shorter leading levels, such as
``k[:1]`` at d = 3, m = 5.
"""

from __future__ import annotations

from collections import Counter
from math import prod

import numpy as np

__all__ = [
    "active_backend",
    "spline_basis_matrix",
    "eval_blocks_at_points",
    "eval_blocks_on_grid",
]

# The one slab size, 2**17 entries (1 MiB of float64), read at call time as
# ``kernels._SLAB_ENTRIES``, so one patch resizes every slab.  It bounds the
# index and value buffers of eval_blocks_at_points (points times ``ell**d``:
# 2048 points at d = 3, ell = 4) and the output slabs of each grid kernel
# product (_add_contracted); the points per batch call of
# quasi_interp.grid_values; the widest array per slab of
# testfuncs.TrigFunction.eval_points_complex and the coefficients per slab
# of testfuncs._check_conjugate_symmetry; and the partial sums of
# analysis._power_mean_norm.  quasi_interp._LIFT_ENTRIES, four slabs, is
# fixed at import, so that a patch changes no bits.
_SLAB_ENTRIES = 2**17


def active_backend() -> str:
    """Name of the evaluation implementation; there is one, numpy."""
    return "numpy"


def _axis_weights(x: np.ndarray, L: int, table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero spline values at ``x`` on a lattice of ``L`` shifts.

    Returns ``(vals, idx)``, each of shape ``(ell, n)``: ``vals[t]`` is the
    value of the spline with shift ``idx[t]`` at each point.
    """
    ell = table.shape[0]
    # x - floor(x) has the bits of x % 1.0 without numpy's slower float remainder
    u = (x - np.floor(x)) * L
    base = np.floor(u).astype(np.int64)
    np.minimum(base, L - 1, out=base)
    fr = u - base
    vals = np.empty((ell, x.size))
    idx = np.empty((ell, x.size), dtype=np.int64)
    for t in range(ell):
        # piece t of the cardinal spline, at local argument fr
        acc = vals[t]
        acc[...] = table[t, 0]
        for a in range(1, ell):
            acc *= fr
            acc += table[t, a]
        # (base - t) % L, as base - t >= 1 - ell > -L
        np.subtract(base, t, out=idx[t])
        np.add(idx[t], L, out=idx[t], where=idx[t] < 0)
    return vals, idx


def eval_blocks_at_points(points, blocks, table: np.ndarray) -> np.ndarray:
    """Evaluate the combination ``blocks`` (``(k, C)`` pairs) at ``points`` of shape ``(n, d)``.

    Per slab of points and block, the ``ell**d`` coefficients each point
    meets are gathered in one ``take`` into a tensor of shape
    ``(ell,)*d + (s,)``, which is then contracted one axis at a time, last
    axis first, against that axis's spline weights.  Every point takes the
    same operations in the same order whatever the slab, so the slab size
    does not change the result.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must have shape (n, d)")
    n, d = points.shape
    ell = table.shape[0]
    out = np.zeros(n)
    step = max(1, _SLAB_ENTRIES // ell**d)
    # each block's coefficients in row-major order, with its axis strides
    boxes = [(C.ravel(), C.shape, [prod(C.shape[j + 1 :]) for j in range(d)]) for _, C in blocks]
    # index and value buffers, two of each, so that every step of the index
    # sum and of the contraction reads one buffer and writes the other
    size = ell**d * min(n, step)
    ibuf = (np.empty(size, dtype=np.int64), np.empty(size // ell, dtype=np.int64))
    vbuf = (np.empty(size), np.empty(size // ell))
    for lo in range(0, n, step):
        slab = points[lo : lo + step]
        s = slab.shape[0]
        weights: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for coeffs, shape, strides in boxes:
            axes = []
            for j, L in enumerate(shape):
                if (j, L) not in weights:
                    weights[j, L] = _axis_weights(slab[:, j], L, table)
                axes.append(weights[j, L])
            # flat[t_0, ..., t_{d-1}, p] = sum_j idx_j[t_j, p] * strides[j],
            # one axis more per step; the last step lands in ibuf[0]
            for j, (_, idx) in enumerate(axes):
                dst = ibuf[(d - 1 - j) % 2][: ell ** (j + 1) * s].reshape((ell,) * (j + 1) + (s,))
                if j == 0:
                    np.multiply(idx, strides[0], out=dst)
                else:
                    np.add(flat[..., None, :], idx * strides[j], out=dst)
                flat = dst
            field = vbuf[0][: ell**d * s].reshape(flat.shape)
            np.take(coeffs, flat, out=field, mode="clip")  # in range by construction
            # contract the last axis into the other buffer:
            # dst[..., p] = sum_t field[..., t, p] * vals[t, p], in ascending t.
            # Elementwise products and sums, not einsum, whose reduction
            # order changes when a slab holds a single point.
            for j in reversed(range(d)):
                dst = vbuf[(d - j) % 2][: ell**j * s].reshape((ell,) * j + (s,))
                np.multiply(field, axes[j][0], out=field)
                np.copyto(dst, field[..., 0, :])
                for t in range(1, ell):
                    dst += field[..., t, :]
                field = dst
            out[lo : lo + s] += field
    return out


def spline_basis_matrix(xs, k: int, ell: int, table: np.ndarray) -> np.ndarray:
    """Dense matrix ``B[i, s] = N_{k,s}(xs[i])`` with at most ``ell`` nonzeros per row."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    L = ell << k
    vals, idx = _axis_weights(xs, L, table)
    B = np.zeros((xs.size, L))
    B[np.arange(xs.size), idx] = vals
    return B


def _axis_order(shapes) -> list[int]:
    """Cheapest order to contract axes with matrices of shapes ``(n_j, L_j)``:
    ascending ``1/L_j - 1/n_j``, ties in axis order; an empty axis goes first."""
    return sorted(range(len(shapes)), key=lambda j: 1 / shapes[j][1] - 1 / max(shapes[j][0], 1))


def _contract_axis(M: np.ndarray, field: np.ndarray, j: int) -> np.ndarray:
    """Contract axis ``j`` of ``field`` (length ``L``) against ``M`` of shape
    ``(n, L)``; the result, C-contiguous, has length ``n`` on axis ``j``."""
    shape = field.shape
    n, L = M.shape
    if j == len(shape) - 1:
        out = field.reshape(-1, L) @ M.T
    else:
        out = np.matmul(M, field.reshape(prod(shape[:j]), L, prod(shape[j + 1 :])))
    return out.reshape(shape[:j] + (n,) + shape[j + 1 :])


def _add_contracted(out: np.ndarray, M: np.ndarray, field: np.ndarray, j: int) -> None:
    """``out += _contract_axis(M, field, j)`` in slabs of at most
    ``_SLAB_ENTRIES`` entries of ``out`` (or one line of axis ``j``, when
    longer), so no grid-sized product is made.  A slab is a run of whole
    rows of the axes before ``j`` or, when one such row is larger than a
    slab, a run of columns of the axes after ``j`` within a row."""
    if out.size == 0:
        return
    n, L = M.shape
    pre, post = prod(out.shape[:j]), prod(out.shape[j + 1 :])
    cols = min(post, max(1, _SLAB_ENTRIES // n))
    rows = max(1, _SLAB_ENTRIES // (n * cols))
    if post == 1:  # the last axis: rows of the field times M.T
        dst, src = out.reshape(pre, n), field.reshape(pre, L)
        for lo in range(0, pre, rows):
            dst[lo : lo + rows] += src[lo : lo + rows] @ M.T
        return
    dst, src = out.reshape(pre, n, post), field.reshape(pre, L, post)
    for lo in range(0, pre, rows):
        for c in range(0, post, cols):
            dst[lo : lo + rows, :, c : c + cols] += np.matmul(M, src[lo : lo + rows, :, c : c + cols])


def eval_blocks_on_grid(axes, blocks, ell: int, table: np.ndarray) -> np.ndarray:
    """Evaluate a block combination on the tensor grid ``axes[0] x ... x axes[d-1]``.

    Each block contracts every axis but the last of its :func:`_axis_order`,
    ``j``, into a partial field: grid-long on the other axes and ``L_j``-long
    on axis ``j``.  One axis ``j`` at a time, the partial fields of the
    blocks that end on ``j`` are summed per level ``k[j]`` in block order,
    concatenated along ``j`` in ascending ``k[j]``, and contracted in one
    product against their spline basis matrices side by side, which is added
    to the output slab by slab (:func:`_add_contracted`).  The orders come
    from the matrices' shapes alone, so the uses of each basis matrix are
    counted before any is built: each is built at its first use and released
    after its last, and a group of one level takes its matrix as it is.
    """
    shape = tuple(len(a) for a in axes)
    ending: list[list[tuple[tuple[int, ...], np.ndarray, list[int]]]] = [[] for _ in shape]
    for k, C in blocks:
        *order, last = _axis_order([(n, ell << kj) for n, kj in zip(shape, k)])
        ending[last].append((k, C, order))
    # uses of each basis matrix (axis, level) in the order they come below
    uses: Counter[tuple[int, int]] = Counter()
    for j, group in enumerate(ending):
        for k, _, order in group:
            uses.update((i, k[i]) for i in order)
        uses.update({(j, k[j]) for k, _, _ in group})
    basis: dict[tuple[int, int], np.ndarray] = {}

    def matrix(j: int, kj: int) -> np.ndarray:
        B = basis.get((j, kj))
        if B is None:
            B = basis[j, kj] = spline_basis_matrix(axes[j], kj, ell, table)
        uses[j, kj] -= 1
        if not uses[j, kj]:
            del basis[j, kj]
        return B

    out = np.zeros(shape)
    for j, group in enumerate(ending):
        partial: dict[int, np.ndarray] = {}
        for k, C, order in group:
            field = C
            for i in order:
                field = _contract_axis(matrix(i, k[i]), field, i)
            partial[k[j]] = field if k[j] not in partial else partial[k[j]] + field
        if partial:
            levels = sorted(partial)
            if len(levels) == 1:
                M, field = matrix(j, levels[0]), partial.pop(levels[0])
            else:
                M = np.concatenate([matrix(j, kj) for kj in levels], axis=1)
                field = np.concatenate([partial.pop(kj) for kj in levels], axis=j)
            _add_contracted(out, M, field, j)
    return out
