import itertools

import numpy as np
import pytest

from sparseqi import analysis, kernels, quasi_interp, testfuncs
from sparseqi.bspline import piece_table
from sparseqi.cli import main
from sparseqi.quasi_interp import HierCoeffs, LatticeAxis, grid_values, multi_indices
from sparseqi.smolyak import enumerate_grid, recover
from sparseqi.testfuncs import random_mixed_smooth, witness_g1, witness_g2
from .conftest import periodic_row, traced_peak


@pytest.fixture(scope="module")
def combo_2d(cubic):
    f = random_mixed_smooth(1.25, 6, 2, seed=4)
    return recover(cubic, 2, 3, f)


@pytest.mark.parametrize("ell", [2, 4, 6])
def test_piece_values_match_scalar(ell):
    table = piece_table(ell)
    xs = np.concatenate([np.linspace(-1.0, 2.0, 1777), np.arange(64) / 64])
    for k in (0, 3):
        B = kernels.spline_basis_matrix(xs, k, ell, table)
        expect = np.array([periodic_row(ell, k, x) for x in xs], dtype=np.float64)
        assert np.max(np.abs(B - expect)) < 1e-14
        assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-14


def test_grid_path_matches_scattered(combo_2d):
    axes = [LatticeAxis(0, 1, 17), LatticeAxis(0, 1, 13)]
    grid_vals = combo_2d.eval_on_axes(axes)
    mesh = np.stack(np.meshgrid(*(a.points() for a in axes), indexing="ij"), axis=-1).reshape(-1, 2)
    scattered = combo_2d.eval_points(mesh).reshape(grid_vals.shape)
    assert np.max(np.abs(grid_vals - scattered)) < 1e-12


def test_grid_path_3d(faber):
    f = lambda P: np.sin(2 * np.pi * P[:, 0]) * np.sin(2 * np.pi * P[:, 1]) * np.sin(2 * np.pi * P[:, 2])
    hc = recover(faber, 3, 2, f)
    axes = [LatticeAxis(0, 1, 7), LatticeAxis(1, 2, 5), LatticeAxis(2, 3, 6)]
    grid_vals = hc.eval_on_axes(axes)
    mesh = np.stack(np.meshgrid(*(a.points() for a in axes), indexing="ij"), axis=-1).reshape(-1, 3)
    scattered = hc.eval_points(mesh).reshape(grid_vals.shape)
    assert np.max(np.abs(grid_vals - scattered)) < 1e-12


# ---------------------------------------------------------------------------
# against the replaced kernels: per-block weights over all points at once,
# and basis matrices filled from range-checked spline piece values
# ---------------------------------------------------------------------------


def _flatten_blocks_old(blocks):
    nb = len(blocks)
    d = len(blocks[0][0]) if nb else 1
    dims = np.zeros((nb, d), dtype=np.int64)
    offsets = np.zeros(nb + 1, dtype=np.int64)
    chunks = []
    for i, (k, C) in enumerate(blocks):
        dims[i] = C.shape
        offsets[i + 1] = offsets[i] + C.size
        chunks.append(np.ascontiguousarray(C, dtype=np.float64).ravel())
    return dims, offsets, np.concatenate(chunks)


def _points_kernel_old(points, dims, offsets, coeffs, table):
    npts, d = points.shape
    ell = table.shape[0]
    out = np.zeros(npts, dtype=np.float64)
    for ib in range(dims.shape[0]):
        vals = []
        idxs = []
        for j in range(d):
            L = dims[ib, j]
            u = (points[:, j] % 1.0) * L
            base = np.floor(u).astype(np.int64)
            np.minimum(base, L - 1, out=base)
            fr = u - base
            vj = np.empty((ell, npts))
            ij = np.empty((ell, npts), dtype=np.int64)
            for t in range(ell):
                acc = np.full(npts, table[t, 0])
                for a in range(1, ell):
                    acc = acc * fr + table[t, a]
                vj[t] = acc
                ij[t] = (base - t) % L
            vals.append(vj)
            idxs.append(ij)
        block = coeffs[offsets[ib] : offsets[ib + 1]]
        for combo in range(ell**d):
            w = None
            flat = None
            cc = combo
            for j in range(d):
                t = cc % ell
                cc //= ell
                w = vals[j][t] if w is None else w * vals[j][t]
                flat = idxs[j][t] if flat is None else flat * dims[ib, j] + idxs[j][t]
            out += w * block[flat]
    return out


def _basis_matrix_old(xs, k, ell, table):
    def piece_values(u):
        out = np.zeros_like(u)
        jc = np.clip(np.floor(u).astype(np.int64), 0, ell - 1)
        t = u - jc
        acc = np.zeros_like(u)
        for a in range(ell):
            acc = acc * t + table[jc, a]
        inside = (u > 0.0) & (u < ell)
        out[inside] = acc[inside]
        return out

    L = ell << k
    u = (xs % 1.0) * L
    base = np.floor(u).astype(np.int64)
    np.minimum(base, L - 1, out=base)
    fr = u - base
    B = np.zeros((xs.size, L))
    rows = np.arange(xs.size)
    for t in range(ell):
        B[rows, (base - t) % L] = piece_values(fr + t)
    return B


def _random_combination(d, ell, m, seed):
    rng = np.random.default_rng(seed)
    blocks = {k: rng.standard_normal(tuple(ell << kj for kj in k)) for k in multi_indices(d, m)}
    return HierCoeffs(d, ell, m, blocks)


def _grid_axes(d):
    # lattice axes of unequal length and an axis of scattered points
    axes = [np.arange(n) / n for n in (24, 13, 16, 9)[:d]]
    axes[-1] = np.random.default_rng(d).uniform(-1.0, 2.0, size=11)
    return axes


def _on_grid(hc, axes):
    # what HierCoeffs.eval_on_axes computes, on float axes that need not be lattices
    return kernels.eval_blocks_on_grid(axes, hc._collapsed(), hc.ell, piece_table(hc.ell))


def _points(n, d, seed):
    # mostly outside [0, 1), plus exact lattice points and their negatives
    rng = np.random.default_rng(seed)
    P = rng.uniform(-2.0, 3.0, size=(n, d))
    P[: n // 8] = rng.integers(-64, 128, size=(n // 8, d)) / 64
    return P


def _slab_points(ell, d):
    return max(1, kernels._SLAB_ENTRIES // ell**d)


@pytest.mark.parametrize("d, m", [(1, 5), (2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("ell", [2, 4, 6])
def test_scattered_matches_replaced_kernel(d, m, ell):
    # the gather-and-contract kernel sums in another order than the
    # per-combination loop, so it agrees to rounding, not bit for bit
    hc = _random_combination(d, ell, m, seed=10 * d + ell)
    n = 2 * _slab_points(ell, d) + 37  # two full slabs and a short one
    P = _points(n, d, seed=d + ell)
    table = piece_table(ell)
    for blocks in (hc.block_items(), hc._collapsed()):
        expect = _points_kernel_old(P, *_flatten_blocks_old(blocks), table)
        tol = 1e-13 * sum(np.abs(C).sum() for _, C in blocks)
        assert np.max(np.abs(kernels.eval_blocks_at_points(P, blocks, table) - expect)) <= tol


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_slab_size_does_not_change_bits(d, monkeypatch):
    hc = _random_combination(d, 4, 6 - d, seed=d)
    P = _points(101, d, seed=d)
    whole = hc.eval_points(P)
    for points_per_slab in (7, 1):
        monkeypatch.setattr(kernels, "_SLAB_ENTRIES", points_per_slab * 4**d)
        assert _slab_points(4, d) == points_per_slab
        assert np.array_equal(hc.eval_points(P), whole)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scattered_kernel_edge_inputs(d):
    hc = _random_combination(d, 4, 5 - d, seed=d)
    blocks, table = hc._collapsed(), piece_table(4)
    P = _points(50, d, seed=d)
    assert kernels.eval_blocks_at_points(np.empty((0, d)), blocks, table).shape == (0,)
    assert np.array_equal(kernels.eval_blocks_at_points(P, [], table), np.zeros(50))
    # read-only blocks and points are accepted and left as they were
    frozen = [(k, C.copy()) for k, C in blocks]
    for _, C in frozen:
        C.flags.writeable = False
    Pr = P.copy()
    Pr.flags.writeable = False
    got = kernels.eval_blocks_at_points(Pr, frozen, table)
    assert np.array_equal(got, kernels.eval_blocks_at_points(P, blocks, table))
    assert np.array_equal(Pr, P)
    assert all(np.array_equal(C, C0) for (_, C), (_, C0) in zip(frozen, blocks))
    for bad in (P[:, 0], P[None]):
        with pytest.raises(ValueError):
            kernels.eval_blocks_at_points(bad, blocks, table)


@pytest.mark.parametrize("ell", [2, 4, 6])
def test_basis_matrix_matches_replaced_path(ell):
    table = piece_table(ell)
    dyadic = np.arange(-64, 192) / 128
    odd = np.arange(-17, 40) / 17
    for k in (0, 2, 5):
        assert np.array_equal(
            kernels.spline_basis_matrix(dyadic, k, ell, table), _basis_matrix_old(dyadic, k, ell, table)
        )
        # off the dyadic points Horner runs at fr, not at (fr + t) - t
        B = kernels.spline_basis_matrix(odd, k, ell, table)
        assert np.max(np.abs(B - _basis_matrix_old(odd, k, ell, table))) < 1e-15


# ---------------------------------------------------------------------------
# the axis contraction, against einsum and against the replaced grid kernel
# (a d == 1 matmul, a d == 2 matmul pair and a tensordot loop from axis 0)
# ---------------------------------------------------------------------------


def _grid_kernel_old(axes, blocks, ell, table):
    out = np.zeros(tuple(len(a) for a in axes))
    d = len(axes)
    for k, C in blocks:
        mats = [kernels.spline_basis_matrix(axes[j], k[j], ell, table) for j in range(d)]
        if d == 1:
            out += mats[0] @ C
        elif d == 2:
            if C.shape[0] <= C.shape[1]:
                out += (mats[0] @ C) @ mats[1].T
            else:
                out += mats[0] @ (C @ mats[1].T)
        else:
            field = C
            for j in range(d):
                field = np.tensordot(mats[j], field, axes=([1], [j]))
            out += np.transpose(field, axes=tuple(range(d - 1, -1, -1)))
    return out


def _contraction_cost(shapes, order):
    size = int(np.prod([L for _, L in shapes]))
    cost = 0
    for j in order:
        n, L = shapes[j]
        cost += size * n
        size = size // L * n
    return cost


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_contract_axes_matches_einsum(d, dtype):
    rng = np.random.default_rng(d)
    letters = "abcd"[:d]
    for j in range(d):
        for L, n in [((7, 3, 5, 4), 9), ((3, 8, 2, 6), 1)]:
            L = L[:d]
            C = rng.standard_normal(L).astype(dtype)
            if dtype is np.complex128:
                C += 1j * rng.standard_normal(L)
            M = rng.standard_normal((n, L[j])).astype(dtype)
            out = letters[:j] + letters[j].upper() + letters[j + 1 :]
            expect = np.einsum(f"{letters[j].upper()}{letters[j]},{letters}->{out}", M, C)
            got = kernels._contract_axis(M, C, j)
            assert got.shape == expect.shape and got.dtype == expect.dtype
            assert got.flags.c_contiguous
            assert np.max(np.abs(got - expect)) < 1e-13 * np.abs(C).sum() * np.abs(M).max()
        # an empty axis, contracted or carried, empties the result
        shape = (3,) * d
        assert kernels._contract_axis(np.ones((0, 3)), np.ones(shape), j).shape == shape[:j] + (0,) + shape[j + 1 :]
        if d > 1:
            empty = shape[:-1] + (0,) if j < d - 1 else (0,) + shape[1:]
            got = kernels._contract_axis(np.ones((2, 3)), np.ones(empty), j)
            assert got.shape == empty[:j] + (2,) + empty[j + 1 :]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_eval_on_axes_is_the_grid_kernel_at_the_lattice_points(d):
    hc = _random_combination(d, 4, 5 - d, seed=d)
    axes = [LatticeAxis(0, 1, 24), LatticeAxis(1, 2, 13), LatticeAxis(3, 8, 9), LatticeAxis(0, 1, 1)][:d]
    assert np.array_equal(hc.eval_on_axes(axes), _on_grid(hc, [a.points() for a in axes]))


@pytest.mark.parametrize("d, m", [(1, 5), (2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("ell", [2, 4, 6])
def test_grid_matches_replaced_kernel(d, m, ell):
    hc = _random_combination(d, ell, m, seed=100 * d + ell)
    axes = _grid_axes(d)
    table = piece_table(ell)
    expect = _grid_kernel_old(axes, hc.block_items(), ell, table)
    total = sum(np.abs(C).sum() for _, C in hc.block_items())
    assert np.max(np.abs(_on_grid(hc, axes) - expect)) <= 1e-13 * total
    # the kernel itself, on the collapsed blocks
    blocks = hc._collapsed()
    got = kernels.eval_blocks_on_grid(axes, blocks, ell, table)
    assert np.max(np.abs(got - _grid_kernel_old(axes, blocks, ell, table))) <= 1e-13 * total
    # one block at a time, as the block norms pass them; blocks are only read
    inputs = [C.copy() for _, C in hc.block_items()]
    for k, C in hc.block_items():
        got = kernels.eval_blocks_on_grid(axes, [(k, C)], ell, table)
        assert np.max(np.abs(got - _grid_kernel_old(axes, [(k, C)], ell, table))) <= 1e-13 * np.abs(C).sum()
    assert all(np.array_equal(C, C0) for (_, C), C0 in zip(hc.block_items(), inputs))


def _grid_kernel_cached(axes, blocks, ell, table):
    """The grid kernel before slabs, which kept every basis matrix for the
    whole call and concatenated each ending axis's matrices, one level or
    more: each ending axis's sums go to the grid in one product, which is
    then added to the output."""
    shape = tuple(len(a) for a in axes)
    basis = {}
    ending = [[] for _ in shape]
    for k, C in blocks:
        for j, kj in enumerate(k):
            if (j, kj) not in basis:
                basis[j, kj] = kernels.spline_basis_matrix(axes[j], kj, ell, table)
        *order, last = kernels._axis_order([basis[j, kj].shape for j, kj in enumerate(k)])
        ending[last].append((k, C, order))
    out = np.zeros(shape)
    for j, group in enumerate(ending):
        partial = {}
        for k, C, order in group:
            field = C
            for i in order:
                field = kernels._contract_axis(basis[i, k[i]], field, i)
            partial[k[j]] = field if k[j] not in partial else partial[k[j]] + field
        if partial:
            levels = sorted(partial)
            M = np.concatenate([basis[j, kj] for kj in levels], axis=1)
            field = np.concatenate([partial.pop(kj) for kj in levels], axis=j)
            out += kernels._contract_axis(M, field, j)
    return out


@pytest.mark.parametrize("d, m", [(1, 5), (2, 3), (3, 2), (4, 2)])
@pytest.mark.parametrize("ell", [2, 4, 6])
def test_grid_matches_cached_basis_kernel_bitwise(d, m, ell):
    # building each basis matrix at its first use and releasing it after its
    # last changes no matrix, product or order
    hc = _random_combination(d, ell, m, seed=100 * d + ell)
    table = piece_table(ell)
    for axes in (_grid_axes(d), [np.arange(24) / 24] * d):
        blocks = hc._collapsed()
        assert np.array_equal(kernels.eval_blocks_on_grid(axes, blocks, ell, table),
                              _grid_kernel_cached(axes, blocks, ell, table))
        for block in hc.block_items():
            assert np.array_equal(kernels.eval_blocks_on_grid(axes, [block], ell, table),
                                  _grid_kernel_cached(axes, [block], ell, table))


@pytest.mark.parametrize("d, m", [(1, 5), (2, 3), (3, 2)])
@pytest.mark.parametrize("cap", [1, 7, 24 * 9 - 1, 24 * 24 * 5])
def test_grid_slabs_are_row_slabs_of_the_grid(d, m, cap, monkeypatch):
    # uneven row slabs of axis 0, single rows, and slabs of a few rows; the
    # assembly is the slabs' bits, and the cached kernel agrees to rounding,
    # as BLAS may take other paths for products of other shapes
    monkeypatch.setattr(kernels, "_SLAB_ENTRIES", cap)
    hc = _random_combination(d, 4, m, seed=60 + d)
    table = piece_table(4)
    for axes in (_grid_axes(d), [np.arange(24) / 24] * d):
        blocks = hc._collapsed()
        expect = _grid_kernel_cached(axes, blocks, 4, table)
        slabs = list(kernels.grid_slabs(axes, blocks, 4, table))
        rows = kernels._slab_rows(expect.shape)
        assert [len(v) for v in slabs] == [min(rows, len(axes[0]) - lo) for lo in range(0, len(axes[0]), rows)]
        got = kernels.eval_blocks_on_grid(axes, blocks, 4, table)
        assert np.array_equal(np.concatenate(slabs), got)
        total = sum(np.abs(C).sum() for _, C in blocks)
        assert np.max(np.abs(got - expect)) <= 1e-13 * total


def test_grid_matches_cached_basis_kernel_bitwise_at_rate_d3_top():
    # rate-d3's top level, cubic at d = 3, m = 5, on 128**3: 16 slabs of 8
    # rows, whose products have the cached kernel's shapes
    hc = _random_combination(3, 4, 5, seed=53)
    axes, blocks = [np.arange(128) / 128] * 3, hc._collapsed()
    assert kernels._slab_rows((128,) * 3) == 8
    got = kernels.eval_blocks_on_grid(axes, blocks, 4, piece_table(4))
    assert np.array_equal(got, _grid_kernel_cached(axes, blocks, 4, piece_table(4)))


def test_grid_product_of_one_row_larger_than_a_slab(monkeypatch):
    # a d = 3 lattice whose rows of axis 0 (48**2 entries) exceed the slab
    # (1024): each slab is one row, and each product one row of the grid,
    # on every axis, with one level and with two concatenated
    monkeypatch.setattr(kernels, "_SLAB_ENTRIES", 1024)
    hc = _random_combination(3, 4, 5, seed=75)
    axes, blocks = [np.arange(48) / 48] * 3, hc._collapsed()
    assert kernels._slab_rows((48,) * 3) == 1
    assert _grid_groups(axes, blocks) == {(j, kj) for j in range(3) for kj in (0, 1)}
    expect = _grid_kernel_cached(axes, blocks, 4, piece_table(4))
    got = kernels.eval_blocks_on_grid(axes, blocks, 4, piece_table(4))
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.abs(expect).max()


def _rate_d2_top():
    # the block shapes of the rate-d2 sweep's top level, cubic at d = 2, m = 7
    return _random_combination(2, 4, 7, seed=72)


def test_grid_matches_cached_basis_kernel_bitwise_at_rate_d2_top():
    hc = _rate_d2_top()
    axes, blocks = [np.arange(1024) / 1024] * 2, hc._collapsed()
    assert len(_grid_groups(axes, blocks)) == len(blocks) == 8
    got = kernels.eval_blocks_on_grid(axes, blocks, 4, piece_table(4))
    assert np.array_equal(got, _grid_kernel_cached(axes, blocks, 4, piece_table(4)))


def test_grid_kernel_holds_one_large_basis_matrix_at_a_time():
    # at rate-d2's top level on 1024**2: the 8 MiB output, the largest basis
    # matrix (1024 x 512 float64, 4 MiB) and 2 MiB of slack; keeping every
    # matrix for the whole call peaked at 26.1 MiB
    hc = _rate_d2_top()
    axes = [LatticeAxis(0, 1, 1024)] * 2
    assert traced_peak(lambda: hc.eval_on_axes(axes)) <= 14 << 20


def _grid_groups(axes, blocks):
    # the (axis, level) groups the grid kernel sums its partial fields in
    groups = set()
    for k, C in blocks:
        last = kernels._axis_order([(len(axes[j]), L) for j, L in enumerate(C.shape)])[-1]
        groups.add((last, k[last]))
    return groups


@pytest.mark.parametrize("d, m, n_blocks, n_groups", [(2, 5, 6, 6), (3, 4, 15, 5)])
@pytest.mark.parametrize("ell", [2, 4])
def test_grid_matches_replaced_kernel_on_quadrature_lattice(d, m, n_blocks, n_groups, ell):
    # equal lattice axes, as lq_norm passes them: at d = 3 collapsed blocks
    # share groups, at d = 2 each block is a group of its own
    hc = _random_combination(d, ell, m, seed=7 * d + ell)
    axes = [np.arange(32) / 32] * d
    blocks = hc._collapsed()
    assert (len(blocks), len(_grid_groups(axes, blocks))) == (n_blocks, n_groups)
    table = piece_table(ell)
    got = kernels.eval_blocks_on_grid(axes, blocks, ell, table)
    total = sum(np.abs(C).sum() for _, C in blocks)
    assert np.max(np.abs(got - _grid_kernel_old(axes, blocks, ell, table))) <= 1e-13 * total
    # two calls on equal input give the same bits
    again = kernels.eval_blocks_on_grid(axes, [(k, C.copy()) for k, C in blocks], ell, table)
    assert np.array_equal(got, again)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_grid_kernel_empty_axis(d):
    hc = _random_combination(d, 4, 5 - d, seed=d)
    for j in range(d):
        axes = [np.arange(16) / 16] * d
        axes[j] = np.array([])
        got = kernels.eval_blocks_on_grid(axes, hc._collapsed(), 4, piece_table(4))
        assert got.shape == (16,) * j + (0,) + (16,) * (d - j - 1)


@pytest.mark.parametrize("d, m", [(1, 5), (2, 4), (3, 3)])
@pytest.mark.parametrize("cap", [7, 64, 1000, 2**17])
def test_slab_grid_kernel_matches_one_product(d, m, cap, monkeypatch):
    monkeypatch.setattr(kernels, "_SLAB_ENTRIES", cap)
    hc = _random_combination(d, 4, m, seed=40 + d)
    table = piece_table(4)
    blocks = hc._collapsed()
    total = sum(np.abs(C).sum() for _, C in blocks)
    for axes in ([np.arange(24) / 24] * d, _grid_axes(d)):
        # on equal axes some blocks end on axis 0, whose products take the slab's rows of the matrix
        got = kernels.eval_blocks_on_grid(axes, blocks, 4, table)
        expect = _grid_kernel_cached(axes, blocks, 4, table)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-13 * total
    for j in range(d):
        axes = [np.arange(16) / 16] * d
        axes[j] = np.array([])
        got = kernels.eval_blocks_on_grid(axes, blocks, 4, table)
        assert got.shape == _grid_kernel_cached(axes, blocks, 4, table).shape


def test_contraction_order_is_cheapest():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3, 4):
        for _ in range(200):
            shapes = [tuple(int(v) for v in rng.integers(1, 40, size=2)) for _ in range(d)]
            if rng.random() < 0.3:  # equal lattice lengths, as on a quadrature lattice
                shapes = [(shapes[0][0], L) for _, L in shapes]
            best = min(_contraction_cost(shapes, order) for order in itertools.permutations(range(d)))
            assert _contraction_cost(shapes, kernels._axis_order(shapes)) == best


def test_active_backend_is_numpy():
    assert kernels.active_backend() == "numpy"


# ---------------------------------------------------------------------------
# HierCoeffs evaluates its blocks collapsed along trailing axes; against the
# per-block path it replaces (the kernels on the stored blocks)
# ---------------------------------------------------------------------------


def _per_block(hc, P, axes):
    table = piece_table(hc.ell)
    return (
        kernels.eval_blocks_at_points(P, hc.block_items(), table),
        kernels.eval_blocks_on_grid(axes, hc.block_items(), hc.ell, table),
    )


@pytest.mark.parametrize("d, m", [(1, 6), (2, 4), (3, 3), (4, 2)])
@pytest.mark.parametrize("ell", [2, 4, 6])
def test_collapse_matches_per_block_path(d, m, ell):
    hc = _random_combination(d, ell, m, seed=1000 * d + ell)
    P, axes = _points(501, d, seed=d * ell), _grid_axes(d)
    scattered, grid = _per_block(hc, P, axes)
    tol = 1e-13 * sum(np.abs(C).sum() for _, C in hc.block_items())
    assert np.max(np.abs(hc.eval_points(P) - scattered)) <= tol
    assert np.max(np.abs(_on_grid(hc, axes) - grid)) <= tol
    table = piece_table(ell)
    for c in range(1, d + 1):
        blocks = hc._collapsed(c)
        # one block per leading levels, at the top level on every lifted axis
        leads = sorted(multi_indices(d - c, m)) if c < d else [()]
        assert [k[: d - c] for k, _ in blocks] == leads
        assert all(k[d - c :] == (m - sum(k[: d - c]),) * c for k, _ in blocks)
        assert sum(C.size for _, C in blocks) == hc._collapsed_entries(c)
        assert np.max(np.abs(kernels.eval_blocks_at_points(P, blocks, table) - scattered)) <= tol
        assert np.max(np.abs(kernels.eval_blocks_on_grid(axes, blocks, ell, table) - grid)) <= tol
    # above one slab, eval_points lifts every axis at these small levels
    Q = _points(_slab_points(ell, d) + 37, d, seed=d + ell)
    assert hc._scattered_axes(len(Q)) == d
    expect = kernels.eval_blocks_at_points(Q, hc.block_items(), table)
    assert np.max(np.abs(hc.eval_points(Q) - expect)) <= tol


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_collapse_of_missing_blocks_equals_stored_zero_blocks(d, seed):
    rng = np.random.default_rng(seed)
    full = _random_combination(d, 4, 5 - d, seed=seed)
    items = full.block_items()
    # drop about half the blocks; always a group's lowest and a group's top
    # block, and with seed 0 a whole last-axis group
    drop = {k for k, _ in items if rng.random() < 0.5}
    drop |= {items[0][0], items[-1][0]}
    if seed == 0 and d > 1:
        drop |= {k for k, _ in items if k[:-1] == (1,) + (0,) * (d - 2)}
    stored = HierCoeffs(d, 4, full.max_level, {k: 0 * C if k in drop else C for k, C in items})
    sparse = HierCoeffs(d, 4, full.max_level, {k: C for k, C in items if k not in drop})
    P, axes = _points(300, d, seed=seed), _grid_axes(d)
    assert np.array_equal(sparse.eval_points(P), stored.eval_points(P))
    assert np.array_equal(_on_grid(sparse, axes), _on_grid(stored, axes))
    # and the sparse combination agrees with its own per-block path
    scattered, grid = _per_block(sparse, P, axes)
    tol = 1e-13 * sum(np.abs(C).sum() for _, C in sparse.block_items())
    assert np.max(np.abs(sparse.eval_points(P) - scattered)) <= tol
    assert np.max(np.abs(_on_grid(sparse, axes) - grid)) <= tol
    # the same at every number of lifted axes
    table = piece_table(4)
    for c in range(1, d + 1):
        at_points = [kernels.eval_blocks_at_points(P, hc._collapsed(c), table) for hc in (sparse, stored)]
        on_grid = [kernels.eval_blocks_on_grid(axes, hc._collapsed(c), 4, table) for hc in (sparse, stored)]
        assert np.array_equal(*at_points)
        assert np.array_equal(*on_grid)
        assert np.max(np.abs(at_points[0] - scattered)) <= tol
        assert np.max(np.abs(on_grid[0] - grid)) <= tol
    # and above one slab, where eval_points itself lifts
    Q = _points(_slab_points(4, d) + 37, d, seed=seed)
    assert np.array_equal(sparse.eval_points(Q), stored.eval_points(Q))
    expect = kernels.eval_blocks_at_points(Q, sparse.block_items(), table)
    assert np.max(np.abs(sparse.eval_points(Q) - expect)) <= tol


def test_scattered_axes_selection():
    hc = _random_combination(3, 4, 5, seed=0)
    slab = _slab_points(4, 3)
    # roundtrip-d3: 50 000 points take the two-axis lift, 6 blocks in place of 21
    assert hc._scattered_axes(50_000) == 2
    assert len(hc._collapsed(2)) == 6 and len(hc._collapsed(1)) == 21
    # one slab or fewer keeps the last-axis collapse
    assert [hc._scattered_axes(n) for n in (0, 1, slab, slab + 1)] == [1, 1, 1, 2]
    # the cap admits 129 024 entries but not the full 128**3 lift
    assert hc._collapsed_entries(2) == 129_024 <= quasi_interp._LIFT_ENTRIES
    assert hc._collapsed_entries(3) == 128**3 > quasi_interp._LIFT_ENTRIES
    # the choice depends on d, ell, max_level and the point count alone:
    # the same with and without the zero blocks of a combination
    items = hc.block_items()
    stored = HierCoeffs(3, 4, 5, {k: 0 * C if sum(k) % 2 else C for k, C in items})
    sparse = HierCoeffs(3, 4, 5, {k: C for k, C in items if sum(k) % 2 == 0})
    for n in (1, slab, slab + 1, 50_000, 10**6):
        assert stored._scattered_axes(n) == sparse._scattered_axes(n) == hc._scattered_axes(n)
    # other levels and dimensions, at 50 000 points
    chosen = {(d, m): HierCoeffs(d, 4, m, {})._scattered_axes(50_000) for d, m in [(2, 7), (2, 8), (4, 4)]}
    assert chosen == {(2, 7): 2, (2, 8): 1, (4, 4): 2}


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_witnesses_vanish_on_the_grid_at_every_lift(faber, cubic, d, m):
    # refinement keeps each spline's support, so the witnesses stay exactly
    # zero on their sample grids however many axes are lifted; every count
    # eval_points may choose, that is up to _LIFT_ENTRIES entries
    for scheme in (faber, cubic):
        grid = enumerate_grid(d, m, scheme).as_array()
        table = piece_table(scheme.ell)
        for w in (witness_g1(scheme, d, m, 0.75), witness_g2(scheme, d, m, 1.25, 2.0)):
            lifts = [c for c in range(1, d + 1) if c == 1 or w._collapsed_entries(c) <= quasi_interp._LIFT_ENTRIES]
            for c in lifts:
                vals = kernels.eval_blocks_at_points(grid, w._collapsed(c), table)
                assert np.array_equal(vals, np.zeros(len(grid))), (c, np.max(np.abs(vals)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_empty_combination_evaluates_to_zero(d):
    hc = HierCoeffs(d, 4, 3, {})
    P, axes = _points(50, d, seed=d), _grid_axes(d)
    assert np.array_equal(hc.eval_points(P), np.zeros(50))
    assert np.array_equal(_on_grid(hc, axes), np.zeros(tuple(len(a) for a in axes)))
    lattice = [LatticeAxis(0, 1, n) for n in (5, 3, 2)[:d]]
    assert np.array_equal(hc.eval_on_axes(lattice), np.zeros((5, 3, 2)[:d]))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_witnesses_evaluate_bitwise_as_per_block(faber, cubic, d):
    # every witness block already sits at its group's top level
    for w in (witness_g1(faber, d, 2, 0.75), witness_g2(cubic, d, 2, 1.25, 2.0)):
        P, axes = _points(300, d, seed=d), _grid_axes(d)
        scattered, grid = _per_block(w, P, axes)
        assert np.array_equal(w.eval_points(P), scattered)
        assert np.array_equal(_on_grid(w, axes), grid)


def test_one_patch_resizes_every_slab(monkeypatch, tmp_path):
    # every bounded temporary reads kernels._SLAB_ENTRIES when it runs: at
    # 256 entries each user's traced peak falls by at least half a default
    # slab of float64
    rng = np.random.default_rng(0)
    f = random_mixed_smooth(1.25, 128, 2, seed=1)
    values, table = rng.standard_normal(1 << 18), piece_table(4)
    trig = random_mixed_smooth(1.25, 3, 3, seed=2)
    field = analysis.LatticeField(trig, 3, 64)
    hc = _random_combination(3, 4, 4, seed=3)
    users = {
        "power mean": lambda: analysis._power_mean(analysis._row_slabs(values), 3.0),
        "symmetry check": lambda: testfuncs._check_conjugate_symmetry(f.freq_axes, f.C),
        "trig points": lambda: f.eval_points_complex(rng.random((1024, 2))),
        "grid adapter": lambda: grid_values(np.cos, 1, [LatticeAxis(0, 1, 1 << 18)]),
        "scattered kernel": lambda: kernels.eval_blocks_at_points(
            rng.random((2048, 3)), [((3, 3, 3), rng.standard_normal((32,) * 3))], table),
        "grid kernel": lambda: kernels.eval_blocks_on_grid(
            [np.arange(512) / 512] * 2, [((3, 3), rng.standard_normal((32, 32)))], 4, table),
        "trig last axis": lambda: trig.eval_on_axes([LatticeAxis(0, 1, 64)] * 3),
        "streamed quadrature": lambda: analysis.recovery_error(field, hc, 2.0),
        # the lattice written slab by slab; n = 40 keeps the two traced runs short
        "evaluation lattice": lambda: main(["recover", "--builtin", "cubic", "--d", "3", "--m", "4", "--function",
                                            "sine", "--eval-grid", "40", "--out", str(tmp_path)]),
    }

    default = {name: traced_peak(run) for name, run in users.items()}
    monkeypatch.setattr(kernels, "_SLAB_ENTRIES", 256)
    for name, run in users.items():
        assert traced_peak(run) < default[name] - 4 * (1 << 17), name
