import itertools
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from sparseqi.bspline import shifts_per_level
from sparseqi.quasi_interp import (
    MissingSamples,
    SampleCache,
    _compositions,
    build_scheme,
    decompose,
    multi_indices,
)
from sparseqi.smolyak import (
    count_points,
    enumerate_grid,
    grid_level_gap,
    recover,
)
from sparseqi.testfuncs import random_mixed_smooth, witness_g1
from .conftest import grid_points, grid_samples, rng_points


def brute_force_grid(d, m, scheme):
    """Oracle: every sample position any coefficient functional reads.

    Walks all blocks, shifts, and stencil exponents of the operator actually
    applied (mask stencil at level 0, parity-split detail stencils above).
    """
    pts = set()
    for k in multi_indices(d, m):
        axis_positions = []
        for kj, axis in zip(k, range(d)):
            L = shifts_per_level(scheme.ell, kj)
            per_shift = []
            for s in range(L):
                if kj == 0:
                    lo, w = scheme.stencil_lambda
                else:
                    lo, w = scheme.stencil_even if s % 2 == 0 else scheme.stencil_odd
                exps = [lo + i for i, wi in enumerate(w) if wi != 0.0]
                per_shift.append([F((s + e) % L, L) for e in exps])
            axis_positions.append(per_shift)
        for s in itertools.product(*(range(len(a)) for a in axis_positions)):
            reads = [axis_positions[j][s[j]] for j in range(d)]
            if any(not r for r in reads):
                continue  # a zero stencil on some axis: functional reads nothing
            pts.update(itertools.product(*reads))
    return pts


ORDER6_MASK = ("13/240", "-7/15", "73/40", "-7/15", "13/240")


def fraction_grid(d, m, ell):
    """The exact-rational enumeration this package used before block indices.

    Unions the lattices with |k|_1 = m as sets of `Fraction` tuples, sorts
    them, and finds each coordinate's minimal level by trial.
    """
    seen = set()
    for k in _compositions(m, d):
        axes = [[F(t, ell << kj) for t in range(ell << kj)] for kj in k]
        seen.update(itertools.product(*axes))
    points = tuple(sorted(seen))

    def min_level(c):
        return next(a for a in range(m + 1) if (c * (ell << a)).denominator == 1)

    return points, tuple(tuple(min_level(c) for c in p) for p in points)


class TestAgainstFractionGrid:
    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_points_provenance_and_count(self, ell, faber, cubic):
        scheme = {2: faber, 4: cubic, 6: build_scheme(6, ORDER6_MASK)}[ell]
        for d in (1, 2, 3):
            for m in range(6):
                grid = enumerate_grid(d, m, scheme)
                points, provenance = fraction_grid(d, m, ell)
                assert grid_points(grid) == points
                assert tuple(map(tuple, grid.provenance.tolist())) == provenance
                assert grid.n == len(points) == count_points(d, m, scheme)
                assert np.array_equal(grid.as_array(), [[float(c) for c in p] for p in points])

    def test_arrays_read_only(self, cubic):
        grid = enumerate_grid(2, 2, cubic)
        assert grid.index.dtype == grid.provenance.dtype == np.int64
        with pytest.raises(ValueError):
            grid.index[0, 0] = 1


class TestIndexSet:
    def test_cardinality_formula(self):
        for d in (1, 2, 3):
            for m in (0, 2, 5):
                idx = list(multi_indices(d, m))
                assert len(idx) == sum(comb(j + d - 1, d - 1) for j in range(m + 1))

    def test_graded_lex_order(self):
        idx = list(multi_indices(2, 3))
        keys = [(sum(k), k) for k in idx]
        assert keys == sorted(keys)


class TestGrid:
    @pytest.mark.parametrize("name,d,m", [("faber", 2, 3), ("cubic", 2, 2), ("faber", 3, 2)])
    def test_matches_brute_force_reads(self, name, d, m, faber, cubic):
        scheme = faber if name == "faber" else cubic
        grid = enumerate_grid(d, m, scheme)
        oracle = brute_force_grid(d, m, scheme)
        assert set(grid_points(grid)) == oracle

    def test_d1_full_lattice(self, faber, cubic):
        for scheme in (faber, cubic):
            for m in range(5):
                grid = enumerate_grid(1, m, scheme)
                L = scheme.ell * 2**m
                assert grid_points(grid) == tuple((F(t, L),) for t in range(L))
                assert grid.n == L

    def test_nestedness(self, cubic):
        for m in range(4):
            a = set(grid_points(enumerate_grid(2, m, cubic)))
            b = set(grid_points(enumerate_grid(2, m + 1, cubic)))
            assert a < b

    def test_count_matches_enumeration(self, faber, cubic):
        for scheme in (faber, cubic):
            for d in (1, 2, 3):
                for m in range(5 if d < 3 else 4):
                    assert count_points(d, m, scheme) == enumerate_grid(d, m, scheme).n

    def test_count_monotone(self, faber):
        for d in (1, 2, 3):
            ns = [count_points(d, m, faber) for m in range(8)]
            assert all(a < b for a, b in zip(ns, ns[1:]))

    def test_provenance_levels(self, faber):
        grid = enumerate_grid(2, 2, faber)
        for pt, prov in zip(grid_points(grid), grid.provenance):
            assert sum(prov) <= grid.m
            for c, a in zip(pt, prov):
                assert (c * shifts_per_level(faber.ell, a)).denominator == 1
                if a > 0:  # minimality
                    assert (c * shifts_per_level(faber.ell, a - 1)).denominator != 1


def _recover_given(scheme, grid, values):
    """The recovery at the grid's level from ``values`` at its positions."""
    cache = SampleCache.from_lattice(grid.index, grid.m, values, scheme.ell, grid.d)
    return decompose(scheme, cache), cache


class TestRecover:
    def test_zero_samples_zero_output(self, faber):
        grid = enumerate_grid(2, 2, faber)
        hc, _ = _recover_given(faber, grid, np.zeros(grid.n))
        assert hc.num_entries() == 0

    def test_value_map_equals_callable_path(self, cubic):
        f = random_mixed_smooth(1.25, 4, 2, seed=3)
        cache = SampleCache(f, cubic.ell, 2, 2)
        via_callable = dict(decompose(cubic, cache).block_items())
        # bit-identical when recovering from the exact samples the callable
        # path froze, read off its cache at the grid's positions
        grid = enumerate_grid(2, 2, cubic)
        frozen = grid_samples(cache, grid)
        via_values, _ = _recover_given(cubic, grid, frozen)
        assert [k for k, _ in via_values.block_items()] == list(via_callable)
        for k, C in via_values.block_items():
            assert np.array_equal(C, via_callable[k])
        # independently evaluated samples agree to rounding
        via_fresh, _ = _recover_given(cubic, grid, f.eval_points(grid.as_array()))
        for k, C in via_fresh.block_items():
            assert np.max(np.abs(C - via_callable[k])) < 1e-12

    def test_missing_sample_reported(self, faber):
        grid = enumerate_grid(1, 2, faber)
        keep = np.delete(np.arange(grid.n), 3)
        with pytest.raises(MissingSamples) as exc:
            SampleCache.from_lattice(grid.index[keep], 2, np.ones(len(keep)), faber.ell, 1)
        assert exc.value.point == grid_points(grid)[3]

    def test_no_evaluations_on_value_path(self, faber):
        grid = enumerate_grid(1, 3, faber)
        hc, cache = _recover_given(faber, grid, np.full(grid.n, 0.5))
        pts = rng_points(50, 1)
        assert np.max(np.abs(hc.eval_points(pts) - 0.5)) < 1e-12
        assert cache.evaluations == 0

    def test_linearity(self, cubic):
        fa = random_mixed_smooth(1.25, 4, 2, seed=1)
        fb = random_mixed_smooth(1.25, 4, 2, seed=2)
        alpha, beta = 0.7, -1.3

        def combo(P):
            return alpha * fa.eval_points(P) + beta * fb.eval_points(P)

        hc_a = dict(recover(cubic, 2, 2, f=fa).block_items())
        hc_b = dict(recover(cubic, 2, 2, f=fb).block_items())
        hc_c = recover(cubic, 2, 2, f=combo)
        for k, C in hc_c.block_items():
            expect = alpha * hc_a[k] + beta * hc_b[k]
            assert np.max(np.abs(C - expect)) < 1e-12

    def test_witness_vanishes_on_grid(self, faber):
        for m in (2, 3):
            g1 = witness_g1(faber, 2, m, 0.75)
            grid = enumerate_grid(2, m, faber)
            vals = g1.eval_points(grid.as_array())
            assert np.max(np.abs(vals)) < 1e-12

    def test_witness_vanishes_on_grid_d3(self, faber):
        g1 = witness_g1(faber, 3, 2, 0.75)
        grid = enumerate_grid(3, 2, faber)
        assert np.max(np.abs(g1.eval_points(grid.as_array()))) < 1e-12


def test_level_gap():
    assert grid_level_gap(2) == 1
    assert grid_level_gap(4) == 2
    assert grid_level_gap(6) == 3
