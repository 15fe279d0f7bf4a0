import itertools
import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from sparseqi.bspline import InvalidOrder, eval_cardinal_exact
from sparseqi.laurent import LaurentPoly
from sparseqi.quasi_interp import (
    _CHUNK,
    _refine_axis,
    HierCoeffs,
    LatticeAxis,
    MissingSamples,
    NotAQuasiInterpolant,
    SampleCache,
    as_batch_function,
    block_coeffs,
    block_axis,
    block_coeffs_oracle,
    build_scheme,
    builtin_scheme,
    decompose,
    detail_coeff,
    grid_values,
    multi_indices,
    quasi_coeffs,
)
from sparseqi.smolyak import count_points, enumerate_grid
from sparseqi.testfuncs import TrigFunction, random_mixed_smooth
from .conftest import rng_points


def _rolled_refine_axis(A, axis, ell):
    """The two-scale refinement that the polyphase form replaced: zero-stuff
    the coarse coefficients, then sum ``ell + 1`` rolled, scaled copies."""
    shape = list(A.shape)
    shape[axis] = 2 * A.shape[axis]
    up = np.zeros(shape)
    sel = [slice(None)] * A.ndim
    sel[axis] = slice(0, None, 2)
    up[tuple(sel)] = A
    out = np.zeros_like(up)
    for j in range(ell + 1):
        out += (2.0 ** (1 - ell) * math.comb(ell, j)) * np.roll(up, j, axis=axis)
    return out


@pytest.mark.parametrize("ell", [2, 4, 6])
def test_refine_axis_matches_the_rolled_form(ell):
    rng = np.random.default_rng(ell)
    for shape in [(1,), (ell,), (ell, 2 * ell), (3, ell, 5), (2, 3, 4, 8)]:
        A = rng.standard_normal(shape)
        A.flat[0] = -0.0
        for axis in range(len(shape)):
            got, expect = _refine_axis(A, axis, ell), _rolled_refine_axis(A, axis, ell)
            assert got.shape == expect.shape and np.array_equal(got, expect)
            assert np.array_equal(np.signbit(got), np.signbit(expect))


def _rolled_correlate(F, axis, lo, weights):
    """The stencil correlation that the periodic filter replaced: one rolled
    copy of ``F`` per nonzero tap, ``out[s] = sum_i w[i] * F[(s + lo + i) mod L]``."""
    out = np.zeros_like(F)
    for i, w in enumerate(weights):
        if w != 0.0:
            out += w * np.roll(F, -(lo + i), axis=axis)
    return out


def _split_block_coeffs(scheme, F, k):
    """The replaced ``block_coeffs`` on the level-``k`` samples ``F``: both
    detail stencils over every fine axis, even outputs from one, odd from the other."""
    for axis, kj in enumerate(k):
        if kj == 0:
            F = _rolled_correlate(F, axis, *scheme.stencil_lambda)
        else:
            even = _rolled_correlate(F, axis, *scheme.stencil_even)
            odd = _rolled_correlate(F, axis, *scheme.stencil_odd)
            sel = [slice(None)] * F.ndim
            sel[axis] = slice(1, None, 2)
            even[tuple(sel)] = odd[tuple(sel)]
            F = even
    return F


def _double_loop_operator(scheme, kj, sj):
    """The replaced ``_axis_operator``: reduced detail stencil times the
    order-``ell`` difference, by a hand-written double loop."""
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


ORDER6_MASK = ("13/240", "-7/15", "73/40", "-7/15", "13/240")
SCHEMES = {"faber": lambda: builtin_scheme("faber"), "cubic": lambda: builtin_scheme("cubic"),
           "sextic": lambda: build_scheme(6, ORDER6_MASK)}


def _same_bits(got, expect):
    return (got.shape == expect.shape and np.array_equal(got, expect)
            and np.array_equal(np.signbit(got), np.signbit(expect)))


class TestAgainstReplacedPaths:
    """The periodic filter against the rolled correlations it replaced, bit for
    bit with sign bits, on every axis; the order-6 stencils (15 taps on a
    12-point level-1 axis) wrap round the lattice more than once."""

    @staticmethod
    def _samples(seed):
        # random samples with scattered negative zeros
        rng = np.random.default_rng(seed)
        return lambda P: np.where(rng.random(len(P)) < 0.1, -0.0, rng.standard_normal(len(P)))

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_and_quasi_coeffs(self, name, d):
        scheme = SCHEMES[name]()
        cache = SampleCache(self._samples(d), scheme.ell, d)
        for k in multi_indices(d, 3 if d < 3 else 2):
            F = cache.lattice_values(k)
            assert _same_bits(block_coeffs(scheme, cache, k), _split_block_coeffs(scheme, F, k))
            expect = F
            for axis in range(d):
                expect = _rolled_correlate(expect, axis, *scheme.stencil_lambda)
            assert _same_bits(quasi_coeffs(scheme, cache, k), expect)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_stencil_longer_than_the_axis(self, name):
        # every stencil, alone and as the stride-2 even/odd pair, on every axis
        # of a (6, 12, 4) array: the axis of 4 is shorter than every order-6
        # stencil, and the 15-tap even one is longer than the axis of 12
        from sparseqi.quasi_interp import _periodic_filter, _taps

        scheme = SCHEMES[name]()
        rng = np.random.default_rng(len(name))
        A = rng.standard_normal((6, 12, 4))
        A[rng.random(A.shape) < 0.1] = -0.0
        for axis in range(A.ndim):
            for stencil in (scheme.stencil_lambda, scheme.stencil_even, scheme.stencil_odd):
                got = _periodic_filter(A, axis, [_taps(stencil)], 1)
                assert _same_bits(got, _rolled_correlate(A, axis, *stencil))
            got = _periodic_filter(A, axis, [_taps(scheme.stencil_even), _taps(scheme.stencil_odd, 1)], 2)
            even = _rolled_correlate(A, axis, *scheme.stencil_even)
            odd = _rolled_correlate(A, axis, *scheme.stencil_odd)
            sel = [slice(None)] * A.ndim
            sel[axis] = slice(1, None, 2)
            even[tuple(sel)] = odd[tuple(sel)]
            assert _same_bits(got, even)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    def test_axis_operator(self, name):
        from sparseqi.quasi_interp import _axis_operator

        scheme = SCHEMES[name]()
        for kj, sj in itertools.product(range(3), range(4)):
            assert _axis_operator(scheme, kj, sj) == _double_loop_operator(scheme, kj, sj)


def block_positions(ell, a, k):
    """The block rule as it was written before ``block_axis`` alone held it:
    positions ``i`` (points ``i / (ell * 2**k)``) of block level ``a <= k`` on
    the level-``k`` axis lattice."""
    if a == 0:
        return np.arange(ell, dtype=np.int64) << k
    return np.arange(1, ell << a, 2, dtype=np.int64) << (k - a)


def _frexp_block_index(index, level):
    """The replaced inverse of the block rule: block level and block-local
    index of each position on the level lattice, from the trailing zero bits
    of the position (``frexp`` of its lowest set bit)."""
    a = np.where(index % (1 << level) == 0, 0, level + 1 - np.frexp(index & -index)[1])
    return a, index >> (level - a + (a > 0))


def _ix_lattice_values(cache, k):
    """The level-``k`` lattice as the sample cache assembled it before lattice
    axes: each block written through ``np.ix_`` arrays of its integer positions."""
    out = np.empty(tuple(cache.ell << kj for kj in k))
    for a in itertools.product(*(range(kj + 1) for kj in k)):
        out[np.ix_(*(block_positions(cache.ell, aj, kj) for aj, kj in zip(a, k)))] = cache._fetch(a)
    return out


class TestLatticeAxis:
    """Exact lattice axes against the float axes and index arrays they replaced."""

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_block_points_are_the_float_axes(self, ell):
        for a in range(9):
            axis = block_axis(ell, a)
            assert _same_bits(axis.points(), block_positions(ell, a, a) / (ell << a))
            assert axis.x0 == axis.points()[0]

    def test_quadrature_points_are_the_float_axes(self):
        for N in (1, 3, 64, 96, 128, 1000, 1 << 20):
            assert _same_bits(LatticeAxis(0, 1, N).points(), np.arange(N) / N)

    def test_within(self):
        assert LatticeAxis(1, 2, 8).within(16) == slice(1, None, 2)
        assert LatticeAxis(3, 16, 4).within(64) == slice(3, None, 16)
        assert LatticeAxis(0, 1, 64).within(64) == slice(0, None, 1)
        # every residue class r + s*t of i/N is the axis LatticeAxis(r, s, N/s)
        for N, s in [(64, 1), (64, 8), (96, 3), (96, 12)]:
            for r in range(s):
                axis = LatticeAxis(r, s, N // s)
                assert axis.within(N) == slice(r, None, s)
                assert _same_bits(axis.points(), (np.arange(N) / N)[r::s])
        # n does not divide N; the shift is off i/N; an empty axis
        for axis in (LatticeAxis(0, 1, 6), LatticeAxis(1, 3, 4), LatticeAxis(1, 2, 64), LatticeAxis(0, 1, 0)):
            assert axis.within(64) is None

    @pytest.mark.parametrize("r, s, n", [(1, 1, 4), (-1, 2, 4), (0, 0, 4), (0, 1, -1)])
    def test_rejects_a_shift_outside_one_step(self, r, s, n):
        with pytest.raises(ValueError, match="0 <= r < s"):
            LatticeAxis(r, s, n)

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lattice_values_match_the_index_assembly(self, name, d):
        scheme = SCHEMES[name]()
        cache = SampleCache(TestAgainstReplacedPaths._samples(d), scheme.ell, d)
        for k in multi_indices(d, 4 if d < 3 else 3):
            assert _same_bits(cache.lattice_values(k), _ix_lattice_values(cache, k))


def _blocks_grid(d, m, ell):
    """The replaced ``enumerate_grid``: every block's positions from
    ``block_positions``, concatenated and sorted by coordinates."""
    index, provenance = [], []
    for a in multi_indices(d, m):
        axes = np.meshgrid(*(block_positions(ell, aj, m) for aj in a), indexing="ij")
        index.append(np.stack([x.ravel() for x in axes], axis=1))
        provenance.append(np.broadcast_to(np.array(a, dtype=np.int64), index[-1].shape))
    index, provenance = np.concatenate(index), np.concatenate(provenance)
    order = np.lexsort(index.T[::-1])
    return index[order], provenance[order]


def _block_point(ell, a, local):
    """Point ``local`` of block ``a`` in exact coordinates, by ``block_positions``."""
    return tuple(F(int(block_positions(ell, aj, aj)[i]), ell << aj) for aj, i in zip(a, local))


class TestBlockRule:
    """Everything derived from ``block_axis`` against the block code it replaced."""

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_slices_are_the_block_positions(self, ell):
        for k in range(9):
            positions = np.arange(ell << k)
            for a in range(k + 1):
                got = positions[block_axis(ell, a).within(ell << k)]
                assert np.array_equal(got, block_positions(ell, a, k))

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_from_lattice_inverts_like_frexp(self, ell):
        # every position of one axis, its value the position itself: the
        # stored block a holds position p at the old block-local index
        for level in range(9):
            index = np.arange(ell << level)
            cache = SampleCache.from_lattice(index, level, index, ell, 1)
            a, local = _frexp_block_index(index, level)
            assert sorted(cache._blocks) == [(lev,) for lev in range(level + 1)]
            assert not cache._absent
            for lev, block in cache._blocks.items():
                assert block.shape == (ell << max(lev[0] - 1, 0),)
            got = np.array([cache._blocks[(aj,)][i] for aj, i in zip(a.tolist(), local.tolist())])
            assert np.array_equal(got, index)

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_from_lattice_inverts_like_frexp_on_two_axes(self, ell):
        level, n = 3, ell << 3
        index = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), axis=-1).reshape(-1, 2)
        cache = SampleCache.from_lattice(index, level, index[:, 0] * n + index[:, 1], ell, 2)
        a, local = _frexp_block_index(index, level)
        for row, (lev, at) in enumerate(zip(map(tuple, a.tolist()), map(tuple, local.tolist()))):
            assert cache._blocks[lev][at] == index[row, 0] * n + index[row, 1]

    @pytest.mark.parametrize("name", sorted(SCHEMES))
    @pytest.mark.parametrize("d, m", [(1, 6), (2, 4), (3, 3), (4, 2)])
    def test_grid_samples_and_missing_points_unchanged(self, name, d, m):
        scheme = SCHEMES[name]()
        ell = scheme.ell
        index, provenance = _blocks_grid(d, m, ell)
        grid = enumerate_grid(d, m, scheme)
        assert _same_bits(grid.index, index) and _same_bits(grid.provenance, provenance)
        assert grid.index.dtype == grid.provenance.dtype == np.int64
        assert count_points(d, m, scheme) == len(index) == sum(
            math.prod(len(block_positions(ell, aj, aj)) for aj in a) for a in multi_indices(d, m))

        cache = SampleCache(TestAgainstReplacedPaths._samples(d), ell, d)
        for k in multi_indices(d, m):
            cache.lattice_values(k)
        expect = {}
        for a, block in cache._blocks.items():
            for local in itertools.product(*(range(n) for n in block.shape)):
                expect[_block_point(ell, a, local)] = float(block[local])
        assert cache.sample_map() == expect

        # without one point of block a, fetching a names that point
        for a in multi_indices(d, m):
            rows = np.flatnonzero((provenance == a).all(axis=1))
            drop = rows[len(rows) // 2]
            keep = np.delete(np.arange(len(index)), drop)
            sparse = SampleCache.from_lattice(index[keep], m, np.zeros(len(keep)), ell, d)
            with pytest.raises(MissingSamples) as exc:
                sparse.lattice_values(a)
            old_a, old_local = _frexp_block_index(index[drop], m)
            assert tuple(old_a.tolist()) == a
            assert exc.value.point == _block_point(ell, a, old_local.tolist())
            assert exc.value.point == tuple(F(int(t), ell << m) for t in index[drop])


def lp(lo, *coeffs):
    return LaurentPoly(lo, coeffs)


class TestBuildScheme:
    def test_order2_symbols(self, faber):
        assert faber.p_lambda == lp(1, 1)
        assert faber.p_even_star == lp(0, "-1/2")
        assert faber.p_odd_star == LaurentPoly.zero()
        assert faber.norm_lambda == 1

    def test_order4_symbols(self, cubic):
        assert cubic.p_lambda == lp(1, "-1/6", "8/6", "-1/6")
        assert cubic.p_even_star == lp(-2, "1/48", "1/12", "1/6", "1/12", "1/48")
        # recentered so the reduced symbol is symmetric about z^0
        assert cubic.p_odd_star == lp(-1, "1/12", "1/3", "1/12")
        assert cubic.p_even_star.coeff_abs_sum() == F(3, 8)
        assert cubic.p_odd_star.coeff_abs_sum() == F(1, 2)

    def test_split_identity_exact(self, faber, cubic):
        from fractions import Fraction
        from math import comb

        d2 = lp(0, -1, 1) ** 2
        d4 = lp(0, -1, 1) ** 4
        assert faber.p_even == d2 * faber.p_even_star
        assert cubic.p_even == d4 * cubic.p_even_star
        assert cubic.p_odd == d4 * cubic.p_odd_star
        # detail symbols plus independently rebuilt refinement parts recombine
        # to the mask symbol, exactly
        for s in (faber, cubic):
            ell = s.ell
            scale = Fraction(1, 2 ** (ell - 1))
            sq = s.p_lambda.substitute_z_squared()
            part_even = scale * (
                sq * LaurentPoly.from_pairs({-2 * j: comb(ell, 2 * j) for j in range(ell // 2 + 1)})
            )
            part_odd = scale * (
                sq * LaurentPoly.from_pairs({-2 * j - 1: comb(ell, 2 * j + 1) for j in range(ell // 2)})
            )
            assert s.p_even + part_even == s.p_lambda
            assert s.p_odd + part_odd == s.p_lambda

    def test_reduced_symbols_symmetric(self, faber, cubic):
        for s in (faber, cubic):
            assert s.p_even_star.is_symmetric()
            assert s.p_odd_star.is_symmetric()

    def test_nodal_cubic_rejected(self):
        with pytest.raises(NotAQuasiInterpolant):
            build_scheme(4, ["1"])

    def test_bad_inputs(self):
        with pytest.raises(InvalidOrder):
            build_scheme(3, ["1"])
        with pytest.raises(ValueError):
            build_scheme(2, ["1", "2"])  # even length
        with pytest.raises(ValueError):
            build_scheme(2, ["1", "2", "3"])  # asymmetric

    @staticmethod
    def _loop_reproduces_polynomials(ell, row):
        """The replaced reproduction check: the non-periodic operator applied
        to each monomial of degree < ell on one mesh cell, in rational arithmetic."""
        mu, half = len(row) // 2, ell // 2
        for degree in range(ell):
            for t in range(ell + 1):
                x = F(t, ell + 1)
                total = F(0)
                for s in range(-ell, 1):
                    weight = eval_cardinal_exact(ell, x - s)
                    if weight:
                        total += weight * sum(row[j + mu] * F(s - j + half) ** degree
                                              for j in range(-mu, mu + 1))
                if total != x**degree:
                    return False
        return True

    def test_symbol_reproduction_check_matches_the_loop(self):
        from sparseqi.quasi_interp import _reproduces_polynomials

        d = LaurentPoly(0, (-1, 1))
        masks = [(2, ("1",)), (4, ("-1/6", "4/3", "-1/6")), (6, ORDER6_MASK), (6, ("0", "1", "0"))]
        # the valid masks widened by a symmetric multiple of (z-1)**ell, which
        # keeps reproduction, and each of them perturbed at its ends
        for ell, row in masks[:3]:
            mu = len(row) // 2
            for c in (F(1, 3), F(-2, 7)):
                wide = LaurentPoly(-mu, row) + c * (d**ell).shift(-ell // 2)
                width = max(mu, ell // 2)
                coeffs = [wide.coefficient(e) for e in range(-width, width + 1)]
                masks.append((ell, coeffs))
                masks.append((ell, [coeffs[0] + F(1, 1000)] + coeffs[1:-1] + [coeffs[-1] + F(1, 1000)]))
        rng = random.Random(5)
        for _ in range(40):
            ell = rng.choice([2, 4, 6, 8])
            side = [F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(rng.randint(ell // 2 - 1, ell // 2 + 1))]
            masks.append((ell, side[::-1] + [F(rng.randint(-5, 9), rng.randint(1, 3))] + side))
        verdicts = []
        for ell, row in masks:
            row = tuple(F(c) for c in row)
            verdicts.append(_reproduces_polynomials(ell, row))
            assert verdicts[-1] == self._loop_reproduces_polynomials(ell, row), (ell, row)
        assert verdicts[:4] == [True, True, True, False]
        assert verdicts[4:16] == [True, False] * 6

    def test_masses_must_reproduce_constants(self):
        # symmetric mask with total mass 2 cannot reproduce 1
        with pytest.raises(NotAQuasiInterpolant):
            build_scheme(2, ["2"])

    @pytest.mark.parametrize("name", ["faber", "cubic"])
    def test_float_reproduction_residual(self, name):
        # frozen float tables reproduce monomials of degree < ell on a window
        scheme = builtin_scheme(name)
        ell, mu = scheme.ell, scheme.mu
        from sparseqi.bspline import eval_cardinal

        lam = [float(c) for c in scheme.lam]
        for degree in range(ell):
            f = lambda t, degree=degree: t**degree
            for x in np.linspace(0.0, 1.0, 23):
                total = 0.0
                for s in range(-ell, 1):
                    w = eval_cardinal(ell, x - s)
                    if w == 0.0:
                        continue
                    lam_val = sum(
                        lam[j + mu] * f(s - j + ell / 2) for j in range(-mu, mu + 1)
                    )
                    total += lam_val * w
                scale = max(1.0, (ell + mu) ** degree)
                assert abs(total - f(x)) < 1e-10 * scale


def _a_coeff(scheme, k, s, f):
    # univariate quasi-interpolant coefficient Lambda(f, s) at level k
    return quasi_coeffs(scheme, SampleCache(f, scheme.ell, 1), (k,))[s]


class TestACoeff:
    def test_unit_mass(self, faber):
        assert _a_coeff(faber, 3, 5, lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_single_term_mask(self, faber):
        # order 2, level 0: reads f at (s + 1)/2
        assert _a_coeff(faber, 0, 0, lambda x: x) == pytest.approx(0.5)

    def test_matches_direct_sum(self, cubic):
        f = lambda x: np.cos(2 * np.pi * x)
        h = 1.0 / (4 * 2**2)
        expected = sum(
            float(cubic.lam[j + 1]) * f(h * (3 - j + 2)) for j in (-1, 0, 1)
        )
        assert _a_coeff(cubic, 2, 3, f) == pytest.approx(expected, abs=1e-14)


class TestDetailCoeff:
    def test_faber_functional(self, faber):
        # even-shift details of the order-2 scheme are -(1/2) * second
        # difference at step h(k) based at the coarse point
        f = lambda x: np.sin(2 * np.pi * x) + x * 0  # vectorized
        for k in (1, 2, 3):
            h = 1.0 / 2 ** (k + 1)
            for s in range(min(3, 2**k)):
                direct = -0.5 * (
                    f(2.0**-k * s + 2 * h) - 2 * f(2.0**-k * s + h) + f(2.0**-k * s)
                )
                assert detail_coeff(faber, (k,), (2 * s,), f) == pytest.approx(direct, abs=1e-14)

    def test_odd_shifts_vanish_for_order2(self, faber):
        f = lambda x: np.cos(2 * np.pi * x)
        assert detail_coeff(faber, (2,), (3,), f) == 0.0

    def test_constant_annihilated(self, cubic):
        f = lambda P: np.full(P.shape[0], 2.75)
        for k in [(1, 0), (2, 1), (1, 2)]:
            for s in [(0, 0), (1, 3)]:
                if sum(k) > 0:
                    assert abs(detail_coeff(cubic, k, s, f)) < 1e-13

    def test_scalar_oracle_entry(self, cubic):
        f = lambda P: np.sin(2 * np.pi * P[:, 0]) * np.cos(4 * np.pi * P[:, 1])
        val = detail_coeff(cubic, (1, 2), (3, 5), f)
        ora = block_coeffs_oracle(cubic, SampleCache(f, cubic.ell, 2), (1, 2))[3, 5]
        assert val == pytest.approx(ora, abs=1e-13)


@pytest.mark.parametrize("name", ["faber", "cubic"])
@pytest.mark.parametrize("d", [1, 2])
def test_formula_vs_oracle_random(name, d):
    scheme = builtin_scheme(name)
    for seed in range(3):
        f = random_mixed_smooth(1.25, 5, d, seed=seed)
        cache = SampleCache(f, scheme.ell, d)
        for k in multi_indices(d, 3):
            direct = block_coeffs(scheme, cache, k)
            oracle = block_coeffs_oracle(scheme, cache, k)
            scale = max(1e-9, np.max(np.abs(direct)))
            assert np.max(np.abs(direct - oracle)) < 1e-11 * scale


@pytest.mark.parametrize("name", ["faber", "cubic"])
@pytest.mark.parametrize("d,m", [(1, 4), (2, 3)])
def test_telescoping_inclusion_exclusion(name, d, m):
    # third path: combine full quasi-interpolants on anisotropic lattices
    # with binomial alternation over the top level sums
    from math import comb

    scheme = builtin_scheme(name)
    f = random_mixed_smooth(1.0, 4, d, seed=7)
    cache = SampleCache(f, scheme.ell, d)
    hc = decompose(scheme, f, m, d, cache=cache)
    pts = rng_points(40, d, seed=3)
    direct = hc.eval_points(pts)

    combo = np.zeros(len(pts))
    for k in multi_indices(d, m):
        if sum(k) < m - d + 1:
            continue
        coeff = (-1.0) ** (m - sum(k)) * comb(d - 1, m - sum(k))
        if coeff == 0:
            continue
        A = quasi_coeffs(scheme, cache, k)
        single = HierCoeffs(d, scheme.ell, sum(k), {k: A})
        combo += coeff * single.eval_points(pts)
    assert np.max(np.abs(direct - combo)) < 1e-11


class TestDecompose:
    def test_constant_only_base_block(self, cubic):
        f = lambda P: np.full(P.shape[0], 3.25)
        hc = decompose(cubic, f, 3, 2)
        for k, C in hc.block_items():
            if sum(k) == 0:
                assert np.max(np.abs(C)) > 1.0
            else:
                assert np.max(np.abs(C)) < 1e-12
        pts = rng_points(20, 2)
        assert np.max(np.abs(hc.eval_points(pts) - 3.25)) < 1e-12

    def test_base_level_coefficient_placement(self, faber):
        # order 2, level 0, d = 1: the two coefficients read f(1/2) and f(0)
        f = lambda x: 10.0 * x + 1.0
        hc = decompose(faber, f, 0, 1)
        C = hc.block((0,))
        assert C[0] == pytest.approx(f(0.5))
        assert C[1] == pytest.approx(f(0.0))  # wraps: reads f(1) = f(0)

    def test_parabola_tail_bound(self, faber):
        g = lambda x: (x % 1.0) * (1.0 - (x % 1.0))
        hc = decompose(faber, g, 6, 1)
        xs = rng_points(1000, 1, seed=11)
        resid = np.abs(hc.eval_points(xs) - g(xs[:, 0]))
        assert resid.max() < 4.0**-6
        # frozen detail size: all even coefficients at level k equal 4^-(k+1)
        for k in (1, 3, 5):
            C = hc.block((k,))
            assert np.allclose(C[::2], 4.0 ** -(k + 1), atol=1e-15)
            assert np.all(C[1::2] == 0.0)

    def test_projector_round_trip_interpolatory(self, faber):
        f = lambda P: np.sin(2 * np.pi * P[:, 0]) * np.cos(4 * np.pi * P[:, 1])
        hc1 = decompose(faber, f, 3, 2)
        hc2 = decompose(faber, hc1, 3, 2)
        for k, C in hc1.block_items():
            assert np.max(np.abs(C - hc2.block(k))) < 1e-12

    def test_quasi_interpolant_sup_bound(self, cubic):
        # |Q_k f| <= |mask|_1 * |f|_inf pointwise
        f = random_mixed_smooth(1.0, 6, 1, seed=2)
        xs = np.linspace(0, 1, 2000, endpoint=False)
        f_inf = np.max(np.abs(f.eval_points(xs[:, None])))
        bound = float(cubic.norm_lambda) * f_inf
        for k in (0, 2, 4):
            A = quasi_coeffs(cubic, SampleCache(f, 4, 1), (k,))
            qk = HierCoeffs(1, 4, k, {(k,): A})
            assert np.max(np.abs(qk.eval_points(xs[:, None]))) <= bound * (1 + 1e-12)


class TestSampleCache:
    def test_each_point_evaluated_once(self):
        from sparseqi.smolyak import count_points

        schemes = [builtin_scheme("faber"), builtin_scheme("cubic"), build_scheme(6, ORDER6_MASK)]
        for scheme, (d, m) in itertools.product(schemes, [(1, 4), (2, 3), (3, 2)]):
            rng = np.random.default_rng(d)
            sources = [
                lambda P: np.prod(np.sin(2 * np.pi * P.reshape(len(P), -1)), axis=1),
                random_mixed_smooth(1.25, 4, d, seed=d),
                HierCoeffs(d, scheme.ell, 2, {
                    k: rng.normal(size=tuple(scheme.ell << kj for kj in k))
                    for k in multi_indices(d, 2)
                }),
            ]
            for f in sources:
                rec = RecordingSource(f)
                cache = SampleCache(rec, scheme.ell, d)
                decompose(scheme, rec, m, d, cache=cache)
                n_calls = len(rec.calls)
                assert rec.points() == cache.evaluations == len(cache) == count_points(d, m, scheme)
                decompose(scheme, rec, m, d, cache=cache)
                assert len(rec.calls) == n_calls  # fully served from the cache

    def test_exact_dyadic_dedup_across_levels(self, faber):
        cache = SampleCache(lambda x: x, faber.ell, 1)
        cache.lattice_values((2,))
        n_fine = len(cache)
        cache.lattice_values((1,))  # coarse lattice is a subset
        assert len(cache) == n_fine

    @pytest.mark.parametrize("d, shape", [(1, (5 * _CHUNK // 2,)), (2, (1024, 600))])
    def test_grid_values_fallback_chunks_bit_equal(self, d, shape):
        # a plain vectorised callable on a grid of more than one _CHUNK slab
        # gives the values of one unchunked batch call
        f = lambda P: np.cos(2 * np.pi * P.reshape(len(P), -1)).prod(axis=1) + P.reshape(len(P), -1)[:, 0] ** 3
        axes = [LatticeAxis(0, 1, n) for n in shape]
        assert np.prod(shape) > _CHUNK
        mesh = np.stack(np.meshgrid(*(a.points() for a in axes), indexing="ij"), axis=-1).reshape(-1, d)
        assert np.array_equal(grid_values(f, d, axes), f(mesh).reshape(shape))

    def test_grid_values_fallback_peak_below_the_mesh(self):
        # the slabs bound the temporaries: a 2048**2 grid with a plain callable
        # stays below the 64 MiB of its (n, d) point mesh, values included
        import tracemalloc

        n, d = 2048, 2
        axes = [LatticeAxis(0, 1, n)] * d
        tracemalloc.start()
        try:
            values = grid_values(lambda P: P[:, 0] + P[:, 1], d, axes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (n, n) and values[3, 5] == (3 + 5) / n
        assert peak < n**d * d * 8

    def test_value_map_missing_sample(self, faber):
        cache = SampleCache.from_values({(F(0), F(0)): 1.0}, faber.ell, 2)
        with pytest.raises(MissingSamples) as exc:
            cache.lattice_values((0, 0))
        assert isinstance(exc.value.point, tuple)


class FractionSampleCache:
    """The sample cache this package used before block indices: one dict
    entry per point, keyed by exact rational coordinates."""

    def __init__(self, f, ell, d):
        self.ell = ell
        self._store = {}
        self._batch = None if f is None else as_batch_function(f, d)
        self._grid = getattr(f, "eval_on_axes", None)
        self.evaluations = 0

    @classmethod
    def from_values(cls, values, ell, d):
        cache = cls(None, ell, d)
        for key, val in values.items():
            cache._store[tuple(F(c) for c in key)] = float(val)
        return cache

    def lattice_values(self, k):
        axes = [tuple(F(t, self.ell << kj) for t in range(self.ell << kj)) for kj in k]
        out = np.empty(tuple(len(a) for a in axes))
        flat = out.ravel()
        missing_pos, missing_keys = [], []
        for pos, key in enumerate(itertools.product(*axes)):
            val = self._store.get(key)
            if val is None:
                missing_pos.append(pos)
                missing_keys.append(key)
            else:
                flat[pos] = val
        if missing_keys:
            if self._batch is None:
                raise MissingSamples(missing_keys[0])
            if self._grid is not None and len(missing_keys) > out.size // 4:
                fresh = np.asarray(self._grid([LatticeAxis(0, 1, len(a)) for a in axes])).ravel()
                vals = fresh[missing_pos]
            else:
                vals = self._batch(np.array([[float(c) for c in key] for key in missing_keys]))
            for pos, key, val in zip(missing_pos, missing_keys, vals):
                self._store[key] = float(val)
                flat[pos] = val
            self.evaluations += len(missing_keys)
        return out

    def __len__(self):
        return len(self._store)


class RecordingSource:
    """A sample source that records the batches a cache asks it for."""

    def __init__(self, f):
        self.f, self.calls = f, []
        if hasattr(f, "eval_on_axes"):
            self.eval_on_axes = self._on_axes
            self.eval_points = self._points

    def _on_axes(self, axes):
        self.calls.append(("axes", [a.points() for a in axes]))
        return self.f.eval_on_axes(axes)

    def _points(self, P):
        self.calls.append(("points", [np.array(P)]))
        return self.f.eval_points(P)

    def __call__(self, P):
        self.calls.append(("call", [np.array(P)]))
        return self.f(P)

    def points(self):
        """The number of points asked for over all calls."""
        return sum(
            int(np.prod([len(a) for a in args])) if kind == "axes" else len(args[0])
            for kind, args in self.calls
        )

    def blocks(self, ell, d, m):
        """The block each recorded call covers exactly, or None for a call
        that covers no single block's points."""
        expect = {}
        for a in multi_indices(d, m):
            axes = [block_positions(ell, aj, aj) / (ell << aj) for aj in a]
            mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
            expect[a] = {"axes": axes, "call": [mesh[:, 0] if d == 1 else mesh]}
        return [
            next((a for a, e in expect.items() if kind in e and len(args) == len(e[kind])
                  and all(np.array_equal(x, y) for x, y in zip(args, e[kind]))), None)
            for kind, args in self.calls
        ]


class TestAgainstFractionCache:
    @staticmethod
    def plain(P):
        P = P.reshape(len(P), -1)  # d == 1 callables receive an (n,) array
        return np.sin(2 * np.pi * P[:, 0]) * np.cos(4 * np.pi * P[:, -1]) + P[:, 0] ** 3

    @staticmethod
    def assert_close(new, old, f):
        # exact for pointwise sources; a trigonometric polynomial is summed
        # in a different order on a block than on a whole lattice
        if isinstance(f, TrigFunction):
            assert np.max(np.abs(new - old)) <= 1e-13 * np.abs(f.C).sum()
        else:
            assert np.array_equal(new, old)

    @pytest.mark.parametrize("d,m", [(1, 5), (2, 4), (3, 3)])
    @pytest.mark.parametrize("source", ["trig", "plain"])
    def test_shuffled_visit_orders(self, cubic, d, m, source):
        # each block is fetched once, from its own points only, whatever the
        # order in which lattices are visited
        f = random_mixed_smooth(1.25, 6, d, seed=4) if source == "trig" else self.plain
        for seed in range(3):
            ks = list(multi_indices(d, m)) * 2
            random.Random(seed).shuffle(ks)
            f_new = RecordingSource(f)
            new = SampleCache(f_new, cubic.ell, d)
            old = FractionSampleCache(f, cubic.ell, d)
            for k in ks:
                self.assert_close(new.lattice_values(k), old.lattice_values(k), f)
                assert new.evaluations == old.evaluations
                assert len(new) == len(old)
            blocks = f_new.blocks(cubic.ell, d, m)
            assert None not in blocks
            assert sorted(blocks) == sorted(multi_indices(d, m))

    @pytest.mark.parametrize("d,m", [(1, 5), (2, 4), (3, 3)])
    @pytest.mark.parametrize("source", ["trig", "plain"])
    def test_values_independent_of_visit_order(self, cubic, d, m, source):
        f = random_mixed_smooth(1.25, 6, d, seed=4) if source == "trig" else self.plain
        ks = list(multi_indices(d, m))
        forward, reverse = SampleCache(f, cubic.ell, d), SampleCache(f, cubic.ell, d)
        for k in ks:
            forward.lattice_values(k)
        for k in reversed(ks):
            reverse.lattice_values(k)
        for k in ks:
            assert np.array_equal(forward.lattice_values(k), reverse.lattice_values(k))

    def test_sample_map_round_trip(self, cubic):
        f = random_mixed_smooth(1.25, 4, 2, seed=6)
        cache = SampleCache(f, cubic.ell, 2)
        decompose(cubic, f, 3, 2, cache=cache)
        old = FractionSampleCache(f, cubic.ell, 2)
        for k in multi_indices(2, 3):
            old.lattice_values(k)
        samples = cache.sample_map()
        assert samples.keys() == old._store.keys()
        points = list(samples)
        self.assert_close(np.array([samples[p] for p in points]),
                          np.array([old._store[p] for p in points]), f)
        again = SampleCache.from_values(samples, cubic.ell, 2)
        for k in multi_indices(2, 3):
            assert np.array_equal(again.lattice_values(k), cache.lattice_values(k))
        assert again.evaluations == 0

    def test_partial_value_map(self, cubic):
        from sparseqi.smolyak import enumerate_grid

        grid = enumerate_grid(2, 3, cubic)
        full = {pt: float(i) for i, pt in enumerate(grid.points)}
        rng = np.random.default_rng(0)
        for drop in rng.choice(grid.n, size=6, replace=False):
            dropped = grid.points[drop]
            block = tuple(grid.provenance[drop].tolist())
            values = {pt: v for pt, v in full.items() if pt != dropped}
            new = SampleCache.from_values(values, cubic.ell, 2)
            old = FractionSampleCache.from_values(values, cubic.ell, 2)
            for k in multi_indices(2, 3):
                if all(a <= kj for a, kj in zip(block, k)):
                    # the lattice needs the dropped point: both name the same
                    # absent point, the first one in row-major order
                    with pytest.raises(MissingSamples) as exc:
                        new.lattice_values(k)
                    with pytest.raises(MissingSamples) as exc_old:
                        old.lattice_values(k)
                    assert exc.value.point == exc_old.value.point == dropped
                else:
                    assert np.array_equal(new.lattice_values(k), old.lattice_values(k))

    def test_value_map_keys_off_the_lattices_ignored(self, faber):
        values = {(F(t, 4),): float(t) for t in range(4)}
        values[(F(1, 3),)] = -1.0  # on no dyadic lattice of order 2
        values[(F(1),)] = -1.0  # outside [0, 1)
        values[(F(1, 16),)] = -1.0  # on a finer lattice than requested
        values[("1/2",)] = 20.0  # same point as 2/4: the later value counts
        cache = SampleCache.from_values(values, faber.ell, 1)
        assert cache.lattice_values((1,)).tolist() == [0.0, 1.0, 20.0, 3.0]
        assert cache.lattice_values((0,)).tolist() == [0.0, 20.0]
        with pytest.raises(MissingSamples) as exc:
            cache.lattice_values((2,))
        assert exc.value.point == (F(1, 8),)


class TestHierCoeffs:
    def test_json_round_trip(self, cubic):
        f = random_mixed_smooth(1.25, 4, 2, seed=5)
        hc = decompose(cubic, f, 2, 2)
        blob = json.dumps(hc.to_json())
        back = HierCoeffs.from_json(json.loads(blob))
        pts = rng_points(50, 2)
        assert np.array_equal(hc.eval_points(pts), back.eval_points(pts))

    def test_items_match_full_scan(self):
        # nonzero entries in row-major order, -0.0 skipped and NaN kept, as a
        # scan over every shift gives them
        rng = np.random.default_rng(2)
        blocks = {}
        for k in multi_indices(2, 2):
            shape = (2 << k[0], 2 << k[1])
            C = np.where(rng.random(shape) < 0.3, rng.normal(size=shape), 0.0)
            C[0, 0] = -0.0
            blocks[k] = C
        blocks[(1, 1)][1, 2] = np.nan
        hc = HierCoeffs(2, 2, 2, blocks)
        scan = [
            (k, s, float(C[s]))
            for k, C in hc.block_items()
            for s in itertools.product(*(range(n) for n in C.shape))
            if C[s] != 0.0
        ]
        got = list(hc.items())
        assert [(k, s) for k, s, _ in got] == [(k, s) for k, s, _ in scan]
        assert all(type(v) is int for _, s, _ in got for v in s)
        assert np.array_equal([c for *_, c in got], [c for *_, c in scan], equal_nan=True)

    @pytest.mark.parametrize("ell", [2, 4, 6])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_json_text_is_the_indented_dump(self, d, ell):
        rng = np.random.default_rng([d, ell])
        m = 3 if d <= 2 else 2
        blocks = {}
        for k in multi_indices(d, m):
            shape = tuple(ell << kj for kj in k)
            C = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
            C[rng.random(shape) < 0.3] = 0.0
            C.flat[-1] = -0.0
            blocks[k] = C
        first, second, *_, last = sorted(blocks)
        blocks[first].flat[0] = np.nan
        blocks[second].flat[0] = np.inf
        blocks[second].flat[1] = -np.inf
        blocks[last].flat[0] = 5e-324  # subnormal
        blocks[(0,) * d][...] = 0.0  # an all-zero block
        scheme_id = f'ell{ell}["-1/6"] \u00e9 \\'  # a quote, non-ASCII and a backslash
        for hc in (HierCoeffs(d, ell, m, blocks, scheme_id), HierCoeffs(d, ell, m, {}, scheme_id)):
            assert hc.to_json_text() == json.dumps(hc.to_json(), indent=2) + "\n"

    def test_entries_sorted(self, faber):
        f = lambda P: np.sin(2 * np.pi * P[:, 0]) + np.cos(2 * np.pi * P[:, 1])
        hc = decompose(faber, f, 2, 2)
        keys = [(sum(k), k, s) for k, s, _ in hc.items()]
        assert keys == sorted(keys)

    def test_empty_evaluates_to_zero(self):
        hc = HierCoeffs(2, 2, 0, {})
        assert hc((0.3, 0.7)) == 0.0

    def test_single_entry_matches_basis(self, faber):
        from sparseqi.bspline import eval_tensor

        C = np.zeros((8, 4))
        C[5, 2] = 1.75
        hc = HierCoeffs(2, 2, 3, {(2, 1): C})
        for x in rng_points(20, 2, seed=9):
            expect = 1.75 * eval_tensor(2, (2, 1), (5, 2), x)
            assert hc(tuple(x)) == pytest.approx(expect, abs=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            HierCoeffs(1, 2, 1, {(2,): np.zeros(8)})  # exceeds max level
        with pytest.raises(ValueError):
            HierCoeffs(1, 2, 2, {(1,): np.zeros(3)})  # wrong shape


class TestConcurrency:
    def test_parallel_evaluation_deterministic(self, cubic):
        # immutable after construction: concurrent readers see one value
        from concurrent.futures import ThreadPoolExecutor

        f = random_mixed_smooth(1.25, 6, 2, seed=10)
        hc = decompose(cubic, f, 3, 2)
        pts = rng_points(500, 2, seed=11)
        expect = hc.eval_points(pts)
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: hc.eval_points(pts), range(16)))
        for got in results:
            assert np.array_equal(got, expect)

    def test_concurrent_cache_races_benign(self, faber):
        # racing threads fetch each block once, under the cache's lock, so the
        # outcome is bit-equal to serial and every point is counted once
        import sys
        from concurrent.futures import ThreadPoolExecutor

        from sparseqi.smolyak import count_points

        tf = random_mixed_smooth(1.0, 4, 2, seed=12)
        plain = lambda P: np.sin(2 * np.pi * P[:, 0]) * np.cos(4 * np.pi * P[:, 1])
        ks = list(multi_indices(2, 3)) * 4
        for f in (plain, tf):
            hc = decompose(faber, f, 3, 2)
            for _ in range(20):
                cache = SampleCache(f, faber.ell, 2)
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)  # switch threads often, to provoke races
                try:
                    with ThreadPoolExecutor(max_workers=8) as pool:
                        list(pool.map(lambda k: block_coeffs(faber, cache, k), ks))
                finally:
                    sys.setswitchinterval(interval)
                assert cache.evaluations == len(cache) == count_points(2, 3, faber)
                hc2 = decompose(faber, f, 3, 2, cache=cache)
                for k, C in hc.block_items():
                    assert np.array_equal(C, hc2.block(k))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_hier_coeffs_json_round_trip_property(data):
    import json as _json

    d = data.draw(st.integers(1, 2))
    m = data.draw(st.integers(0, 3))
    ell = data.draw(st.sampled_from([2, 4]))
    blocks = {}
    for k in multi_indices(d, m):
        if not data.draw(st.booleans()):
            continue
        shape = tuple((ell << kj) for kj in k)
        n_entries = data.draw(st.integers(0, 3))
        C = np.zeros(shape)
        for _ in range(n_entries):
            idx = tuple(data.draw(st.integers(0, n - 1)) for n in shape)
            C[idx] = data.draw(
                st.floats(-10, 10, allow_nan=False, allow_infinity=False)
            )
        blocks[k] = C
    hc = HierCoeffs(d, ell, m, blocks)
    back = HierCoeffs.from_json(_json.loads(_json.dumps(hc.to_json())))
    pts = rng_points(20, d, seed=1)
    assert np.array_equal(hc.eval_points(pts), back.eval_points(pts))
    assert list(hc.items()) == list(back.items())
