import itertools

import numpy as np
import pytest

from sparseqi import analysis
from sparseqi.analysis import (
    _cbc_generator,
    DegenerateFit,
    FieldDifference,
    LatticeField,
    LatticeTooLarge,
    ResolutionTooLow,
    besov_block_norm,
    difference,
    fit_rate,
    lp_block_norm,
    lq_norm,
    recovery_error,
    sobolev_norm_fourier,
    sweep_field,
)
from sparseqi.quasi_interp import HierCoeffs, LatticeAxis, as_batch_function, block_axis, decompose, grid_values
from sparseqi.testfuncs import TrigFunction, random_mixed_smooth


class TestLqNorm:
    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, np.inf])
    def test_power_mean_matches_replaced_formula(self, q):
        # the replaced formula: np.abs, then a**q, both the size of the values
        rng = np.random.default_rng(int(q) if np.isfinite(q) else 9)
        n = 3 * analysis._NORM_CHUNK + 17
        values = rng.standard_normal(n) * np.exp(rng.standard_normal(n))
        for v in (values, values[2::7], values[: n - n % 12].reshape(-1, 4, 3), (1 - 2j) * values):
            a = np.abs(v)
            old = float(a.max()) if np.isinf(q) else float(np.mean(a**q) ** (1.0 / q))
            assert analysis._power_mean_norm(v, q) == pytest.approx(old, rel=1e-14, abs=0)

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0, np.inf])
    def test_power_mean_makes_no_value_sized_temporary(self, q):
        import tracemalloc

        values = np.random.default_rng(0).standard_normal(1 << 20)
        tracemalloc.start()
        try:
            analysis._power_mean_norm(values, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 8 * analysis._NORM_CHUNK < values.nbytes / 2

    def test_zero(self):
        assert lq_norm(lambda x: 0.0 * x, 2.0, 1, 64) == 0.0

    def test_unit_constant(self):
        for q in (1.5, 2.0, 4.0, np.inf):
            assert lq_norm(lambda x: np.ones_like(x), q, 1, 64) == pytest.approx(1.0)

    def test_sine_closed_form(self):
        val = lq_norm(lambda x: np.sin(2 * np.pi * x), 2.0, 1, 2**12)
        assert val == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-10)

    def test_resolution_guard(self):
        with pytest.raises(ResolutionTooLow):
            lq_norm(lambda x: x, 2.0, 1, 32, min_level=5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lattice_size_cap_raises_before_evaluating(self, monkeypatch, d):
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 1000)
        calls = []
        f = lambda x: calls.append(1) or np.ones(len(x))
        fits = int(1000 ** (1 / d) + 1e-9)
        assert lq_norm(f, 2.0, d, fits) == 1.0
        with pytest.raises(LatticeTooLarge, match=f"{fits + 1}\\*\\*{d} = {(fits + 1) ** d} points"):
            lq_norm(f, 2.0, d, fits + 1)
        assert len(calls) == 1

    def test_lattice_size_cap_admits_512_cubed(self):
        class Reached(Exception):
            pass

        class Stub:  # stops at the evaluation, so nothing of lattice size is allocated
            def eval_on_axes(self, axes):
                raise Reached([a.n for a in axes])

        with pytest.raises(Reached) as hit:
            lq_norm(Stub(), 2.0, 3, 512)
        assert hit.value.args[0] == [512, 512, 512]
        with pytest.raises(LatticeTooLarge, match="513\\*\\*3 = 135005697 points"):
            lq_norm(Stub(), 2.0, 3, 513)

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            lq_norm(lambda x: x, 1.0, 1, 64)

    def test_resolution_convergence_on_smooth_fixture(self):
        f = lambda x: np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
        coarse = lq_norm(f, 3.0, 1, 256)
        fine = lq_norm(f, 3.0, 1, 512)
        assert abs(fine - coarse) < 0.01 * fine

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("source", ["trig", "callable"])
    def test_complex_source_measured_by_modulus(self, d, source):
        # |exp(2 pi i (x_1 + ... + x_d))| = 1 everywhere; its real part alone
        # has L2 norm 1/sqrt(2)
        if source == "trig":
            f = TrigFunction(d, {(1,) * d: 1.0})
        else:
            f = lambda P: np.exp(2j * np.pi * (P if d == 1 else P.sum(axis=1)))
        for q in (2.0, np.inf):
            assert lq_norm(f, q, d, 64 if d <= 3 else 1000) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_real_fixture_values_stay_float64(self, d):
        f = random_mixed_smooth(1.25, 4, d, seed=d)
        axes = [LatticeAxis(0, 1, 16)] * d
        assert grid_values(f, d, axes).dtype == np.float64
        assert as_batch_function(f, d)(np.full((5, d), 0.25)).dtype == np.float64

    def test_high_dimensional_sampled_path(self):
        # product of sines in d=4 on the rank-1 lattice rule
        f = lambda P: np.prod(np.sin(2 * np.pi * P), axis=1)
        val = lq_norm(f, 2.0, 4, 1 << 14)
        assert val == pytest.approx(2.0 ** (-2.0), rel=0.02)


class TestRankOneLattice:
    @pytest.mark.parametrize(
        "resolution, n", [(1 << 14, 16381), (200_000, 199_999), (98, 97), (97, 97)]
    )
    def test_points_are_the_rank1_lattice_of_the_largest_prime(self, resolution, n):
        seen = []
        f = lambda P: seen.append(P.copy()) or np.ones(len(P))
        assert lq_norm(f, 2.0, 4, resolution) == 1.0
        (P,) = seen
        z = np.array(_cbc_generator(n, 4))
        assert P.shape == (n, 4)
        np.testing.assert_array_equal(P, np.outer(np.arange(n), z) % n / n)

    @pytest.mark.parametrize("n", [2, 3, 101, 16381])
    def test_generator_range(self, n):
        for d in (4, 5, 8):
            z = np.array(_cbc_generator(n, d))
            assert z.shape == (d,) and z[0] == 1
            assert np.all((z >= 1) & (z < n))

    def test_resolution_below_two_raises(self):
        with pytest.raises(ResolutionTooLow):
            lq_norm(lambda P: P[:, 0], 2.0, 4, 1)

    def test_parseval_exact_off_the_dual_lattice(self):
        # |f|**2 has frequencies nu - nu'; the lattice rule integrates each
        # nonzero one to zero when it is off the dual lattice (h.z != 0 mod n)
        d, resolution = 5, 1 << 14
        n = 16381  # the largest prime <= resolution
        z = _cbc_generator(n, d)
        rng = np.random.default_rng(3)
        modes = {}
        for _ in range(8):  # a real polynomial: conjugate pairs of modes
            nu, c = rng.integers(-4, 5, size=d), complex(*rng.standard_normal(2))
            modes[tuple(nu.tolist())], modes[tuple((-nu).tolist())] = c, c.conjugate()
        for nu, mu in itertools.permutations(modes, 2):
            assert (np.subtract(nu, mu) @ z) % n != 0
        f = TrigFunction(d, modes, real=True)
        exact = np.sqrt(sum(abs(c) ** 2 for c in modes.values()))
        assert lq_norm(f, 2.0, d, resolution) == pytest.approx(exact, rel=1e-12)

    def test_fast_cbc_matches_exhaustive_search(self):
        # every component minimises the worst-case error criterion over all
        # candidates; ties (z and n - z give the same rule) may pick either
        n, d = 101, 5
        i = np.arange(n)
        kernel = lambda z: 1 + 2 * np.pi**2 * ((i * z % n / n) ** 2 - i * z % n / n + 1 / 6)
        z = _cbc_generator(n, d)
        prod = kernel(1)
        for zj in z[1:]:
            best = min(np.sum(prod * kernel(c)) for c in range(1, n))
            assert np.sum(prod * kernel(zj)) == pytest.approx(best, rel=1e-12)
            prod = prod * kernel(zj)


class TestSobolevNormFourier:
    def test_constant(self):
        assert sobolev_norm_fourier({(0, 0): 1.0}, 1.5) == 1.0

    def test_single_mode(self):
        val = sobolev_norm_fourier({(1, 0): 0.5}, 1.0)
        assert val == pytest.approx(0.5 * np.sqrt(2.0))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(3)
        modes = {}
        for _ in range(5):
            s = tuple(rng.integers(-4, 5, size=2))
            modes[s] = complex(rng.normal(), rng.normal())
        r = 1.25
        direct = 0.0
        for s, c in modes.items():
            direct += abs(c) ** 2 * np.prod([(1.0 + sj**2) ** r for sj in s])
        assert sobolev_norm_fourier(modes, r) == pytest.approx(np.sqrt(direct), abs=1e-14)

    def test_trig_function_object(self):
        f = random_mixed_smooth(1.25, 6, 2, seed=0)
        assert sobolev_norm_fourier(f, 1.25) == pytest.approx(1.0, abs=1e-9)


class TestBlockNorms:
    def test_constant_function(self, cubic):
        f = lambda P: np.full(P.shape[0], 1.75)
        val = lp_block_norm(f, cubic, 1.25, 2.0, 3, d=1)
        assert val == pytest.approx(1.75, abs=1e-10)
        bes = besov_block_norm(f, cubic, 1.25, 2.0, 1.0, 3, d=1)
        assert bes == pytest.approx(1.75, abs=1e-10)

    def test_parseval_sanity(self, cubic):
        # r = 0 block norm approaches the L2 norm from below for band-limited f
        f = random_mixed_smooth(1.25, 3, 1, seed=6)
        l2 = lq_norm(f, 2.0, 1, 2**10)
        blk = lp_block_norm(f, cubic, 0.0, 2.0, 7, d=1)
        assert blk < l2 * 1.02
        assert blk > 0.98 * l2

    def test_single_block_scaling(self, faber):
        # a lone even-shift hat is its own hierarchical decomposition under
        # the interpolatory order-2 scheme, so the besov aggregation reduces
        # to its weighted Lp norm
        C = np.zeros(8)
        C[4] = 1.0
        hc = HierCoeffs(1, 2, 2, {(2,): C})
        r, p = 1.0, 2.0
        norm = besov_block_norm(hc, faber, r, p, 1.0, 4, d=1, resolution=2**9)
        direct = 2.0 ** (r * 2) * lq_norm(hc, p, 1, 2**9)
        assert norm == pytest.approx(direct, rel=1e-12)

    def test_scaled_single_spline_sweep_bounded(self, faber):
        # level-normalized lone splines keep a bounded weighted block norm
        # across levels (each is its own decomposition for the order-2 scheme)
        r = 1.0
        values = []
        for k0 in range(1, 6):
            C = np.zeros(2 ** (k0 + 1))
            C[2] = 2.0 ** (-r * k0)
            hc = HierCoeffs(1, 2, k0, {(k0,): C})
            values.append(lp_block_norm(hc, faber, r, 2.0, k0 + 1, d=1, resolution=2**8))
        assert max(values) <= 1.0
        assert all(v > 0 for v in values)

    def test_besov_sup_aggregation(self, faber):
        f = random_mixed_smooth(1.0, 4, 1, seed=8)
        m = 4
        norms = []
        from sparseqi.quasi_interp import SampleCache

        cache = SampleCache(f, faber.ell, 1)
        hc = decompose(faber, f, m, 1, cache=cache)
        axes = [np.arange(2**7) / 2**7]
        for k, C in hc.block_items():
            single = HierCoeffs(1, faber.ell, sum(k), {k: C})
            norms.append(2.0 ** (0.75 * sum(k)) * lq_norm(single, 2.0, 1, 2**7))
        sup = besov_block_norm(f, faber, 0.75, 2.0, np.inf, m, d=1, resolution=2**7, cache=cache)
        assert sup == pytest.approx(max(norms), rel=1e-12)

    @pytest.mark.parametrize("norm", ["lp", "besov"])
    @pytest.mark.parametrize("d,resolution,error", [
        (2, 16, ResolutionTooLow),  # below 2**(3+2) = 32 at m = 3
        (2, 32, LatticeTooLarge),  # 32**2 points > 1000
        (3, 32, LatticeTooLarge),
    ])
    def test_guards_run_before_sampling(self, monkeypatch, cubic, norm, d, resolution, error):
        from sparseqi.quasi_interp import SampleCache

        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 1000)
        f = random_mixed_smooth(1.25, 2, d, seed=0)
        cache = SampleCache(f, cubic.ell, d)
        with pytest.raises(error):
            if norm == "lp":
                lp_block_norm(f, cubic, 1.25, 2.0, 3, d=d, resolution=resolution, cache=cache)
            else:
                besov_block_norm(f, cubic, 1.25, 2.0, 1.0, 3, d=d, resolution=resolution, cache=cache)
        assert cache.evaluations == 0


class TestDifference:
    def test_empty_axes_identity(self):
        f = lambda P: P[:, 0] * 2 + P[:, 1]
        assert difference(f, 2, (), (0.1, 0.1), (0.3, 0.4)) == pytest.approx(1.0)

    def test_hand_expansion(self):
        f = lambda x: np.asarray(x) ** 2
        # f(0) - 2 f(0.1) + f(0.2) = 0 - 0.02 + 0.04
        val = difference(f, 2, (0,), (0.1,), (0.0,))
        assert val == pytest.approx(0.02, abs=1e-15)

    @pytest.mark.parametrize("ell", [2, 4])
    def test_annihilates_low_degree(self, ell):
        for deg in range(ell):
            f = lambda P, deg=deg: P[:, 0] ** deg + (P[:, 1] + 0.5) ** deg
            val = difference(f, ell, (0, 1), (0.05, 0.07), (0.2, 0.1))
            assert abs(val) < 1e-12

    def test_product_rule_across_axes(self):
        f = lambda P: np.exp(P[:, 0]) * np.sin(P[:, 1] + 0.3)
        x, h = (0.2, 0.4), (0.03, 0.05)
        both = difference(f, 2, (0, 1), h, x)

        def inner(P):
            return np.array([difference(f, 2, (1,), h, (xi, yi)) for xi, yi in P])

        nested = difference(inner, 2, (0,), h, x)
        assert both == pytest.approx(nested, abs=1e-13)


class TestFitRate:
    def test_recovers_pure_exponent(self):
        errors = {m: 2.0 ** (-1.5 * m) for m in range(3, 11)}
        fit = fit_rate(errors, "pure_dyadic")
        assert fit.rho == pytest.approx(1.5, abs=1e-12)
        assert fit.beta == 0.0
        assert fit.residual < 1e-12

    def test_recovers_log_power(self):
        errors = {m: 2.0 ** (-m) * m**0.5 for m in range(3, 11)}
        fit = fit_rate(errors, "dyadic_logpow")
        assert fit.rho == pytest.approx(1.0, abs=1e-10)
        assert fit.beta == pytest.approx(0.5, abs=1e-10)
        assert fit.residual < 1e-10

    def test_too_few_levels(self):
        with pytest.raises(DegenerateFit):
            fit_rate({3: 1.0, 4: 0.5, 5: 0.25})

    def test_non_decreasing_errors(self):
        with pytest.raises(DegenerateFit):
            fit_rate({m: float(m) for m in range(3, 9)})

    def test_non_positive_errors(self):
        errors = {m: 2.0**-m for m in range(3, 9)}
        errors[5] = 0.0
        with pytest.raises(DegenerateFit):
            fit_rate(errors)

    def test_default_drop_keeps_four_levels(self):
        errors = {m: 2.0**-m for m in range(3, 8)}  # five levels
        fit = fit_rate(errors)
        assert fit.range == (4, 7)

    def test_json_shape(self):
        errors = {m: 2.0**-m for m in range(3, 9)}
        blob = fit_rate(errors, "pure_dyadic").to_json()
        assert set(blob) >= {"rho", "beta", "C", "residual", "range"}


def test_recovery_error_decreases(faber):
    f = random_mixed_smooth(1.0, 8, 2, seed=0)
    errs = []
    from sparseqi.quasi_interp import SampleCache

    cache = SampleCache(f, faber.ell, 2)
    for m in (2, 3, 4):
        hc = decompose(faber, f, m, 2, cache=cache)
        errs.append(recovery_error(f, hc, 2.0))
    assert errs[0] > errs[1] > errs[2]


def test_field_difference_requires_dimension():
    with pytest.raises(ValueError):
        FieldDifference(lambda x: x, lambda x: x)


def _float_lattice(x):
    """``(x0, n)`` of a float axis ``x0 + i/n``, found as the lattice axes replaced
    it: within 8 units in the last place, else ``ValueError``."""
    x = np.asarray(x, dtype=np.float64)
    n = x.size
    if n == 0:
        return 0.0, 0
    x0 = float(x[0])
    tol = 8 * np.finfo(np.float64).eps * max(1.0, float(np.abs(x).max()))
    if np.max(np.abs(x - (x0 + np.arange(n) / n))) > tol:
        raise ValueError(f"an axis of {n} points is not a shifted uniform lattice x0 + i/{n}")
    return x0, n


def _float_view_slice(x, N):
    """The slice of ``i/N`` that :class:`LatticeField` read for a float axis
    before lattice axes, or ``None``: the tolerance rule they replaced."""
    tol = 8 * np.finfo(np.float64).eps * N
    try:
        x0, n = _float_lattice(x)
    except ValueError:
        return None
    if n == 0 or N % n:
        return None
    step, start = N // n, round(x0 * N)
    if not 0 <= start < step or abs(x0 * N - start) > tol:
        return None
    return slice(start, None, step)


class TestLatticeField:
    # sub-lattices of i/64: the lattice itself, i/8, the level-3 block axis
    # (2i+1)/16 of order 2, and 3/64 + i/4
    SUB_LATTICES = [LatticeAxis(0, 1, 64), LatticeAxis(0, 1, 8), LatticeAxis(1, 2, 8),
                    LatticeAxis(3, 16, 4)]
    BLOCK_AXES = [block_axis(ell, a) for ell in (2, 4, 6) for a in range(9)]

    @pytest.mark.parametrize("N", [64, 96, 128])
    def test_within_matches_the_replaced_tolerance_rule(self, N):
        decisions = []
        for axis in self.SUB_LATTICES + self.BLOCK_AXES:
            assert _float_lattice(axis.points()) == (axis.x0, axis.n)
            index = axis.within(N)
            assert index == _float_view_slice(axis.points(), N), (axis, N)
            decisions.append(index is not None)
        assert True in decisions and False in decisions

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sub_lattice_reads_match_the_function(self, d):
        f = random_mixed_smooth(1.25, 6, d, seed=d)
        field = LatticeField(f, d, 64)
        for axes in itertools.product(self.SUB_LATTICES, repeat=d):
            got, expect = field.eval_on_axes(list(axes)), f.eval_on_axes(list(axes))
            assert got.shape == expect.shape and not got.flags.writeable
            assert np.max(np.abs(got - expect)) <= 1e-13 * max(1.0, np.max(np.abs(expect)))

    @pytest.mark.parametrize("axis", [
        LatticeAxis(0, 1, 6),  # 6 does not divide 64
        LatticeAxis(1, 16, 8),  # 1/128 + i/8: x0 * N = 0.5
        LatticeAxis(1, 3, 4),  # 1/12 + i/4: x0 * N = 16/3
        LatticeAxis(0, 1, 0),
    ])
    def test_other_axes_are_evaluated_by_the_function(self, axis):
        f = random_mixed_smooth(1.25, 6, 2, seed=0)
        field = LatticeField(f, 2, 64)
        axes = [LatticeAxis(0, 1, 8), axis]
        assert np.array_equal(field.eval_on_axes(axes), f.eval_on_axes(axes))
        pts = np.random.default_rng(1).random((50, 2))
        assert np.array_equal(field.eval_points(pts), f.eval_points(pts))

    def test_sweep_field_by_dimension(self):
        f = random_mixed_smooth(1.25, 2, 4, seed=0)
        assert sweep_field(f, 4, 3) is f
        g = random_mixed_smooth(1.25, 4, 2, seed=0)
        assert sweep_field(g, 2, 3).N == analysis.default_resolution(2, 3) == 64
        assert sweep_field(g, 2, 3, 96).N == 96

    @pytest.mark.parametrize("d,resolution,error", [
        (2, 32, LatticeTooLarge),  # 32**2 points > 1000
        (2, 16, ResolutionTooLow),  # below 2**(3+2) = 32 at m = 3
        (4, 1, ResolutionTooLow),  # a rank-1 lattice needs two points
    ])
    def test_sweep_field_guards_run_before_evaluating(self, monkeypatch, d, resolution, error):
        monkeypatch.setattr(analysis, "MAX_LATTICE_POINTS", 1000)
        calls = []
        f = lambda x: calls.append(1) or np.ones(len(x))
        with pytest.raises(error):
            sweep_field(f, d, 3, resolution)
        assert calls == []
