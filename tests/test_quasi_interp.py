import itertools
import json
import random
from fractions import Fraction as F

import numpy as np
import pytest

from sparseqi.bspline import InvalidOrder
from sparseqi.laurent import LaurentPoly
from sparseqi.quasi_interp import (
    HierCoeffs,
    MissingSamples,
    NotAQuasiInterpolant,
    SampleCache,
    a_coeff,
    as_batch_function,
    block_coeffs,
    block_coeffs_oracle,
    block_positions,
    build_scheme,
    builtin_scheme,
    decompose,
    detail_coeff,
    detail_coeff_oracle,
    multi_indices,
    quasi_coeffs,
)
from sparseqi.testfuncs import TrigFunction, random_mixed_smooth
from .conftest import rng_points


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


class TestACoeff:
    def test_unit_mass(self, faber):
        assert a_coeff(faber, 3, 5, lambda x: np.ones_like(x)) == pytest.approx(1.0)

    def test_single_term_mask(self, faber):
        # order 2, level 0: reads f at (s + 1)/2
        assert a_coeff(faber, 0, 0, lambda x: x) == pytest.approx(0.5)

    def test_matches_direct_sum(self, cubic):
        f = lambda x: np.cos(2 * np.pi * x)
        h = 1.0 / (4 * 2**2)
        expected = sum(
            float(cubic.lam[j + 1]) * f(h * (3 - j + 2)) for j in (-1, 0, 1)
        )
        assert a_coeff(cubic, 2, 3, f) == pytest.approx(expected, abs=1e-14)


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
        ora = detail_coeff_oracle(cubic, (1, 2), (3, 5), f)
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
    ORDER6_MASK = ("13/240", "-7/15", "73/40", "-7/15", "13/240")

    def test_each_point_evaluated_once(self):
        from sparseqi.smolyak import count_points

        schemes = [builtin_scheme("faber"), builtin_scheme("cubic"), build_scheme(6, self.ORDER6_MASK)]
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
                fresh = np.asarray(
                    self._grid([np.array([float(p) for p in a]) for a in axes])
                ).ravel()
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
        self.calls.append(("axes", [np.array(a) for a in axes]))
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
        # racing threads fetch a block from the same points in the same call,
        # so whichever publishes it, the outcome is bit-equal to serial
        import sys
        from concurrent.futures import ThreadPoolExecutor

        tf = random_mixed_smooth(1.0, 4, 2, seed=12)
        plain = lambda P: np.sin(2 * np.pi * P[:, 0]) * np.cos(4 * np.pi * P[:, 1])
        for f in (plain, tf):
            cache = SampleCache(f, faber.ell, 2)
            ks = list(multi_indices(2, 3)) * 4
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)  # switch threads often, to provoke races
            try:
                with ThreadPoolExecutor(max_workers=8) as pool:
                    list(pool.map(lambda k: block_coeffs(faber, cache, k), ks))
            finally:
                sys.setswitchinterval(interval)
            serial = SampleCache(f, faber.ell, 2)
            hc = decompose(faber, f, 3, 2, cache=serial)
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
