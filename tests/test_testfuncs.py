import functools
import itertools
import operator

import numpy as np
import pytest

from sparseqi import kernels, testfuncs
from sparseqi.analysis import fit_rate, lq_norm, sobolev_norm_fourier, spline_norm
from sparseqi.quasi_interp import LatticeAxis, block_axis, build_scheme, builtin_scheme
from sparseqi.smolyak import enumerate_grid, recover
from sparseqi.testfuncs import (
    TrigFunction,
    builtin_function,
    g1_level_offset,
    g2_level_offset,
    random_mixed_smooth,
    witness_g1,
    witness_g2,
)
from .conftest import rng_points, tensor_value, traced_peak
from .test_quasi_interp import ORDER6_MASK


# ---------------------------------------------------------------------------
# the dict-of-modes builders and the per-mode evaluation the box form replaced
# ---------------------------------------------------------------------------


def _dict_random_mixed_smooth(r_eff, K, d, seed):
    rng = np.random.default_rng(seed)
    freqs = np.arange(-K, K + 1)
    envelope_1d = (1.0 + np.abs(freqs)) ** (-(r_eff + 0.5 + testfuncs._SMOOTH_MARGIN))
    mag = envelope_1d
    for _ in range(d - 1):
        mag = np.multiply.outer(mag, envelope_1d)
    coeff = testfuncs._symmetric_signs(K, d, rng) * mag
    weight_1d = (1.0 + freqs.astype(np.float64) ** 2) ** r_eff
    w = weight_1d
    for _ in range(d - 1):
        w = np.multiply.outer(w, weight_1d)
    coeff = coeff / float(np.sqrt(np.sum(coeff**2 * w)))
    modes = {}
    for idx in itertools.product(range(2 * K + 1), repeat=d):
        modes[tuple(int(freqs[i]) for i in idx)] = complex(coeff[idx])
    return modes


def _dict_bernoulli_partial(r, K, d):
    phase = np.exp(-0.5j * np.pi * r)
    uni = {0: 1.0 + 0j}
    for k in range(1, K + 1):
        uni[k] = k ** (-r) * phase
        uni[-k] = uni[k].conjugate()
    modes = {}
    for s in itertools.product(sorted(uni), repeat=d):
        c = 1.0 + 0j
        for v in s:
            c *= uni[v]
        modes[s] = c
    return modes


def _bernoulli(r, K, d):
    """Tensor product of truncated power-decay kernels, a fixture of known norm:
    ``1 + 2 * sum_{k<=K} k**(-r) cos(2*pi*k*x - r*pi/2)`` on each axis."""
    return TrigFunction(d, _dict_bernoulli_partial(r, K, d), real=True)


def _dict_sine(d):
    uni = {1: -0.5j, -1: 0.5j}
    modes = {}
    for s in itertools.product((-1, 1), repeat=d):
        c = 1.0 + 0j
        for v in s:
            c *= uni[v]
        modes[s] = c
    return modes


def _dict_box(modes, d):
    """(frequency axes, coefficient array) rebuilt mode by mode from a box mode set."""
    axes = [np.array(sorted({s[j] for s in modes})) for j in range(d)]
    C = np.zeros(tuple(len(a) for a in axes), dtype=np.complex128)
    lookup = [{int(v): i for i, v in enumerate(a)} for a in axes]
    for s, c in modes.items():
        C[tuple(lk[v] for lk, v in zip(lookup, s))] = c
    return axes, C


def _unchunked_eval_points(axes, C, P):
    """Scattered box evaluation with all points in one product."""
    out = None
    for j in range(len(axes)):
        E = np.exp(2.0 * np.pi * 1j * np.outer(P[:, j], axes[j]))
        if j == 0:
            out = (E @ C.reshape(len(axes[0]), -1)).reshape((P.shape[0],) + C.shape[1:])
        else:
            out = np.einsum("nk,nk...->n...", E, out)
    return out


def _first_nonzero_symmetric_signs(K, d, rng):
    """The sign construction that the flat-index mirror replaced: a sign is
    drawn where the first nonzero coordinate of s is >= 0 and mirrored elsewhere."""
    shape = (2 * K + 1,) * d
    raw = rng.choice(np.array([-1.0, 1.0]), size=shape)
    grids = np.indices(shape) - K
    first_nonzero = np.zeros(shape, dtype=np.int8)
    for axis_vals in grids:
        undecided = first_nonzero == 0
        first_nonzero = np.where(undecided, np.sign(axis_vals).astype(np.int8), first_nonzero)
    mirrored = raw[(slice(None, None, -1),) * d]
    return np.where(first_nonzero >= 0, raw, mirrored)


def _per_mode_breaks_symmetry(modes):
    nonzero = {tuple(s): complex(c) for s, c in modes.items() if complex(c) != 0}
    for s, c in nonzero.items():
        mirror = tuple(-v for v in s)
        if abs(nonzero.get(mirror, 0j) - c.conjugate()) > 1e-12 * max(1.0, abs(c)):
            return True
    return False


def _unchunked_symmetry_check(freq_axes, C):
    """The symmetry check before slabs: the whole box against its conjugate
    mirror at once, ``|mirror - c| > 1e-12 * max(1, |c|)``; returns the first
    mode that fails, or None."""
    closed = [np.union1d(a, -a) for a in freq_axes]
    if all(len(c) == len(a) for c, a in zip(closed, freq_axes)):
        full = C
    else:
        full = np.zeros(tuple(len(c) for c in closed), dtype=np.complex128)
        full[np.ix_(*(np.searchsorted(c, a) for c, a in zip(closed, freq_axes)))] = C
    mirror = np.conj(full[(slice(None, None, -1),) * len(closed)])
    bad = np.abs(mirror - full) > 1e-12 * np.maximum(1.0, np.abs(full))
    if not np.any(bad):
        return None
    return tuple(int(c[i]) for c, i in zip(closed, np.argwhere(bad)[0]))


def _assert_same_box(f, axes, C):
    assert len(f.freq_axes) == len(axes)
    for a, b in zip(f.freq_axes, axes):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(f.C, C)


def _assert_same_values(f, g, seed):
    pts = rng_points(300, f.d, seed=seed)
    assert np.array_equal(f.eval_points(pts), g.eval_points(pts))
    axes = [LatticeAxis(0, 1, n) for n in (11, 7, 5)[: f.d]]
    assert np.array_equal(f.eval_on_axes(axes), g.eval_on_axes(axes))


class TestBoxAgainstDictPath:
    @pytest.mark.parametrize("d,K", [(1, 9), (2, 6), (3, 3)])
    def test_random_fixture(self, d, K):
        modes = _dict_random_mixed_smooth(1.25, K, d, seed=d)
        axes, C = _dict_box(modes, d)
        f = random_mixed_smooth(1.25, K, d, seed=d)
        _assert_same_box(f, axes, C)
        g = TrigFunction(d, modes, real=True)
        _assert_same_box(g, axes, C)
        _assert_same_values(f, g, seed=d)
        pts = rng_points(300, d, seed=10 + d)
        assert np.array_equal(f.eval_points(pts), _unchunked_eval_points(axes, C, pts).real)

    def test_random_fixture_headline_size(self):
        modes = _dict_random_mixed_smooth(1.25, 512, 2, seed=0)
        f = random_mixed_smooth(1.25, 512, 2, seed=0)
        axes, C = _dict_box(modes, 2)
        _assert_same_box(f, axes, C)
        pts = rng_points(200, 2, seed=3)
        assert np.array_equal(f.eval_points(pts), _unchunked_eval_points(axes, C, pts).real)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bernoulli_and_sine(self, d):
        modes = _dict_bernoulli_partial(1.5, 4, d)
        _assert_same_box(_bernoulli(1.5, 4, d), *_dict_box(modes, d))
        modes, f = _dict_sine(d), builtin_function("sine", d)
        _assert_same_box(f, *_dict_box(modes, d))
        _assert_same_values(f, TrigFunction(d, modes, real=True), seed=d)

    @pytest.mark.parametrize("d,K", [(1, 40), (2, 6), (3, 2)])
    def test_chunked_scattered_eval_is_bit_identical(self, monkeypatch, d, K):
        f = random_mixed_smooth(1.25, K, d, seed=5)
        for n in (1, 2, 3, 8, 101):
            pts = rng_points(n, d, seed=n)
            whole = f.eval_points_complex(pts)  # every n here fits one slab
            assert np.array_equal(whole, _unchunked_eval_points(f.freq_axes, f.C, pts))
            for cap in (1, 3 * (2 * K + 1) ** max(1, d - 1)):
                monkeypatch.setattr(kernels, "_SLAB_ENTRIES", cap)
                assert np.array_equal(f.eval_points_complex(pts), whole)
                monkeypatch.undo()

    @pytest.mark.parametrize("K,d", [(512, 2), (16, 3), (8, 4), (5, 1), (1, 2)])
    def test_symmetric_signs_match_the_first_nonzero_rule(self, K, d):
        for seed in (0, 3, 7):
            expect = _first_nonzero_symmetric_signs(K, d, np.random.default_rng(seed))
            got = testfuncs._symmetric_signs(K, d, np.random.default_rng(seed))
            assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_symmetry_check_on_closed_and_one_sided_axes(self):
        # random_mixed_smooth's axes are their own symmetric closures, so C is
        # compared with its mirror directly; a one-sided axis goes through the
        # zero-filled closure.  Both reject a broken pair with the same message.
        f = random_mixed_smooth(1.25, 4, 2, seed=3)
        C = np.array(f.C)
        C[5, 2] *= 1.0 + 1e-9  # mode (1, -2); its mirror (-1, 2) comes first
        TrigFunction.from_box(f.freq_axes, f.C, real=True)
        with pytest.raises(ValueError, match=r"mode \(-1, 2\) breaks") as closed:
            TrigFunction.from_box(f.freq_axes, C, real=True)
        one_sided = [np.arange(-4, 6), f.freq_axes[1]]  # frequency 5 has no mirror
        padded = np.concatenate([C, np.zeros((1, 9))])
        with pytest.raises(ValueError) as closure:
            TrigFunction.from_box(one_sided, padded, real=True)
        assert str(closure.value) == str(closed.value)
        TrigFunction.from_box(one_sided, np.concatenate([f.C, np.zeros((1, 9))]), real=True)
        padded = np.concatenate([f.C, np.zeros((1, 9))])
        padded[9, 4] = 1.0  # mode (5, 0)
        with pytest.raises(ValueError, match=r"mode \(-5, 0\) breaks"):
            TrigFunction.from_box(one_sided, padded, real=True)

    @pytest.mark.parametrize("d,K", [(1, 6), (2, 4), (3, 2)])
    def test_chunked_symmetry_check_matches_the_whole_box_check(self, d, K, monkeypatch):
        f = random_mixed_smooth(1.25, K, d, seed=d)
        L = 2 * K + 1
        first, centre, last = (0,) * d, (K,) * d, (L - 1,) * d
        cases = [(f.freq_axes, np.array(f.C))]
        for idx, factor in itertools.product((first, centre, last), (1.0 + 1e-9, 1.0 + 1e-14, 1j)):
            C = np.array(f.C)
            C[idx] = C[idx] * factor + (1e-9j if idx == centre and factor != 1j else 0.0)
            cases.append((f.freq_axes, C))
        # a one-sided first axis: frequency K + 1 has no mirror, and its
        # closure is zero-filled; a mode there breaks symmetry, one below does not
        one_sided = [np.arange(-K, K + 2)] + list(f.freq_axes[1:])
        for value in (0.0, 1e-13, 1e-11):
            C = np.concatenate([f.C, np.zeros((1,) + f.C.shape[1:])])
            C[(L,) + (K,) * (d - 1)] = value
            cases.append((one_sided, C))
        outcomes = set()
        for cap in (1, 3, L + 1, 1 << 16):
            monkeypatch.setattr(kernels, "_SLAB_ENTRIES", cap)
            for axes, C in cases:
                expect = _unchunked_symmetry_check(axes, C)
                outcomes.add(expect is None)
                if expect is None:
                    TrigFunction.from_box(axes, C, real=True)
                else:
                    with pytest.raises(ValueError, match=rf"mode \({', '.join(map(str, expect))},?\) breaks"):
                        TrigFunction.from_box(axes, C, real=True)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("d,K,r", [(1, 9, 1.25), (2, 64, 0.75), (2, 512, 1.25), (3, 16, 2.5)])
    def test_separable_norm_matches_the_box_sum(self, d, K, r):
        f = random_mixed_smooth(r, K, d, seed=d)
        freqs = np.arange(-K, K + 1)
        envelope = (1.0 + np.abs(freqs)) ** (-(r + 0.5 + testfuncs._SMOOTH_MARGIN))
        weight = (1.0 + freqs.astype(np.float64) ** 2) ** r
        coeff = testfuncs._symmetric_signs(K, d, np.random.default_rng(d)) * testfuncs._outer_power(envelope, d)
        box_sum = np.sum(coeff**2 * testfuncs._outer_power(weight, d))
        expect = coeff / np.sqrt(box_sum)
        assert np.max(np.abs(f.C - expect)) <= 1e-14 * np.max(np.abs(expect))
        assert sobolev_norm_fourier(f, r) == pytest.approx(1.0, rel=1e-14)

    def test_symmetry_check_rejects_what_the_per_mode_check_rejects(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for trial in range(300):
            d = 1 + trial % 3
            modes = {}
            for _ in range(4):
                s = tuple(int(v) for v in rng.integers(-2, 3, size=d))
                c = complex(rng.normal(), rng.normal()) * 10.0 ** rng.integers(-13, 2)
                modes[s] = c
                kind = rng.integers(5)
                if kind < 4:
                    delta = (0.0, 1e-14, 1e-11, 1e-9)[kind] * abs(c)
                    modes[tuple(-v for v in s)] = c.conjugate() + delta
            rejected = _per_mode_breaks_symmetry(modes)
            outcomes.add(rejected)
            if rejected:
                with pytest.raises(ValueError):
                    TrigFunction(d, modes, real=True)
            else:
                TrigFunction(d, modes, real=True)
        assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the phase-matrix contraction that the lattice fold and FFT replaced
# ---------------------------------------------------------------------------


def _contract_axes_eval(f, axes):
    """Grid values by one dense phase matrix per axis, contracted in the
    order with the fewest multiply-adds."""
    phases = [np.exp(2.0 * np.pi * 1j * np.outer(x.points(), s)) for x, s in zip(axes, f.freq_axes)]
    order = sorted(range(f.d), key=lambda j: 1 / phases[j].shape[1] - 1 / max(phases[j].shape[0], 1))
    field = f.C
    for j in order:
        field = np.moveaxis(np.tensordot(phases[j], field, axes=([1], [j])), 0, j)
    return field.real if f.real else field


class TestLatticeEvaluation:
    @staticmethod
    def assert_matches_contraction(f, axes):
        got = f.eval_on_axes(axes)
        expect = _contract_axes_eval(f, axes)
        assert got.shape == expect.shape and got.dtype == expect.dtype
        if got.size:
            assert np.max(np.abs(got - expect)) <= 1e-13 * np.abs(f.C).sum()

    @pytest.mark.parametrize("d,K", [(1, 40), (2, 9), (3, 3)])
    def test_uniform_lattices(self, d, K):
        f = random_mixed_smooth(1.25, K, d, seed=d)
        L = 2 * K + 1
        for n in (1, 2, 5, L - 1, L, L + 1, 2 * L + 3):  # n < L, n == L, n > L
            self.assert_matches_contraction(f, [LatticeAxis(0, 1, n)] * d)
        sizes = (3, L, 2 * L)[:d]
        self.assert_matches_contraction(f, [LatticeAxis(0, 1, n) for n in sizes])

    @pytest.mark.parametrize("d,K", [(1, 40), (2, 9), (3, 3)])
    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_block_axes(self, d, K, ell):
        f = random_mixed_smooth(1.25, K, d, seed=10 + d)
        for a in range(6):
            levels = [(a + 2 * j) % 6 for j in range(d)]
            self.assert_matches_contraction(f, [block_axis(ell, aj) for aj in levels])

    @pytest.mark.parametrize("d,K", [(1, 40), (2, 9), (3, 3)])
    def test_real_values_own_their_data(self, d, K):
        # the real inverse DFT of the last axis returns a float array of its
        # own, equal to the complex evaluation's real part up to rounding
        # (worst measured 9.6e-16 of the largest value, over d = 1..3,
        # K up to 512, uniform, shifted and block lattices)
        f = random_mixed_smooth(1.25, K, d, seed=d)
        axes = [LatticeAxis(0, 1, n) for n in (7, 12, 5)[:d]]
        got = f.eval_on_axes(axes)
        assert got.flags.owndata and got.flags.c_contiguous and got.dtype == np.float64
        field = TrigFunction.from_box(f.freq_axes, f.C).eval_on_axes(axes)
        assert np.max(np.abs(got - field.real)) <= 2e-15 * np.max(np.abs(field.real))

    def test_complex_box_and_shifted_lattice(self):
        rng = np.random.default_rng(7)
        C = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        f = TrigFunction.from_box([np.arange(-7, -1), np.arange(3, 12)], C)
        for r, s in ((0, 1), (1, 3), (5, 7), (3, 1024)):
            for n in (1, 4, 6, 13):
                self.assert_matches_contraction(f, [LatticeAxis(r, s, n), LatticeAxis(0, 1, n)])

    def test_mapping_box_with_gaps(self):
        modes = {(5, -3): 1.0, (-5, 3): 1.0, (1, 0): 0.5j, (-1, 0): -0.5j, (0, 7): 2.0, (0, -7): 2.0}
        f = TrigFunction(2, modes, real=True)
        assert any(np.any(np.diff(a) > 1) for a in f.freq_axes)
        for axes in (
            [LatticeAxis(0, 1, 4), LatticeAxis(0, 1, 3)],
            [LatticeAxis(0, 1, 16), block_axis(4, 3)],
            [block_axis(6, 1), LatticeAxis(0, 1, 15)],
        ):
            self.assert_matches_contraction(f, axes)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_single_point_and_empty_axes(self, d):
        f = random_mixed_smooth(1.25, 4, d, seed=3)
        rng = np.random.default_rng(d)
        self.assert_matches_contraction(f, [LatticeAxis(int(rng.integers(997)), 997, 1) for _ in range(d)])
        for j in range(d):
            axes = [LatticeAxis(0, 1, 5)] * d
            axes[j] = LatticeAxis(0, 1, 0)
            self.assert_matches_contraction(f, axes)
            axes[j] = LatticeAxis(1, 4, 1)
            self.assert_matches_contraction(f, axes)

    def test_wrong_axis_count_rejected(self):
        with pytest.raises(ValueError):
            _bernoulli(1.5, 3, 2).eval_on_axes([LatticeAxis(0, 1, 4)])


class TestHalfSpectrumFold:
    """A real polynomial folds only residues 0..n//2 of its last axis and
    takes a real inverse DFT; the complex fold of the same box is the reference."""

    @staticmethod
    def assert_matches_complex_path(f, axes):
        got = f.eval_on_axes(axes)
        field = TrigFunction.from_box(f.freq_axes, f.C).eval_on_axes(axes)
        assert got.dtype == np.float64 and got.shape == field.shape
        scale = np.max(np.abs(field))
        assert np.max(np.abs(field.imag)) <= 1e-14 * scale  # the fixture is real
        assert np.max(np.abs(got - field.real)) <= 2e-15 * scale

    @pytest.mark.parametrize("d,K", [(1, 40), (2, 9), (3, 3)])
    def test_even_and_odd_lengths_below_at_and_above_the_box(self, d, K):
        f = random_mixed_smooth(1.25, K, d, seed=20 + d)
        L = 2 * K + 1
        for n in (1, 2, 3, 4, L - 1, L, L + 1, 2 * L, 2 * L + 3):
            self.assert_matches_complex_path(f, [LatticeAxis(0, 1, n)] * d)
            # the half-spectrum axis is the last; the others keep other lengths
            self.assert_matches_complex_path(f, [LatticeAxis(0, 1, 6)] * (d - 1) + [LatticeAxis(0, 1, n)])

    @pytest.mark.parametrize("d,K", [(1, 40), (2, 9), (3, 3)])
    def test_shifted_axes(self, d, K):
        f = random_mixed_smooth(1.25, K, d, seed=30 + d)
        for ell, a in itertools.product((2, 4, 6), range(5)):
            self.assert_matches_complex_path(f, [block_axis(ell, (a + j) % 5) for j in range(d)])
        for n in (11, 12):
            self.assert_matches_complex_path(f, [LatticeAxis(1, 3, n)] * d)
            self.assert_matches_complex_path(f, [LatticeAxis(0, 1, 5)] * (d - 1) + [LatticeAxis(1, 3, n)])

    @pytest.mark.parametrize("d,K,n", [(1, 512, 1024), (2, 512, 1024), (3, 8, 16), (1, 8, 16)])
    def test_nyquist_bin(self, d, K, n):
        # the box reaches +-n/2, which both fold onto the Nyquist residue n/2
        f = random_mixed_smooth(1.25, K, d, seed=d)
        self.assert_matches_complex_path(f, [LatticeAxis(0, 1, n)] * d)
        self.assert_matches_complex_path(f, [block_axis(4, 3)] * (d - 1) + [LatticeAxis(1, 2, n // 2)])

    def test_bernoulli_and_sine(self):
        for d in (1, 2, 3):
            for f in (_bernoulli(1.5, 4, d), builtin_function("sine", d)):
                for n in (1, 2, 5, 8):
                    self.assert_matches_complex_path(f, [LatticeAxis(0, 1, n)] * d)


def _fold_first_to_last(f, axes):
    """The fold order every polynomial took before: each axis folded and
    transformed first to last, a real one's last axis by half spectrum."""
    field = f.C
    for j, a in enumerate(axes):
        field = testfuncs._fold_transform(field, j, f.freq_axes[j], a.x0, a.n, f.real and j == f.d - 1)
    return field


class TestFoldOrder:
    """A real polynomial whose last axis holds more frequencies than its half
    spectrum folds that axis first, as irfftn orders it; any other keeps the
    first-to-last order, which is the reference."""

    @staticmethod
    def assert_matches_first_to_last(f, axes):
        got, expect = f.eval_on_axes(axes), _fold_first_to_last(f, axes)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 2e-15 * np.max(np.abs(expect))
        return got, expect

    @pytest.mark.parametrize("d,K", [(1, 40), (2, 9), (2, 40), (3, 3)])
    def test_box_longer_than_the_half_spectrum(self, d, K):
        f = random_mixed_smooth(1.25, K, d, seed=40 + d)
        L = 2 * K + 1
        for n in (1, 2, 3, 8, L - 1, L, L + 2, 2 * L - 4, 2 * L - 3):  # n//2 + 1 < L, odd n too
            self.assert_matches_first_to_last(f, [LatticeAxis(0, 1, n)] * d)
            self.assert_matches_first_to_last(f, [LatticeAxis(1, 3, n)] * d)
            self.assert_matches_first_to_last(f, [block_axis(4, 2)] * (d - 1) + [LatticeAxis(1, 3, n)])
        for ell, a in itertools.product((2, 4, 6), range(4)):
            axes = [block_axis(ell, (a + j) % 4) for j in range(d)]
            if axes[-1].n // 2 + 1 < L:
                self.assert_matches_first_to_last(f, axes)

    @pytest.mark.parametrize("d,K", [(1, 4), (2, 4), (3, 3)])
    def test_other_boxes_keep_the_first_to_last_order(self, d, K):
        # bit for bit: a box within the half spectrum, and a complex box
        L = 2 * K + 1
        for f in (random_mixed_smooth(1.25, K, d, seed=50 + d), _bernoulli(1.5, K, d)):
            g = TrigFunction.from_box(f.freq_axes, f.C)
            for n in (5, 2 * L - 2, 2 * L - 1, 2 * L + 3):
                for axes in ([LatticeAxis(0, 1, n)] * d, [LatticeAxis(1, 3, n)] * d):
                    if n >= 2 * L - 2:
                        assert np.array_equal(*self.assert_matches_first_to_last(f, axes))
                    assert np.array_equal(*self.assert_matches_first_to_last(g, axes))

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cap", [1, 100, 2**17])
    def test_last_axis_in_row_slabs_is_bitwise(self, monkeypatch, d, cap):
        # the last axis folds and transforms one row slab of axis 0 at a
        # time: single rows, uneven slabs and one slab give the same bits
        monkeypatch.setattr(kernels, "_SLAB_ENTRIES", cap)
        f = random_mixed_smooth(1.25, 5, d, seed=70 + d)
        for g in (f, TrigFunction.from_box(f.freq_axes, f.C), _bernoulli(1.5, 4, d)):
            for axes in ([LatticeAxis(0, 1, 30)] * d, [LatticeAxis(1, 3, 13)] * (d - 1) + [LatticeAxis(0, 1, 40)]):
                assert np.array_equal(*self.assert_matches_first_to_last(g, axes))

    def test_rate_d3_fixture_peak(self):
        # rate-d3's fixture on its 128**3 lattice, in the first-to-last
        # order: the (128, 128, 33) complex field before the last axis, the
        # 16 MiB output and a slab, 26.4 MiB; folding the last axis whole
        # held its (128, 128, 65) complex half spectrum too, 40.6 MiB
        f = random_mixed_smooth(1.25, 16, 3, seed=3)
        axes = [LatticeAxis(0, 1, 128)] * 3
        assert traced_peak(lambda: f.eval_on_axes(axes)) <= 28 << 20
        assert np.array_equal(f.eval_on_axes(axes), _fold_first_to_last(f, axes))

    def test_headline_fixture_peak(self):
        # rate-d2's fixture on its top lattice: every intermediate is
        # half-spectrum long on the last axis, so the peak is about two
        # (1024, 513) complex arrays, 16 MiB; the first-to-last order held
        # the (1024, 1025) complex field while the last axis folded, 32 MiB
        f = random_mixed_smooth(1.25, 512, 2, seed=3)
        axes = [LatticeAxis(0, 1, 1024)] * 2
        assert traced_peak(lambda: f.eval_on_axes(axes)) <= 17 << 20


class TestTrigFunction:
    def test_real_evaluation(self):
        f = random_mixed_smooth(1.0, 5, 2, seed=0)
        pts = rng_points(1000, 2, seed=1)
        vals = f.eval_points_complex(pts)
        assert np.max(np.abs(vals.imag)) < 1e-13
        assert np.array_equal(f.eval_points(pts), vals.real)

    def test_realness_flag_validation(self):
        with pytest.raises(ValueError):
            TrigFunction(1, {(1,): 1.0 + 0j}, real=True)  # no mirror mode
        with pytest.raises(ValueError):
            TrigFunction(2, {(1, 2): 1.0, (-1, -2): 1.0 + 1e-9}, real=True)
        c = 3.0 + 1.0j
        TrigFunction(1, {(2,): c, (-2,): c.conjugate() * (1.0 + 1e-14)}, real=True)

    def test_zero_coefficient_keeps_box(self):
        modes = _dict_bernoulli_partial(1.5, 2, 2)
        modes[(1, -2)] = modes[(-1, 2)] = 0.0
        f = TrigFunction(2, modes, real=True)
        assert f.C.shape == (5, 5) and f.C[3, 0] == 0
        g = _bernoulli(1.5, 2, 2)
        pts = rng_points(50, 2, seed=8)
        dropped = _dict_bernoulli_partial(1.5, 2, 2)[(1, -2)] * np.exp(2j * np.pi * (pts[:, 0] - 2 * pts[:, 1]))
        expect = g.eval_points(pts) - 2.0 * dropped.real
        assert np.max(np.abs(f.eval_points(pts) - expect)) < 1e-13

    def test_empty_mode_set_is_zero(self):
        f = TrigFunction(2, {}, real=True)
        assert not f.C.any()
        assert np.array_equal(f.eval_points(rng_points(5, 2, seed=9)), np.zeros(5))
        assert np.array_equal(f.eval_on_axes([LatticeAxis(0, 1, 3)] * 2), np.zeros((3, 3)))

    def test_box_is_read_only(self):
        f = _bernoulli(1.0, 2, 1)
        with pytest.raises(ValueError):
            f.C[0] = 1.0

    def test_sobolev_norm_of_dict_matches_box(self):
        f = random_mixed_smooth(1.25, 5, 2, seed=4)
        modes = _dict_random_mixed_smooth(1.25, 5, 2, seed=4)
        assert sobolev_norm_fourier(TrigFunction(2, modes), 1.25) == sobolev_norm_fourier(f, 1.25)

    def test_grid_matches_scattered(self):
        f = _bernoulli(2.0, 4, 2)
        axes = [LatticeAxis(0, 1, 9), LatticeAxis(0, 1, 7)]
        grid = f.eval_on_axes(axes)
        mesh = np.stack(np.meshgrid(*(a.points() for a in axes), indexing="ij"), axis=-1).reshape(-1, 2)
        assert np.max(np.abs(grid - f.eval_points(mesh).reshape(grid.shape))) < 1e-12

    def test_non_box_modes_still_evaluate(self):
        f = TrigFunction(2, {(1, 2): 1.0, (-1, -2): 1.0, (0, 0): 0.5}, real=True)
        x = (0.3, 0.7)
        expect = 0.5 + 2.0 * np.cos(2 * np.pi * (x[0] + 2 * x[1]))
        assert f(x) == pytest.approx(expect, abs=1e-13)
        axes = [LatticeAxis(3, 10, 1), LatticeAxis(7, 10, 1)]
        assert f.eval_on_axes(axes)[0, 0] == pytest.approx(expect, abs=1e-13)


class TestBernoulli:
    def test_first_mode_value(self):
        # univariate truncation at K=1, smoothness 2: 1 + 2cos(2 pi x - pi)
        f = _bernoulli(2.0, 1, 1)
        for x in (0.0, 0.2, 0.65):
            expect = 1.0 + 2.0 * np.cos(2 * np.pi * x - np.pi)
            assert f((x,)) == pytest.approx(expect, abs=1e-13)

    def test_tensorization_at_origin(self):
        uni = _bernoulli(1.5, 4, 1)
        biv = _bernoulli(1.5, 4, 2)
        assert biv((0.0, 0.0)) == pytest.approx(uni((0.0,)) ** 2, abs=1e-12)

    def test_sobolev_growth_threshold(self):
        # the weighted coefficient series diverges with K exactly when the
        # measuring exponent reaches the kernel smoothness minus 1/2: the
        # per-doubling increments grow above the threshold and shrink below
        r_kernel = 2.0
        for r, diverges in ((r_kernel - 0.3, True), (r_kernel - 0.7, False)):
            norms = [
                sobolev_norm_fourier(_bernoulli(r_kernel, K, 1), r) ** 2
                for K in (16, 64, 256, 1024)
            ]
            increments = np.diff(norms)
            if diverges:
                assert increments[-1] > increments[0]
            else:
                assert increments[-1] < 0.5 * increments[0]


class TestRandomMixedSmooth:
    def test_reproducible(self):
        f = random_mixed_smooth(1.25, 6, 2, seed=42)
        g = random_mixed_smooth(1.25, 6, 2, seed=42)
        assert np.array_equal(f.C, g.C)

    def test_seed_changes_function(self):
        f = random_mixed_smooth(1.25, 6, 2, seed=1)
        g = random_mixed_smooth(1.25, 6, 2, seed=2)
        assert not np.array_equal(f.C, g.C)

    def test_unit_norm(self):
        for d in (1, 2):
            f = random_mixed_smooth(1.25, 8, d, seed=0)
            assert sobolev_norm_fourier(f, 1.25) == pytest.approx(1.0, abs=1e-9)


class TestWitnesses:
    def test_g1_vanishes_on_grid(self, faber):
        for m in (2, 4):
            w = witness_g1(faber, 2, m, 0.75)
            grid = enumerate_grid(2, m, faber)
            assert np.max(np.abs(w.eval_points(grid.as_array()))) < 1e-12

    def test_g1_matches_direct_spline_sum(self, faber):
        d, m, r = 2, 2, 0.75
        w = witness_g1(faber, d, m, r)
        M = w.max_level
        amp = 2.0 ** (-r * M) * M ** (-0.5)
        pts = rng_points(30, d, seed=4)
        for x in pts:
            direct = 0.0
            for k, C in w.block_items():
                for s0 in range(0, C.shape[0], faber.ell):
                    for s1 in range(0, C.shape[1], faber.ell):
                        direct += amp * float(tensor_value(faber.ell, k, (s0, s1), x))
            assert w(tuple(x)) == pytest.approx(direct, abs=1e-12)

    def test_g1_block_sup_bounded_by_one(self, faber):
        # within one block the shifted splines have disjoint supports, so the
        # unscaled sum never exceeds one
        w = witness_g1(faber, 2, 3, 0.0)  # r = 0: amplitude is M^{-1/2}
        M = w.max_level
        for k, C in w.block_items():
            from sparseqi.quasi_interp import HierCoeffs

            single = HierCoeffs(2, faber.ell, M, {k: C * M**0.5})  # unit amplitude
            vals = single.eval_points(rng_points(200, 2, seed=5))
            assert np.max(vals) <= 1.0 + 1e-12
            assert np.min(vals) >= 0.0

    def test_g1_norm_sweep_shape(self, faber):
        d, r = 2, 0.75
        norms = {}
        for m in range(2, 7):
            w = witness_g1(faber, d, m, r)
            norms[m] = lq_norm(w, 2.0, d, 2 ** (m + 3), min_level=w.max_level)
        fit = fit_rate(norms, "dyadic_logpow", drop_lowest=0)
        assert fit.rho == pytest.approx(r, abs=0.1)
        assert fit.beta > 0.0  # the (d-1)/2 log factor
        assert fit.residual < 0.15

    def test_g1_l1_lower_bound_shape(self, faber):
        # nonnegative witness: its mean is the L1 norm; the sweep grows like
        # the dyadic decay times a positive power of the level
        d, r = 2, 0.75
        norms = {}
        for m in range(3, 7):
            w = witness_g1(faber, d, m, r)
            res = 2 ** (w.max_level + 2)
            field = w.eval_on_axes([LatticeAxis(0, 1, res)] * d)
            assert field.min() >= 0.0
            norms[m] = float(field.mean())
        fit = fit_rate(norms, "dyadic_logpow", drop_lowest=0)
        assert fit.rho == pytest.approx(r, abs=0.1)
        assert fit.beta > 0.0

    def test_g2_single_entry(self, cubic):
        w = witness_g2(cubic, 2, 3, 1.25, 2.0)
        assert w.num_entries() == 1
        ((k, s, c),) = list(w.items())
        assert k == (3 + g2_level_offset(cubic.ell, 2), 0)
        assert s == (0, 0)
        assert c == pytest.approx(2.0 ** (-0.75 * k[0]))

    def test_g2_vanishes_on_grid(self, cubic):
        for m in (2, 3):
            w = witness_g2(cubic, 2, m, 1.25, 2.0)
            grid = enumerate_grid(2, m, cubic)
            assert np.max(np.abs(w.eval_points(grid.as_array()))) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ell,levels", [(2, range(1, 5)), (4, range(1, 5)), (6, range(1, 4))],
                             ids=["faber", "cubic", "order6"])
    def test_g2_recovers_to_zero(self, ell, levels, d):
        # the premise of the peak probe's closed-form error: every sample the
        # level-m decomposition reads is exactly 0, so the recovery is 0
        scheme = {2: builtin_scheme("faber"), 4: builtin_scheme("cubic"), 6: build_scheme(6, ORDER6_MASK)}[ell]
        for m in levels:
            w = witness_g2(scheme, d, m, 1.25, 2.0)
            assert recover(scheme, d, m, w).num_entries() == 0

    def test_g2_norm_ratio(self, cubic):
        r, p, q = 1.25, 2.0, 4.0
        norms = {}
        for m in (2, 3, 4, 5):
            w = witness_g2(cubic, 1, m, r, p)
            norms[m] = spline_norm(w, q)
        target = 2.0 ** (-(r - 1.0 / p + 1.0 / q))
        for m in (2, 3, 4):
            assert norms[m + 1] / norms[m] == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("d, offset", [(1, -1), (2, -1), (1, -3)])
    def test_block_level_below_one_rejected(self, faber, d, offset):
        with pytest.raises(ValueError, match="m \\+ level_offset >= 1"):
            witness_g1(faber, d, 1, 0.75, level_offset=offset)
        with pytest.raises(ValueError, match="m \\+ level_offset >= 1"):
            witness_g2(faber, d, 1, 0.75, 2.0, level_offset=offset)

    def test_offsets(self):
        assert g1_level_offset(2, 2) == 1
        assert g1_level_offset(4, 2) == 3
        assert g2_level_offset(2, 1) == 1
        assert g2_level_offset(4, 3) == 2

    def test_insufficient_level_offset_detected(self, cubic):
        # with a too-small surplus the order-4 bump does touch the grid;
        # the default offset is the smallest safe one
        w = witness_g2(cubic, 2, 3, 1.25, 2.0, level_offset=1)
        grid = enumerate_grid(2, 3, cubic)
        assert np.max(np.abs(w.eval_points(grid.as_array()))) > 1e-6


class TestBuiltinFunction:
    def test_sine_product(self):
        f = builtin_function("sine", 2)
        pts = rng_points(100, 2, seed=6)
        expect = np.sin(2 * np.pi * pts[:, 0]) * np.sin(2 * np.pi * pts[:, 1])
        assert np.max(np.abs(f.eval_points(pts) - expect)) < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_sine_box_is_exact(self, d):
        # the entry at s is the product of the scalars -i*s_j/2, taken left to
        # right; compared bit for bit, so the signs of zeros are pinned too
        uni = {-1: 0.5j, 1: -0.5j}
        expect = [functools.reduce(operator.mul, (uni[v] for v in s)) for s in itertools.product((-1, 1), repeat=d)]
        f = builtin_function("sine", d)
        assert [a.tolist() for a in f.freq_axes] == [[-1, 1]] * d
        assert f.C.reshape(-1).view(np.int64).tolist() == np.array(expect).view(np.int64).tolist()
        assert np.all(np.abs(f.C) == 2.0**-d)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_function("nope", 1)
