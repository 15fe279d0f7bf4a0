from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from sparseqi.bspline import (
    InvalidOrder,
    cardinal_norm,
    cardinal_spline,
    eval_cardinal_exact,
    piece_table,
)
from sparseqi.kernels import spline_basis_matrix
from sparseqi.quasi_interp import HierCoeffs
from .conftest import cox_de_boor, periodic_row, periodic_value, tensor_value


def _one_spline(ell, k, s, c=1.0):
    """``c * N_(k,s)`` as a one-entry combination."""
    C = np.zeros(tuple(ell << kj for kj in k))
    C[tuple(s)] = c
    return HierCoeffs(len(k), ell, sum(k), {tuple(k): C})


def _basis(xs, k, ell):
    return spline_basis_matrix(np.asarray(xs, dtype=np.float64), k, ell, piece_table(ell))


class TestCardinal:
    def test_hat_peak(self):
        assert eval_cardinal_exact(2, F(1)) == 1

    def test_cubic_center(self):
        # frozen from the Cox-de Boor recursion oracle
        assert cox_de_boor(4, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert eval_cardinal_exact(4, F(2)) == F(2, 3)

    def test_outside_support(self):
        assert eval_cardinal_exact(4, F(-1, 2)) == 0
        assert eval_cardinal_exact(4, F(4)) == 0

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_matches_recursion_oracle(self, ell):
        xs = np.linspace(-0.5, ell + 0.5, 10_000)
        ours = np.array([float(eval_cardinal_exact(ell, F(x))) for x in xs])
        oracle = np.array([cox_de_boor(ell, x) for x in xs])
        assert np.max(np.abs(ours - oracle)) < 1e-13

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_refinement_identity(self, ell):
        # M(x) = 2**(1 - ell) * sum_j C(ell, j) M(2x - j), exactly at rationals
        for x in (F(i, 97) for i in range(97 * ell + 1)):
            fine = sum(comb(ell, j) * eval_cardinal_exact(ell, 2 * x - j) for j in range(ell + 1))
            assert eval_cardinal_exact(ell, x) == F(2) ** (1 - ell) * fine

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_positive_exactly_inside_support(self, ell):
        eps = F(1, 10**9)
        for x in [eps, ell - eps] + [F(i, 97) for i in range(1, 97 * ell)]:
            assert eval_cardinal_exact(ell, x) > 0
        assert eval_cardinal_exact(ell, F(0)) == 0
        assert eval_cardinal_exact(ell, F(ell)) == 0

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            eval_cardinal_exact(3, F(1))
        with pytest.raises(InvalidOrder):
            cardinal_spline(0)

    def test_pieces_exact_integral(self):
        # total mass 1, exactly
        for ell in (2, 4, 6):
            total = F(0)
            for piece in cardinal_spline(ell).pieces:
                total += sum(c / (i + 1) for i, c in enumerate(piece))
            assert total == 1


def _exact_power_integral(ell: int, q: int) -> F:
    """``int_0^ell M**q`` from the exact pieces: each piece raised to the
    integer power ``q`` and integrated over ``[0, 1]``."""
    total = F(0)
    for piece in cardinal_spline(ell).pieces:
        power = [F(1)]
        for _ in range(q):
            product = [F(0)] * (len(power) + len(piece) - 1)
            for i, a in enumerate(power):
                for j, b in enumerate(piece):
                    product[i + j] += a * b
            power = product
        total += sum(c / (i + 1) for i, c in enumerate(power))
    return total


class TestCardinalNorm:
    @pytest.mark.parametrize("ell", [2, 4, 6])
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_integer_q_matches_the_exact_integral(self, ell, q):
        exact = float(_exact_power_integral(ell, q)) ** (1.0 / q)
        assert cardinal_norm(ell, q) == pytest.approx(exact, rel=4e-15, abs=0)

    @pytest.mark.parametrize("q", [1.01, 1.1, 1.5, 2.5, 3.7])
    def test_hat_at_fractional_q(self, q):
        # int_0^2 M**q = 2 * int_0^1 t**q = 2 / (q + 1); t**q is not a
        # polynomial, so the rule is close, not exact (1.2e-9 at worst)
        assert cardinal_norm(2, q) == pytest.approx((2.0 / (q + 1.0)) ** (1.0 / q), rel=1e-8, abs=0)

    @pytest.mark.parametrize("ell", [2, 4, 6, 8])
    def test_sup_norm_is_the_central_value(self, ell):
        peak = max(eval_cardinal_exact(ell, F(i * ell, 1000)) for i in range(1001))
        assert peak == eval_cardinal_exact(ell, F(ell, 2))
        assert cardinal_norm(ell, np.inf) == float(peak)


class TestPeriodic:
    """The periodic dilates as the kernels evaluate them: rows of
    `spline_basis_matrix` and one-entry combinations."""

    def test_peak_value(self):
        # N_0 for order 2 is the periodization of M(2x); peak at x = 1/2
        assert periodic_value(2, 0, 0, F(1, 2)) == 1
        assert _basis([0.5], 0, 2)[0, 0] == 1.0
        assert _one_spline(2, (0,), (0,))((0.5,)) == 1.0

    def test_periodicity(self):
        # up to rounding of the shifted argument x + 1.0
        xs = np.random.default_rng(0).random(50)
        col = _basis(xs, 2, 4)[:, 7]
        assert np.max(np.abs(col - _basis(xs + 1.0, 2, 4)[:, 7])) < 1e-13
        hc = _one_spline(4, (2,), (7,))
        assert np.max(np.abs(hc.eval_points(xs[:, None]) - hc.eval_points(xs[:, None] - 3.0))) < 1e-13
        expect = np.array([periodic_value(4, 2, 7, x) for x in xs], dtype=np.float64)
        assert np.max(np.abs(col - expect)) < 1e-14

    @pytest.mark.parametrize("ell,k", [(2, 0), (2, 3), (4, 3), (4, 6), (6, 2)])
    def test_partition_of_unity(self, ell, k):
        xs = np.random.default_rng(1).random(1000)
        B = _basis(xs, k, ell)
        assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-12
        rows = [periodic_row(ell, k, x) for x in xs]
        assert all(sum(row) == 1 for row in rows)
        assert np.max(np.abs(B - np.array(rows, dtype=np.float64))) < 1e-14


class TestTensor:
    def test_zero_factor_kills_product(self):
        # x_1 outside the support of its factor
        assert tensor_value(2, (2, 0), (0, 0), (0.9, 0.3)) == 0
        assert _one_spline(2, (2, 0), (0, 0))((0.9, 0.3)) == 0.0

    def test_d1_reduces_to_periodic(self):
        hc = _one_spline(4, (2,), (5,))
        xs = (0.1, 0.6, 0.95)
        assert np.array_equal(hc.eval_points(np.array(xs)[:, None]), _basis(xs, 2, 4)[:, 5])
        for x in xs:
            assert hc((x,)) == pytest.approx(float(periodic_value(4, 2, 5, x)), abs=1e-15)

    def test_level1_order2_values(self):
        # N_{1,0} is the periodization of M(4x); dense sampling puts its peak
        # at 1/4, and x = 1/8 sits halfway up the hat
        xs = np.linspace(0, 1, 4001)
        vals = _basis(xs, 1, 2)[:, 0]
        assert max(vals) == pytest.approx(1.0, abs=1e-12)
        assert xs[int(np.argmax(vals))] == pytest.approx(0.25, abs=1e-3)
        assert tensor_value(2, (1, 1), (0, 0), (F(1, 4), F(1, 4))) == 1
        assert tensor_value(2, (1, 1), (0, 0), (F(1, 8), F(1, 8))) == F(1, 4)
        hc = _one_spline(2, (1, 1), (0, 0))
        assert hc((0.25, 0.25)) == pytest.approx(1.0, abs=1e-15)
        assert hc((0.125, 0.125)) == pytest.approx(0.25, abs=1e-15)
