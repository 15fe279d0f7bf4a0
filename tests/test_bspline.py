from fractions import Fraction as F

import numpy as np
import pytest

from sparseqi.bspline import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidOrder,
    PeriodicSpline,
    cardinal_norm,
    cardinal_spline,
    eval_cardinal,
    eval_cardinal_exact,
    eval_periodic,
    eval_tensor,
)
from .conftest import cox_de_boor


class TestCardinal:
    def test_hat_peak(self):
        assert eval_cardinal(2, 1.0) == 1.0

    def test_cubic_center(self):
        # frozen from the Cox-de Boor recursion oracle
        assert cox_de_boor(4, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert eval_cardinal(4, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert eval_cardinal_exact(4, F(2)) == F(2, 3)

    def test_outside_support(self):
        assert eval_cardinal(4, -0.5) == 0.0
        assert eval_cardinal(4, 4.0) == 0.0

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_matches_recursion_oracle(self, ell):
        xs = np.linspace(-0.5, ell + 0.5, 10_000)
        ours = np.array([eval_cardinal(ell, x) for x in xs])
        oracle = np.array([cox_de_boor(ell, x) for x in xs])
        assert np.max(np.abs(ours - oracle)) < 1e-13

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_refinement_identity(self, ell):
        xs = np.linspace(0.0, ell, 2000)
        scale = 2.0 ** (1 - ell)
        from math import comb

        for x in xs:
            fine = sum(comb(ell, j) * eval_cardinal(ell, 2 * x - j) for j in range(ell + 1))
            assert abs(eval_cardinal(ell, x) - scale * fine) < 1e-13

    @pytest.mark.parametrize("ell", [2, 4, 6])
    def test_positive_exactly_inside_support(self, ell):
        for x in np.linspace(1e-9, ell - 1e-9, 997):
            assert eval_cardinal(ell, x) > 0.0
        assert eval_cardinal(ell, 0.0) == 0.0
        assert eval_cardinal(ell, float(ell)) == 0.0

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            eval_cardinal(3, 1.0)
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
        assert cardinal_norm(ell, np.inf) == float(eval_cardinal_exact(ell, F(ell, 2)))
        x = np.linspace(0.0, ell, 1001)
        assert max(eval_cardinal(ell, v) for v in x) == pytest.approx(cardinal_norm(ell, np.inf), rel=1e-15)


class TestPeriodic:
    def test_peak_value(self):
        # N_0 for order 2 is the periodization of M(2x); peak at x = 1/2
        assert eval_periodic(PeriodicSpline(2, 0, 0), 0.5) == 1.0

    def test_periodicity(self):
        # up to rounding of the shifted argument x + 1.0
        ps = PeriodicSpline(4, 2, 7)
        for x in np.random.default_rng(0).random(50):
            assert eval_periodic(ps, x) == pytest.approx(eval_periodic(ps, x + 1.0), abs=1e-13)

    @pytest.mark.parametrize("ell,k", [(2, 0), (2, 3), (4, 3), (4, 6), (6, 2)])
    def test_partition_of_unity(self, ell, k):
        xs = np.random.default_rng(1).random(1000)
        L = ell * 2**k
        for x in xs:
            total = sum(eval_periodic(PeriodicSpline(ell, k, s), x) for s in range(L))
            assert abs(total - 1.0) < 1e-12

    def test_shift_index_validation(self):
        with pytest.raises(IndexOutOfRange):
            PeriodicSpline(2, 1, 4)
        with pytest.raises(IndexOutOfRange):
            PeriodicSpline(2, 0, -1)


class TestTensor:
    def test_zero_factor_kills_product(self):
        # x_1 outside the support of its factor
        assert eval_tensor(2, (2, 0), (0, 0), (0.9, 0.3)) == 0.0

    def test_d1_reduces_to_periodic(self):
        for x in (0.1, 0.6, 0.95):
            assert eval_tensor(4, (2,), (5,), (x,)) == eval_periodic(PeriodicSpline(4, 2, 5), x)

    def test_level1_order2_values(self):
        # oracle: N_{1,0} is the periodization of M(4x); dense sampling puts
        # its peak at 1/4, and x = 1/8 sits halfway up the hat
        xs = np.linspace(0, 1, 4001)
        vals = [eval_periodic(PeriodicSpline(2, 1, 0), x) for x in xs]
        assert max(vals) == pytest.approx(1.0, abs=1e-12)
        assert xs[int(np.argmax(vals))] == pytest.approx(0.25, abs=1e-3)
        assert eval_tensor(2, (1, 1), (0, 0), (0.25, 0.25)) == pytest.approx(1.0, abs=1e-15)
        assert eval_tensor(2, (1, 1), (0, 0), (0.125, 0.125)) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            eval_tensor(2, (1, 1), (0,), (0.5, 0.5))
