import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparseqi.laurent import LaurentPoly, NotDivisible


def lp(lo, *coeffs):
    return LaurentPoly(lo, coeffs)


Z = lp(1, 1)  # the monomial z


class TestCanonicalForm:
    def test_trims_zeros(self):
        p = LaurentPoly(-2, [0, 0, 3, 5, 0])
        assert p.lo == 0 and p.coeffs == (F(3), F(5))

    def test_zero_normalizes(self):
        p = LaurentPoly(7, [0, 0])
        assert p.is_zero() and p.lo == 0 and p.coeffs == ()

    def test_equality_is_structural(self):
        assert lp(0, "1/2", 1) == lp(0, F(1, 2), F(1))


class TestAdd:
    def test_additive_inverse(self):
        assert Z + (-Z) == LaurentPoly.zero()

    def test_identity(self):
        p = lp(-1, 2, 0, 3)
        assert LaurentPoly.zero() + p == p

    def test_order2_even_symbol(self):
        # z - (1/2)(z^2 + 1) = -(1/2)(z - 1)^2
        p = Z + (-F(1, 2)) * lp(0, 1, 0, 1)
        assert p == lp(0, "-1/2", 1, "-1/2")
        assert p == F(-1, 2) * (lp(0, -1, 1) ** 2)


class TestMul:
    def test_binomial_square(self):
        assert lp(0, -1, 1) * lp(0, -1, 1) == lp(0, 1, -2, 1)

    def test_annihilator(self):
        assert lp(-3, 1, 2) * LaurentPoly.zero() == LaurentPoly.zero()

    def test_order4_odd_symbol_product(self):
        # (z-1)^4 times the reduced odd symbol recovers the full odd symbol
        reduced = lp(-1, "1/12", "1/3", "1/12")
        full = lp(0, -1, 1) ** 4 * reduced
        assert full.lo == -1 and full.coeffs[5 + 1] == F(1, 12)
        assert full.coeffs[2 + 1] == F(4, 3)
        assert full.divide_exact(lp(0, -1, 1) ** 4) == reduced


class TestSubstituteZSquared:
    def test_monomial(self):
        assert Z.substitute_z_squared() == lp(2, 1)

    def test_cubic_mask_symbol(self):
        p = lp(1, "-1/6", "8/6", "-1/6")
        q = p.substitute_z_squared()
        assert q == lp(2, "-1/6", 0, "8/6", 0, "-1/6")

    def test_constant(self):
        c = lp(0, "7/3")
        assert c.substitute_z_squared() == c


class TestDivideExact:
    def test_order2_even_reduction(self):
        p = F(-1, 2) * (lp(0, -1, 1) ** 2)
        assert p.divide_exact(lp(0, -1, 1) ** 2) == lp(0, "-1/2")

    def test_simple_factor(self):
        assert lp(0, -1, 0, 1).divide_exact(lp(0, -1, 1)) == lp(0, 1, 1)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            lp(0, 1, 1).divide_exact(lp(0, -1, 1))

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            Z.divide_exact(LaurentPoly.zero())

    def test_zero_dividend(self):
        assert LaurentPoly.zero().divide_exact(Z) == LaurentPoly.zero()


class TestCoeffAbsSum:
    def test_zero(self):
        assert LaurentPoly.zero().coeff_abs_sum() == 0

    def test_order4_reduced_symbols(self):
        even = lp(-2, "1/48", "1/12", "1/6", "1/12", "1/48")
        odd = lp(-1, "1/12", "1/3", "1/12")
        assert even.coeff_abs_sum() == F(3, 8)
        assert odd.coeff_abs_sum() == F(1, 2)


rationals = st.fractions(
    min_value=F(-50), max_value=F(50), max_denominator=40
)
polys = st.builds(
    LaurentPoly,
    st.integers(min_value=-6, max_value=6),
    st.lists(rationals, min_size=0, max_size=13),
)


@settings(deadline=None, max_examples=200)
@given(polys, polys)
def test_divide_undoes_multiply(p, q):
    if q.is_zero():
        return
    assert (p * q).divide_exact(q) == p


@settings(deadline=None, max_examples=100)
@given(polys, polys, polys)
def test_ring_identities(a, b, c):
    assert a * b == b * a
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c


@settings(deadline=None, max_examples=100)
@given(polys)
def test_json_round_trip_bit_exact(p):
    blob = json.dumps(p.to_json())
    assert LaurentPoly.from_json(json.loads(blob)) == p
