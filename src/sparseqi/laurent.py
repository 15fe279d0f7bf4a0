"""Exact univariate Laurent polynomials with rational coefficients.

Coefficients are `fractions.Fraction`, so addition, multiplication and long
division are exact and bit-reproducible.  These polynomials encode the
symbols of shift operators on sampled functions: an exponent ``e`` with
coefficient ``c`` contributes the term ``c * f(x + e*h)`` when the symbol is
applied with step ``h``.  Floating-point coefficient tables are produced
exactly once, when a quasi-interpolation scheme is frozen; everything before
that stays rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "LaurentPoly",
    "NotDivisible",
    "float_stencil",
]


class NotDivisible(ArithmeticError):
    """Laurent long division left a nonzero remainder."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True)
class LaurentPoly:
    """A Laurent polynomial ``sum_i coeffs[i] * z**(lo + i)``.

    Canonical form: ``coeffs`` is empty (the zero polynomial, with ``lo == 0``)
    or has nonzero first and last entries.  Instances are immutable and safe
    to share between threads.
    """

    lo: int
    coeffs: tuple[Fraction, ...]

    def __init__(self, lo: int, coeffs: Sequence) -> None:
        cs = [_as_fraction(c) for c in coeffs]
        left, right = 0, len(cs)
        while left < right and cs[left] == 0:
            left += 1
            lo += 1
        while left < right and cs[right - 1] == 0:
            right -= 1
        if left == right:
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "coeffs", ())
        else:
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "coeffs", tuple(cs[left:right]))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls(0, ())

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls(0, (Fraction(1),))

    @classmethod
    def from_pairs(cls, pairs: Mapping[int, object] | Iterable[tuple[int, object]]) -> "LaurentPoly":
        items = dict(pairs.items() if isinstance(pairs, Mapping) else pairs)
        if not items:
            return cls.zero()
        lo = min(items)
        hi = max(items)
        return cls(lo, [items.get(e, 0) for e in range(lo, hi + 1)])

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def hi(self) -> int:
        """Highest exponent (meaningless for the zero polynomial)."""
        return self.lo + len(self.coeffs) - 1

    def terms(self) -> Iterator[tuple[int, Fraction]]:
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.lo + i, c

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = [Fraction(0)] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.lo - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.lo - lo + i] += c
        return LaurentPoly(lo, out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.lo, [-c for c in self.coeffs])

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            if self.is_zero() or other.is_zero():
                return LaurentPoly.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if not a:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return LaurentPoly(self.lo + other.lo, out)
        return LaurentPoly(self.lo, [c * _as_fraction(other) for c in self.coeffs])

    def __rmul__(self, other) -> "LaurentPoly":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers are not defined for Laurent polynomials")
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def substitute_z_squared(self) -> "LaurentPoly":
        """Return ``q`` with ``q(z) = p(z**2)``: all exponents doubled."""
        if self.is_zero():
            return self
        out = [Fraction(0)] * (2 * len(self.coeffs) - 1)
        out[::2] = self.coeffs
        return LaurentPoly(2 * self.lo, out)

    def divide_exact(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Return ``r`` with ``self == divisor * r``, exactly.

        Raises:
            ZeroDivisionError: ``divisor`` is the zero polynomial.
            NotDivisible: the division leaves a nonzero remainder.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero Laurent polynomial")
        if self.is_zero():
            return LaurentPoly.zero()
        rem = list(self.coeffs)
        den = divisor.coeffs
        nq = len(rem) - len(den) + 1
        if nq <= 0:
            raise NotDivisible(f"{self} is not divisible by {divisor}")
        quot = [Fraction(0)] * nq
        lead = den[-1]
        for i in range(nq - 1, -1, -1):
            q = rem[i + len(den) - 1] / lead
            quot[i] = q
            if q:
                for j, b in enumerate(den):
                    rem[i + j] -= q * b
        if any(rem):
            raise NotDivisible(f"{self} is not divisible by {divisor}")
        return LaurentPoly(self.lo - divisor.lo, quot)

    def coeff_abs_sum(self) -> Fraction:
        """Sum of absolute values of the coefficients."""
        return sum((abs(c) for c in self.coeffs), Fraction(0))

    def __call__(self, z: Fraction) -> Fraction:
        z = _as_fraction(z)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc * z**self.lo

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"lo": self.lo, "coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: Mapping) -> "LaurentPoly":
        return cls(int(data["lo"]), [Fraction(c) for c in data["coeffs"]])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for e, c in self.terms():
            if e == 0:
                parts.append(f"{c}")
            elif e == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{e}")
        return " + ".join(parts)


def float_stencil(p: LaurentPoly) -> tuple[int, np.ndarray]:
    """Freeze a polynomial into ``(lo, weights)`` with float64 weights."""
    return p.lo, np.array([float(c) for c in p.coeffs], dtype=np.float64)
