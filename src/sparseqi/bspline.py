"""Cardinal B-splines: exact pieces, their float table, and their norms.

The cardinal spline of even order ``ell`` is the ``ell``-fold convolution of
the indicator of ``[0, 1)``: a nonnegative piecewise polynomial of degree
``ell - 1`` supported on ``[0, ell]`` whose integer translates sum to one.
Piece coefficients are computed once, exactly (repeated antidifferentiation
with `Fraction` arithmetic).  `eval_cardinal_exact` evaluates them at
rational points; `piece_table` freezes them into the float table that
`sparseqi.kernels` evaluates by Horner's rule.

Periodic dilates: ``N_k`` is the 1-periodic extension of ``x -> M(ell * 2**k
* x)``, and ``N_{k,s}(x) = N_k(x - s*h)`` with mesh ``h = 1 / (ell * 2**k)``.
The shift index ``s`` lives in ``{0, ..., ell * 2**k - 1}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isinf

import numpy as np

__all__ = [
    "CardinalSpline",
    "InvalidOrder",
    "cardinal_spline",
    "cardinal_norm",
    "piece_table",
    "eval_cardinal_exact",
    "shifts_per_level",
]


class InvalidOrder(ValueError):
    """Spline order must be an even integer >= 2."""


def _check_order(ell: int) -> None:
    if ell < 2 or ell % 2:
        raise InvalidOrder(f"order must be even and >= 2, got {ell}")


def shifts_per_level(ell: int, k: int) -> int:
    """Number of shifts at level ``k``: ``ell * 2**k``."""
    return ell << k


@dataclass(frozen=True)
class CardinalSpline:
    """Exact piecewise-polynomial table of the cardinal spline of order ``ell``.

    ``pieces[j][i]`` is the coefficient of ``t**i`` on ``[j, j+1)`` in the
    local variable ``t = x - j``.
    """

    ell: int
    pieces: tuple[tuple[Fraction, ...], ...]


def _convolve_pieces(pieces: list[tuple[Fraction, ...]]) -> list[tuple[Fraction, ...]]:
    # One convolution with the unit indicator: new(x) = A(x) - A(x - 1)
    # where A is the running antiderivative of the current spline.
    anti: list[tuple[Fraction, ...]] = []
    running = Fraction(0)
    for piece in pieces:
        integ = [running] + [c / (i + 1) for i, c in enumerate(piece)]
        anti.append(tuple(integ))
        running = sum(integ)
    total = running  # integral over the full support; equals 1
    n = len(pieces)
    out: list[tuple[Fraction, ...]] = []
    width = len(anti[0])
    for j in range(n + 1):
        upper = anti[j] if j < n else (total,) + (Fraction(0),) * (width - 1)
        lower = anti[j - 1] if j >= 1 else (Fraction(0),) * width
        out.append(tuple(u - l for u, l in zip(upper, lower)))
    return out


@lru_cache(maxsize=None)
def cardinal_spline(ell: int) -> CardinalSpline:
    _check_order(ell)
    pieces: list[tuple[Fraction, ...]] = [(Fraction(1),)]
    for _ in range(ell - 1):
        pieces = _convolve_pieces(pieces)
    return CardinalSpline(ell, tuple(pieces))


@lru_cache(maxsize=None)
def piece_table(ell: int) -> np.ndarray:
    """Float piece table, Horner-ready: ``table[j]`` holds the coefficients of
    the piece on ``[j, j+1)`` from highest degree down to the constant."""
    spline = cardinal_spline(ell)
    table = np.zeros((ell, ell), dtype=np.float64)
    for j, piece in enumerate(spline.pieces):
        for i, c in enumerate(piece):
            table[j, ell - 1 - i] = float(c)
    table.setflags(write=False)
    return table


def eval_cardinal_exact(ell: int, x: Fraction) -> Fraction:
    """Exact value of the cardinal spline at a rational point."""
    _check_order(ell)
    x = Fraction(x)
    if x <= 0 or x >= ell:
        return Fraction(0)
    j = int(x)
    t = x - j
    acc = Fraction(0)
    for c in reversed(cardinal_spline(ell).pieces[j]):
        acc = acc * t + c
    return acc


def cardinal_norm(ell: int, q: float) -> float:
    """L_q norm of the cardinal spline of order ``ell`` on ``[0, ell]``.

    At ``q = inf`` it is the peak value ``M(ell/2)``.  For finite ``q`` it is
    one 64-node Gauss-Legendre rule on each unit piece, exact to rounding for
    integer ``q`` with ``q * (ell - 1) < 128``, where ``M**q`` is a polynomial
    of degree below 128 on each piece.
    """
    if isinf(q):
        return float(eval_cardinal_exact(ell, Fraction(ell, 2)))
    # numpy loads np.polynomial lazily; importing it at module level would
    # slow down every import of the package
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(64)
    t = (nodes + 1.0) / 2.0  # the rule on [-1, 1] moved to [0, 1] halves its weights
    values = np.zeros((ell, t.size))
    for c in piece_table(ell).T:  # Horner over every piece at once
        values = values * t + c[:, None]
    # abs: expanded pieces can round below 0 where M vanishes to high order
    return float(np.sum(weights / 2.0 * np.abs(values) ** q) ** (1.0 / q))
