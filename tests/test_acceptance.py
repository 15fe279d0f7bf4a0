"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite stays well inside its time budgets on a laptop-class
machine.  Heavy sweeps are shared through module-scoped fixtures.
"""

import itertools
from fractions import Fraction as F
from math import comb, inf

import numpy as np
import pytest

from sparseqi.analysis import (
    fit_rate,
    lp_block_norm,
    lq_norm,
    recovery_error,
    sobolev_norm_fourier,
    spline_norm,
)
from sparseqi.bspline import eval_cardinal_exact, piece_table
from sparseqi.kernels import spline_basis_matrix
from sparseqi.laurent import LaurentPoly
from sparseqi.quasi_interp import (
    HierCoeffs,
    SampleCache,
    block_coeffs,
    block_coeffs_oracle,
    builtin_scheme,
    multi_indices,
)
from sparseqi.smolyak import count_points, enumerate_grid, recover
from sparseqi.testfuncs import random_mixed_smooth, witness_g1, witness_g2
from .conftest import periodic_row


def _report(num: int, message: str) -> None:
    print(f"\nACCEPTANCE CRITERION {num} PASS: {message}")


# ---------------------------------------------------------------------------
# shared rate sweeps (criteria 4, 5, 9)
# ---------------------------------------------------------------------------

R_EFF = 1.25
P_EXP = 2.0


def _peak_errors(scheme, d, q, m_range):
    # the bump vanishes on the level-m grid, so its recovery is 0 and the
    # error is the bump's own norm, in closed form as the CLI takes it
    return {m: spline_norm(witness_g2(scheme, d, m, R_EFF, P_EXP), q) for m in m_range}


def _combined(err_random, err_peak):
    # class-sup proxy: peak probe calibrated to the random probe at the
    # lowest level, then the per-level max
    m0 = min(err_random)
    scale = err_random[m0] / err_peak[m0]
    return {m: max(err_random[m], scale * err_peak[m]) for m in err_random}


@pytest.fixture(scope="module")
def sweep_d1():
    scheme = builtin_scheme("cubic")
    f = random_mixed_smooth(R_EFF, 2048, 1, seed=0)
    m_range = range(3, 10)
    # a block's coefficients do not depend on m: decompose once at the top level
    sweep = recover(scheme, 1, max(m_range), f).block_items()
    err = {2.0: {}, 4.0: {}}
    for m in m_range:
        hc = HierCoeffs(1, scheme.ell, m, {k: C for k, C in sweep if sum(k) <= m})
        for q in err:
            err[q][m] = recovery_error(f, hc, q)
    peak4 = _peak_errors(scheme, 1, 4.0, m_range)
    return {"err": err, "peak": {4.0: peak4}}


@pytest.fixture(scope="module")
def sweep_d2():
    scheme = builtin_scheme("cubic")
    f = random_mixed_smooth(R_EFF, 512, 2, seed=0)
    m_range = range(3, 8)
    sweep = recover(scheme, 2, max(m_range), f).block_items()
    err = {2.0: {}, 4.0: {}, inf: {}}
    for m in m_range:
        hc = HierCoeffs(2, scheme.ell, m, {k: C for k, C in sweep if sum(k) <= m})
        for q in err:
            err[q][m] = recovery_error(f, hc, q)
    peaks = {q: _peak_errors(scheme, 2, q, m_range) for q in (4.0, inf)}
    return {"err": err, "peak": peaks}


# ---------------------------------------------------------------------------
# criterion 1: exact symbolic derivation
# ---------------------------------------------------------------------------


def test_criterion_1_exact_symbols():
    faber = builtin_scheme("faber")
    assert faber.p_even_star == LaurentPoly(0, ["-1/2"])
    assert faber.p_odd_star == LaurentPoly.zero()

    cubic = builtin_scheme("cubic")
    even_row = LaurentPoly(-2, ["1/48", "4/48", "8/48", "4/48", "1/48"])
    assert cubic.p_even_star == even_row
    # the reduced odd symbol carries the classical coefficient row (1,4,1)/12,
    # recentered by one power so it is symmetric about z^0
    odd_row = LaurentPoly(0, ["1/12", "4/12", "1/12"])
    assert cubic.p_odd_star == LaurentPoly(odd_row.lo - 1, odd_row.coeffs)
    assert cubic.p_odd_star.coeffs == cubic.p_odd_star.coeffs[::-1]
    assert cubic.p_even_star.coeff_abs_sum() == F(3, 8)
    assert cubic.p_odd_star.coeff_abs_sum() == F(1, 2)

    # full symbols recombine exactly
    d4 = LaurentPoly(0, [-1, 1]) ** 4
    assert d4 * cubic.p_even_star == cubic.p_even
    assert d4 * cubic.p_odd_star == cubic.p_odd
    _report(1, "order-2 and order-4 reduced symbols match their closed forms exactly")


# ---------------------------------------------------------------------------
# criterion 2: detail formula vs refinement-expansion oracle
# ---------------------------------------------------------------------------


def test_criterion_2_formula_vs_oracle():
    worst = 0.0
    for name in ("faber", "cubic"):
        scheme = builtin_scheme(name)
        for d in (1, 2):
            for seed in range(10):
                f = random_mixed_smooth(R_EFF, 5, d, seed=seed)
                cache = SampleCache(f, scheme.ell, d, 4)
                fn_scale = 0.0
                blocks = {}
                for k in multi_indices(d, 4):
                    blocks[k] = block_coeffs(scheme, cache, k)
                    fn_scale = max(fn_scale, float(np.max(np.abs(blocks[k]))))
                for k, direct in blocks.items():
                    oracle = block_coeffs_oracle(scheme, cache, k)
                    scale = max(float(np.max(np.abs(direct))), 1e-3 * fn_scale)
                    rel = float(np.max(np.abs(direct - oracle))) / scale
                    worst = max(worst, rel)
                    assert rel < 1e-11
                if seed == 0:
                    # the scalar functional agrees with both block paths
                    from sparseqi.quasi_interp import detail_coeff

                    for k in ((1,) * d, (0,) * d, (2,) + (1,) * (d - 1)):
                        s_idx = (1,) * d
                        scalar = detail_coeff(scheme, k, s_idx, f)
                        assert scalar == pytest.approx(
                            blocks[k][s_idx], abs=1e-11 * max(1.0, fn_scale)
                        )
    _report(2, f"three coefficient paths agree; worst relative deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: structural invariants
# ---------------------------------------------------------------------------


def test_criterion_3_structural_invariants():
    rng = np.random.default_rng(0)
    for ell in (2, 4, 6):
        # partition of unity of the periodic dilates: exact, and through the kernels
        for k in (0, 3):
            xs = rng.random(200)
            assert all(sum(periodic_row(ell, k, x)) == 1 for x in xs)
            B = spline_basis_matrix(xs, k, ell, piece_table(ell))
            assert np.max(np.abs(B.sum(axis=1) - 1.0)) < 1e-12
        # refinement identity, exact at rationals
        for x in (F(i, 83) for i in range(83 * ell + 1)):
            fine = sum(comb(ell, j) * eval_cardinal_exact(ell, 2 * x - j) for j in range(ell + 1))
            assert eval_cardinal_exact(ell, x) == F(2) ** (1 - ell) * fine

    for name in ("faber", "cubic"):
        scheme = builtin_scheme(name)
        ell, mu = scheme.ell, scheme.mu
        lam = [float(c) for c in scheme.lam]
        # polynomial reproduction of degree < ell through the frozen floats
        for degree in range(ell):
            for x in np.linspace(0.0, 1.0, 17):
                total = 0.0
                for s in range(-ell, 1):
                    w = float(eval_cardinal_exact(ell, F(x) - s))
                    if w:
                        total += w * sum(
                            lam[j + mu] * (s - j + ell / 2) ** degree
                            for j in range(-mu, mu + 1)
                        )
                assert abs(total - x**degree) < 1e-10 * max(1.0, (ell + mu) ** degree)
        # the order-ell difference that detail_coeff applies, stencil_delta,
        # annihilates polynomials of degree < ell: sum_e w_e * (x + e*h)**degree
        lo, weights = scheme.stencil_delta
        points = 0.3 + 0.05 * (lo + np.arange(len(weights)))
        for degree in range(ell):
            assert abs(np.dot(weights, points**degree)) < 1e-12
    _report(3, "partition of unity, refinement, reproduction, annihilation all hold")


# ---------------------------------------------------------------------------
# criterion 4: rates for p >= q
# ---------------------------------------------------------------------------


def test_criterion_4_rate_p_ge_q(sweep_d1, sweep_d2):
    fit1 = fit_rate(sweep_d1["err"][2.0], "pure_dyadic", drop_lowest=0)
    assert 1.0 <= fit1.rho <= 1.5

    fit2 = fit_rate(sweep_d2["err"][2.0], "dyadic_logpow", drop_lowest=0)
    assert R_EFF - 0.3 <= fit2.rho <= R_EFF + 0.3
    assert fit2.beta > 0.0
    _report(
        4,
        f"p=q=2 rates: d=1 rho={fit1.rho:.3f} in [1.0,1.5]; "
        f"d=2 rho={fit2.rho:.3f} in [0.95,1.55], beta={fit2.beta:.3f} > 0",
    )


# ---------------------------------------------------------------------------
# criterion 5: rates for p < q
# ---------------------------------------------------------------------------


def test_criterion_5_rate_p_lt_q(sweep_d1, sweep_d2):
    target = R_EFF - 1.0 / 2.0 + 1.0 / 4.0  # = 1.0
    rhos = []
    for sweep in (sweep_d1, sweep_d2):
        errors = _combined(sweep["err"][4.0], sweep["peak"][4.0])
        fit = fit_rate(errors, "pure_dyadic", drop_lowest=0)
        assert abs(fit.rho - target) <= 0.3
        rhos.append(fit.rho)
    _report(
        5,
        f"p=2<q=4 class-sup rates: d=1 rho={rhos[0]:.3f}, d=2 rho={rhos[1]:.3f}, "
        f"target {target}",
    )


# ---------------------------------------------------------------------------
# criterion 6: witnesses
# ---------------------------------------------------------------------------


def test_criterion_6_witnesses():
    faber = builtin_scheme("faber")
    r, p, q = 0.75, 2.0, 2.0
    # vanishing on the sample grid
    for m in (2, 3, 4, 5):
        w = witness_g1(faber, 2, m, r)
        grid = enumerate_grid(2, m, faber)
        assert np.max(np.abs(w.eval_points(grid.as_array()))) < 1e-12

    # norm sweep shape
    norms = {}
    for m in range(2, 8):
        w = witness_g1(faber, 2, m, r)
        norms[m] = lq_norm(w, q, 2, 2 ** (m + 3), min_level=w.max_level)
    fit = fit_rate(norms, "dyadic_logpow")
    assert fit.residual < 0.15
    assert abs(fit.rho - r) < 0.15
    assert fit.beta >= 0.0

    # single-bump per-step norm ratio
    cubic = builtin_scheme("cubic")
    rr, pp, qq = 1.25, 2.0, 4.0
    target = 2.0 ** (-(rr - 1.0 / pp + 1.0 / qq))
    g2n = {}
    for m in (2, 3, 4, 5):
        w = witness_g2(cubic, 1, m, rr, pp)
        g2n[m] = spline_norm(w, qq)
    for m in (2, 3, 4):
        assert g2n[m + 1] / g2n[m] == pytest.approx(target, rel=1e-12)
    _report(
        6,
        f"g1 vanishes on grids, sweep rho={fit.rho:.3f} (resid {fit.residual:.4f}); "
        f"g2 step ratio {target:.4f} to 1e-12",
    )


# ---------------------------------------------------------------------------
# criterion 7: two-sided norm equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_norm_equivalence():
    cubic = builtin_scheme("cubic")
    r, p = 1.25, 2.0
    ratios = []
    for d, K, m in ((1, 16, 7), (2, 8, 5)):
        for seed in range(10):
            f = random_mixed_smooth(r, K, d, seed=seed)
            ratios.append(
                lp_block_norm(recover(cubic, d, m, f), r, p) / sobolev_norm_fourier(f, r)
            )
    spread = max(ratios) / min(ratios)
    assert spread < 20.0
    _report(
        7,
        f"block-norm/Sobolev ratios of 20 random functions lie in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}], spread {spread:.2f} < 20",
    )


# ---------------------------------------------------------------------------
# criterion 8: grid cardinality
# ---------------------------------------------------------------------------


def _stencil_read_union(scheme, d, m):
    # independent count: per axis, union of stencil positions over all
    # shifts (parity-dispatched); block reads are products across axes
    from sparseqi.bspline import shifts_per_level

    pts = set()
    for k in multi_indices(d, m):
        axis_sets = []
        for kj in k:
            L = shifts_per_level(scheme.ell, kj)
            reads = set()
            for s in range(L):
                if kj == 0:
                    lo, w = scheme.stencil_lambda
                else:
                    lo, w = scheme.stencil_even if s % 2 == 0 else scheme.stencil_odd
                reads.update(F((s + lo + i) % L, L) for i, wi in enumerate(w) if wi != 0.0)
            axis_sets.append(sorted(reads))
        pts.update(itertools.product(*axis_sets))
    return len(pts)


def test_criterion_8_grid_cardinality():
    for name in ("faber", "cubic"):
        scheme = builtin_scheme(name)
        for d in (1, 2, 3):
            for m in range(7):
                counted = count_points(d, m, scheme)
                assert counted == enumerate_grid(d, m, scheme).n
                assert counted == _stencil_read_union(scheme, d, m)
    ratios = [count_points(2, m, builtin_scheme("cubic")) / (2.0**m * m) for m in range(4, 13)]
    assert max(ratios) / min(ratios) < 1.5
    _report(
        8,
        f"closed-form counts match enumeration for d<=3, m<=6; "
        f"n/(2^m m) stays within [{min(ratios):.2f}, {max(ratios):.2f}] over m=4..12",
    )


# ---------------------------------------------------------------------------
# criterion 9: sup-norm rate
# ---------------------------------------------------------------------------


def test_criterion_9_sup_norm_rate(sweep_d2):
    target = R_EFF - 1.0 / P_EXP  # = 0.75
    errors = _combined(sweep_d2["err"][inf], sweep_d2["peak"][inf])
    fit = fit_rate(errors, "dyadic_logpow", drop_lowest=0)
    assert abs(fit.rho - target) <= 0.3
    _report(
        9,
        f"d=2 sup-norm class rate rho={fit.rho:.3f}, beta={fit.beta:.3f}, "
        f"target exponent {target}",
    )
