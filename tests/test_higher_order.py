"""Order-6 scheme derived from scratch, plus d=3 decomposition coverage.

The mask is not hard-coded: an exact linear solve against the reproduction
conditions recovers it inside the test, so scheme validation and the solve
cross-check each other.
"""

from fractions import Fraction as F

import numpy as np
import pytest

from sparseqi.analysis import recovery_error
from sparseqi.bspline import eval_cardinal_exact
from sparseqi.quasi_interp import (
    NotAQuasiInterpolant,
    SampleCache,
    block_coeffs,
    block_coeffs_oracle,
    build_scheme,
    builtin_scheme,
    multi_indices,
)
from sparseqi.smolyak import recover
from sparseqi.testfuncs import random_mixed_smooth


def solve_mask(ell: int, mu: int) -> list[F]:
    """Exact least-width mask from the reproduction conditions.

    Sets up ``Q(x**j) = x**j`` at ``ell + 1`` rational points per degree and
    eliminates over the rationals; raises if the system is inconsistent.
    """
    xs = [F(t, ell + 2) for t in range(ell + 1)]
    aug = []
    half = ell // 2
    for deg in range(ell):
        for x in xs:
            coef = [F(0)] * (mu + 1)
            for s in range(-ell, 1):
                w = eval_cardinal_exact(ell, x - s)
                if w == 0:
                    continue
                for m in range(-mu, mu + 1):
                    coef[abs(m)] += w * F(s - m + half) ** deg
            aug.append(coef + [x**deg])
    n = mu + 1
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        pivot = aug[r][c]
        aug[r] = [v / pivot for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        r += 1
    assert r == n, "reproduction system is rank deficient"
    assert all(all(v == 0 for v in row) for row in aug[r:]), "inconsistent system"
    center_first = [aug[i][n] for i in range(n)]
    return list(reversed(center_first[1:])) + center_first


@pytest.fixture(scope="module")
def sextic():
    mask = solve_mask(6, 2)
    return build_scheme(6, mask)


class TestDerivedOrderSix:
    def test_solved_mask_values(self):
        mask = solve_mask(6, 2)
        assert mask == [F(13, 240), F(-7, 15), F(73, 40), F(-7, 15), F(13, 240)]

    def test_builtin_masks_recovered_by_solver(self):
        assert solve_mask(2, 0) == [F(1)]
        assert solve_mask(4, 1) == [F(-1, 6), F(4, 3), F(-1, 6)]

    def test_scheme_accepted_and_symmetric(self, sextic):
        assert sextic.ell == 6
        for p in (sextic.p_even_star, sextic.p_odd_star):
            assert p.coeffs == p.coeffs[::-1]
        from sparseqi.laurent import LaurentPoly

        d6 = LaurentPoly(0, [-1, 1]) ** 6
        assert d6 * sextic.p_even_star == sextic.p_even
        assert d6 * sextic.p_odd_star == sextic.p_odd

    def test_any_perturbation_rejected(self):
        mask = solve_mask(6, 2)
        for idx, eps in ((2, F(1, 1000)), (0, F(-1, 720))):
            bad = list(mask)
            bad[idx] += eps
            bad[-1 - idx] += eps  # keep symmetry
            with pytest.raises(NotAQuasiInterpolant):
                build_scheme(6, bad)

    @pytest.mark.parametrize("d", [1, 2])
    def test_formula_vs_oracle(self, sextic, d):
        f = random_mixed_smooth(2.0, 4, d, seed=0)
        m = 3 if d == 1 else 2
        cache = SampleCache(f, sextic.ell, d, m)
        for k in multi_indices(d, m):
            direct = block_coeffs(sextic, cache, k)
            oracle = block_coeffs_oracle(sextic, cache, k)
            scale = max(1e-9, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - oracle)) < 1e-11 * scale

    def test_recovery_converges_fast(self, sextic):
        # order 6 resolves a very smooth function at better than fourth order
        f = random_mixed_smooth(3.5, 64, 1, seed=1)
        errs = []
        for m in (2, 3, 4, 5):
            hc = recover(sextic, 1, m, f)
            errs.append(recovery_error(f, hc, 2.0))
        rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(rates > 3.0)


class TestThreeDimensions:
    def test_formula_vs_oracle_d3(self, faber):
        f = random_mixed_smooth(1.0, 3, 3, seed=2)
        cache = SampleCache(f, faber.ell, 3, 2)
        for k in multi_indices(3, 2):
            direct = block_coeffs(faber, cache, k)
            oracle = block_coeffs_oracle(faber, cache, k)
            scale = max(1e-9, float(np.max(np.abs(direct))))
            assert np.max(np.abs(direct - oracle)) < 1e-11 * scale

    def test_recovery_error_decreases_d3(self, faber):
        f = random_mixed_smooth(1.0, 6, 3, seed=3)
        errs = []
        for m in (1, 2, 3):
            hc = recover(faber, 3, m, f)
            errs.append(recovery_error(f, hc, 2.0, resolution=2**5))
        assert errs[0] > errs[1] > errs[2]

    def test_constant_reproduced_d3(self, cubic):
        f = lambda P: np.full(P.shape[0], -0.4)
        hc = recover(cubic, 3, 2, f)
        pts = np.random.default_rng(0).random((20, 3))
        assert np.max(np.abs(hc.eval_points(pts) + 0.4)) < 1e-12
