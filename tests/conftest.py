import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import floor, prod
from pathlib import Path

import numpy as np
import pytest

from sparseqi.bspline import eval_cardinal_exact
from sparseqi.quasi_interp import builtin_scheme


@pytest.fixture(scope="session")
def faber():
    return builtin_scheme("faber")


@pytest.fixture(scope="session")
def cubic():
    return builtin_scheme("cubic")


def cox_de_boor(ell: int, x: float) -> float:
    """Independent recursion oracle for the cardinal spline on knots 0..ell."""

    def b(j, order, t):
        if order == 1:
            return 1.0 if j <= t < j + 1 else 0.0
        left = (t - j) / (order - 1) * b(j, order - 1, t)
        right = (j + order - t) / (order - 1) * b(j + 1, order - 1, t)
        return left + right

    return b(0, ell, x)


def periodic_row(ell: int, k: int, x) -> list:
    """Exact ``N_(k,s)(x)`` for every shift ``s`` in ``range(ell * 2**k)``.

    With ``u = (x mod 1) * ell * 2**k``, ``N_(k,s)(x) = M(u - s mod ell * 2**k)``
    is nonzero only for the ``ell`` shifts ``floor(u) - i``, ``0 <= i < ell``;
    only those are evaluated (by `eval_cardinal_exact`, at ``x`` read exactly),
    and every other entry is the integer 0.
    """
    L = ell << k
    u = Fraction(x) * L % L
    j = floor(u)
    row = [0] * L
    for i in range(ell):
        row[(j - i) % L] = eval_cardinal_exact(ell, u - j + i)
    return row


def periodic_value(ell: int, k: int, s: int, x) -> Fraction:
    """Exact ``N_(k,s)(x)``."""
    return periodic_row(ell, k, x)[s]


def tensor_value(ell: int, k, s, x) -> Fraction:
    """Exact ``N_(k,s)(x) = prod_j N_(k_j,s_j)(x_j)``."""
    return prod(periodic_value(ell, kj, sj, xj) for kj, sj, xj in zip(k, s, x, strict=True))


def grid_points(grid) -> tuple:
    """The points of a sparse grid as exact rational coordinates, in grid order."""
    L = grid.ell << grid.m
    return tuple(tuple(Fraction(t, L) for t in row) for row in grid.index.tolist())


def grid_samples(table, grid) -> np.ndarray:
    """The samples of a sample table at the points of the sparse grid ``grid``
    of the same level, in grid order, read off the table's lattices
    ``|k|_1 = m``: position ``i`` of the level-``m`` lattice is position
    ``i / 2**(m - k_j)`` of lattice ``k`` on axis ``j`` when it divides."""
    from sparseqi.quasi_interp import multi_indices

    out = np.full(grid.n, np.nan)
    for k in multi_indices(grid.d, grid.m):
        if sum(k) < grid.m:
            continue
        step = np.array([1 << (grid.m - kj) for kj in k])
        on = np.all(grid.index % step == 0, axis=1)
        out[on] = table.lattice_values(k)[tuple((grid.index[on] // step).T)]
    assert not np.isnan(out).any()
    return out


def rng_points(n, d, seed=0):
    return np.random.default_rng(seed).random((n, d))


def run_cli_in_child(argv, cwd, limit=2 << 30) -> subprocess.CompletedProcess:
    """``sparseqi.cli.main(argv)`` in one child interpreter, run in ``cwd``.

    The child caps its own address space (``RLIMIT_AS``) at ``limit`` bytes
    before numpy loads, and uses one BLAS thread, so an allocation beyond the
    limit fails there and nowhere else.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        f"sys.path.insert(0, {src!r})\n"
        "from sparseqi.cli import main\n"
        f"sys.exit(main({[str(a) for a in argv]!r}))\n"
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def traced_peak(run) -> int:
    """Peak bytes traced by ``tracemalloc`` while ``run()`` runs, its result included."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
