"""B-spline quasi-interpolation on sparse dyadic grids.

Hierarchical decomposition of periodic functions, recovery from samples on
Smolyak-style sparse grids, and measurement of the associated norm
equivalences and convergence rates.
"""

from .analysis import (
    DegenerateFit,
    FieldDifference,
    LatticeTooLarge,
    RateFit,
    ResolutionTooLow,
    fit_rate,
    lp_block_norm,
    lq_norm,
    recovery_error,
    sobolev_norm_fourier,
    spline_norm,
)
from .bspline import (
    CardinalSpline,
    InvalidOrder,
    cardinal_norm,
    cardinal_spline,
)
from .laurent import LaurentPoly, NotDivisible
from .quasi_interp import (
    BUILTIN_MASKS,
    HierCoeffs,
    LatticeAxis,
    MissingSamples,
    NotAQuasiInterpolant,
    QIScheme,
    SampleCache,
    build_scheme,
    builtin_scheme,
    decompose,
    detail_coeff,
)
from .smolyak import SampleGrid, count_points, enumerate_grid, recover
from .testfuncs import (
    TrigFunction,
    builtin_function,
    random_mixed_smooth,
    witness_g1,
    witness_g2,
)

__version__ = "0.1.0"
