"""corechar: character sums, exponential sums and L-functions for moduli
with a small core, at desk scale."""

from .arith import (
    FactoredModulus,
    UnitGroupBasis,
    core,
    discrete_log,
    factor,
    unit_group_basis,
    valuation,
)
from .characters import (
    DirichletCharacter,
    RationalAngle,
    crt_restrict,
    enumerate_characters,
    principal_character,
    quadratic_character,
)
from .config import DEFAULT_CONFIG, RunConfig
from .expsums import (
    RealPolynomial,
    SumResult,
    char_sum,
    decompose,
    dirichlet_poly,
    double_sum,
    twisted_sum,
)
from .lfunc import (
    hurwitz_zeta,
    l_value,
    l_value_series,
    theorem3_bound,
    vartheta_shape,
    zero_free_params,
)
from .postnikov import (
    fd_coefficients,
    find_postnikov_m,
    minimal_postnikov_degree,
    shifted_poly,
)
from .primes import psi, psi_progression, short_interval_check
from .vinogradov import (
    count_vinogradov,
    count_vinogradov_naive,
    ford_bound,
    ford_k_search,
    korobov_check,
    rational_approx,
)

__version__ = "0.1.0"
