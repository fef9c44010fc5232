"""Tensor-product energies of Fibonacci lattices, golden-ratio
combinatorics and exact generalized Dedekind sums.

The package is organized around one chain of reductions: lattice sums
over the level-n rational lattice regroup along the rows of a
golden-ratio integer array, the rows contribute two geometric series
each, and the resulting growth law C*n + D has a slope with an exact
closed form and an intercept computable to certified accuracy.  A
separate exact layer evaluates the generalized sums themselves in
rational arithmetic.

``fiblat.energy`` is the function `energy`; the module of that name is
reached by ``from fiblat.energy import ...`` or ``importlib``.
"""

from .asymptotics import (
    CConstant,
    ClosedConstant,
    DConstant,
    ExactConstants,
    ResidualRow,
    ZETA_ROUTES,
    ZetaRoute,
    approximation_errors,
    constant_C,
    constant_C_closed,
    constant_D,
    dedekind_zeta,
    delta_mp,
    delta_star_mp,
    exact_constants,
    prefactor,
    residual_fit,
)
from .dedekind import (
    CLOSED_FAMILIES,
    ClosedFamily,
    apostol_check,
    gen_dedekind_sum,
    hwz_check,
    s13_closed,
    s22_closed,
    sigma2_closed,
    sigma2_closed_abstract,
    sigma4_closed,
)
from .energy import (
    EnergyReport,
    RationalLattice,
    energy,
    energy_dft,
    energy_direct,
    energy_exact,
    fib_sum,
    fib_sum_grouped,
    lattice_points,
    wce_e,
)
from .golden import (
    GoldenInt,
    fib,
    floor_phi_times,
    lucas,
    phi_power,
)
from .kernels import (
    KERNEL_GRAMMAR,
    Kernel,
    bernoulli_number,
    bernoulli_poly,
    dft_coeffs,
    dft_coeffs_even,
    kernel_bernoulli_weight,
    kernel_one,
    parse_kernel,
    potential_K,
    zeta,
)
from .verify import SUITE_NAMES, SuiteResult, run_suite
from .wythoff import (
    RowTable,
    WythoffRow,
    floor_phi_plus_inv,
    half_fib_witness,
    row,
    row_table,
    rows_below_half_fib,
    wythoff_row_entries,
)

__version__ = "0.1.0"

__all__ = [
    "CConstant", "CLOSED_FAMILIES", "ClosedConstant", "ClosedFamily",
    "DConstant", "EnergyReport", "ExactConstants", "GoldenInt", "Kernel",
    "KERNEL_GRAMMAR", "RationalLattice", "ResidualRow", "RowTable",
    "SuiteResult", "SUITE_NAMES", "WythoffRow", "ZETA_ROUTES", "ZetaRoute",
    "apostol_check", "approximation_errors", "bernoulli_number",
    "bernoulli_poly", "constant_C", "constant_C_closed", "constant_D",
    "dedekind_zeta", "delta_mp", "delta_star_mp", "dft_coeffs",
    "dft_coeffs_even", "energy", "energy_dft", "energy_direct", "energy_exact",
    "exact_constants", "fib", "fib_sum", "fib_sum_grouped",
    "floor_phi_plus_inv", "floor_phi_times", "gen_dedekind_sum",
    "half_fib_witness", "hwz_check", "kernel_bernoulli_weight", "kernel_one",
    "lattice_points", "lucas", "parse_kernel", "phi_power", "potential_K",
    "prefactor", "residual_fit", "row", "row_table", "rows_below_half_fib",
    "run_suite", "s13_closed", "s22_closed", "sigma2_closed", "sigma2_closed_abstract",
    "sigma4_closed", "wce_e", "wythoff_row_entries", "zeta",
]
