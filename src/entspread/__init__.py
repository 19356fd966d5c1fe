"""Entanglement spreading in single-excitation XXZ spin chains.

Simulation and analysis toolkit: exact Bessel-function dynamics for ordered
chains, Chebyshev propagation for disordered ones, concurrence spreading
moments, bound and asymptote verification, and power-law exponent extraction.
"""

__version__ = "0.1.0"

from .analysis import (
    BoundsReport,
    MomentSeries,
    PowerLawFit,
    fit_power_law,
    local_exponent,
    time_average,
    verify_bounds,
)
from .analytic import (
    asymptotes_ordered,
    impurity_origin_amplitude,
    infinite_amplitude,
    infinite_state,
    semi_infinite_amplitude,
    w_bounds_ordered,
)
from .bessel import bessel_j, bessel_j_series_oracle, bessel_row, bessel_rows
from .chain import (
    ChainSpec,
    DisorderSpec,
    Hamiltonian,
    build_hamiltonian,
    derive_seed,
    sample_disorder,
    spectral_bounds,
)
from .observables import (
    MomentSample,
    concurrence_pair,
    moment_m,
    reduced_density_pair,
    wootters_concurrence,
)
from .propagator import (
    ReflectionBudgetWarning,
    WaveState,
    basis_state,
    evolve_diagonalization,
    evolve_series,
)

__all__ = [
    "__version__",
    "bessel_j",
    "bessel_j_series_oracle",
    "bessel_row",
    "bessel_rows",
    "ChainSpec",
    "DisorderSpec",
    "Hamiltonian",
    "build_hamiltonian",
    "derive_seed",
    "sample_disorder",
    "spectral_bounds",
    "WaveState",
    "basis_state",
    "evolve_diagonalization",
    "evolve_series",
    "ReflectionBudgetWarning",
    "infinite_amplitude",
    "infinite_state",
    "semi_infinite_amplitude",
    "impurity_origin_amplitude",
    "w_bounds_ordered",
    "asymptotes_ordered",
    "MomentSample",
    "reduced_density_pair",
    "wootters_concurrence",
    "concurrence_pair",
    "moment_m",
    "MomentSeries",
    "PowerLawFit",
    "BoundsReport",
    "time_average",
    "fit_power_law",
    "local_exponent",
    "verify_bounds",
]
