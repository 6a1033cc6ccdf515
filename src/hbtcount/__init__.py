"""Counting statistics for two-detector correlation experiments.

Computes and Monte-Carlo-verifies coincidence statistics of bosons and
fermions in linear counting experiments: the trinomial algebra of single
gates, occupancy laws of coherent and thermal sources, series observables
(K, R, Fano factor), mode-count functions, and the single-photon
anticorrelation reanalysis.
"""

from .elementary import (
    SequenceMoments,
    TernaryLaw,
    sequence_gf,
    sequence_k,
    sequence_moments,
    sequence_r,
    trinomial_pmf,
)
from .errors import DomainError
from .sources import (
    FactorialMoments,
    SourceLaw,
    poisson_tv_distance,
    source_factorial_moments,
    source_pgf,
    source_pmf,
    support_cutoff,
)
from .stats import (
    SeriesMoments,
    contrast_z,
    energy_fluctuation,
    entropy_change,
    exact_correlation,
    max_contrast_pump,
    series_moments,
    thermal_k,
)
from .modes import (
    ModeProfile,
    asymptotic_mode_count,
    cartesian_mode_count,
    coincidence_curve,
    gaussian_mode_count,
    linear_mode_count,
    lorentzian_mode_count,
)
from .anticorrelation import (
    CascadeModel,
    GateRecord,
    accidental_coincidences,
    alpha_mode_form,
    alpha_qm,
    cascade_population,
    empirical_observables,
    gate_overlap,
    k_anticorrelation,
    load_table1,
    predicted_coincidences,
    table1_report,
)
from .mc import (
    Estimate,
    EstimateReport,
    SimulationConfig,
    sample_occupancy,
    simulate_series,
    verify,
)

__version__ = "0.1.0"
