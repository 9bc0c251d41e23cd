"""SEIRV malware-propagation toolkit.

Simulation of the five-compartment device model, equilibrium/threshold/
stability analysis, sensitivity and control-region maps, hybrid
gradient + simulated-annealing optimal control, and data-driven calibration
with averted-cases analysis.
"""

from .analysis import (
    EpidemicCharacteristics,
    RegionMap,
    SensitivityIndex,
    characteristics,
    classify_region,
    region_map,
    sensitivity_indices,
    sweep_beta,
    sweep_control,
)
from .calibration import (
    AvertedCurve,
    FitResult,
    NelderMeadConfig,
    ObservationSeries,
    averted_cases,
    fit_beta_segments,
    generate_synthetic,
    goodness,
    load_series,
    nelder_mead,
    sse,
)
from .control import (
    CostParams,
    GradientVector,
    OptimRun,
    SAConfig,
    cost,
    effort_split,
    gradient,
    hybrid_optimize,
    solve_adjoint,
)
from .equilibria import (
    BifurcationBranch,
    EndemicPoint,
    MfePoint,
    MfeSpectrum,
    RouthHurwitzReport,
    ThresholdResult,
    bifurcation_scan,
    compute_endemic,
    compute_mfe,
    compute_rc,
    critical_beta,
    endemic_stability,
    mfe_spectrum,
)
from .errors import (
    DegenerateObjectiveError,
    IntegrationDivergedError,
    NoEndemicPointError,
    SeirvError,
)
from .model import (
    BetaSchedule,
    ControlSchedule,
    IntegratorConfig,
    ModelParams,
    State,
    DEFAULT_PARAMS,
    Trajectory,
    integrate,
    population_bound,
    population_closed_form,
    rhs,
)

__version__ = "0.1.0"
