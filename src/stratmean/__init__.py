"""Mean estimation for stratified SRSWOR designs with an auxiliary variate.

The package covers the full workflow: describe a stratified design
(``design``), evaluate the classical and dual-constant estimators of the
population mean (``estimators``), analyze first-order bias/MSE and solve
for optimal constants (``mse``), and verify every formula against seeded
Monte Carlo replication or exhaustive sample enumeration (``montecarlo``).
Two example designs from the survey-sampling literature ship in
``datasets``; ``cli`` exposes everything as the ``stratmean`` command.
"""

from .design import (
    CombinedMoments,
    DesignSummary,
    Microdata,
    MicrodataStratum,
    StratumSummary,
    aggregate_moments,
    design_from_microdata,
    summarize_stratum,
    validate_design,
)
from .estimators import (
    BatchEstimates,
    EstimatorKind,
    EstimatorSpec,
    estimate,
    estimate_many,
    transform_coefficients,
)
from .mse import (
    MseResult,
    QuadraticMseForm,
    analyze,
    default_table_specs,
    efficiency_table,
    optimal_dual,
    pre,
    quadratic_form,
    resolve_spec,
)
from .montecarlo import (
    EmpiricalReport,
    EstimatorOutcome,
    enumerate_exact_moments,
    enumeration_count,
    replicate,
    synthesize_population,
)
from .datasets import get_dataset

__version__ = "0.1.0"

__all__ = [
    "BatchEstimates",
    "CombinedMoments",
    "DesignSummary",
    "EmpiricalReport",
    "EstimatorKind",
    "EstimatorOutcome",
    "EstimatorSpec",
    "Microdata",
    "MicrodataStratum",
    "MseResult",
    "QuadraticMseForm",
    "StratumSummary",
    "aggregate_moments",
    "analyze",
    "default_table_specs",
    "design_from_microdata",
    "efficiency_table",
    "enumerate_exact_moments",
    "enumeration_count",
    "estimate",
    "estimate_many",
    "get_dataset",
    "optimal_dual",
    "pre",
    "quadratic_form",
    "replicate",
    "resolve_spec",
    "summarize_stratum",
    "synthesize_population",
    "transform_coefficients",
    "validate_design",
]
