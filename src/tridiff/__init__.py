"""Triple difference-in-differences estimation with covariate reweighting.

The package estimates the average treatment effect on group A's treated
units in a two-group, two-eligibility, two-period panel. The headline
estimator subtracts a reweighted counterfactual contrast built from
group B, restoring identification when covariate distributions differ
across groups; the conventional difference of the two groups' own
contrasts is provided alongside for comparison, together with
regression-based benchmarks, a simulation harness with closed-form
truths, and a command line driver.
"""

from .data import (AssignmentMechanism, Cell, Group, MissingPolicy,
                   PanelDataset, Schema, ValidationReport, load_csv,
                   save_csv, validate)
from .dgp import (DgpSpec, EffectCase, MonteCarloResult, OracleValues,
                  closed_form_oracle, export_histogram, run_monte_carlo,
                  simulate_replicate, simulate_sample)
from .estimators import (BootstrapConfig, EstimandLabel, EstimateResult,
                         Method, SeKind, bias_diagnostic,
                         bootstrap_replicates, bootstrap_ses,
                         estimate_doubly_robust, ols_did, ols_tdid,
                         refit_estimates)
from .exceptions import (ConvergenceError, EstimationError, FittingError,
                         IngestionError, InsufficientDataError,
                         MissingNuisanceError, ParseError,
                         PanelValidationError, ResamplingError, SchemaError,
                         SeparationError, SingularDesignError, TridiffError,
                         TrimmingError, UnsupportedMechanismError)
from .nuisance import (LinearModel, NuisanceMode, NuisanceSet,
                       PropensityModel, fit_linear, fit_logistic_multinomial,
                       fit_nuisances, fit_ols)
from .scores import (FitEvaluation, ScoreKind, dump_scores, score_vector,
                     score_vectors)

__version__ = "0.1.0"

__all__ = [
    "AssignmentMechanism", "BootstrapConfig", "Cell", "ConvergenceError",
    "DgpSpec", "EffectCase", "EstimandLabel", "EstimateResult",
    "EstimationError", "FitEvaluation", "FittingError", "Group",
    "IngestionError", "InsufficientDataError", "LinearModel", "Method",
    "MissingNuisanceError", "MissingPolicy", "MonteCarloResult",
    "NuisanceMode", "NuisanceSet", "OracleValues", "PanelDataset",
    "PanelValidationError", "ParseError", "PropensityModel",
    "ResamplingError", "Schema", "SchemaError", "ScoreKind", "SeKind",
    "SeparationError", "SingularDesignError", "TridiffError",
    "TrimmingError", "UnsupportedMechanismError", "ValidationReport",
    "bias_diagnostic", "bootstrap_replicates", "bootstrap_ses",
    "closed_form_oracle", "dump_scores", "estimate_doubly_robust",
    "export_histogram", "fit_linear", "fit_logistic_multinomial",
    "fit_nuisances", "fit_ols", "load_csv", "ols_did", "ols_tdid",
    "refit_estimates", "run_monte_carlo", "save_csv", "score_vector",
    "score_vectors", "simulate_replicate", "simulate_sample", "validate",
]
