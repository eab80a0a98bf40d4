"""The top-level package: what ``from tridiff import *`` gives, and what
importing and running it loads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import tridiff

SRC = str(Path(tridiff.__file__).resolve().parent.parent)


def test_all_names_resolve():
    missing = [name for name in tridiff.__all__ if not hasattr(tridiff, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(tridiff.__all__) == len(set(tridiff.__all__))


# the public names; a removal or an addition shows up in this diff
PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(tridiff.__all__) == PUBLIC_NAMES


def run_python(code, cwd):
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=cwd, env={**os.environ, "PYTHONPATH": SRC,
                                        "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)


def test_cli_import_loads_no_scipy(tmp_path):
    proc = run_python("""
        import sys
        import tridiff.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_run_with_scipy_blocked(tmp_path):
    # with scipy unimportable, an estimate that reads the interaction
    # regressions' gram inverse (hc1 SEs, named cluster), bootstraps and
    # dumps its nuisances, a logit's coefficient covariance and a Monte
    # Carlo study all succeed
    proc = run_python("""
        import json, sys
        sys.modules["scipy"] = None
        from tridiff.cli import main
        from tridiff.data import save_csv
        from tridiff.dgp import DgpSpec, simulate_sample
        from tridiff.nuisance import fit_logistic_multinomial

        sample = simulate_sample(DgpSpec(n=400, seed=3))
        save_csv(sample, "panel.csv")
        schema = json.dumps({
            "group": "group", "group_a_value": "a",
            "eligibility": "eligibility", "eligible_value": "2",
            "id": "id", "y1": "y1", "y2": "y2", "covariates": ["x"]})
        codes = [
            main(["estimate", "--input", "panel.csv", "--schema", schema,
                  "--methods", "dr,naive,ols-tdid,or-diffs", "--se",
                  "cluster", "--trim", "0", "--bootstrap-reps", "9",
                  "--dump-nuisances", "--jobs", "1", "--seed", "1",
                  "--out", "est"]),
            main(["simulate", "--n", "200", "--replications", "5",
                  "--jobs", "1", "--seed", "2", "--out", "sim"]),
        ]
        logit = fit_logistic_multinomial(sample.x, sample.cell_codes())
        assert logit.coef_cov.shape == (6, 6)
        print(codes)
        """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0]"
    assert (tmp_path / "est" / "nuisances_scores.json").exists()
    assert (tmp_path / "sim" / "summary.json").exists()
