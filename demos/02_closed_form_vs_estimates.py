"""One large simulated sample, every estimator, and the closed forms.

The generating process admits exact expressions for each quantity the
estimators target, so a single n=20000 draw is enough to see which
estimator recovers which number. The conventional contrast (group A's
difference-in-differences minus group B's) centers on -1 here even
though the true effect on group A's treated units is 4; reweighting
group B's contrast to group A's covariate distribution moves the
answer to 3, the effect difference the design identifies.
"""

from tridiff import (DgpSpec, Group, Method, NuisanceMode, closed_form_oracle,
                     estimate_doubly_robust, fit_nuisances, ols_did, ols_tdid,
                     simulate_sample)

spec = DgpSpec(n=20000, seed=42)
oracle = closed_form_oracle(spec)
sample = simulate_sample(spec)

print(f"closed forms: effect on A's treated {oracle.att_a:.0f}, "
      f"naive contrast {oracle.naive_diff:.0f}, "
      f"reweighted contrast {oracle.reweighted_diff:.0f}")
print()

# score-based estimators: multinomial propensity plus three outcome
# regressions, all linear in x and hence correctly specified here; the
# pure outcome-regression benchmarks average the regression scores alone
nuis = fit_nuisances(sample, NuisanceMode.SCORE_SET, trim_epsilon=0.0)
reweighted, naive, or_a, or_b, or_wb = estimate_doubly_robust(
    sample, nuis, methods=(Method.DR_REWEIGHTED, Method.DR_NAIVE_DIFFERENCE,
                           Method.OR_DID_A, Method.OR_DID_B, Method.OR_WDID_B))

did_a = ols_did(sample, Group.A, with_controls=True)
did_b = ols_did(sample, Group.B, with_controls=True)
tdid = ols_tdid(sample, with_controls=True)
rows = [
    ("reweighted difference", reweighted.estimate, reweighted.se,
     oracle.reweighted_diff),
    ("naive difference", naive.estimate, naive.se, oracle.naive_diff),
    ("change regression, group A", did_a.estimate, did_a.se,
     oracle.did_a_on_a),
    ("change regression, group B", did_b.estimate, did_b.se,
     oracle.did_b_on_b),
    ("three-way interaction", tdid.estimate, tdid.se, oracle.naive_diff),
    ("regression contrast, group A", or_a.estimate, None, oracle.did_a_on_a),
    ("regression contrast, group B", or_b.estimate, None, oracle.did_b_on_b),
    ("regression contrast, B on A's units", or_wb.estimate, None,
     oracle.did_b_on_a),
]

print(f"{'estimator':38s} {'estimate':>9s} {'se':>7s} {'truth':>6s}")
for name, est, se, truth in rows:
    se_text = f"{se:.3f}" if se is not None else "-"
    print(f"{name:38s} {est:9.3f} {se_text:>7s} {truth:6.1f}")
