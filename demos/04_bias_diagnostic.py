"""Estimating how wrong the naive contrast is, from data alone.

When only group A's eligible units are treated, group B's own
difference-in-differences is pure trend gap. Subtracting it without
reweighting mixes in the difference of covariate distributions; the
bias diagnostic estimates that contamination directly as the gap
between group B's contrast reweighted to A and group B's contrast as
observed. Here the truth is 1 - 3 = -2 (the covariate means).
"""

from tridiff import (AssignmentMechanism, DgpSpec, NuisanceMode,
                     bias_diagnostic, closed_form_oracle,
                     estimate_doubly_robust, fit_nuisances, simulate_sample)

spec = DgpSpec(n=20000, seed=77, mechanism=AssignmentMechanism.ONLY_GROUP_A)
oracle = closed_form_oracle(spec)
sample = simulate_sample(spec)
nuis = fit_nuisances(sample, NuisanceMode.SCORE_SET, trim_epsilon=0.0)

reweighted, naive = estimate_doubly_robust(sample, nuis)
bias_hat, bias_se = bias_diagnostic(sample, nuis)

print(f"target (effect on A's treated): {oracle.target:.0f}")
print(f"reweighted estimate: {reweighted.estimate:.3f} "
      f"(se {reweighted.se:.3f}, label {reweighted.estimand_label.value})")
print(f"naive estimate:      {naive.estimate:.3f} (se {naive.se:.3f})")
print(f"estimated naive bias: {bias_hat:.3f} (se {bias_se:.3f}), "
      f"truth {oracle.did_b_on_a - oracle.did_b_on_b:.0f}")
print(f"naive - estimated bias = {naive.estimate - bias_hat:.3f}, "
      "which is the reweighted estimate again")
