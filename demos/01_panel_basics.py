"""Build a small panel by hand and look at what the estimators see.

A unit is one row: outcomes measured before and after, a group label,
an eligibility label, and optional covariates. The estimators work
from the four (group, eligibility) cells, so the first thing to check
on any dataset is the cell table and the structural validation report.
Nothing in this script fits a model.
"""

import tempfile
from pathlib import Path

import numpy as np

from tridiff import (AssignmentMechanism, Cell, PanelDataset, load_csv,
                     save_csv, validate)

rng = np.random.default_rng(8)
n = 48

group_is_a = rng.random(n) < 0.5
eligible = rng.random(n) < 0.5
x = rng.normal(loc=np.where(group_is_a, 1.0, 3.0), scale=1.0, size=n)
y1 = x + rng.normal(size=n)
y2 = y1 + 1.0 + 2.0 * (group_is_a & eligible) + rng.normal(size=n)

panel = PanelDataset(
    ids=[f"unit-{i:02d}" for i in range(n)],
    y1=y1, y2=y2, group_is_a=group_is_a, eligible=eligible,
    x=x.reshape(-1, 1), covariate_names=("x",),
    mechanism=AssignmentMechanism.ONLY_GROUP_A)

print(f"{panel.n} units, {panel.d} covariate(s)")
for cell in Cell:
    count = panel.cell_counts[cell]
    print(f"  {cell.label}: {count} units ({count / panel.n:.2f})")
print(f"treated units: {int(panel.treated().sum())} "
      "(eligible group A only under this mechanism)")

report = validate(panel)
print()
print(report.render())

# round trip through CSV: save_csv hands back the matching schema
out = Path(tempfile.mkdtemp(prefix="tridiff-demo-")) / "panel.csv"
schema = save_csv(panel, out)
again = load_csv(out, schema, AssignmentMechanism.ONLY_GROUP_A)
assert np.array_equal(again.y2, panel.y2)
print(f"\nwrote and re-read {out} without losing a bit")
