"""Property tests for CSV ingestion: the wide and long layouts and row
order must not change what a file loads to."""

import csv
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from tridiff.data import (AssignmentMechanism, PanelDataset, Schema,
                          load_csv, save_csv)

MECHANISM = AssignmentMechanism.BOTH_GROUPS
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def panels(draw):
    """Small panels with every cell filled and arbitrary finite values."""
    n = draw(st.integers(4, 9))
    d = draw(st.integers(0, 2))
    codes = [0, 1, 2, 3] + draw(st.lists(st.integers(0, 3), min_size=n - 4,
                                         max_size=n - 4))
    codes = draw(st.permutations(codes))
    values = draw(st.lists(FINITE, min_size=n * (2 + d), max_size=n * (2 + d)))
    values = np.array(values, dtype=float).reshape(n, 2 + d)
    return PanelDataset(
        ids=[f"u{k}" for k in range(n)], y1=values[:, 0], y2=values[:, 1],
        group_is_a=[c < 2 for c in codes], eligible=[c % 2 == 0 for c in codes],
        x=values[:, 2:], covariate_names=[f"x{j}" for j in range(d)],
        mechanism=MECHANISM)


def assert_same_panel(loaded, expected):
    """Ids, cells and every float bit for bit."""
    assert list(loaded.ids) == list(expected.ids)
    assert loaded.covariate_names == expected.covariate_names
    np.testing.assert_array_equal(loaded.group_is_a, expected.group_is_a)
    np.testing.assert_array_equal(loaded.eligible, expected.eligible)
    for name in ("y1", "y2", "x"):
        assert getattr(loaded, name).tobytes() == getattr(expected, name).tobytes()
    assert loaded.n_dropped == 0


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@settings(max_examples=40, deadline=None)
@given(panels())
def test_save_then_load_round_trips(panel):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.csv"
        schema = save_csv(panel, path)
        assert_same_panel(load_csv(path, schema, MECHANISM), panel)


@settings(max_examples=40, deadline=None)
@given(panels(), st.randoms(use_true_random=False))
def test_shuffled_long_layout_loads_to_the_wide_arrays(panel, rnd):
    names = list(panel.covariate_names)
    rows = []
    for i in range(panel.n):
        group = "a" if panel.group_is_a[i] else "b"
        elig = "2" if panel.eligible[i] else "never"
        covs = [repr(float(v)) for v in panel.x[i]]
        for period, y in (("1", panel.y1[i]), ("2", panel.y2[i])):
            rows.append([panel.ids[i], period, group, elig, repr(float(y)),
                         *covs])
    rnd.shuffle(rows)
    schema = Schema(group="group", group_a_value="a",
                    eligibility="eligibility", eligible_value="2",
                    covariates=names, unit="id", period="period", y="y")
    with tempfile.TemporaryDirectory() as tmp:
        long_path = Path(tmp) / "long.csv"
        write_rows(long_path, ["id", "period", "group", "eligibility", "y",
                               *names], rows)
        wide_path = Path(tmp) / "wide.csv"
        wide = load_csv(wide_path, save_csv(panel, wide_path), MECHANISM)
        long = load_csv(long_path, schema, MECHANISM)
    assert long.n_dropped == 0
    # units come in the order of their first row; align them by id
    order = [list(long.ids).index(uid) for uid in wide.ids]
    assert_same_panel(long.subset(order), wide)


@settings(max_examples=40, deadline=None)
@given(panels(), st.randoms(use_true_random=False))
def test_permuting_wide_rows_permutes_the_dataset(panel, rnd):
    perm = list(range(panel.n))
    rnd.shuffle(perm)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "wide.csv"
        schema = save_csv(panel, path)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = list(csv.reader(fh))
        shuffled_path = Path(tmp) / "shuffled.csv"
        write_rows(shuffled_path, header, [rows[k] for k in perm])
        original = load_csv(path, schema, MECHANISM)
        shuffled = load_csv(shuffled_path, schema, MECHANISM)
    assert_same_panel(shuffled, original.subset(perm))
