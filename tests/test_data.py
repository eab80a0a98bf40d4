"""Ingestion, schema handling, and panel validation."""

import csv
import math

import numpy as np
import pytest

from tridiff.data import (AssignmentMechanism, CELL_ORDER, Eligibility, Group,
                          MissingPolicy, PanelDataset, REFERENCE_CELL, Schema,
                          cell_index, cell_name, cell_table, load_csv,
                          save_csv, validate)
from tridiff.exceptions import (PanelValidationError, ParseError, SchemaError)

WIDE_SCHEMA = {
    "group": "grp", "group_a_value": "low",
    "eligibility": "state", "eligible_value": "treated-state",
    "id": "store", "y1": "emp_before", "y2": "emp_after",
    "covariates": ["soda", "hours"],
}

LONG_SCHEMA = {
    "group": "grp", "group_a_value": "low",
    "eligibility": "state", "eligible_value": "treated-state",
    "unit": "store", "period": "wave", "y": "emp",
    "period_1_value": "feb", "period_2_value": "nov",
    "covariates": ["soda"],
}


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def wide_rows():
    # one unit per cell, plus a second (A, eligible) unit
    return [
        ["s1", "low", "treated-state", 10.0, 14.0, 1.1, 60],
        ["s2", "low", "other", 11.0, 12.0, 0.9, 70],
        ["s3", "high", "treated-state", 20.0, 25.0, 1.3, 80],
        ["s4", "high", "other", 21.0, 22.0, 1.2, 75],
        ["s5", "low", "treated-state", 12.0, 17.0, 1.0, 65],
    ]


WIDE_HEADER = ["store", "grp", "state", "emp_before", "emp_after", "soda",
               "hours"]


@pytest.fixture
def wide_csv(tmp_path):
    path = tmp_path / "wide.csv"
    write_csv(path, WIDE_HEADER, wide_rows())
    return path


def test_cell_vocabulary():
    assert len(CELL_ORDER) == 4
    assert REFERENCE_CELL == (Group.B, Eligibility.NEVER)
    assert cell_index(REFERENCE_CELL) == 3
    assert cell_name((Group.A, Eligibility.ELIGIBLE)) == "(A, Eligible)"
    for i, cell in enumerate(CELL_ORDER):
        assert cell_index(cell) == i


def test_mechanism_treatment_rule():
    only_a = AssignmentMechanism.ONLY_GROUP_A
    both = AssignmentMechanism.BOTH_GROUPS
    assert only_a.treated(Group.A, Eligibility.ELIGIBLE)
    assert not only_a.treated(Group.B, Eligibility.ELIGIBLE)
    assert both.treated(Group.B, Eligibility.ELIGIBLE)
    for mech in (only_a, both):
        assert not mech.treated(Group.A, Eligibility.NEVER)
        assert not mech.treated(Group.B, Eligibility.NEVER)


def test_load_wide(wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    assert ds.n == 5
    assert ds.covariate_names == ("soda", "hours")
    assert ds.d == 2
    assert ds.ids[0] == "s1"
    assert ds.group_is_a[0]
    assert ds.eligible[0]
    assert ds.cell_codes()[0] == cell_index((Group.A, Eligibility.ELIGIBLE))
    assert ds.delta_y()[0] == pytest.approx(4.0)
    np.testing.assert_allclose(ds.delta_y(), [4.0, 1.0, 5.0, 1.0, 5.0])
    table = cell_table(ds)
    assert table.count((Group.A, Eligibility.ELIGIBLE)) == 2
    assert table.share((Group.B, Eligibility.NEVER)) == pytest.approx(0.2)


def test_save_load_round_trip(tmp_path, wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    out = tmp_path / "out.csv"
    schema = save_csv(ds, out)
    back = load_csv(out, schema, AssignmentMechanism.BOTH_GROUPS)
    assert back.n == ds.n
    np.testing.assert_array_equal(back.y1, ds.y1)
    np.testing.assert_array_equal(back.y2, ds.y2)
    np.testing.assert_array_equal(back.x, ds.x)
    np.testing.assert_array_equal(back.group_is_a, ds.group_is_a)
    np.testing.assert_array_equal(back.eligible, ds.eligible)


def test_round_trip_preserves_full_float_precision(tmp_path):
    y1 = [0.1 + 0.2, math.pi, 1e-17, 123456.789012345678]
    ds = PanelDataset(ids=["u1", "u2", "u3", "u4"], y1=y1,
                      y2=[1.0, 2.0, 3.0, 4.0],
                      group_is_a=[True, True, False, False],
                      eligible=[True, False, True, False],
                      x=np.empty((4, 0)), covariate_names=(),
                      mechanism=AssignmentMechanism.BOTH_GROUPS)
    out = tmp_path / "prec.csv"
    schema = save_csv(ds, out)
    back = load_csv(out, schema, AssignmentMechanism.BOTH_GROUPS)
    np.testing.assert_array_equal(back.y1, np.asarray(y1))


def test_load_long_pivots_to_wide(tmp_path):
    header = ["store", "wave", "grp", "state", "emp", "soda"]
    rows = [
        ["s1", "feb", "low", "treated-state", 10.0, 1.1],
        ["s1", "nov", "low", "treated-state", 14.0, 1.1],
        ["s2", "nov", "low", "other", 12.0, 0.9],
        ["s2", "feb", "low", "other", 11.0, 0.9],
        ["s3", "feb", "high", "treated-state", 20.0, 1.3],
        ["s3", "nov", "high", "treated-state", 25.0, 1.3],
        ["s4", "feb", "high", "other", 21.0, 1.2],
        ["s4", "nov", "high", "other", 22.0, 1.2],
    ]
    path = tmp_path / "long.csv"
    write_csv(path, header, rows)
    ds = load_csv(path, Schema.from_dict(LONG_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    assert ds.n == 4
    s2 = list(ds.ids).index("s2")
    assert ds.y1[s2] == pytest.approx(11.0)  # order within unit irrelevant
    assert ds.y2[s2] == pytest.approx(12.0)
    np.testing.assert_allclose(sorted(ds.delta_y()), [1.0, 1.0, 4.0, 5.0])


def test_long_duplicate_period_rejected(tmp_path):
    header = ["store", "wave", "grp", "state", "emp", "soda"]
    rows = [
        ["s1", "feb", "low", "treated-state", 10.0, 1.1],
        ["s1", "feb", "low", "treated-state", 14.0, 1.1],
    ]
    path = tmp_path / "dup.csv"
    write_csv(path, header, rows)
    with pytest.raises(SchemaError, match="duplicate"):
        load_csv(path, Schema.from_dict(LONG_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)


def test_long_covariate_must_be_time_invariant(tmp_path):
    header = ["store", "wave", "grp", "state", "emp", "soda"]
    rows = [
        ["s1", "feb", "low", "treated-state", 10.0, 1.1],
        ["s1", "nov", "low", "treated-state", 14.0, 9.9],
    ]
    path = tmp_path / "tv.csv"
    write_csv(path, header, rows)
    with pytest.raises(SchemaError, match="soda"):
        load_csv(path, Schema.from_dict(LONG_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)


def test_unknown_schema_key_rejected():
    with pytest.raises(SchemaError, match="wages"):
        Schema.from_dict({**WIDE_SCHEMA, "wages": "w"})


def test_missing_column_named(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(path, ["store", "grp", "state", "emp_before", "emp_after",
                     "soda"], [])
    with pytest.raises(SchemaError, match="hours"):
        load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)


def test_non_numeric_value_reports_row_and_column(tmp_path):
    rows = wide_rows()
    rows[2][3] = "twenty"
    path = tmp_path / "bad.csv"
    write_csv(path, WIDE_HEADER, rows)
    with pytest.raises(ParseError) as err:
        load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)
    assert err.value.row == 3
    assert err.value.column == "emp_before"


@pytest.mark.parametrize("token", ["", "NA", "n/a", "NaN", "null", "None", "."])
def test_missing_tokens_drop_row_by_default(tmp_path, token):
    rows = wide_rows()
    rows[4][5] = token
    path = tmp_path / "miss.csv"
    write_csv(path, WIDE_HEADER, rows)
    ds = load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    assert ds.n == 4
    assert ds.n_dropped == 1


def test_missing_policy_error(tmp_path):
    rows = wide_rows()
    rows[4][5] = "NA"
    path = tmp_path / "miss.csv"
    write_csv(path, WIDE_HEADER, rows)
    with pytest.raises(ParseError):
        load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS, MissingPolicy.ERROR)


def test_more_than_two_group_levels_rejected(tmp_path):
    rows = wide_rows()
    rows[4][1] = "medium"
    path = tmp_path / "levels.csv"
    write_csv(path, WIDE_HEADER, rows)
    with pytest.raises(SchemaError, match="medium"):
        load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)


def test_empty_cell_rejected_with_cell_name(tmp_path):
    rows = [r for r in wide_rows() if not (r[1] == "high"
                                           and r[2] == "treated-state")]
    path = tmp_path / "empty.csv"
    write_csv(path, WIDE_HEADER, rows)
    with pytest.raises(PanelValidationError, match=r"\(B, Eligible\)"):
        load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)


def test_validate_reports_cells_and_passes(wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    # without covariates the 4(d+1)=4 floor is met by n=5
    report = validate(ds.without_covariates())
    assert report.passed
    doc = report.to_dict()
    assert doc["n"] == 5
    assert doc["cell_counts"]["(A, Eligible)"] == 2
    assert "PASS" in report.render()


def test_validate_flags_small_sample(wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    # 5 units with d=2 is below the 4(d+1)=12 floor
    report = validate(ds)
    assert not report.passed
    assert any("below" in f for f in report.failures)
    assert "FAIL" in report.render()


def test_validate_reports_an_empty_panel():
    # report-only: an empty panel fails every cell check without raising
    ds = PanelDataset(ids=[], y1=[], y2=[], group_is_a=[], eligible=[],
                      x=np.empty((0, 1)), covariate_names=("x",),
                      mechanism=AssignmentMechanism.BOTH_GROUPS)
    report = validate(ds)
    assert not report.passed
    assert set(report.cell_counts.values()) == {0}
    assert sum("empty cell" in f for f in report.failures) == 4


def test_validate_warns_without_covariates(wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    report = validate(ds.without_covariates())
    assert any("coincide" in w for w in report.warnings)


def test_subset(wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    sub = ds.subset([0, 2, 4])
    assert sub.n == 3
    assert list(sub.ids) == ["s1", "s3", "s5"]
    np.testing.assert_array_equal(sub.x, ds.x[[0, 2, 4]])


def test_arrays_are_read_only(wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    with pytest.raises(ValueError):
        ds.y1[0] = 99.0
    with pytest.raises(ValueError):
        ds.x[0, 0] = 99.0


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "blank.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(WIDE_HEADER) + "\n\n")
        writer = csv.writer(fh)
        writer.writerows(wide_rows())
        fh.write("\n")
    ds = load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    assert ds.n == 5
    assert ds.n_dropped == 0
