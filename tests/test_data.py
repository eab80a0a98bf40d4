"""Ingestion, schema handling, and panel validation."""

import csv
import functools
import json
import math
import tracemalloc

import numpy as np
import pytest

from tridiff.data import (AssignmentMechanism, Cell, Group, MissingPolicy,
                          PanelDataset, Schema, load_csv,
                          load_replication_csv, save_csv, validate)
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
    # each member: (value, group, eligible, label)
    assert [(cell.value, cell.group, cell.eligible, cell.label)
            for cell in Cell] == [
        (0, Group.A, True, "(A, Eligible)"),
        (1, Group.A, False, "(A, Never)"),
        (2, Group.B, True, "(B, Eligible)"),
        (3, Group.B, False, "(B, Never)"),
    ]
    assert [Cell(i) for i in range(4)] == list(Cell)
    # a cell is its own code: it indexes and compares as that integer
    assert Cell.B_NEVER == 3 and "abcd"[Cell.B_NEVER] == "d"
    assert {Cell.A_NEVER: 1}[1] == 1


def test_mechanism_treatment_rule():
    # one unit per cell, in Cell order: (A, eligible), (A, never),
    # (B, eligible), (B, never)
    def treated(mechanism):
        return PanelDataset(
            ["a1", "a0", "b1", "b0"], [0.0] * 4, [0.0] * 4,
            [True, True, False, False], [True, False, True, False],
            np.empty((4, 0)), (), mechanism).treated().tolist()
    assert treated(AssignmentMechanism.ONLY_GROUP_A) == [True, False, False,
                                                         False]
    assert treated(AssignmentMechanism.BOTH_GROUPS) == [True, False, True,
                                                        False]


def test_load_wide(wide_csv):
    ds = load_csv(wide_csv, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    assert ds.n == 5
    assert ds.covariate_names == ("soda", "hours")
    assert ds.d == 2
    assert ds.ids[0] == "s1"
    assert ds.group_is_a[0]
    assert ds.eligible[0]
    assert ds.cell_codes()[0] == Cell.A_ELIGIBLE
    assert ds.delta_y()[0] == pytest.approx(4.0)
    np.testing.assert_allclose(ds.delta_y(), [4.0, 1.0, 5.0, 1.0, 5.0])
    assert ds.cell_counts == (2, 1, 1, 1)
    assert ds.cell_counts[Cell.B_NEVER] / ds.n == pytest.approx(0.2)


def test_cell_codes_and_masks_follow_cell_order():
    # every (group, eligibility) pair, twice, in scrambled order
    group_is_a = [False, True, True, False, True, False, False, True]
    eligible = [True, False, True, False, True, True, False, False]
    ds = PanelDataset(ids=range(8), y1=np.zeros(8), y2=np.zeros(8),
                      group_is_a=group_is_a, eligible=eligible,
                      x=np.empty((8, 0)), covariate_names=(),
                      mechanism=AssignmentMechanism.BOTH_GROUPS)
    for i, (a, e) in enumerate(zip(group_is_a, eligible)):
        cell, = (c for c in Cell
                 if (c.group is Group.A) == a and c.eligible == e)
        assert ds.cell_codes()[i] == cell
    assert ds.cell_codes().dtype == np.int64
    assert ds.cell_masks.shape == (4, 8)
    for cell in Cell:
        want = ((np.array(group_is_a) == (cell.group is Group.A))
                & (np.array(eligible) == cell.eligible))
        assert np.array_equal(ds.cell_masks[cell], want)
        assert ds.cell_counts[cell] == 2
    # built once and shared, so read-only
    assert ds.cell_masks is ds.cell_masks
    assert ds.cell_counts is ds.cell_counts
    with pytest.raises(ValueError):
        ds.cell_masks[Cell.A_ELIGIBLE][0] = False


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


@pytest.mark.parametrize("key, value, wanted", [
    ("group_a_value", 1, "a string, got 1"),
    ("y1", 3, "a string or null, got 3"),
    ("group", None, "a string, got None"),
    ("id", ["store"], "a string or null, got ['store']"),
    ("delimiter", 59, "a string, got 59")])
def test_schema_values_that_are_no_strings_are_rejected(key, value, wanted):
    # a number never equals a field read as text: it would surface as an
    # empty cell or a missing column instead of naming the key
    with pytest.raises(SchemaError) as err:
        Schema.from_dict({**WIDE_SCHEMA, key: value})
    assert str(err.value) == f'schema key "{key}" must be {wanted}'


@pytest.mark.parametrize("delimiter", [";;", ""])
def test_a_delimiter_csv_cannot_split_on_is_rejected(delimiter):
    with pytest.raises(SchemaError) as err:
        Schema.from_dict({**WIDE_SCHEMA, "delimiter": delimiter})
    assert str(err.value) == ('schema key "delimiter" cannot split a CSV '
                              'file: "delimiter" must be a 1-character string')


def test_schema_takes_null_for_an_optional_column():
    schema = Schema.from_dict({**WIDE_SCHEMA, "id": None, "delimiter": ";"})
    assert schema.id is None and schema.delimiter == ";"


@pytest.mark.parametrize("covariates", ["size", ["size", 3], {"size": 1}])
def test_covariates_that_are_no_list_of_names_are_rejected(covariates):
    # a bare string would otherwise be looked up one letter at a time
    with pytest.raises(SchemaError, match='"covariates" must be a list'):
        Schema.from_dict({**WIDE_SCHEMA, "covariates": covariates})


def test_missing_column_named(tmp_path):
    path = tmp_path / "cols.csv"
    write_csv(path, ["store", "grp", "state", "emp_before", "emp_after",
                     "soda"], [])
    with pytest.raises(SchemaError, match="hours"):
        load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)


@pytest.mark.parametrize("column", ["store", "soda", "hours"])
def test_mapped_column_named_twice_in_header(tmp_path, column):
    # which copy holds the data is unknowable, so neither is read
    path = tmp_path / "twice.csv"
    write_csv(path, WIDE_HEADER + [column],
              [row + [0.0] for row in wide_rows()])
    with pytest.raises(SchemaError,
                       match=f"column '{column}' appears 2 times in header"):
        load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                 AssignmentMechanism.BOTH_GROUPS)


def test_unmapped_column_named_twice_is_ignored(tmp_path):
    path = tmp_path / "twice.csv"
    write_csv(path, WIDE_HEADER + ["note", "note"],
              [row + ["a", "b"] for row in wide_rows()])
    ds = load_csv(path, Schema.from_dict(WIDE_SCHEMA),
                  AssignmentMechanism.BOTH_GROUPS)
    assert ds.n == 5


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


def test_validation_of_an_empty_cell_is_strict_json():
    # the library's validate() takes any in-memory panel, so a cell may
    # be empty: its covariate summaries are NaN, written as null
    ds = PanelDataset(ids=range(6), y1=np.zeros(6), y2=np.ones(6),
                      group_is_a=[True, True, False, True, True, False],
                      eligible=[True, False, True, True, False, True],
                      x=np.arange(6.0).reshape(6, 1), covariate_names=("x",),
                      mechanism=AssignmentMechanism.BOTH_GROUPS)
    report = validate(ds)
    assert math.isnan(report.covariate_stats[Cell.B_NEVER][0]["mean"])

    def reject(name):
        raise ValueError(f"{name} is not JSON")
    doc = json.loads(json.dumps(report.to_dict()), parse_constant=reject)
    assert doc["cell_counts"]["(B, Never)"] == 0
    assert doc["covariate_stats"]["(B, Never)"] == [
        {"name": "x", "mean": None, "sd": None, "min": None, "max": None}]
    assert doc["covariate_stats"]["(A, Never)"] == [
        {"name": "x", "mean": 2.5, "sd": math.sqrt(4.5), "min": 1.0,
         "max": 4.0}]


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


# ---------------------------------------------------------------------------
# Replication format (minimum-wage survey)
# ---------------------------------------------------------------------------

REPLICATION_HEADER = ["SHEET", "STATE", "WAGE_ST", "EMPFT", "EMPPT", "NMGRS",
                      "EMPFT2", "EMPPT2", "NMGRS2", "PSODA", "HRSOPEN"]


def replication_rows():
    # every (group, eligibility) cell holds a store, (B, Never) two, so
    # dropping store 2 leaves no cell empty
    return [
        ["1", "1", "4.50", "10", "5", "2", "12", "4", "2", "1.05", "16"],
        ["2", "0", "4.75", "20", "10", "3", "18", "8", "3", "0.95", "12.5"],
        ["3", " 1 ", "5.00", "8", "2", "1", "9", "3", "1", "1.10", "15"],
        ["4", "0", "4.25", "6", "2", "1", "7", "2", "1", "1.00", "10"],
        ["5", "0", "5.25", "15", "4", "2", "16", "4", "2", "0.90", "11"],
    ]


def replication_csv(tmp_path, rows=None, header=REPLICATION_HEADER):
    path = tmp_path / "survey.csv"
    write_csv(path, header, replication_rows() if rows is None else rows)
    return path


def test_replication_composite_outcomes_and_groups(tmp_path):
    ds = load_replication_csv(replication_csv(tmp_path))
    # EMPFT + 0.5 * EMPPT + NMGRS, per period
    assert ds.y1.tolist() == [10 + 0.5 * 5 + 2, 20 + 0.5 * 10 + 3,
                              8 + 0.5 * 2 + 1, 6 + 0.5 * 2 + 1,
                              15 + 0.5 * 4 + 2]
    assert ds.y2.tolist() == [16.0, 25.0, 11.5, 9.0, 20.0]
    # a starting wage of exactly 4.50 is group A; STATE is compared stripped
    assert ds.group_is_a.tolist() == [True, False, False, True, False]
    assert ds.eligible.tolist() == [True, False, True, False, False]
    assert list(ds.ids) == ["1", "2", "3", "4", "5"]
    assert ds.covariate_names == ("PSODA", "NMGRS", "HRSOPEN")
    assert ds.x[0].tolist() == [1.05, 2.0, 16.0]
    assert ds.n_dropped == 0
    assert ds.mechanism is AssignmentMechanism.BOTH_GROUPS


@pytest.mark.parametrize("column", ["WAGE_ST", "EMPPT", "NMGRS2", "HRSOPEN",
                                    "STATE"])
def test_replication_missing_value_drops_row(tmp_path, column):
    rows = replication_rows()
    rows[1][REPLICATION_HEADER.index(column)] = "NA"
    ds = load_replication_csv(replication_csv(tmp_path, rows))
    assert list(ds.ids) == ["1", "3", "4", "5"]
    assert ds.n_dropped == 1


def test_replication_non_numeric_value_names_row_and_column(tmp_path):
    rows = replication_rows()
    rows[1][REPLICATION_HEADER.index("EMPPT2")] = "lots"
    with pytest.raises(ParseError, match="EMPPT2") as err:
        load_replication_csv(replication_csv(tmp_path, rows))
    assert err.value.row == 2
    assert err.value.column == "EMPPT2"


def test_replication_empty_cell_rejected_with_cell_name(tmp_path):
    rows = [row for row in replication_rows() if row[0] != "4"]
    with pytest.raises(PanelValidationError, match=r"empty cell \(A, Never\)"):
        load_replication_csv(replication_csv(tmp_path, rows))


@pytest.mark.parametrize("token", ["inf", "-inf", "1e999"])
@pytest.mark.parametrize("loader, column", [
    ("wide", "emp_before"), ("wide", "soda"),
    ("replication", "EMPFT"), ("replication", "HRSOPEN")])
def test_non_finite_value_reports_row_and_column(tmp_path, token, loader,
                                                 column):
    if loader == "wide":
        rows = wide_rows()
        rows[2][WIDE_HEADER.index(column)] = token
        path = tmp_path / "wide.csv"
        write_csv(path, WIDE_HEADER, rows)
        load = functools.partial(load_csv, path, Schema.from_dict(WIDE_SCHEMA),
                                 AssignmentMechanism.BOTH_GROUPS)
    else:
        rows = replication_rows()
        rows[2][REPLICATION_HEADER.index(column)] = token
        path = replication_csv(tmp_path, rows)
        load = functools.partial(load_replication_csv, path)
    with pytest.raises(ParseError, match=f"non-finite value '{token}'") as err:
        load()
    assert (err.value.row, err.value.column) == (3, column)


def test_replication_unknown_override_key(tmp_path):
    with pytest.raises(SchemaError, match="wages"):
        load_replication_csv(replication_csv(tmp_path), {"wages": "WAGE_ST"})


def test_replication_covariates_override_must_be_a_list(tmp_path):
    with pytest.raises(SchemaError, match='"covariates" must be a list'):
        load_replication_csv(replication_csv(tmp_path),
                             {"covariates": "HRSOPEN"})


@pytest.mark.parametrize("overrides, same_as", [
    ({"wage_cutoff": "4.5"}, {"wage_cutoff": 4.5}),
    ({"eligible_value": 1}, {"eligible_value": "1"}),
    ({"y1_components": (("EMPFT", 1), ("EMPPT", 0.5), ("NMGRS", True))},
     {"y1_components": [["EMPFT", 1.0], ["EMPPT", 0.5], ["NMGRS", 1.0]]})],
    ids=["numeric-string", "int-level", "tuples"])
def test_replication_overrides_of_every_accepted_type_load(tmp_path,
                                                           overrides,
                                                           same_as):
    # the type checks keep every spelling the loader reads
    got, want = (load_replication_csv(replication_csv(tmp_path), o)
                 for o in (overrides, same_as))
    for column in ("ids", "y1", "y2", "group_is_a", "eligible", "x"):
        assert np.array_equal(getattr(got, column), getattr(want, column))


@pytest.mark.parametrize("key, value", [
    ("wage_cutoff", [4.5]), ("wage_cutoff", "low"), ("wage_cutoff", None),
    ("y1_components", [["EMPFT", "a"]]), ("y2_components", [["EMPFT2"]]),
    ("y1_components", "EMPFT"), ("state", 1), ("id", ["SHEET"]),
    ("eligible_value", None)])
def test_replication_override_of_the_wrong_type(tmp_path, key, value):
    with pytest.raises(SchemaError, match=f'"{key}" must be'):
        load_replication_csv(replication_csv(tmp_path), {key: value})


def test_replication_single_column_outcomes(tmp_path):
    ds = load_replication_csv(replication_csv(tmp_path),
                              {"y1": "EMPFT", "y2": "EMPFT2",
                               "covariates": ["HRSOPEN"]})
    assert ds.y1.tolist() == [10.0, 20.0, 8.0, 6.0, 15.0]
    assert ds.y2.tolist() == [12.0, 18.0, 9.0, 7.0, 16.0]
    assert ds.x.tolist() == [[16.0], [12.5], [15.0], [10.0], [11.0]]


def test_replication_without_id_numbers_units(tmp_path):
    ds = load_replication_csv(replication_csv(tmp_path), {"id": None})
    assert list(ds.ids) == [1, 2, 3, 4, 5]


def test_replication_short_row_dropped(tmp_path):
    rows = replication_rows() + [["6", "1", "4.30"]]
    ds = load_replication_csv(replication_csv(tmp_path, rows))
    assert ds.n == 5
    assert ds.n_dropped == 1


def test_replication_delimiter_only_row_skipped(tmp_path):
    rows = replication_rows()
    rows.insert(1, [""] * len(REPLICATION_HEADER))
    ds = load_replication_csv(replication_csv(tmp_path, rows))
    assert ds.n == 5
    assert ds.n_dropped == 0


@pytest.mark.parametrize("column", ["SHEET", "STATE", "EMPPT2", "HRSOPEN"])
def test_replication_column_missing_from_header(tmp_path, column):
    j = REPLICATION_HEADER.index(column)
    header = REPLICATION_HEADER[:j] + REPLICATION_HEADER[j + 1:]
    rows = [row[:j] + row[j + 1:] for row in replication_rows()]
    with pytest.raises(SchemaError, match=f"column '{column}' not found in header"):
        load_replication_csv(replication_csv(tmp_path, rows, header))


@pytest.mark.parametrize("column", ["SHEET", "STATE", "EMPPT2", "HRSOPEN"])
def test_replication_column_named_twice_in_header(tmp_path, column):
    rows = [row + [row[REPLICATION_HEADER.index(column)]]
            for row in replication_rows()]
    with pytest.raises(SchemaError,
                       match=f"column '{column}' appears 2 times in header"):
        load_replication_csv(replication_csv(
            tmp_path, rows, REPLICATION_HEADER + [column]))


def test_replication_row_with_missing_field_is_not_parsed(tmp_path):
    rows = replication_rows()
    rows[1][REPLICATION_HEADER.index("WAGE_ST")] = "cheap"
    rows[1][REPLICATION_HEADER.index("HRSOPEN")] = ""
    ds = load_replication_csv(replication_csv(tmp_path, rows))
    assert list(ds.ids) == ["1", "3", "4", "5"]
    assert ds.n_dropped == 1


def test_replication_missing_id_drops_row(tmp_path):
    rows = replication_rows()
    rows[1][REPLICATION_HEADER.index("SHEET")] = "NA"
    ds = load_replication_csv(replication_csv(tmp_path, rows))
    assert list(ds.ids) == ["1", "3", "4", "5"]
    assert ds.n_dropped == 1


def test_loading_a_20k_row_panel_peaks_below_12_mb(tmp_path):
    # the columnar reader holds each mapped column once, as raw fields,
    # then as numbers; per-row records of every field peaked at 18.4 MB
    from tridiff.dgp import DgpSpec, simulate_sample
    path = tmp_path / "panel.csv"
    schema = save_csv(simulate_sample(DgpSpec(n=20_000, seed=1, mu_b=1.5)),
                      path)
    tracemalloc.start()
    try:
        dataset = load_csv(path, schema, AssignmentMechanism.BOTH_GROUPS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dataset.n == 20_000
    assert peak <= 12e6
