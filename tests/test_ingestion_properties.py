"""Property tests for CSV ingestion: the wide and long layouts and row
order must not change what a file loads to, and the columnar reader
loads, or rejects, every file as a row-wise reference does."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from tridiff.data import (NA_TOKENS, REPLICATION_FORMAT, AssignmentMechanism,
                          Cell, Group, MissingPolicy, PanelDataset, Schema,
                          load_csv, load_replication_csv, save_csv)
from tridiff.exceptions import (PanelValidationError, ParseError, SchemaError,
                                TridiffError)

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


# ---------------------------------------------------------------------------
# The columnar reader against a row-wise reference
# ---------------------------------------------------------------------------
#
# The reference reads a file as a list of per-row records and converts
# each unit field by field, raising the first error it meets. The
# columnar reader must load every file to the same arrays, ids and
# n_dropped, and fail on every other file with the same exception,
# message, data row and column.

def ref_to_float(value, row, column):
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"non-numeric value {value!r} in column {column!r} "
                         f"at data row {row}", row=row, column=column) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite value {value!r} in column {column!r} "
                         f"at data row {row}", row=row, column=column)
    return number


def ref_binary_level(value, positive, column, seen):
    v = value.strip()
    seen.add(v)
    if len(seen) > 2:
        raise SchemaError(f"column {column!r} has more than two levels: "
                          f"{sorted(seen)}")
    return v == str(positive).strip()


def ref_require_every_cell(dataset):
    empty = [c.label for c in Cell if not np.any(
        (dataset.group_is_a == (c.group is Group.A))
        & (dataset.eligible == c.eligible))]
    if empty:
        raise PanelValidationError("empty cell " + ", ".join(empty))
    return dataset


def ref_read_records(path, delimiter, columns, missing_policy):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        col_idx = {}
        for col in columns:
            if col not in header:
                raise SchemaError(f"column {col!r} not found in header {header}")
            col_idx[col] = header.index(col)
        records = []
        n_dropped = 0
        for row_no, raw in enumerate(reader, start=1):
            if not raw or all(not c.strip() for c in raw):
                continue
            record = {}
            missing = False
            for col, j in col_idx.items():
                if j >= len(raw) or raw[j].strip().lower() in NA_TOKENS:
                    missing = True
                    record[col] = None
                else:
                    record[col] = raw[j]
            if missing:
                if missing_policy is MissingPolicy.ERROR:
                    bad = [c for c, v in record.items() if v is None]
                    raise ParseError(f"missing value(s) in column(s) {bad} at "
                                     f"data row {row_no}", row=row_no)
                n_dropped += 1
                continue
            record["_row"] = row_no
            records.append(record)
    return records, n_dropped


def ref_load_csv(path, schema, mechanism, missing_policy):
    rows, n_dropped = ref_read_records(path, schema.delimiter,
                                       schema.mapped_columns(), missing_policy)
    group_seen, elig_seen = set(), set()

    def convert(uid, r1, y1_col, r2, y2_col):
        return (uid,
                ref_to_float(r1[y1_col], r1["_row"], y1_col),
                ref_to_float(r2[y2_col], r2["_row"], y2_col),
                ref_binary_level(r1[schema.group], schema.group_a_value,
                                 schema.group, group_seen),
                ref_binary_level(r1[schema.eligibility], schema.eligible_value,
                                 schema.eligibility, elig_seen),
                [ref_to_float(r1[c], r1["_row"], c) for c in schema.covariates],
                schema.treatment is not None
                and r2[schema.treatment].strip() == str(schema.treated_value).strip())

    if schema.is_long:
        units, n_incomplete = ref_pivot_long(rows, schema, missing_policy,
                                             convert)
        n_dropped += n_incomplete
    else:
        units = [convert(rec[schema.id] if schema.id is not None else k,
                         rec, schema.y1, rec, schema.y2)
                 for k, rec in enumerate(rows)]
    ids, y1, y2, group_is_a, eligible, x, observed = (zip(*units) if units
                                                      else [()] * 7)
    return ref_require_every_cell(PanelDataset(
        ids=ids, y1=y1, y2=y2, group_is_a=group_is_a, eligible=eligible,
        x=np.array(x, dtype=float).reshape(len(ids), len(schema.covariates)),
        covariate_names=schema.covariates, mechanism=mechanism,
        n_dropped=n_dropped,
        observed_treated=observed if schema.treatment is not None else None))


def ref_pivot_long(rows, schema, missing_policy, convert):
    p1 = str(schema.period_1_value).strip()
    p2 = str(schema.period_2_value).strip()
    per_unit = {}
    for rec in rows:
        row_no = rec["_row"]
        uid = rec[schema.unit].strip()
        period = rec[schema.period].strip()
        if period not in (p1, p2):
            raise SchemaError(f"unexpected period label {period!r} at data row "
                              f"{row_no}; expected {p1!r} or {p2!r}")
        periods = per_unit.setdefault(uid, {})
        if period in periods:
            raise SchemaError(f"duplicate period {period!r} for unit {uid!r} "
                              f"at data row {row_no}")
        periods[period] = rec
    units = []
    n_dropped = 0
    for uid, periods in per_unit.items():
        if set(periods) != {p1, p2}:
            if missing_policy is MissingPolicy.ERROR:
                raise ParseError(f"unit {uid!r} lacks one of the two periods")
            n_dropped += 1
            continue
        r1, r2 = periods[p1], periods[p2]
        for col in (schema.group, schema.eligibility, *schema.covariates):
            if r1[col].strip() != r2[col].strip():
                raise SchemaError(f"unit {uid!r}: column {col!r} differs across "
                                  f"periods ({r1[col]!r} vs {r2[col]!r})")
        units.append(convert(uid, r1, schema.y, r2, schema.y))
    return units, n_dropped


def ref_load_replication_csv(path, schema):
    y1_components, y2_components = schema["y1_components"], schema["y2_components"]
    columns = [schema["wage"],
               *(c for parts in (y1_components, y2_components) for c, _ in parts),
               *schema["covariates"], schema["state"]]
    if schema["id"] is not None:
        columns.append(schema["id"])
    records, n_dropped = ref_read_records(path, ",", columns,
                                          MissingPolicy.DROP_ROW)
    if not records:
        raise SchemaError(f"{path}: no usable rows; {REPLICATION_FORMAT}")

    def composite(rec, components):
        total = 0.0
        for column, weight in components:
            total += weight * ref_to_float(rec[column], rec["_row"], column)
        return total

    ids, y1, y2, group_a, eligible, x = [], [], [], [], [], []
    for rec in records:
        wage = ref_to_float(rec[schema["wage"]], rec["_row"], schema["wage"])
        y1.append(composite(rec, y1_components))
        y2.append(composite(rec, y2_components))
        x.append([ref_to_float(rec[c], rec["_row"], c)
                  for c in schema["covariates"]])
        ids.append(rec["_row"] if schema["id"] is None else rec[schema["id"]])
        group_a.append(wage <= float(schema["wage_cutoff"]))
        eligible.append(rec[schema["state"]].strip()
                        == str(schema["eligible_value"]).strip())
    return ref_require_every_cell(PanelDataset(
        ids=ids, y1=y1, y2=y2, group_is_a=group_a, eligible=eligible,
        x=np.array(x, dtype=float),
        covariate_names=tuple(schema["covariates"]),
        mechanism=AssignmentMechanism.BOTH_GROUPS, n_dropped=n_dropped))


# fields a real file may hold: NA tokens in any case and padding, numbers
# Python's float() reads but a stricter parser might not, values that are
# not finite or not numbers, padded and unseen levels
ODD_FIELDS = st.sampled_from([
    "", " ", "NA", " na ", "N/A", "n/a", "NULL", "None", "none ", ".", "NaN",
    " nan ", "-nan", "inf", "-Infinity", "1e400", "-1e400", "1e-400", "1_000",
    "1__0", "١٢٣", "１２", "+.5", " 2.5 ", "\t7",
    "-0", "0x10", "abc", "1,5", "1.5e", "a", " a ", "b", "c", "2", "never",
    "1", " 2 ", "3", "u0", " u1"])
NUMBERS = st.one_of(FINITE.map(repr), st.integers(-99, 99).map(str))


WIDE_HEADER = ["id", "group", "eligibility", "y1", "y2", "x", "t", "note"]
LONG_HEADER = ["unit", "period", "group", "eligibility", "y", "x", "t"]
PANEL_SCHEMA = dict(group="group", group_a_value="a",
                    eligibility="eligibility", eligible_value="2")


def write_lines(path, header, rows):
    """rows of fields, where None stands for a blank line and a str for a
    raw line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if row is None:
                fh.write("\r\n")
            elif isinstance(row, str):
                fh.write(row + "\r\n")
            else:
                writer.writerow(row)


def perturb(draw, rows, width, long=False):
    """Replace a few fields by odd ones; shorten, drop or repeat a few rows
    (repeating and dropping make long-layout units lack or repeat a
    period); add blank and delimiter-only lines."""
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(rows) - 1))
        rows[i][draw(st.integers(0, width - 1))] = draw(ODD_FIELDS)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(["short", "drop", "repeat"] if long
                                    else ["short"]))
        if edit == "short":
            rows[i] = rows[i][:draw(st.integers(0, width - 1))]
        elif edit == "drop" and len(rows) > 1:
            del rows[i]
        elif edit == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from([None, ",,", " , ,\t", ","])))
    return rows


def base_units(draw):
    """(group, eligibility, y1, y2, x, treated) fields of a panel with
    every cell filled."""
    n = draw(st.integers(4, 7))
    codes = draw(st.permutations([0, 1, 2, 3] + draw(st.lists(
        st.integers(0, 3), min_size=n - 4, max_size=n - 4))))
    return [["a" if c < 2 else "b", "2" if c % 2 == 0 else "never",
             draw(NUMBERS), draw(NUMBERS), draw(NUMBERS),
             draw(st.sampled_from(["1", "0", " 1"]))] for c in codes]


@st.composite
def wide_files(draw):
    header = WIDE_HEADER
    rows = [[f"u{k}", *unit, "-"] for k, unit in enumerate(base_units(draw))]
    schema = Schema(**PANEL_SCHEMA,
                    covariates=draw(st.sampled_from([(), ("x",), ("x", "y1")])),
                    id=draw(st.sampled_from(["id", None])), y1="y1", y2="y2",
                    treatment=draw(st.sampled_from(["t", None])))
    return header, perturb(draw, rows, len(header)), schema


@st.composite
def long_files(draw):
    header = LONG_HEADER
    rows = []
    for k, (group, elig, y1, y2, x, treated) in enumerate(base_units(draw)):
        rows.append([f"u{k}", "1", group, elig, y1, x, "0"])
        rows.append([f"u{k}", "2", group, elig, y2, x, treated])
    rows = draw(st.permutations(rows))
    schema = Schema(**PANEL_SCHEMA,
                    covariates=draw(st.sampled_from([(), ("x",)])),
                    unit="unit", period="period", y="y",
                    treatment=draw(st.sampled_from(["t", None])))
    return header, perturb(draw, rows, len(header), long=True), schema


def outcome(load, *args):
    """What a load gives: every array bit for bit, the ids with their
    types and n_dropped; or the error with its row and column."""
    try:
        ds = load(*args)
    except (TridiffError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "row", None),
                getattr(exc, "column", None))
    return ([(type(i), i) for i in ds.ids], ds.y1.tobytes(), ds.y2.tobytes(),
            ds.x.shape, ds.x.tobytes(), ds.group_is_a.tolist(),
            ds.eligible.tolist(), ds.n_dropped, ds.covariate_names,
            None if ds.observed_treated is None else ds.observed_treated.tolist())


@settings(max_examples=300, deadline=None)
@given(st.one_of(wide_files(), long_files()),
       st.sampled_from(list(MissingPolicy)))
# unit 1's covariate fails before unit 2's outcome, though its field
# comes later in a unit
@example((WIDE_HEADER, [
    ["u0", "a", "2", "1", "2", "3", "1", "-"],
    ["u1", "a", "never", "1", "2", "abc", "1", "-"],
    ["u2", "b", "2", "abc", "2", "3", "1", "-"],
    ["u3", "b", "never", "1", "2", "3", "1", "-"]],
    Schema(**PANEL_SCHEMA, covariates=("x",), id="id", y1="y1", y2="y2")),
    MissingPolicy.DROP_ROW)
# unit u0's outcome fails before unit u1's group differs across periods
@example((LONG_HEADER, [
    ["u0", "1", "a", "2", "1", "3", "0"], ["u1", "1", "a", "never", "1", "3", "0"],
    ["u0", "2", "a", "2", "abc", "3", "1"], ["u1", "2", "b", "never", "2", "3", "0"],
    ["u2", "1", "b", "2", "1", "3", "0"], ["u2", "2", "b", "2", "2", "3", "1"]],
    Schema(**PANEL_SCHEMA, covariates=("x",), unit="unit", period="period",
           y="y")), MissingPolicy.ERROR)
def test_columnar_reader_matches_the_row_wise_reference(table, policy):
    header, rows, schema = table
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "panel.csv"
        write_lines(path, header, rows)
        assert (outcome(load_csv, path, schema, MECHANISM, policy)
                == outcome(ref_load_csv, path, schema, MECHANISM, policy))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_replication_reader_matches_the_row_wise_reference(data):
    draw = data.draw
    header = ["id", "s", "w", "e1", "p1", "e2", "p2", "c"]
    rows = []
    for k, (group, elig, *numbers) in enumerate(base_units(draw)):
        rows.append([str(k + 1), "1" if elig == "2" else "0",
                     "4.5" if group == "a" else "5.25",
                     *(draw(NUMBERS) for _ in range(5))])
    schema = {"id": draw(st.sampled_from(["id", None])), "state": "s",
              "eligible_value": "1", "wage": "w", "wage_cutoff": 4.5,
              "y1_components": [["e1", 1.0], ["p1", 0.5]],
              "y2_components": [["e2", 1.0], ["p2", 0.5], ["c", 1]],
              "covariates": draw(st.sampled_from([[], ["c"], ["c", "p1"]]))}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "survey.csv"
        write_lines(path, header, perturb(draw, rows, len(header)))
        assert (outcome(load_replication_csv, path, schema)
                == outcome(ref_load_replication_csv, path, schema))
