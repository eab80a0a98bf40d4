"""2x2x2 panel data model: ingestion, validation, cell summaries.

The design observes each unit in two periods, in one of two groups
(A or B) and one of two eligibility cohorts (eligible in period 2 or
never eligible). Treatment status is never stored: it is derived from
(group, eligibility) through the declared assignment mechanism.
"""

from __future__ import annotations

import csv
import enum
import functools
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import ParseError, PanelValidationError, SchemaError

NA_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "."})


class Group(enum.Enum):
    A = "a"
    B = "b"


class MissingPolicy(enum.Enum):
    DROP_ROW = "drop_row"
    ERROR = "error"


class AssignmentMechanism(enum.Enum):
    """Which units are treated in period 2.

    ONLY_GROUP_A: treated iff eligible and in group A.
    BOTH_GROUPS: treated iff eligible, regardless of group.
    Nobody is treated in period 1.
    """

    ONLY_GROUP_A = "only-a"
    BOTH_GROUPS = "both"

    def treated(self, group_is_a: np.ndarray,
                eligible: np.ndarray) -> np.ndarray:
        """Period-2 treatment indicator of units with these groups and
        eligibilities, a new array."""
        if self is AssignmentMechanism.ONLY_GROUP_A:
            return eligible & group_is_a
        return eligible.copy()


class Cell(enum.IntEnum):
    """The four (group, eligibility) cells. A cell is its own integer
    code, the value cell_codes() gives its units, so it indexes the
    cell masks, counts and propensity columns directly; (B, Never) is
    the logit's reference cell. `eligible` says whether the cell becomes
    eligible in period 2, and `label` names the cell in messages and
    outputs; render a cell only through it, as str() and format() of an
    IntEnum member differ across Python versions."""

    A_ELIGIBLE = (0, Group.A, True)
    A_NEVER = (1, Group.A, False)
    B_ELIGIBLE = (2, Group.B, True)
    B_NEVER = (3, Group.B, False)

    def __new__(cls, code: int, group: Group, eligible: bool):
        cell = int.__new__(cls, code)
        cell._value_ = code
        cell.group, cell.eligible = group, eligible
        cell.label = f"({group.name}, {'Eligible' if eligible else 'Never'})"
        return cell


class PanelDataset:
    """Immutable, array-backed collection of panel units.

    Attributes
    ----------
    ids : object ndarray, shape (n,), built on first read (see ids)
    y1, y2 : float ndarray, shape (n,)
    x : float ndarray, shape (n, d)
    covariate_names : tuple of str, length d
    mechanism : AssignmentMechanism
    n_dropped : rows removed at ingestion (0 for in-memory construction)
    observed_treated : optional bool ndarray; period-2 treatment as found
        in the source file, kept only for validation cross-checks
    """

    def __init__(self, ids, y1, y2, group_is_a, eligible, x,
                 covariate_names: Sequence[str],
                 mechanism: AssignmentMechanism,
                 n_dropped: int = 0,
                 observed_treated=None):
        # numeric ids, as a simulated panel's, become objects when read
        source = (np.array(ids) if isinstance(ids, np.ndarray)
                  and ids.dtype != object else np.asarray(ids, dtype=object))
        source.setflags(write=False)
        self._ids = source, None
        y1, x = np.asarray(y1, dtype=float), np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(len(y1), -1)
        self._set_columns(
            y1, np.asarray(y2, dtype=float),
            np.asarray(group_is_a, dtype=bool),
            np.asarray(eligible, dtype=bool), x, tuple(covariate_names),
            mechanism, int(n_dropped), None if observed_treated is None
            else np.asarray(observed_treated, dtype=bool))

        n = len(self.y1)
        for name, arr in (("ids", source), ("y1", self.y1), ("y2", self.y2),
                          ("group_is_a", self.group_is_a),
                          ("eligible", self.eligible)):
            if len(arr) != n:
                raise PanelValidationError(f"column {name} has length {len(arr)}, expected {n}")
        if self.x.shape != (n, len(self.covariate_names)):
            raise PanelValidationError(
                f"covariate matrix shape {self.x.shape} does not match "
                f"n={n}, d={len(self.covariate_names)}")
        if not (np.isfinite(self.y1).all() and np.isfinite(self.y2).all()):
            raise PanelValidationError("non-finite outcome values")
        if self.x.size and not np.isfinite(self.x).all():
            raise PanelValidationError("non-finite covariate values")

    def _set_columns(self, y1, y2, group_is_a, eligible, x, covariate_names,
                     mechanism, n_dropped, observed_treated) -> None:
        """Store the columns, read-only, and the rest of the dataset."""
        self.y1, self.y2, self.x = y1, y2, x
        self.group_is_a, self.eligible = group_is_a, eligible
        self.covariate_names, self.mechanism = covariate_names, mechanism
        self.n_dropped, self.observed_treated = n_dropped, observed_treated
        for arr in (y1, y2, group_is_a, eligible, x):
            arr.setflags(write=False)
        self._cell_codes = None

    @functools.cached_property
    def ids(self) -> np.ndarray:
        """Each unit's id, a read-only object array built on first read:
        the ids given, or those of the dataset a subset was drawn from at
        its rows. Only a validation warning, a trimming error, a score
        dump or a CSV export reads them, so a bootstrap resample or a
        simulated panel never builds them unless it fails."""
        source, rows = self._ids
        ids = np.asarray(source if rows is None else source.take(rows),
                         dtype=object)
        ids.setflags(write=False)
        return ids

    # -- basic shape --------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.y1)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def delta_y(self) -> np.ndarray:
        return self.y2 - self.y1

    # -- cells --------------------------------------------------------------

    def cell_codes(self) -> np.ndarray:
        """Every unit's Cell, as its integer code. Computed on the first
        call and shared, read-only, by every later one."""
        if self._cell_codes is None:
            codes = 2 * ~self.group_is_a + ~self.eligible  # as Cell numbers
            codes.setflags(write=False)
            self._cell_codes = codes
        return self._cell_codes

    @functools.cached_property
    def cell_masks(self) -> np.ndarray:
        """Read-only (4, n) cell masks, indexed by Cell."""
        masks = np.arange(len(Cell))[:, None] == self.cell_codes()
        masks.setflags(write=False)
        return masks

    @functools.cached_property
    def cell_counts(self) -> tuple:
        """Units per cell, indexed by Cell."""
        return tuple(np.bincount(self.cell_codes(), minlength=4).tolist())

    def treated(self) -> np.ndarray:
        """Derived period-2 treatment indicator under the mechanism."""
        return self.mechanism.treated(self.group_is_a, self.eligible)

    # -- views --------------------------------------------------------------

    def without_covariates(self) -> "PanelDataset":
        """Copy of the dataset with d=0: estimators on it use intercept-only
        nuisance models, which is how 'no controls' variants are produced."""
        return self._derived(self._ids, self.y1, self.y2, self.group_is_a,
                             self.eligible, np.empty((self.n, 0)), (),
                             self.mechanism, self.n_dropped,
                             self.observed_treated)

    def subset(self, idx) -> "PanelDataset":
        """Row subset / resample at the integer positions idx (used by the
        bootstrap). Each column is gathered by one take; the ids are not
        gathered but kept as rows of this dataset's id source (see ids).
        Nothing this dataset's construction checked is checked again."""
        idx = np.asarray(idx)
        source, rows = self._ids
        return self._derived(
            (source, idx if rows is None else rows.take(idx)),
            self.y1.take(idx), self.y2.take(idx), self.group_is_a.take(idx),
            self.eligible.take(idx), self.x.take(idx, axis=0),
            self.covariate_names, self.mechanism, 0,
            None if self.observed_treated is None
            else self.observed_treated.take(idx))

    @classmethod
    def _derived(cls, ids, *columns) -> "PanelDataset":
        """A dataset of columns of a checked one, with ids its (source,
        rows) pair, built without checking them again."""
        derived = cls.__new__(cls)
        derived._ids = ids
        derived._set_columns(*columns)
        return derived


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    n: int
    cell_counts: dict          # Cell -> units
    covariate_stats: dict      # Cell -> list of per-covariate dicts
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "cell_counts": {c.label: v for c, v in self.cell_counts.items()},
            "covariate_stats": {  # an empty cell's NaN stats as null
                c.label: [{k: None if isinstance(v, float) and math.isnan(v)
                           else v for k, v in cov.items()} for cov in stats]
                for c, stats in self.covariate_stats.items()
            },
            "failures": list(self.failures),
            "warnings": list(self.warnings),
        }

    def render(self) -> str:
        lines = [f"panel validation: {'PASS' if self.passed else 'FAIL'} (n={self.n})"]
        for cell in Cell:
            lines.append(f"  {cell.label}: {self.cell_counts[cell]} units")
        for msg in self.failures:
            lines.append(f"  FAIL: {msg}")
        for msg in self.warnings:
            lines.append(f"  warn: {msg}")
        return "\n".join(lines)


def validate(dataset: PanelDataset) -> ValidationReport:
    """Report-only structural checks; never mutates or raises."""
    counts = dict(zip(Cell, dataset.cell_counts))
    stats: dict = {}
    for cell in Cell:
        mask = dataset.cell_masks[cell]
        per_cov = []
        for j, name in enumerate(dataset.covariate_names):
            col = dataset.x[mask, j]
            if col.size:
                per_cov.append({
                    "name": name,
                    "mean": float(np.mean(col)),
                    "sd": float(np.std(col, ddof=1)) if col.size > 1 else 0.0,
                    "min": float(np.min(col)),
                    "max": float(np.max(col)),
                })
            else:
                per_cov.append({"name": name, "mean": math.nan, "sd": math.nan,
                                "min": math.nan, "max": math.nan})
        stats[cell] = per_cov

    report = ValidationReport(n=dataset.n, cell_counts=counts, covariate_stats=stats)
    for cell in Cell:
        if counts[cell] == 0:
            report.failures.append(f"empty cell {cell.label}")
    min_n = 4 * (dataset.d + 1)
    if dataset.n < min_n:
        report.failures.append(
            f"n={dataset.n} is below 4(d+1)={min_n}; per-cell regressions unsupported")
    if dataset.d == 0:
        report.warnings.append(
            "no covariates: conditional and unconditional TDID coincide")
    if dataset.observed_treated is not None:
        conflicts = dataset.observed_treated != dataset.treated()
        k = int(np.count_nonzero(conflicts))
        if k:
            shown = [repr(i) for i in dataset.ids[conflicts][:5]]
            report.warnings.append(
                f"{k} unit(s) whose observed treatment conflicts with the "
                f"declared mechanism (e.g. {', '.join(shown)}); none excluded")
    return report


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

@dataclass
class Schema:
    """Column mapping for CSV ingestion.

    Wide files declare y1/y2 columns; long files declare unit/period/y
    columns plus the two period labels, and are pivoted at load time.
    ``treatment`` may map an observed period-2 treatment column; it is
    cross-checked against the mechanism by validate(), never used for
    estimation.
    """

    group: str
    group_a_value: str
    eligibility: str
    eligible_value: str
    covariates: Sequence[str] = ()
    id: Optional[str] = None
    # wide layout
    y1: Optional[str] = None
    y2: Optional[str] = None
    # long layout
    unit: Optional[str] = None
    period: Optional[str] = None
    y: Optional[str] = None
    period_1_value: str = "1"
    period_2_value: str = "2"
    treatment: Optional[str] = None
    treated_value: str = "1"
    delimiter: str = ","

    @property
    def is_long(self) -> bool:
        return self.y is not None

    def mapped_columns(self) -> list[str]:
        cols = [self.group, self.eligibility, *self.covariates]
        if self.is_long:
            cols += [self.unit, self.period, self.y]
        else:
            cols += [self.y1, self.y2]
            if self.id is not None:
                cols.append(self.id)
        if self.treatment is not None:
            cols.append(self.treatment)
        return [c for c in cols if c is not None]

    @classmethod
    def from_dict(cls, mapping: dict) -> "Schema":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(mapping) - known
        if unknown:
            raise SchemaError(f"unknown schema keys: {sorted(unknown)}")
        _check_covariates(mapping)
        for key, value in mapping.items():  # a column name or a level
            optional = cls.__dataclass_fields__[key].default is None
            if key != "covariates" and not (
                    isinstance(value, str) or optional and value is None):
                raise SchemaError(
                    f'schema key "{key}" must be a string'
                    f'{" or null" if optional else ""}, got {value!r}')
        try:
            csv.reader((), delimiter=mapping.get("delimiter", ","))
        except (TypeError, ValueError) as exc:
            raise SchemaError(f'schema key "delimiter" cannot split a CSV '
                              f'file: {exc}') from None
        try:
            return cls(**mapping)
        except TypeError as exc:
            raise SchemaError(str(exc)) from None


def _check_covariates(mapping: dict) -> None:
    """A "covariates" string would be read as one name per letter."""
    value = mapping.get("covariates", [])
    if not isinstance(value, (list, tuple)) or not all(
            isinstance(name, str) for name in value):
        raise SchemaError('schema key "covariates" must be a list of '
                          f'column names, got {value!r}')


def _to_float(value: str, row: int, column: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ParseError(f"non-numeric value {value!r} in column {column!r} "
                         f"at data row {row}", row=row, column=column) from None
    if not math.isfinite(number):
        raise ParseError(f"non-finite value {value!r} in column {column!r} "
                         f"at data row {row}", row=row, column=column)
    return number


def _require_every_cell(dataset: PanelDataset) -> PanelDataset:
    empty = [c.label for c in Cell if not dataset.cell_counts[c]]
    if empty:
        raise PanelValidationError("empty cell " + ", ".join(empty))
    return dataset


def _read_columns(path, delimiter: str, columns,
                  missing_policy: MissingPolicy):
    """(fields, rows, n_dropped): each named column's raw fields in the
    kept rows, as an object array, and those rows' data row numbers
    (1-based, blank lines counted). Every named column must be in the
    header exactly once. The file is UTF-8, with or without the
    byte-order mark that spreadsheet programs write. Lines holding
    nothing but delimiters and whitespace are skipped; a row whose field
    in a named column is absent (a short row) or an NA token is dropped
    and counted (DROP_ROW) or rejected (ERROR).
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise SchemaError(f"{path}: empty file") from None
        for col in columns:
            copies = header.count(col)
            if not copies:
                raise SchemaError(f"column {col!r} not found in header {header}")
            if copies > 1:
                raise SchemaError(f"column {col!r} appears {copies} times "
                                  f"in header {header}")
        rows = list(reader)
    col_idx = {col: header.index(col) for col in columns}
    width = max(col_idx.values()) + 1
    if rows and min(map(len, rows)) < width:  # an absent field is missing
        rows = [row + [""] * (width - len(row)) for row in rows]
    raw = {col: list(map(operator.itemgetter(j), rows))
           for col, j in col_idx.items()}
    missing = np.array([np.fromiter(map(NA_TOKENS.__contains__, map(
        str.lower, map(str.strip, values))), bool, len(rows))
        for values in raw.values()]).reshape(len(raw), len(rows))
    # a row missing every named field may be blank, which is skipped
    counted = missing.any(axis=0)
    for i in np.flatnonzero(missing.all(axis=0)):
        counted[i] = any(map(str.strip, rows[i]))
    del rows  # frees the row lists; raw holds the fields
    if missing_policy is MissingPolicy.ERROR and counted.any():
        row = int(np.argmax(counted))
        bad = [col for col, m in zip(raw, missing) if m[row]]
        raise ParseError(f"missing value(s) in column(s) {bad} at "
                         f"data row {row + 1}", row=row + 1)
    keep = np.flatnonzero(~missing.any(axis=0))
    return ({col: np.array(values, dtype=object)[keep]
             for col, values in raw.items()},
            keep + 1, int(np.count_nonzero(counted)))


def _matches(values, level) -> np.ndarray:
    """Whether each value, stripped, equals str(level) stripped."""
    level = str(level).strip()
    hits = {v for v in set(values) if v.strip() == level}
    return np.fromiter(map(hits.__contains__, values), bool, len(values))


def _convert(fields) -> list:
    """Each (column, values, rows, level) field of a table of units,
    converted in one operation: to floats, all finite, when level is
    None, else to whether each value is the level, of at most two. If a
    field fails, the units are walked in order, each unit's fields in
    order, to raise the error that converting value by value raises
    first."""
    columns = []
    for _, values, _, level in fields:
        if level is not None:
            if len({v.strip() for v in set(values)}) > 2:
                break
            columns.append(_matches(values, level))
            continue
        try:
            numbers = values.astype(float)  # float() of each value
        except ValueError:
            break
        if not np.isfinite(numbers).all():
            break
        columns.append(numbers)
    else:
        return columns
    seen = [set() for _ in fields]
    for k in range(len(fields[0][1])):
        for (column, values, rows, level), levels in zip(fields, seen):
            if level is None:
                _to_float(values[k], int(rows[k]), column)
                continue
            levels.add(values[k].strip())
            if len(levels) > 2:
                raise SchemaError(f"column {column!r} has more than two "
                                  f"levels: {sorted(levels)}")
    raise AssertionError("a column failed that no value fails")


def load_csv(path, schema: Schema, mechanism: AssignmentMechanism,
             missing_policy: MissingPolicy = MissingPolicy.DROP_ROW) -> PanelDataset:
    """Read a delimited text file into a validated PanelDataset.

    Rows with a missing mapped field are dropped (DROP_ROW, the count is
    kept on the dataset) or rejected (ERROR). Retained rows keep file
    order. Raises SchemaError for unmapped columns, ParseError with the
    offending data row for non-numeric fields, and PanelValidationError
    if any (group, eligibility) cell ends up empty; the first error by
    unit, and within a unit by field.
    """
    fields, rows, n_dropped = _read_columns(
        path, schema.delimiter, schema.mapped_columns(), missing_policy)
    pending = None
    if schema.is_long:
        ids, first, second, n_incomplete, pending = _pair_periods(
            fields, rows, schema, missing_policy)
        n_dropped += n_incomplete
        y1_col = y2_col = schema.y
    else:
        first = second = slice(None)
        ids = range(len(rows)) if schema.id is None else fields[schema.id]
        y1_col, y2_col = schema.y1, schema.y2

    def field(col, level=None, at=first):  # from the unit's row `at`
        return col, fields[col][at], rows[at], level

    y1, y2, group_is_a, eligible, *x = _convert([
        field(y1_col), field(y2_col, at=second),
        field(schema.group, schema.group_a_value),
        field(schema.eligibility, schema.eligible_value),
        *map(field, schema.covariates)])
    if pending is not None:
        raise pending
    return _require_every_cell(PanelDataset(
        ids=ids, y1=y1, y2=y2, group_is_a=group_is_a, eligible=eligible,
        x=np.column_stack(x) if x else np.empty((len(y1), 0)),
        covariate_names=schema.covariates, mechanism=mechanism,
        n_dropped=n_dropped,
        observed_treated=None if schema.treatment is None else _matches(
            fields[schema.treatment][second], schema.treated_value),
    ))


def _pair_periods(fields, rows, schema: Schema,
                  missing_policy: MissingPolicy) -> tuple:
    """(ids, first, second, n_dropped, pending): a long table's units by
    first row, their period-1 and period-2 rows, and the count lacking a
    period. A bad period label raises; a unit lacking a period (ERROR)
    or differing across periods ends the units, its error pending."""
    p1 = str(schema.period_1_value).strip()
    p2 = str(schema.period_2_value).strip()
    per_unit: dict = {}
    for pos, (unit, period) in enumerate(zip(fields[schema.unit],
                                             fields[schema.period])):
        uid, period = unit.strip(), period.strip()
        if period not in (p1, p2):
            raise SchemaError(f"unexpected period label {period!r} at data row "
                              f"{rows[pos]}; expected {p1!r} or {p2!r}")
        periods = per_unit.setdefault(uid, {})
        if period in periods:
            raise SchemaError(f"duplicate period {period!r} for unit {uid!r} "
                              f"at data row {rows[pos]}")
        periods[period] = pos

    ids, first, second = [], [], []
    pending = None
    for uid, periods in per_unit.items():
        if set(periods) == {p1, p2}:
            ids.append(uid)
            first.append(periods[p1])
            second.append(periods[p2])
        elif missing_policy is MissingPolicy.ERROR:
            pending = ParseError(f"unit {uid!r} lacks one of the two periods")
            break
    n_dropped = len(per_unit) - len(ids)
    first, second = np.array(first, dtype=int), np.array(second, dtype=int)
    for col in (schema.group, schema.eligibility, *schema.covariates):
        v1, v2 = fields[col][first], fields[col][second]
        differs = np.flatnonzero(list(map(str.__ne__, map(str.strip, v1),
                                          map(str.strip, v2))))
        for k in differs[:1]:  # the first unit that differs
            pending = SchemaError(f"unit {ids[k]!r}: column {col!r} differs "
                                  f"across periods ({v1[k]!r} vs {v2[k]!r})")
            ids, first, second = ids[:k], first[:k], second[:k]
    return ids, first, second, n_dropped, pending


def save_csv(dataset: PanelDataset, path) -> Schema:
    """Write the dataset in wide format at full float precision and return
    a schema that loads it back bit-exactly."""
    names = dataset.covariate_names
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", "eligibility", "y1", "y2", *names])
        for i in range(dataset.n):
            writer.writerow([
                dataset.ids[i],
                "a" if dataset.group_is_a[i] else "b",
                "2" if dataset.eligible[i] else "never",
                repr(float(dataset.y1[i])),
                repr(float(dataset.y2[i])),
                *(repr(float(v)) for v in dataset.x[i]),
            ])
    return Schema(group="group", group_a_value="a",
                  eligibility="eligibility", eligible_value="2",
                  covariates=names, id="id", y1="y1", y2="y2")


# ---------------------------------------------------------------------------
# Minimum-wage survey
# ---------------------------------------------------------------------------

DEFAULT_REPLICATION_SCHEMA = {
    "id": "SHEET",
    "state": "STATE",
    "eligible_value": "1",
    "wage": "WAGE_ST",
    "wage_cutoff": 4.50,
    "y1_components": [["EMPFT", 1.0], ["EMPPT", 0.5], ["NMGRS", 1.0]],
    "y2_components": [["EMPFT2", 1.0], ["EMPPT2", 0.5], ["NMGRS2", 1.0]],
    "covariates": ["PSODA", "NMGRS", "HRSOPEN"],
}

REPLICATION_FORMAT = (
    "expected a CSV with (overridable via --schema JSON) columns: "
    "SHEET (id), STATE (1 = eligible state), WAGE_ST (starting wage; "
    "at or below 4.50 forms group A), EMPFT/EMPPT/NMGRS and "
    "EMPFT2/EMPPT2/NMGRS2 (employment components, periods 1 and 2, "
    "combined 1/0.5/1), PSODA, NMGRS, HRSOPEN (covariates); rows with "
    "missing values in any used column are dropped"
)


def _reads_as_float(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True


def _components(value) -> bool:
    return isinstance(value, (list, tuple)) and all(
        isinstance(part, (list, tuple)) and len(part) == 2
        and isinstance(part[0], str) and isinstance(part[1], numbers.Real)
        for part in value)


# each override key but "covariates": (what it must be, its test)
_REPLICATION_TYPES = {
    "id": ("a column name or null", lambda v: v is None or isinstance(v, str)),
    **{key: ("a column name", lambda v: isinstance(v, str))
       for key in ("state", "wage", "y1", "y2")},
    "eligible_value": ("a string or a number",
                       lambda v: isinstance(v, (str, numbers.Real))),
    "wage_cutoff": ("a number", _reads_as_float),
    "y1_components": ("a list of [column, weight] pairs", _components),
    "y2_components": ("a list of [column, weight] pairs", _components),
}


def load_replication_csv(path, overrides=None) -> PanelDataset:
    """Ingest the minimum-wage panel: group from a starting-wage split,
    eligibility from the state column, composite employment outcomes.

    Rows are read, and an empty (group, eligibility) cell rejected, as
    load_csv does with DROP_ROW. `overrides`
    replaces entries of DEFAULT_REPLICATION_SCHEMA; "y1"/"y2" name
    single-column outcomes in place of the composites, and "id": None
    numbers the units by data row. An unknown key, or a value of the
    wrong type for its key, raises SchemaError naming the key.
    """
    schema = dict(DEFAULT_REPLICATION_SCHEMA)
    if overrides:
        unknown = set(overrides) - set(schema) - {"y1", "y2"}
        if unknown:
            raise SchemaError(f"unknown replication schema keys: {sorted(unknown)}")
        _check_covariates(overrides)
        for key, (want, fits) in _REPLICATION_TYPES.items():
            if key in overrides and not fits(overrides[key]):
                raise SchemaError(f'replication schema key "{key}" must be '
                                  f'{want}, got {overrides[key]!r}')
        schema.update(overrides)

    y1_components = ([[schema["y1"], 1.0]] if "y1" in schema
                     else schema["y1_components"])
    y2_components = ([[schema["y2"], 1.0]] if "y2" in schema
                     else schema["y2_components"])
    cutoff = float(schema["wage_cutoff"])
    numeric = [schema["wage"], *(c for parts in (y1_components, y2_components)
                                 for c, _ in parts), *schema["covariates"]]
    fields, rows, n_dropped = _read_columns(
        path, ",", [*numeric, schema["state"]] + (
            [] if schema["id"] is None else [schema["id"]]),
        MissingPolicy.DROP_ROW)
    if not len(rows):
        raise SchemaError(f"{path}: no usable rows; {REPLICATION_FORMAT}")

    wage, *values = _convert([(c, fields[c], rows, None) for c in numeric])
    values = iter(values)
    with np.errstate(all="ignore"):  # an overflow fails as non-finite
        y1, y2 = (functools.reduce(  # 0.0 + w1 * c1 + w2 * c2 ..., in order
            lambda total, part: total + part[1] * next(values), parts, 0.0)
            for parts in (y1_components, y2_components))
    x = list(values)
    return _require_every_cell(PanelDataset(
        ids=rows.tolist() if schema["id"] is None else fields[schema["id"]],
        y1=y1, y2=y2, group_is_a=wage <= cutoff,
        eligible=_matches(fields[schema["state"]], schema["eligible_value"]),
        x=np.column_stack(x) if x else np.empty((len(rows), 0)),
        covariate_names=tuple(schema["covariates"]),
        mechanism=AssignmentMechanism.BOTH_GROUPS, n_dropped=n_dropped))
