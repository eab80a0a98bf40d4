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
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import ParseError, PanelValidationError, SchemaError

NA_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none", "."})


class Group(enum.Enum):
    A = "a"
    B = "b"
    __hash__ = object.__hash__  # by identity, in C: Enum's is a Python call


class Eligibility(enum.Enum):
    ELIGIBLE = "eligible"   # becomes eligible in period 2
    NEVER = "never"         # never eligible
    __hash__ = object.__hash__  # as Group's


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

    def treated(self, group: Group, eligibility: Eligibility) -> bool:
        if eligibility is not Eligibility.ELIGIBLE:
            return False
        if self is AssignmentMechanism.ONLY_GROUP_A:
            return group is Group.A
        return True


Cell = tuple[Group, Eligibility]

CELL_ORDER: tuple[Cell, ...] = (
    (Group.A, Eligibility.ELIGIBLE),
    (Group.A, Eligibility.NEVER),
    (Group.B, Eligibility.ELIGIBLE),
    (Group.B, Eligibility.NEVER),
)

REFERENCE_CELL: Cell = (Group.B, Eligibility.NEVER)


def cell_name(cell: Cell) -> str:
    group, elig = cell
    return f"({group.name}, {'Eligible' if elig is Eligibility.ELIGIBLE else 'Never'})"


def cell_index(cell: Cell) -> int:
    return CELL_ORDER.index(cell)


class PanelDataset:
    """Immutable, array-backed collection of panel units.

    Attributes
    ----------
    ids : object ndarray, shape (n,)
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
        self.ids = np.asarray(ids, dtype=object)
        self.y1 = np.asarray(y1, dtype=float)
        self.y2 = np.asarray(y2, dtype=float)
        self.group_is_a = np.asarray(group_is_a, dtype=bool)
        self.eligible = np.asarray(eligible, dtype=bool)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(len(self.y1), -1)
        self.x = x
        self.covariate_names = tuple(covariate_names)
        self.mechanism = mechanism
        self.n_dropped = int(n_dropped)
        self.observed_treated = (None if observed_treated is None
                                 else np.asarray(observed_treated, dtype=bool))

        n = len(self.y1)
        for name, arr in (("ids", self.ids), ("y1", self.y1), ("y2", self.y2),
                          ("group_is_a", self.group_is_a),
                          ("eligible", self.eligible)):
            if len(arr) != n:
                raise PanelValidationError(f"column {name} has length {len(arr)}, expected {n}")
        if self.x.shape != (n, len(self.covariate_names)):
            raise PanelValidationError(
                f"covariate matrix shape {self.x.shape} does not match "
                f"n={n}, d={len(self.covariate_names)}")
        if not (np.all(np.isfinite(self.y1)) and np.all(np.isfinite(self.y2))):
            raise PanelValidationError("non-finite outcome values")
        if self.x.size and not np.all(np.isfinite(self.x)):
            raise PanelValidationError("non-finite covariate values")
        for arr in (self.ids, self.y1, self.y2, self.group_is_a, self.eligible, self.x):
            arr.setflags(write=False)
        self._cell_codes = None

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

    def cell_mask(self, cell: Cell) -> np.ndarray:
        return self.cell_masks[cell_index(cell)]

    def cell_codes(self) -> np.ndarray:
        """Integer cell label per unit, following CELL_ORDER. Computed on
        the first call and shared, read-only, by every later one."""
        if self._cell_codes is None:
            codes = 2 * ~self.group_is_a + ~self.eligible  # as in CELL_ORDER
            codes.setflags(write=False)
            self._cell_codes = codes
        return self._cell_codes

    @functools.cached_property
    def cell_masks(self) -> np.ndarray:
        """Read-only (4, n) cell masks, row k for cell code k, by cell_codes()."""
        masks = np.arange(len(CELL_ORDER))[:, None] == self.cell_codes()
        masks.setflags(write=False)
        return masks

    def treated(self) -> np.ndarray:
        """Derived period-2 treatment indicator under the mechanism."""
        if self.mechanism is AssignmentMechanism.ONLY_GROUP_A:
            return self.eligible & self.group_is_a
        return self.eligible.copy()

    # -- views --------------------------------------------------------------

    def without_covariates(self) -> "PanelDataset":
        """Copy of the dataset with d=0: estimators on it use intercept-only
        nuisance models, which is how 'no controls' variants are produced."""
        return PanelDataset(self.ids, self.y1, self.y2, self.group_is_a,
                            self.eligible, np.empty((self.n, 0)), (),
                            self.mechanism, self.n_dropped,
                            self.observed_treated)

    def subset(self, idx) -> "PanelDataset":
        """Row subset / resample (used by the bootstrap)."""
        idx = np.asarray(idx)
        obs = None if self.observed_treated is None else self.observed_treated[idx]
        return PanelDataset(self.ids[idx], self.y1[idx], self.y2[idx],
                            self.group_is_a[idx], self.eligible[idx],
                            self.x[idx], self.covariate_names,
                            self.mechanism, 0, obs)


@dataclass(frozen=True)
class CellTable:
    """Counts and full-sample shares of the four (group, eligibility) cells."""

    counts: dict
    shares: dict
    n: int

    def count(self, cell: Cell) -> int:
        return self.counts[cell]

    def share(self, cell: Cell) -> float:
        return self.shares[cell]


def cell_table(dataset: PanelDataset) -> CellTable:
    """Exact cell counts and shares (share = count / n; 0 when n = 0)."""
    counts = dict(zip(CELL_ORDER, np.bincount(
        dataset.cell_codes(), minlength=4).tolist()))
    n = dataset.n
    shares = {cell: counts[cell] / n if n else 0.0 for cell in CELL_ORDER}
    return CellTable(counts=counts, shares=shares, n=n)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    n: int
    cell_counts: dict
    covariate_stats: dict      # cell -> list of per-covariate dicts
    failures: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "passed": self.passed,
            "cell_counts": {cell_name(c): v for c, v in self.cell_counts.items()},
            "covariate_stats": {
                cell_name(c): stats for c, stats in self.covariate_stats.items()
            },
            "failures": list(self.failures),
            "warnings": list(self.warnings),
        }

    def render(self) -> str:
        lines = [f"panel validation: {'PASS' if self.passed else 'FAIL'} (n={self.n})"]
        for cell in CELL_ORDER:
            lines.append(f"  {cell_name(cell)}: {self.cell_counts[cell]} units")
        for msg in self.failures:
            lines.append(f"  FAIL: {msg}")
        for msg in self.warnings:
            lines.append(f"  warn: {msg}")
        return "\n".join(lines)


def validate(dataset: PanelDataset) -> ValidationReport:
    """Report-only structural checks; never mutates or raises."""
    counts = cell_table(dataset).counts
    stats: dict = {}
    for cell in CELL_ORDER:
        mask = dataset.cell_mask(cell)
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
    for cell in CELL_ORDER:
        if counts[cell] == 0:
            report.failures.append(f"empty cell {cell_name(cell)}")
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
        try:
            return cls(**mapping)
        except TypeError as exc:
            raise SchemaError(str(exc)) from None


def _is_missing(value: str) -> bool:
    return value.strip().lower() in NA_TOKENS


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
    empty = [cell_name(c) for c in CELL_ORDER
             if not np.any(dataset.cell_mask(c))]
    if empty:
        raise PanelValidationError("empty cell " + ", ".join(empty))
    return dataset


def _binary_level(value: str, positive: str, column: str, seen: set) -> bool:
    v = value.strip()
    seen.add(v)
    if len(seen) > 2:
        raise SchemaError(f"column {column!r} has more than two levels: "
                          f"{sorted(seen)}")
    return v == str(positive).strip()


def _read_records(path, delimiter: str, columns,
                  missing_policy: MissingPolicy):
    """Read the named columns of a delimited file, returning
    (records, n_dropped).

    Each record maps a column to its raw field and "_row" to its data
    row (1-based, blank lines counted). Every named column must be in
    the header. Lines holding nothing but delimiters and whitespace are
    skipped; a row whose field in a named column is absent (a short row)
    or an NA token is dropped and counted (DROP_ROW) or rejected (ERROR).
    """
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
                if j >= len(raw) or _is_missing(raw[j]):
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


def load_csv(path, schema: Schema, mechanism: AssignmentMechanism,
             missing_policy: MissingPolicy = MissingPolicy.DROP_ROW) -> PanelDataset:
    """Read a delimited text file into a validated PanelDataset.

    Rows with a missing mapped field are dropped (DROP_ROW, the count is
    kept on the dataset) or rejected (ERROR). Retained rows keep file
    order. Raises SchemaError for unmapped columns, ParseError with the
    offending data row for non-numeric fields, and PanelValidationError
    if any (group, eligibility) cell ends up empty.
    """
    rows, n_dropped = _read_records(path, schema.delimiter,
                                    schema.mapped_columns(), missing_policy)
    group_seen: set = set()
    elig_seen: set = set()

    def convert(uid, r1, y1_col, r2, y2_col) -> tuple:
        """One unit's fields in PanelDataset order: each outcome from its
        own record; group, eligibility and covariates from the period-1
        record; the observed treatment from the period-2 record."""
        return (uid,
                _to_float(r1[y1_col], r1["_row"], y1_col),
                _to_float(r2[y2_col], r2["_row"], y2_col),
                _binary_level(r1[schema.group], schema.group_a_value,
                              schema.group, group_seen),
                _binary_level(r1[schema.eligibility], schema.eligible_value,
                              schema.eligibility, elig_seen),
                [_to_float(r1[c], r1["_row"], c) for c in schema.covariates],
                schema.treatment is not None
                and r2[schema.treatment].strip() == str(schema.treated_value).strip())

    if schema.is_long:
        units, n_incomplete = _pivot_long(rows, schema, missing_policy, convert)
        n_dropped += n_incomplete
    else:
        units = [convert(rec[schema.id] if schema.id is not None else k,
                         rec, schema.y1, rec, schema.y2)
                 for k, rec in enumerate(rows)]
    ids, y1, y2, group_is_a, eligible, x, observed = (zip(*units) if units
                                                      else [()] * 7)

    return _require_every_cell(PanelDataset(
        ids=ids, y1=y1, y2=y2, group_is_a=group_is_a, eligible=eligible,
        x=np.array(x, dtype=float).reshape(len(ids), len(schema.covariates)),
        covariate_names=schema.covariates, mechanism=mechanism,
        n_dropped=n_dropped,
        observed_treated=observed if schema.treatment is not None else None,
    ))


def _pivot_long(rows, schema: Schema, missing_policy: MissingPolicy,
                convert) -> tuple[list, int]:
    """Two rows per unit (one per period) to one converted unit each, in
    the order of the units' first rows. Returns (units, n_dropped), where
    n_dropped counts the units that lack a period."""
    p1 = str(schema.period_1_value).strip()
    p2 = str(schema.period_2_value).strip()
    per_unit: dict = {}
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


def load_replication_csv(path, overrides=None) -> PanelDataset:
    """Ingest the minimum-wage panel: group from a starting-wage split,
    eligibility from the state column, composite employment outcomes.

    Rows are read, and an empty (group, eligibility) cell rejected, as
    load_csv does with DROP_ROW. `overrides`
    replaces entries of DEFAULT_REPLICATION_SCHEMA; "y1"/"y2" name
    single-column outcomes in place of the composites, and "id": None
    numbers the units by data row.
    """
    schema = dict(DEFAULT_REPLICATION_SCHEMA)
    if overrides:
        unknown = set(overrides) - set(schema) - {"y1", "y2"}
        if unknown:
            raise SchemaError(f"unknown replication schema keys: {sorted(unknown)}")
        schema.update(overrides)

    y1_components = ([[schema["y1"], 1.0]] if "y1" in schema
                     else schema["y1_components"])
    y2_components = ([[schema["y2"], 1.0]] if "y2" in schema
                     else schema["y2_components"])
    cutoff = float(schema["wage_cutoff"])
    eligible_value = str(schema["eligible_value"]).strip()
    columns = [schema["wage"],
               *(c for parts in (y1_components, y2_components) for c, _ in parts),
               *schema["covariates"], schema["state"]]
    if schema["id"] is not None:
        columns.append(schema["id"])
    records, n_dropped = _read_records(path, ",", columns, MissingPolicy.DROP_ROW)
    if not records:
        raise SchemaError(f"{path}: no usable rows; {REPLICATION_FORMAT}")

    def composite(rec, components):
        total = 0.0
        for column, weight in components:
            total += weight * _to_float(rec[column], rec["_row"], column)
        return total

    ids, y1, y2, group_a, eligible, x = [], [], [], [], [], []
    for rec in records:
        wage = _to_float(rec[schema["wage"]], rec["_row"], schema["wage"])
        y1.append(composite(rec, y1_components))
        y2.append(composite(rec, y2_components))
        x.append([_to_float(rec[c], rec["_row"], c) for c in schema["covariates"]])
        ids.append(rec["_row"] if schema["id"] is None else rec[schema["id"]])
        group_a.append(wage <= cutoff)
        eligible.append(rec[schema["state"]].strip() == eligible_value)
    return _require_every_cell(PanelDataset(
        ids=ids, y1=y1, y2=y2, group_is_a=group_a, eligible=eligible,
        x=np.array(x, dtype=float),
        covariate_names=tuple(schema["covariates"]),
        mechanism=AssignmentMechanism.BOTH_GROUPS, n_dropped=n_dropped))
