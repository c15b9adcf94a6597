"""Survey ingestion: schema descriptors and validated ordinal response matrices.

A survey CSV plus a schema descriptor become a ResponseMatrix: participants by
items, 0-based integer codes, with missing responses either dropped row-wise
(complete case) or kept and masked for pairwise handling downstream.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ValidationError

MISSING = -1
MAX_SCALE_SIZE = 2**15  # codes are int16

MISSING_POLICIES = ("drop_participant", "keep_pairwise")


@dataclass(frozen=True)
class SurveyItem:
    """One survey item: its column name and the number of points on its scale."""

    item_id: str
    scale_size: int


@dataclass(frozen=True)
class SurveySchema:
    """Survey layout: ordered items with scale sizes plus bookkeeping columns.

    Codes are 0-based consecutive integers declared by the schema, never
    inferred from the data: a valid code for item i lies in [0, scale_size-1].
    Attribute columns (party id, region, ...) are carried as opaque strings.
    """

    items: tuple[SurveyItem, ...]
    id_column: str
    attribute_columns: tuple[str, ...] = ()
    missing_token: str = "NA"

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "attribute_columns", tuple(self.attribute_columns))
        if not self.items:
            raise ValidationError("schema must declare at least one item")
        if not isinstance(self.id_column, str):  # a JSON null or number names no column
            raise ValidationError(f"id column {self.id_column!r} is not a string")
        if not self.id_column:
            raise ValidationError("schema must name an id column")
        seen = set()
        for item in self.items:
            if not isinstance(item.item_id, str):
                raise ValidationError(f"item id {item.item_id!r} is not a string")
            if not item.item_id:
                raise ValidationError("item ids must be non-empty")
            if item.item_id in seen:
                raise ValidationError(f"duplicate item id {item.item_id!r} in schema")
            seen.add(item.item_id)
            if not 2 <= item.scale_size <= MAX_SCALE_SIZE:
                raise ValidationError(f"item {item.item_id!r} has scale size {item.scale_size}; "
                                      f"scales need at least 2 points and at most {MAX_SCALE_SIZE}")
        columns = [self.id_column, *self.attribute_columns, *seen]
        if len(set(columns)) != len(columns):
            raise ValidationError(
                "id column, attribute columns, and item columns must be pairwise disjoint"
            )
        token = self.missing_token
        if not isinstance(token, str):
            raise ValidationError(f"missing token {token!r} is not a string")
        if token != token.strip():  # cells are trimmed before the comparison
            raise ValidationError(f"missing token {token!r} has surrounding whitespace, "
                                  f"so no trimmed cell can match it")
        shadowed = _cell_code(token, MAX_SCALE_SIZE, None)  # negative unless a code
        for item in self.items:
            if 0 <= shadowed < item.scale_size:
                raise ValidationError(f"missing token {token!r} is a valid code of item "
                                      f"{item.item_id!r}, whose answers it would make missing")

    @property
    def item_ids(self) -> tuple[str, ...]:
        return tuple(item.item_id for item in self.items)

    @property
    def scale_sizes(self) -> tuple[int, ...]:
        return tuple(item.scale_size for item in self.items)

    @property
    def n_items(self) -> int:
        return len(self.items)

    @classmethod
    def from_dict(cls, data: dict) -> "SurveySchema":
        try:
            items = tuple(SurveyItem(entry["id"], entry["scale"]) for entry in data["items"])
            columns = data.get("attribute_columns", [])
            id_column, missing_token = data["id_column"], data.get("missing_token", "NA")
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed schema descriptor: {exc}") from exc
        for item in items:
            if type(item.scale_size) is not int:  # a float, string or bool is not a scale
                raise ValidationError(f"item {item.item_id!r} has scale {item.scale_size!r}; "
                                      f"a scale must be a JSON integer")
        if not (isinstance(columns, list) and all(isinstance(c, str) for c in columns)):
            raise ValidationError(f"attribute_columns must be a list of strings, got {columns!r}")
        return cls(items=items, id_column=id_column, attribute_columns=tuple(columns),
                   missing_token=missing_token)

    @classmethod
    def from_json(cls, path) -> "SurveySchema":
        path = Path(path)
        if not path.exists():
            raise ValidationError(f"schema file not found: {path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
            raise ValidationError(f"schema file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class LoadReport:
    rows_read: int
    rows_dropped: int
    missing_cells: int


class ResponseMatrix:
    """Validated participants-by-items matrix of ordinal codes.

    Immutable after construction. `codes` holds -1 in missing slots, and
    `mask`, derived from it, is True where a response is present. Safe to
    share across threads.
    """

    __slots__ = ("schema", "participant_ids", "codes", "mask", "attributes", "report")

    def __init__(self, schema, participant_ids, codes, attributes=None, report=None):
        codes = np.array(codes, dtype=np.int16, copy=True)
        if codes.ndim != 2:
            raise ValidationError("codes must be a 2-D participants-by-items array")
        n, m = codes.shape
        if n < 1 or m < 1:
            raise ValidationError("matrix needs at least one participant and one item")
        if m != schema.n_items:
            raise ValidationError(
                f"matrix has {m} item columns but schema declares {schema.n_items}"
            )
        participant_ids = tuple(str(p) for p in participant_ids)
        if len(participant_ids) != n:
            raise ValidationError("participant id count does not match row count")
        if len(set(participant_ids)) != n:
            raise ValidationError("participant ids must be unique")
        mask = codes != MISSING
        for j, item in enumerate(schema.items):
            col = codes[:, j][mask[:, j]]
            bad = (col < 0) | (col >= item.scale_size)
            if bad.any():
                value = int(col[bad][0])
                raise ValidationError(
                    f"out-of-range code for item {item.item_id!r}: got {value}, "
                    f"valid codes are 0..{item.scale_size - 1}"
                )
        if attributes is None:
            attributes = {c: ("",) * n for c in schema.attribute_columns}
        else:
            attributes = {c: tuple(str(v) for v in vals) for c, vals in attributes.items()}
            if set(attributes) != set(schema.attribute_columns):
                raise ValidationError("attribute data must cover exactly the schema's attribute columns")
            for c, vals in attributes.items():
                if len(vals) != n:
                    raise ValidationError(f"attribute column {c!r} has {len(vals)} values for {n} rows")
        codes.setflags(write=False)
        mask.setflags(write=False)
        self.schema = schema
        self.participant_ids = participant_ids
        self.codes = codes
        self.mask = mask
        self.attributes = attributes
        self.report = report

    @property
    def n_participants(self) -> int:
        return self.codes.shape[0]

    @property
    def n_items(self) -> int:
        return self.codes.shape[1]

    def node_attributes(self) -> dict:
        """Per-participant attribute mapping, keyed by participant id."""
        cols = self.schema.attribute_columns
        return {
            pid: {c: self.attributes[c][i] for c in cols}
            for i, pid in enumerate(self.participant_ids)
        }


def load_survey(csv_path, schema: SurveySchema, missing_policy: str = "drop_participant") -> ResponseMatrix:
    """Parse and validate a survey CSV against its schema.

    Under drop_participant every retained row is complete; under keep_pairwise
    missing responses stay in the matrix behind the mask. Row order follows
    file order and parsing is locale-independent (UTF-8, '.'-free integers).
    """
    if missing_policy not in MISSING_POLICIES:
        raise ValidationError(
            f"unknown missing policy {missing_policy!r}; expected one of {MISSING_POLICIES}"
        )
    path = Path(csv_path)
    if not path.exists():
        raise ValidationError(f"survey file not found: {path}")

    # utf-8-sig drops a leading byte-order mark, which would otherwise stick to
    # the first column name
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"survey file {path} is empty (no header row)") from None
        except csv.Error as exc:
            raise ValidationError(f"malformed CSV header in {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"survey file {path} is not UTF-8 text: {exc}") from exc

        positions: dict[str, int] = {}
        duplicates = set()
        for i, name in enumerate(header):
            if name in positions:
                duplicates.add(name)
            else:
                positions[name] = i
        needed = [schema.id_column, *schema.attribute_columns, *schema.item_ids]
        for name in needed:
            if name not in positions:
                raise ValidationError(f"column {name!r} declared by the schema is missing from the header")
            if name in duplicates:
                raise ValidationError(f"column {name!r} appears more than once in the header")
        id_pos = positions[schema.id_column]
        attr_pos = [positions[c] for c in schema.attribute_columns]
        item_pos = [positions[i] for i in schema.item_ids]

        rows: list[list[str]] = []
        failure = None  # (error, cause) that ends the read; a bad cell in an earlier row wins
        try:
            for row in reader:
                rows.append(row)
        except csv.Error as exc:
            failure = (ValidationError(f"malformed CSV near data row {len(rows) + 1} in {path}: "
                                       f"{exc}"), exc)
        except UnicodeDecodeError as exc:
            failure = ValidationError(f"survey file {path} is not UTF-8 text: {exc}"), exc

    # the first row with the wrong field count or a repeated id stops the read
    # there; cells of the rows before it are still checked first
    good = next((k for k, row in enumerate(rows) if len(row) != len(header)), len(rows))
    seen_ids: dict[str, int] = {}
    repeat = next((k for k, row in enumerate(rows[:good])
                   if seen_ids.setdefault(row[id_pos], k) != k), None)
    if repeat is not None:
        pid = rows[repeat][id_pos]
        failure = ValidationError(f"duplicate participant id {pid!r} at data row {repeat + 1} "
                                  f"(first seen at data row {seen_ids[pid] + 1})"), None
        good = repeat
    elif good < len(rows):
        failure = ValidationError(f"malformed CSV: data row {good + 1} has {len(rows[good])} "
                                  f"fields, expected {len(header)}"), None
    rows = rows[:good]
    codes = _item_codes(rows, schema, item_pos)
    if failure is not None:
        raise failure[0] from failure[1]

    rows_read = len(rows)
    if rows_read == 0:
        raise ValidationError(f"survey file {path} contains a header but no data rows")

    keep = np.ones(rows_read, dtype=bool)
    if missing_policy == "drop_participant":
        keep = (codes != MISSING).all(axis=1)
        if not keep.any():
            raise ValidationError(
                f"all {rows_read} rows were dropped by the drop_participant policy"
            )
    rows_dropped = int(rows_read - keep.sum())
    report = LoadReport(rows_read=rows_read, rows_dropped=rows_dropped,
                        missing_cells=int((codes == MISSING).sum()))

    kept_idx = np.flatnonzero(keep).tolist()
    return ResponseMatrix(
        schema=schema,
        participant_ids=[rows[i][id_pos] for i in kept_idx],
        codes=codes[kept_idx],
        attributes={c: tuple(rows[i][pos] for i in kept_idx)
                    for c, pos in zip(schema.attribute_columns, attr_pos)},
        report=report,
    )


_INVALID, _OUT_OF_RANGE = -2, -3  # codes of the cells load_survey rejects


def _cell_code(token: str, scale_size: int, missing_token: str) -> int:
    token = token.strip()
    if token == missing_token:
        return MISSING
    try:
        value = int(token)
    except ValueError:
        return _INVALID
    return value if 0 <= value < scale_size else _OUT_OF_RANGE


def _item_codes(rows: list, schema: SurveySchema, item_pos: list) -> np.ndarray:
    """int16 codes of the item cells, MISSING for the missing token.

    Each column maps its distinct tokens through a table built once per token.
    The first bad cell in row-major order raises a ValidationError.
    """
    codes = np.empty((len(rows), schema.n_items), dtype=np.int16)
    for j, (item, pos) in enumerate(zip(schema.items, item_pos)):
        column = [row[pos] for row in rows]
        table = {t: _cell_code(t, item.scale_size, schema.missing_token) for t in set(column)}
        codes[:, j] = np.fromiter(map(table.__getitem__, column), dtype=np.int16,
                                  count=len(column))
    bad = np.flatnonzero(codes.ravel() < MISSING)
    if len(bad):
        k, j = divmod(int(bad[0]), schema.n_items)
        item, token = schema.items[j], rows[k][item_pos[j]]
        if codes[k, j] == _INVALID:
            raise ValidationError(
                f"invalid code at data row {k + 1}, column {item.item_id!r}: "
                f"{token!r} is neither an integer nor the missing token"
            )
        raise ValidationError(
            f"out-of-range code at data row {k + 1}, column {item.item_id!r}: "
            f"got {int(token.strip())}, valid codes are 0..{item.scale_size - 1}"
        )
    return codes


def quote_cell(text: str) -> str:
    """A CSV cell that csv.reader reads back as text: quoted, its quotes doubled,
    when it holds a comma, a quote, a line feed or a carriage return. Without a
    carriage return these are the csv module's writer bytes; that writer quotes
    a bare one only from Python 3.13."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(csv_path, header, rows) -> None:
    """Write the header and rows of text cells as UTF-8 CSV, a line feed ending each row."""
    with Path(csv_path).open("w", newline="", encoding="utf-8") as fh:
        fh.writelines(",".join(map(quote_cell, row)) + "\n" for row in chain([header], rows))


def write_survey(matrix: ResponseMatrix, csv_path) -> None:
    """Write a ResponseMatrix as CSV in the loader's layout (id, attributes, items)."""
    schema = matrix.schema
    attributes = [matrix.attributes[c] for c in schema.attribute_columns]
    write_csv(csv_path, [schema.id_column, *schema.attribute_columns, *schema.item_ids], (
        [pid, *(column[i] for column in attributes),
         *(schema.missing_token if code == MISSING else str(code) for code in codes)]
        for i, (pid, codes) in enumerate(zip(matrix.participant_ids, matrix.codes.tolist()))))
