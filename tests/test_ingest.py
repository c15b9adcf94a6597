import csv
import io
import json
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionnet import (
    ResponseMatrix,
    SurveyItem,
    SurveySchema,
    ValidationError,
    load_survey,
    write_survey,
)
from opinionnet.ingest import quote_cell

from helpers import make_matrix, make_schema, same_matrix
from oracles import loop_load_survey


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_drop_participant_drops_incomplete_rows(tmp_path):
    schema = make_schema([4, 4, 4])
    f = write(tmp_path / "s.csv", "pid,q00,q01,q02\na,1,2,3\nb,1,NA,3\nc,0,0,0\n")
    mx = load_survey(f, schema, missing_policy="drop_participant")
    assert mx.n_participants == 2
    assert mx.participant_ids == ("a", "c")
    assert mx.report.rows_read == 3
    assert mx.report.rows_dropped == 1
    assert mx.mask.all()


def test_keep_pairwise_retains_masked_missing(tmp_path):
    schema = make_schema([4, 4, 4])
    f = write(tmp_path / "s.csv", "pid,q00,q01,q02\na,1,2,3\nb,1,NA,3\n")
    mx = load_survey(f, schema, missing_policy="keep_pairwise")
    assert mx.n_participants == 2
    assert not mx.mask.all()
    assert not mx.mask[1, 1] and mx.codes[1, 1] == -1
    assert mx.mask[1, 0] and mx.codes[1, 0] == 1
    assert mx.report.rows_dropped == 0
    assert mx.report.missing_cells == 1


def test_out_of_range_code_names_row_column_value(tmp_path):
    # k=4 admits 0..3; a 4 is one past the max
    schema = make_schema([4, 4])
    f = write(tmp_path / "s.csv", "pid,q00,q01\na,1,2\nb,1,4\n")
    with pytest.raises(ValidationError, match=r"row 2.*'q01'.*got 4"):
        load_survey(f, schema)


def test_negative_code_rejected(tmp_path):
    schema = make_schema([4])
    f = write(tmp_path / "s.csv", "pid,q00\na,-2\n")
    with pytest.raises(ValidationError, match="out-of-range"):
        load_survey(f, schema)


def test_non_integer_code_rejected(tmp_path):
    schema = make_schema([4])
    f = write(tmp_path / "s.csv", "pid,q00\na,high\n")
    with pytest.raises(ValidationError, match="neither an integer nor the missing token"):
        load_survey(f, schema)


def test_duplicate_participant_id(tmp_path):
    schema = make_schema([4])
    f = write(tmp_path / "s.csv", "pid,q00\na,1\na,2\n")
    with pytest.raises(ValidationError, match="duplicate participant id 'a'"):
        load_survey(f, schema)


def test_unknown_column_in_schema(tmp_path):
    schema = make_schema([4, 4])
    f = write(tmp_path / "s.csv", "pid,q00\na,1\n")
    with pytest.raises(ValidationError, match="'q01'.*missing from the header"):
        load_survey(f, schema)


def test_ragged_row_is_malformed(tmp_path):
    schema = make_schema([4, 4])
    f = write(tmp_path / "s.csv", "pid,q00,q01\na,1\n")
    with pytest.raises(ValidationError, match="malformed CSV"):
        load_survey(f, schema)


def test_header_only_file_is_an_error(tmp_path):
    schema = make_schema([4])
    f = write(tmp_path / "s.csv", "pid,q00\n")
    with pytest.raises(ValidationError, match="no data rows"):
        load_survey(f, schema)


def test_missing_file(tmp_path):
    schema = make_schema([4])
    with pytest.raises(ValidationError, match="not found"):
        load_survey(tmp_path / "absent.csv", schema)
    with pytest.raises(ValidationError, match="schema file not found"):
        SurveySchema.from_json(tmp_path / "absent.json")


def test_all_rows_dropped_is_an_error(tmp_path):
    schema = make_schema([4])
    f = write(tmp_path / "s.csv", "pid,q00\na,NA\n")
    with pytest.raises(ValidationError, match="dropped"):
        load_survey(f, schema)


def test_missing_token_compared_after_trimming(tmp_path):
    schema = make_schema([4, 4])
    f = write(tmp_path / "s.csv", "pid,q00,q01\na, NA ,2\n")
    mx = load_survey(f, schema, missing_policy="keep_pairwise")
    assert not mx.mask[0, 0]
    # codes may be padded too
    f2 = write(tmp_path / "s2.csv", "pid,q00,q01\na, 1 ,2\n")
    mx2 = load_survey(f2, schema)
    assert mx2.codes[0, 0] == 1


def test_quoted_fields_and_attribute_passthrough(tmp_path):
    schema = make_schema([4], attrs=("party",))
    f = write(tmp_path / "s.csv", 'pid,party,q00\n"p, 1","Independent ""I""",3\n')
    mx = load_survey(f, schema)
    assert mx.participant_ids == ("p, 1",)
    assert mx.attributes["party"] == ('Independent "I"',)


def test_wellcome_style_schema_on_synthetic_rows(tmp_path):
    # 13 items: ten 4-point scales plus three 5-point vaccine questions
    ks = [4] * 10 + [5] * 3
    schema = make_schema(ks)
    rng = random.Random(7)
    lines = ["pid," + ",".join(schema.item_ids)]
    for p in range(1000):
        lines.append(f"w{p:04d}," + ",".join(str(rng.randrange(k)) for k in ks))
    f = write(tmp_path / "wellcome.csv", "\n".join(lines) + "\n")
    mx = load_survey(f, schema)
    assert mx.n_items == 13
    assert mx.n_participants == 1000


def test_round_trip_preserves_matrix(tmp_path):
    schema = make_schema([4, 5, 2], attrs=("party", "region"))
    rows = [[0, 4, 1], [3, None, 0], [1, 2, None], [2, 0, 0]]
    mx = make_matrix(
        rows, [4, 5, 2],
        ids=["x, 1", 'y "q"', "z", "a\rb\r\nc\nd"],  # a bare \r is quoted too
        attributes={"party": ["D", "R", "", "D\rR"],
                    "region": ["north", "south, east", "west", "\r"]},
        schema=schema,
    )
    out = tmp_path / "round.csv"
    write_survey(mx, out)
    back = load_survey(out, schema, missing_policy="keep_pairwise")
    assert same_matrix(back, mx)


def test_load_is_deterministic(tmp_path):
    schema = make_schema([4, 4])
    f = write(tmp_path / "s.csv", "pid,q00,q01\na,1,2\nb,0,3\n")
    a = load_survey(f, schema)
    b = load_survey(f, schema)
    assert same_matrix(a, b)


def test_row_order_follows_file_order(tmp_path):
    schema = make_schema([2])
    f = write(tmp_path / "s.csv", "pid,q00\nz,0\na,1\nm,0\n")
    mx = load_survey(f, schema)
    assert mx.participant_ids == ("z", "a", "m")


def test_schema_rejects_duplicate_items():
    with pytest.raises(ValidationError, match="duplicate item id"):
        SurveySchema(items=(SurveyItem("q", 4), SurveyItem("q", 5)), id_column="pid")


def test_schema_rejects_tiny_scale():
    with pytest.raises(ValidationError, match="at least 2 points"):
        SurveySchema(items=(SurveyItem("q", 1),), id_column="pid")


def test_schema_rejects_overlapping_columns():
    with pytest.raises(ValidationError, match="disjoint"):
        SurveySchema(items=(SurveyItem("q", 4),), id_column="q")
    with pytest.raises(ValidationError, match="disjoint"):
        SurveySchema(items=(SurveyItem("q", 4),), id_column="pid", attribute_columns=("q",))


@pytest.mark.parametrize("id_column, item_id, named", [
    (None, "q0", "id column None is not a string"),
    (7, "q0", "id column 7 is not a string"),
    ("pid", 7, "item id 7 is not a string"),
    ("pid", None, "item id None is not a string"),
])
def test_schema_descriptor_refuses_a_non_string_id(id_column, item_id, named):
    # a null or number would otherwise name a column "None" or "7"
    with pytest.raises(ValidationError, match=named):
        SurveySchema.from_dict({"id_column": id_column, "items": [{"id": item_id, "scale": 4}]})


def test_schema_rejects_no_items():
    with pytest.raises(ValidationError, match="at least one item"):
        SurveySchema(items=(), id_column="pid")


def test_schema_json_round_trip(tmp_path):
    schema = make_schema([4, 5], attrs=("party",), missing_token="-9")
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({
        "id_column": schema.id_column,
        "attribute_columns": list(schema.attribute_columns),
        "missing_token": schema.missing_token,
        "items": [{"id": item.item_id, "scale": item.scale_size} for item in schema.items],
    }), encoding="utf-8")
    assert SurveySchema.from_json(path) == schema


def test_matrix_constructor_validates():
    schema = make_schema([4])
    with pytest.raises(ValidationError, match="unique"):
        ResponseMatrix(schema, ["a", "a"], np.array([[1], [2]], dtype=np.int16))
    with pytest.raises(ValidationError, match="out-of-range"):
        ResponseMatrix(schema, ["a"], np.array([[9]], dtype=np.int16))


@pytest.mark.parametrize("codes, ids, attributes, named", [
    ([1, 2], ["a"], None, "2-D"),
    (np.zeros((0, 1)), [], None, "at least one participant and one item"),
    ([[1, 2]], ["a"], None, "2 item columns but schema declares 1"),
    ([[1]], ["a", "b"], None, "id count does not match"),
    ([[1]], ["a"], {"region": ["N"]}, "cover exactly the schema's attribute columns"),
    ([[1]], ["a"], {"party": ["D", "R"]}, "'party' has 2 values for 1 rows"),
])
def test_matrix_constructor_refuses_a_malformed_matrix(codes, ids, attributes, named):
    schema = make_schema([4], attrs=("party",))
    with pytest.raises(ValidationError, match=named):
        ResponseMatrix(schema, ids, codes, attributes=attributes)


def test_load_survey_refuses_an_unknown_missing_policy(tmp_path):
    f = write(tmp_path / "s.csv", "pid,q00\na,1\n")
    with pytest.raises(ValidationError, match="unknown missing policy 'bogus'"):
        load_survey(f, make_schema([4]), missing_policy="bogus")


def test_a_cell_over_the_csv_field_limit_is_malformed_csv(tmp_path):
    f = write(tmp_path / "s.csv", f"pid,q00\na,1\nb,{'1' * (csv.field_size_limit() + 1)}\n")
    with pytest.raises(ValidationError, match="malformed CSV near data row 2"):
        load_survey(f, make_schema([4]))
    # and in the header
    f = write(tmp_path / "h.csv", f"pid,q00,{'x' * (csv.field_size_limit() + 1)}\na,1,2\n")
    with pytest.raises(ValidationError, match="malformed CSV header in .*h.csv: field larger"):
        load_survey(f, make_schema([4]))


def test_duplicate_header_column_rejected(tmp_path):
    schema = make_schema([4])
    f = write(tmp_path / "s.csv", "pid,q00,q00\na,1,2\n")
    with pytest.raises(ValidationError, match="more than once"):
        load_survey(f, schema)


def test_crlf_line_endings(tmp_path):
    schema = make_schema([4, 4])
    f = tmp_path / "s.csv"
    f.write_bytes(b"pid,q00,q01\r\na,1,2\r\nb,0,3\r\n")
    mx = load_survey(f, schema)
    assert mx.participant_ids == ("a", "b")
    assert mx.codes[1, 1] == 3


def test_unicode_ids_and_attributes_round_trip(tmp_path):
    schema = make_schema([4], attrs=("city",))
    mx = make_matrix([[1], [2]], [4], ids=["rené", "张三"],
                     attributes={"city": ["São Paulo", "München"]}, schema=schema)
    out = tmp_path / "u.csv"
    write_survey(mx, out)
    back = load_survey(out, schema)
    assert same_matrix(back, mx)


# any text that load_survey reads from a UTF-8 file: no lone surrogate, and no
# NUL before Python 3.11, whose csv.reader refuses it; the sampled characters
# are the ones that need quoting
CELL_TEXT = st.text(st.one_of(
    st.sampled_from(list(',"\n\r a')),
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters="\x00" if sys.version_info < (3, 11) else ""),
), max_size=12)


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(CELL_TEXT, min_size=2, max_size=5))  # an id and at least one item
def test_quoted_cells_read_back_through_csv_reader(cells):
    line = ",".join(map(quote_cell, cells)) + "\n"
    assert list(csv.reader(io.StringIO(line, newline=""))) == [cells]


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(CELL_TEXT.filter(lambda text: "\r" not in text), min_size=2, max_size=5))
def test_quoted_cells_without_carriage_returns_are_csv_writer_bytes(cells):
    # so the files written before csv.writer was dropped keep their bytes
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow(cells)
    assert ",".join(map(quote_cell, cells)) + "\n" == buffer.getvalue()


def _random_survey_bytes(rng, schema):
    """A survey CSV for schema with shuffled columns, padded tokens, NA cells,
    attribute values and, most of the time, one or two faults at random rows."""
    columns = [schema.id_column, *schema.attribute_columns, *schema.item_ids]
    rng.shuffle(columns)
    scales = dict(zip(schema.item_ids, schema.scale_sizes))
    # a long survey puts a bad byte past the decoder's first chunk
    n = rng.randint(1, 30) if rng.random() < 0.9 else rng.randint(300, 900)
    rows = []
    for p in range(n):
        row = []
        for c in columns:
            if c == schema.id_column:
                row.append(f"p{p}" if rng.random() < 0.9 else f"id, {p}")
            elif c in scales:
                token = "NA" if rng.random() < 0.15 else str(rng.randrange(scales[c]))
                row.append(rng.choice(["", " ", "\t"]) + token + rng.choice(["", " "]))
            else:
                row.append(rng.choice(["", "D", "R", 'say "x"', "é"]))
        rows.append(row)
    for _ in range(rng.choice([0, 1, 1, 2])):
        k, j = rng.randrange(n), rng.randrange(len(columns))
        fault = rng.choice(["cell", "cell", "short", "long", "duplicate", "utf8"])
        if fault == "cell" and columns[j] in scales:
            rows[k][j] = rng.choice(["x", "1.0", "-1", str(scales[columns[j]]), "99", "", "na"])
        elif fault == "short":
            rows[k] = rows[k][:-1]
        elif fault == "long":
            rows[k] = rows[k] + ["0"]
        elif fault == "duplicate" and k:
            rows[k][columns.index(schema.id_column)] = rows[rng.randrange(k)][
                columns.index(schema.id_column)]
        elif fault == "utf8":
            rows[k][j] = "\udcff"  # written below as a lone 0xff byte
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=rng.choice(["\n", "\r\n"])).writerows([columns, *rows])
    data = buffer.getvalue().encode("utf-8", "surrogateescape")
    return (b"\xef\xbb\xbf" if rng.random() < 0.3 else b"") + data


def _load_or_error(load, path, schema, policy):
    try:
        mx = load(path, schema, missing_policy=policy)
    except ValidationError as exc:
        return "error", str(exc)
    return (mx.participant_ids, mx.codes.tolist(), mx.mask.tolist(), mx.attributes,
            mx.report)


def test_load_survey_matches_the_cell_loop_reference(tmp_path):
    rng = random.Random(20)
    path = tmp_path / "s.csv"
    outcomes = set()
    for case in range(400):
        schema = make_schema([rng.randint(2, 6) for _ in range(rng.randint(1, 5))],
                             attrs=("party", "region")[:rng.randint(0, 2)])
        path.write_bytes(_random_survey_bytes(rng, schema))
        for policy in ("drop_participant", "keep_pairwise"):
            expected = _load_or_error(loop_load_survey, path, schema, policy)
            assert _load_or_error(load_survey, path, schema, policy) == expected, case
            outcomes.add(expected[1].split(" ")[0] if expected[0] == "error" else "loaded")
    # every kind of outcome was exercised
    assert outcomes >= {"loaded", "invalid", "out-of-range", "malformed", "duplicate", "survey",
                        "all"}


def test_a_bad_cell_is_reported_before_a_later_undecodable_byte(tmp_path):
    schema = make_schema([4])
    body = "".join(f"p{p},{p % 4}\n" for p in range(2000))
    f = tmp_path / "s.csv"
    f.write_bytes(b"pid,q00\na,7\n" + body.encode() + b"z,\xff\n")
    with pytest.raises(ValidationError, match="out-of-range code at data row 1") as caught:
        load_survey(f, schema)
    with pytest.raises(ValidationError) as expected:
        loop_load_survey(f, schema)
    assert str(caught.value) == str(expected.value)
    f.write_bytes(b"pid,q00\n" + body.encode() + b"z,\xff\n")
    with pytest.raises(ValidationError, match="not UTF-8"):
        load_survey(f, schema)
