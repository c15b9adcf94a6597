"""CLI contract: malformed input exits 2 or 3 with the JSON error block.

Each strategy draws inputs that are invalid by construction: a survey with a
bad cell, field count, header or encoding; a schema with a bad document,
field or encoding; a GraphML file with a bad weight, sign, style, endpoint
or XML structure; or a numeric argument outside its domain. Every run must
end in exit code 2 or 3 with exactly the JSON error block on stderr.
"""

import json
import re
from fractions import Fraction
from xml.sax.saxutils import escape, quoteattr

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opinionnet import export_graphml
from opinionnet.cli import main

from helpers import barbell_graph

EXAMPLES = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

SCALES = [3, 4, 5]
HEADER = ["pid", "q0", "q1", "q2"]
ROWS = [["a", "0", "1", "2"], ["b", "2", "3", "4"], ["c", "1", "NA", "0"], ["d", "1", "2", "3"]]
SCHEMA = {"id_column": "pid", "missing_token": "NA", "attribute_columns": [],
          "items": [{"id": f"q{i}", "scale": k} for i, k in enumerate(SCALES)]}
SURVEY_COMMANDS = {
    "inspect": [],
    "attitudes": ["OUT"],
    "census": ["OUT"],
    "project": ["--mode", "exact", "--threshold", "1", "OUT"],
}
CELL_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'),
                    max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _is_int(token: str) -> bool:
    try:
        int(token.strip())
    except ValueError:
        return False
    return True


def _is_rational(text: str) -> bool:
    try:
        Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return False
    return True


NOT_RATIONAL = st.text(max_size=8).filter(lambda t: not _is_rational(t))


def _beyond(bound, direction):
    """Rationals strictly above (direction 1) or below (-1) bound, as strings;
    some lie within 10**-400 of it."""
    gap = (st.fractions(min_value=0, max_denominator=1000).filter(bool)
           | st.integers(1, 400).map(lambda k: Fraction(1, 10**k)))
    return gap.map(lambda g: str(bound + direction * g))


def run_cli(capsys, argv, tmp_path):
    argv = [a for arg in argv
            for a in (["--out-prefix", str(tmp_path / "out")] if arg == "OUT" else [arg])]
    code = main(argv)
    block = json.loads(capsys.readouterr().err)  # the JSON block and nothing else
    assert code in (2, 3), argv
    assert set(block) == {"error"}
    assert block["error"]["exit_code"] == code
    assert block["error"]["type"] in ("ValidationError", "AlgorithmError", "NoGiantComponentError")


@st.composite
def malformed_surveys(draw):
    """Survey bytes and a missing policy under which they must be refused."""
    header, rows = list(HEADER), [list(row) for row in ROWS]
    policy = draw(st.sampled_from(["drop_participant", "keep_pairwise"]))
    r = draw(st.integers(0, len(rows) - 1))
    c = draw(st.integers(1, len(SCALES)))
    defect = draw(st.sampled_from(["code", "range", "fields", "column", "twin_column",
                                   "twin_id", "empty", "no_rows", "bytes", "all_missing"]))
    if defect == "code":
        rows[r][c] = draw(CELL_TEXT.filter(lambda t: not _is_int(t) and t.strip() != "NA"))
    elif defect == "range":
        k = SCALES[c - 1]
        rows[r][c] = str(draw(st.integers().filter(lambda v: not 0 <= v < k)))
    elif defect == "fields":
        rows[r] = rows[r][:-1] if draw(st.booleans()) else rows[r] + [draw(CELL_TEXT)]
    elif defect == "column":
        header[draw(st.integers(0, len(SCALES)))] = "renamed"
    elif defect == "twin_column":
        header[c] = header[draw(st.integers(0, len(SCALES)).filter(lambda j: j != c))]
    elif defect == "twin_id":
        rows[(r + 1) % len(rows)][0] = rows[r][0]
    elif defect == "all_missing":
        policy = "drop_participant"
        for row in rows:
            row[draw(st.integers(1, len(SCALES)))] = "NA"
    text = "" if defect == "empty" else "\n".join(
        ",".join(row) for row in [header] + ([] if defect == "no_rows" else rows)) + "\n"
    data = text.encode("utf-8")
    if defect == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3(", b"\xe2\x82", b"\x80"])) + data[at:]
    return data, policy


@EXAMPLES
@given(survey=malformed_surveys(), command=st.sampled_from(sorted(SURVEY_COMMANDS)))
def test_malformed_survey_exits_with_error_block(tmp_path, capsys, survey, command):
    data, policy = survey
    (tmp_path / "survey.csv").write_bytes(data)
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA))
    run_cli(capsys, [command, "--survey", str(tmp_path / "survey.csv"),
                     "--schema", str(tmp_path / "schema.json"), "--missing-policy", policy,
                     *SURVEY_COMMANDS[command]], tmp_path)


@st.composite
def malformed_schemas(draw):
    """Schema file bytes that no survey with HEADER can satisfy."""
    schema = json.loads(json.dumps(SCHEMA))
    item = schema["items"][1]
    defect = draw(st.sampled_from(["document", "items", "entry", "scale", "id", "id_column",
                                   "attribute_columns", "text", "bytes"]))
    if defect == "document":
        schema = draw(JSON_VALUES.filter(
            lambda v: not (isinstance(v, dict) and "items" in v and "id_column" in v)))
    elif defect == "items":
        schema["items"] = draw(JSON_VALUES.filter(lambda v: not (
            isinstance(v, list) and v
            and all(isinstance(e, dict) and {"id", "scale"} <= set(e) for e in v))))
    elif defect == "entry":
        schema["items"][1] = draw(JSON_VALUES.filter(
            lambda v: not (isinstance(v, dict) and {"id", "scale"} <= set(v))))
    elif defect == "scale":  # a scale is a JSON integer: in-range floats and digit strings fail too
        item["scale"] = draw(st.one_of(
            st.integers(max_value=1), st.integers(min_value=2**15 + 1), st.booleans(), st.none(),
            st.floats(), st.floats(2, 2**15), st.integers(2, 2**15).map(str), st.text(max_size=4),
            st.lists(st.integers(), max_size=2)))
    elif defect == "id":
        item["id"] = draw(JSON_VALUES.filter(lambda v: str(v) != "q1"))
    elif defect == "attribute_columns":
        schema["attribute_columns"] = draw(st.text(max_size=3) | JSON_VALUES.filter(
            lambda v: not (isinstance(v, list) and all(isinstance(c, str) for c in v))))
    elif defect == "id_column":
        schema["id_column"] = draw(JSON_VALUES.filter(lambda v: str(v) != "pid"))
    elif defect == "text":
        return draw(st.text(max_size=12).filter(lambda t: not t.strip().startswith("{"))).encode()
    else:
        return b"\xff" + draw(st.binary(max_size=12))
    return json.dumps(schema).encode()


@EXAMPLES
@given(schema=malformed_schemas(), command=st.sampled_from(sorted(SURVEY_COMMANDS)))
def test_malformed_schema_exits_with_error_block(tmp_path, capsys, schema, command):
    (tmp_path / "survey.csv").write_text("\n".join(",".join(r) for r in [HEADER] + ROWS) + "\n")
    (tmp_path / "schema.json").write_bytes(schema)
    run_cli(capsys, [command, "--survey", str(tmp_path / "survey.csv"),
                     "--schema", str(tmp_path / "schema.json"), *SURVEY_COMMANDS[command]],
            tmp_path)


@st.composite
def malformed_graphml(draw, text):
    """An exported GraphML text with one defect."""
    defect = draw(st.sampled_from(["weight", "sign", "style", "endpoint", "truncate", "markup"]))
    if defect == "truncate":
        return text[:draw(st.integers(0, text.rindex("</graphml>")))]
    if defect == "markup":
        at = draw(st.integers(0, len(text)))
        return text[:at] + draw(st.sampled_from(["<", "&", "</edge>", "<graph"])) + text[at:]
    if defect == "endpoint":
        pattern = r' (?:source|target)=("[^"]*")'
        value = quoteattr(draw(st.text(max_size=4).filter(lambda t: t not in NODES)))
    else:
        pattern = rf'key="e_{defect}">([^<]*)<'
        bad = {"weight": NOT_RATIONAL,
               "sign": st.text(max_size=9).filter(lambda t: t not in ("positive", "negative")),
               "style": st.text(max_size=7).filter(lambda t: t not in ("solid", "dashed", "dotted"))}
        value = escape(draw(bad[defect]))
    spans = [m.span(1) for m in re.finditer(pattern, text)]
    lo, hi = spans[draw(st.integers(0, len(spans) - 1))]
    return text[:lo] + value + text[hi:]


NODES = barbell_graph().nodes


@EXAMPLES
@given(data=st.data(), command=st.sampled_from(["communities", "render"]))
def test_malformed_graphml_exits_with_error_block(tmp_path, capsys, data, command):
    path = tmp_path / "g.graphml"
    export_graphml(barbell_graph(), path)
    path.write_text(data.draw(malformed_graphml(path.read_text())), encoding="utf-8")
    extra = ["--iterations", "2"] if command == "render" else []
    run_cli(capsys, [command, "--graph", str(path), *extra, "OUT"], tmp_path)


MODES = st.sampled_from(["exact", "score", "binarized"])


def _project(*args):
    return MODES.map(lambda mode: ["project", "SURVEY", "--mode", mode, *args])


# m = 3 items: every mode's weights lie in [-3, 3], and in [0, 3] outside score mode;
# the barbell graph has 8 nodes
BAD_ARGUMENTS = st.one_of(
    st.tuples(st.just(["project", "SURVEY", "--mode", "score", "--threshold"]),
              _beyond(3, 1) | _beyond(-3, -1) | NOT_RATIONAL),
    st.tuples(st.just(["project", "SURVEY", "--mode", "exact", "--threshold"]), _beyond(0, -1)),
    st.tuples(_project("--threshold", "1", "--negative-threshold"),
              _beyond(1, 1) | st.just("1") | NOT_RATIONAL),
    st.tuples(_project("--threshold", "auto", "--target-fraction"),
              _beyond(0, -1) | _beyond(1, 1) | st.just("0") | NOT_RATIONAL),
    st.tuples(_project("--threshold", "auto", "--min-level"), _beyond(3, 1) | NOT_RATIONAL),
    st.tuples(st.just(["communities", "GRAPH", "--max-removed-fraction"]),
              _beyond(0, -1) | _beyond(1, 1) | NOT_RATIONAL),
    st.tuples(st.just(["communities", "GRAPH", "--target"]),
              st.integers(max_value=0) | st.integers(min_value=9)),
    st.tuples(st.sampled_from([["render", "GRAPH", "--iterations", "2", "--seed"],
                               ["render", "GRAPH", "--seed", "2", "--iterations"]]),
              st.integers(max_value=-1)),
)


@EXAMPLES
@given(argument=BAD_ARGUMENTS)
def test_out_of_domain_numeric_argument_exits_with_error_block(tmp_path, capsys, argument):
    head, value = argument
    (tmp_path / "survey.csv").write_text("\n".join(",".join(r) for r in [HEADER] + ROWS) + "\n")
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA))
    export_graphml(barbell_graph(), tmp_path / "g.graphml")
    inputs = {"SURVEY": ["--survey", str(tmp_path / "survey.csv"),
                         "--schema", str(tmp_path / "schema.json")],
              "GRAPH": ["--graph", str(tmp_path / "g.graphml")]}
    argv = [a for arg in head[:-1] for a in inputs.get(arg, [arg])]
    run_cli(capsys, [*argv, f"{head[-1]}={value}", "OUT"], tmp_path)
