import csv
import errno
import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from xml.parsers import expat

import pytest

from opinionnet import (
    Edge,
    ProjectionGraph,
    SurveySchema,
    binarize,
    binarized_agreement_weights,
    export_edgelist,
    export_graphml,
    import_graphml,
    load_survey,
    project_attitudes,
    project_participants,
    renormalize,
    score_weights,
    select_threshold,
    style_edges,
)
from opinionnet import analyze, cli, project
from opinionnet.cli import main
from opinionnet.rational import format_fraction

from helpers import barbell_graph, graph_from_edges
from oracles import all_pair_weights, random_rows, sweep_oracle


def write_schema(path, scale_sizes, attrs=(), missing_token="NA"):
    schema = {
        "id_column": "pid",
        "attribute_columns": list(attrs),
        "missing_token": missing_token,
        "items": [{"id": f"q{i:02d}", "scale": k} for i, k in enumerate(scale_sizes)],
    }
    path.write_text(json.dumps(schema, indent=2) + "\n")
    return path


def write_survey(path, scale_sizes, rows, attrs=None):
    header = ["pid"] + (list(attrs) if attrs else []) + [f"q{i:02d}" for i in range(len(scale_sizes))]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, row in enumerate(rows):
            attr_vals = row.get("attrs", []) if isinstance(row, dict) else []
            codes = row["codes"] if isinstance(row, dict) else row
            writer.writerow([f"p{i:03d}", *attr_vals, *codes])
    return path


def edgelist_bytes(graph, path):
    export_edgelist(graph, path)
    return path.read_bytes()


def two_block_inputs(tmp_path, n_per_block=6, m=5):
    ks = [4] * m
    schema = write_schema(tmp_path / "schema.json", ks)
    rows = [[0] * m] * n_per_block + [[1] * m] * n_per_block
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    return survey, schema


def test_inspect_summary_line(tmp_path, capsys):
    ks = [4] * 10 + [5] * 3
    schema = write_schema(tmp_path / "schema.json", ks)
    rng = random.Random(3)
    rows = [[rng.randrange(k) for k in ks] for _ in range(50)]
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema)])
    out = capsys.readouterr().out
    assert code == 0
    assert "N=50, m=13, scales: 10×4pt, 3×5pt" in out
    assert "attributes:" not in out


def test_inspect_names_the_attribute_columns(tmp_path, capsys):
    ks = [4, 4]
    schema = write_schema(tmp_path / "schema.json", ks, attrs=("party", "region"))
    rows = [{"codes": [0, 1], "attrs": ["D", "N"]}, {"codes": [1, 1], "attrs": ["R", "S"]}]
    survey = write_survey(tmp_path / "survey.csv", ks, rows, attrs=("party", "region"))
    assert main(["inspect", "--survey", str(survey), "--schema", str(schema)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "attributes: party, region"


def test_inspect_json_mode(tmp_path, capsys):
    survey, schema = two_block_inputs(tmp_path)
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema), "--json"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_participants"] == 12
    assert summary["n_items"] == 5


def test_inspect_empty_data_is_validation_error(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [4])
    survey = tmp_path / "survey.csv"
    survey.write_text("pid,q00\n")
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema)])
    captured = capsys.readouterr()
    assert code == 2
    block = json.loads(captured.err)
    assert block["error"]["type"] == "ValidationError"
    assert "no data rows" in block["error"]["message"]


@pytest.mark.parametrize("field, value", [("id_column", None), ("id", 7)])
def test_inspect_refuses_a_non_string_schema_id(tmp_path, capsys, field, value):
    # the survey has columns named None and 7, which a stringified id would read
    schema = json.loads(write_schema(tmp_path / "schema.json", [4]).read_text())
    if field == "id_column":
        schema["id_column"] = value
    else:
        schema["items"][0]["id"] = value
    (tmp_path / "schema.json").write_text(json.dumps(schema))
    survey = tmp_path / "survey.csv"
    survey.write_text("pid,None,7,q00\na,b,1,1\n")
    code = main(["inspect", "--survey", str(survey), "--schema", str(tmp_path / "schema.json")])
    assert code == 2
    block = json.loads(capsys.readouterr().err)
    assert block["error"]["type"] == "ValidationError" and block["error"]["exit_code"] == 2
    assert f"{value!r} is not a string" in block["error"]["message"]


def test_inspect_surfaces_drop_count(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [4, 4])
    survey = tmp_path / "survey.csv"
    survey.write_text("pid,q00,q01\na,1,1\nb,NA,1\nc,1,NA\nd,NA,NA\ne,0,0\n")
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema)])
    out = capsys.readouterr().out
    assert code == 0
    assert "dropped: 3" in out


def test_project_writes_graph_files_and_manifest(tmp_path, capsys):
    survey, schema = two_block_inputs(tmp_path)
    prefix = tmp_path / "out" / "run"
    code = main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "score", "--threshold", "5", "--out-prefix", str(prefix)])
    assert code == 0
    graphml = tmp_path / "out" / "run.graphml"
    edges = tmp_path / "out" / "run.edges.csv"
    manifest_path = tmp_path / "out" / "run.manifest.json"
    assert graphml.exists() and edges.exists() and manifest_path.exists()
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "project"
    assert manifest["parameters"]["resolved_threshold"] == "5"
    for name, entry in manifest["outputs"].items():
        target = tmp_path / "out" / entry["file"]
        assert hashlib.sha256(target.read_bytes()).hexdigest() == entry["sha256"]
    # within-block cliques only: 2 * C(6,2) edges
    assert edges.read_text().count("positive") == 30


def test_project_auto_threshold_two_blocks(tmp_path, capsys):
    survey, schema = two_block_inputs(tmp_path)
    prefix = tmp_path / "auto"
    code = main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "auto", "--out-prefix", str(prefix)])
    out = capsys.readouterr().out
    assert code == 0
    assert "auto threshold: 5" in out  # identical blocks connect at level m
    manifest = json.loads((tmp_path / "auto.manifest.json").read_text())
    assert manifest["parameters"]["resolved_threshold"] == "5"
    sweep = (tmp_path / "auto.sweep.csv").read_text().splitlines()
    assert sweep[0] == "threshold,giant_fraction,giant_fraction_decimal"
    assert sweep[1].startswith("5,1/2")


def test_project_negative_threshold_and_fraction_string(tmp_path):
    # blocks at opposite extremes: cross-block score is 4 - 8 = -4
    ks = [4] * 4
    schema = write_schema(tmp_path / "schema.json", ks)
    rows = [[0] * 4] * 6 + [[3] * 4] * 6
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    prefix = tmp_path / "neg"
    code = main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "score", "--threshold", "7/2", "--negative-threshold", "-3",
                 "--out-prefix", str(prefix)])
    assert code == 0
    edge_lines = (tmp_path / "neg.edges.csv").read_text().splitlines()[1:]
    signs = {line.split(",")[4] for line in edge_lines}
    assert signs == {"positive", "negative"}
    for line in edge_lines:
        cells = line.split(",")
        if cells[4] == "negative":
            assert Fraction(cells[2]) <= -3


def duplicate_heavy_inputs(tmp_path, missing_rate=0.03, duplicates=True):
    """200 rows of ten 4-point and three 5-point items, missing_rate of the
    cells missing and, with duplicates, about half of the rows copies of four
    rows."""
    rng = random.Random(16)
    ks = [4] * 10 + [5] * 3
    rows = random_rows(rng, 200, ks, missing_rate=missing_rate)
    if duplicates:
        rows = [list(rng.choice(rows[:4])) if rng.random() < 0.5 else row for row in rows]
    schema = write_schema(tmp_path / "schema.json", ks)
    survey = write_survey(tmp_path / "survey.csv", ks,
                          [["NA" if c is None else c for c in row] for row in rows])
    return survey, schema


PROJECT_SUFFIXES = (".sweep.csv", ".graphml", ".edges.csv", ".manifest.json")


def _auto_run(tmp_path, survey, schema, mode, *extra):
    """The bytes of each file an auto projection writes, by suffix."""
    prefix = tmp_path / "run"
    code = main(["project", "--survey", str(survey), "--schema", str(schema), "--mode", mode,
                 "--missing-policy", "keep_pairwise", "--threshold", "auto", *extra,
                 "--out-prefix", str(prefix)])
    assert code == 0
    return {suffix: prefix.with_name(prefix.name + suffix).read_bytes()
            for suffix in PROJECT_SUFFIXES}


@pytest.mark.parametrize("mode", ["exact", "score", "binarized"])
def test_auto_projection_writes_the_same_files_from_held_pairs_as_from_a_scan(tmp_path, mode,
                                                                           monkeypatch):
    survey, schema = duplicate_heavy_inputs(tmp_path)
    scans = []
    fallback = project.project_participants
    monkeypatch.setattr(project, "project_participants",
                        lambda *a, **k: scans.append(a[1]) or fallback(*a, **k))
    fused = _auto_run(tmp_path, survey, schema, mode)
    assert scans == []
    monkeypatch.setattr(project, "SWEEP_HELD_BYTES", 64)  # the held pairs pass the budget
    assert _auto_run(tmp_path, survey, schema, mode) == fused
    assert len(scans) == 1

    def sweep_then_scan(weights, target, min_level, negative, node_attrs):  # two passes
        selection = select_threshold(weights, target, min_level=min_level)
        return selection, project_participants(weights, selection.chosen_threshold, negative,
                                               node_attrs=node_attrs)

    monkeypatch.setattr(cli, "_auto_projection", sweep_then_scan)
    assert _auto_run(tmp_path, survey, schema, mode) == fused


def test_auto_projection_with_a_negative_threshold_sweeps_then_scans(tmp_path, monkeypatch):
    survey, schema = duplicate_heavy_inputs(tmp_path)

    def not_called(*args):
        raise AssertionError("a negative threshold needs the scan")

    monkeypatch.setattr(project, "_held_pairs", not_called)
    written = _auto_run(tmp_path, survey, schema, "score", "--negative-threshold", "-2")
    matrix = load_survey(survey, SurveySchema.from_json(schema), missing_policy="keep_pairwise")
    weights = score_weights(renormalize(matrix))
    selection = select_threshold(weights)
    graph = project_participants(weights, selection.chosen_threshold, negative_threshold=-2,
                                 node_attrs=matrix.node_attributes())
    assert 0 < int(graph.positive_mask().sum()) < graph.n_edges  # both signs
    export_graphml(graph, tmp_path / "expected.graphml")
    assert written[".graphml"] == (tmp_path / "expected.graphml").read_bytes()
    assert written[".edges.csv"] == edgelist_bytes(graph, tmp_path / "expected.csv")
    assert written[".sweep.csv"].decode().splitlines()[1:] == [
        f"{format_fraction(t)},{format_fraction(f)},{float(f)!r}" for t, f in selection.sweep]


@pytest.mark.parametrize("mode, missing_rate, duplicates, extra", [
    ("score", 0.0, False, []),
    ("score", 0.03, False, []),
    ("binarized", 0.0, False, []),
    ("binarized", 0.03, False, []),
    ("score", 0.03, True, []),
    ("binarized", 0.03, True, []),
    ("score", 0.03, True, ["--negative-threshold", "-2"]),
], ids=["score-complete", "score-missing", "binarized-complete", "binarized-missing",
        "score-copies", "binarized-copies", "score-copies-negative"])
def test_auto_projection_prints_the_largest_component_its_sweep_chose(
        tmp_path, capsys, monkeypatch, mode, missing_rate, duplicates, extra):
    survey, schema = duplicate_heavy_inputs(tmp_path, missing_rate, duplicates)

    def not_called(*args, **kwargs):
        raise AssertionError("the sweep already knows the largest component")

    monkeypatch.setattr(cli, "connected_components", not_called)
    _auto_run(tmp_path, survey, schema, mode, *extra)
    printed = re.search(r"largest component: (\S+) of nodes", capsys.readouterr().out)
    graph = import_graphml(tmp_path / "run.graphml")
    assert Fraction(printed.group(1)) == analyze.connected_components(graph).giant_fraction
    assert bool(extra) == (not graph.positive_mask().all())  # the negative run has both signs


@pytest.mark.parametrize("negative, refusal", [("5", "outside representable range"),
                                               ("3", "strictly below threshold 3")])
def test_auto_threshold_refuses_a_negative_threshold_before_printing(tmp_path, capsys,
                                                                      monkeypatch, negative,
                                                                      refusal):
    # the one identical pair puts the auto threshold at 3, the top of [-3, 3]
    ks = [3, 3, 3]
    schema = write_schema(tmp_path / "schema.json", ks)
    survey = write_survey(tmp_path / "survey.csv", ks,
                          [[0, 0, 0], [0, 0, 0], [2, 2, 2], [1, 2, 0]])
    calls = []
    kernel = project.PairWeights.block_numerators
    monkeypatch.setattr(project.PairWeights, "block_numerators",
                        lambda self, *tile: calls.append(tile) or kernel(self, *tile))
    code = main(["project", "--survey", str(survey), "--schema", str(schema), "--mode", "score",
                 "--threshold", "auto", "--negative-threshold", negative,
                 "--out-prefix", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert refusal in json.loads(captured.err)["error"]["message"]
    assert (calls == []) == (negative == "5")  # out of range: refused before the sweep
    assert sorted(path.name for path in tmp_path.iterdir()) == ["schema.json", "survey.csv"]


def test_auto_threshold_on_rescaled_weights_exits_2(tmp_path, capsys):
    survey, schema = duplicate_heavy_inputs(tmp_path)
    code = main(["project", "--survey", str(survey), "--schema", str(schema), "--mode", "score",
                 "--missing-policy", "keep_pairwise", "--rescale", "--threshold", "auto",
                 "--out-prefix", str(tmp_path / "run")])
    block = json.loads(capsys.readouterr().err)
    assert code == 2
    assert block["error"]["type"] == "ValidationError" and "rescaled" in block["error"]["message"]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["schema.json", "survey.csv"]


def test_auto_threshold_with_rescale_on_complete_data_is_the_unrescaled_run(tmp_path, capsys):
    # drop_participant leaves no answer missing, so rescaling changes no weight
    survey, schema = duplicate_heavy_inputs(tmp_path)
    argv = ["project", "--survey", str(survey), "--schema", str(schema), "--mode", "score",
            "--threshold", "auto"]
    assert main([*argv, "--out-prefix", str(tmp_path / "plain")]) == 0
    assert main([*argv, "--rescale", "--out-prefix", str(tmp_path / "rescaled")]) == 0
    for suffix in (".graphml", ".edges.csv", ".sweep.csv"):
        plain = (tmp_path / f"plain{suffix}").read_bytes()
        assert (tmp_path / f"rescaled{suffix}").read_bytes() == plain, suffix


def test_project_exit_code_3_when_no_giant_component(tmp_path, capsys):
    # three blocks pairwise fully different: nothing above level 0 reaches 1/2
    ks = [4, 4]
    schema = write_schema(tmp_path / "schema.json", ks)
    rows = [[0, 0]] * 3 + [[1, 1]] * 3 + [[2, 2]] * 3
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "auto", "--min-level", "1",
                 "--out-prefix", str(tmp_path / "fresh" / "deeper" / "fail")])
    captured = capsys.readouterr()
    assert code == 3
    block = json.loads(captured.err)
    assert block["error"]["type"] == "NoGiantComponentError"
    assert not (tmp_path / "fresh").exists()  # no output was requested, no directory made


def test_attitudes_single_item_is_validation_error(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [5])
    survey = write_survey(tmp_path / "survey.csv", [5], [[0], [4]])
    code = main(["attitudes", "--survey", str(survey), "--schema", str(schema),
                 "--out-prefix", str(tmp_path / "att")])
    assert code == 2
    assert "at least 2 items" in capsys.readouterr().err


def test_attitudes_writes_dual_graph(tmp_path, capsys):
    ks = [5, 5]
    schema = write_schema(tmp_path / "schema.json", ks)
    rows = [[4, 4], [4, 4], [0, 0]]
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["attitudes", "--survey", str(survey), "--schema", str(schema),
                 "--out-prefix", str(tmp_path / "att")])
    assert code == 0
    edges = (tmp_path / "att.edges.csv").read_text().splitlines()[1:]
    assert len(edges) == 2  # one blue and one red edge for the single pair
    assert {line.split(",")[4] for line in edges} == {"positive", "negative"}


def test_all_positive_two_items_single_solid_edge(tmp_path):
    ks = [5, 5]
    schema = write_schema(tmp_path / "schema.json", ks)
    survey = write_survey(tmp_path / "survey.csv", ks, [[4, 4], [3, 4], [4, 3]])
    code = main(["attitudes", "--survey", str(survey), "--schema", str(schema),
                 "--out-prefix", str(tmp_path / "att")])
    assert code == 0
    edges = (tmp_path / "att.edges.csv").read_text().splitlines()[1:]
    assert edges == ["q00,q01,3,3.0,positive,solid"]


def test_communities_on_barbell_graphml(tmp_path, capsys):
    graph_path = tmp_path / "barbell.graphml"
    export_graphml(barbell_graph(), graph_path)
    code = main(["communities", "--graph", str(graph_path), "--target", "2",
                 "--out-prefix", str(tmp_path / "comm")])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: split" in out
    report = json.loads((tmp_path / "comm.communities.json").read_text())
    assert report["removed_count"] == 1
    assert report["removed_edges"] == [["a0", "b0"]]
    assert report["removed_fraction"] == "1/13"
    assert sorted(report["component_sizes"]) == [4, 4]


def test_project_output_composes_into_communities_and_render(tmp_path):
    survey, schema = two_block_inputs(tmp_path)
    prefix = tmp_path / "pipe"
    assert main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "4",
                 "--out-prefix", str(prefix)]) == 0
    graph_path = tmp_path / "pipe.graphml"
    assert main(["communities", "--graph", str(graph_path),
                 "--out-prefix", str(tmp_path / "pipe_comm")]) == 0
    assert main(["render", "--graph", str(graph_path), "--seed", "5",
                 "--iterations", "30", "--out-prefix", str(tmp_path / "pipe_fig")]) == 0
    assert (tmp_path / "pipe_fig.svg").exists()


def test_census_planted_profiles(tmp_path, capsys):
    ks = [2] * 8
    schema = write_schema(tmp_path / "schema.json", ks)
    rng = random.Random(19)
    profiles = set()
    while len(profiles) < 20:
        profiles.add(tuple(rng.randrange(2) for _ in range(8)))
    profiles = sorted(profiles)
    rows = [list(profiles[i % 20]) for i in range(100)]
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["census", "--survey", str(survey), "--schema", str(schema),
                 "--out-prefix", str(tmp_path / "census")])
    out = capsys.readouterr().out
    assert code == 0
    assert "profiles realized: 20/256" in out
    payload = json.loads((tmp_path / "census.census.json").read_text())
    assert payload["realized_profiles"] == 20
    assert payload["realized_fraction"] == "5/64"
    assert sum(payload["profiles"].values()) == 100


def test_census_space_counts_the_symbols_in_use(tmp_path, capsys):
    # neutral and missing answers both occur, so a profile symbol is one of four
    schema = write_schema(tmp_path / "schema.json", [3])
    survey = write_survey(tmp_path / "survey.csv", [3], [[0], [1], [2], ["NA"]])
    assert main(["census", "--survey", str(survey), "--schema", str(schema),
                 "--missing-policy", "keep_pairwise", "--out-prefix", str(tmp_path / "c")]) == 0
    assert "profiles realized: 4/4 (1.0000)" in capsys.readouterr().out
    payload = json.loads((tmp_path / "c.census.json").read_text())
    assert Fraction(payload["realized_fraction"]) <= 1


def test_render_bipartite_cli(tmp_path):
    ks = [5, 4]
    schema = write_schema(tmp_path / "schema.json", ks)
    survey = write_survey(tmp_path / "survey.csv", ks, [[0, 3], [2, 0]])
    code = main(["render", "--survey", str(survey), "--schema", str(schema),
                 "--bipartite", "--out-prefix", str(tmp_path / "bip")])
    assert code == 0
    text = (tmp_path / "bip.svg").read_text()
    assert "#1f77b4" in text and "#d62728" in text and "#ffcc00" in text


def test_render_requires_graph_or_bipartite(tmp_path, capsys):
    code = main(["render", "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    assert "render needs --graph" in capsys.readouterr().err


def test_bipartite_render_refuses_a_missing_survey_before_making_a_directory(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [4, 4])
    code = main(["render", "--bipartite", "--schema", str(schema),
                 "--out-prefix", str(tmp_path / "new" / "fig")])
    assert code == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["message"] == "--bipartite rendering needs --survey and --schema"
    assert not (tmp_path / "new").exists()


def test_render_color_map_colors_nodes(tmp_path):
    ks = [4] * 3
    schema = write_schema(tmp_path / "schema.json", ks, attrs=("party",))
    rows = [
        {"codes": [0, 0, 0], "attrs": ["D"]},
        {"codes": [0, 0, 0], "attrs": ["R"]},
        {"codes": [3, 3, 3], "attrs": ["I"]},
    ]
    survey = write_survey(tmp_path / "survey.csv", ks, rows, attrs=("party",))
    assert main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "3",
                 "--out-prefix", str(tmp_path / "g")]) == 0
    code = main(["render", "--graph", str(tmp_path / "g.graphml"), "--seed", "1",
                 "--iterations", "20", "--color-attr", "party",
                 "--color-map", "D=#1f77b4,R=#d62728", "--default-color", "#ffcc00",
                 "--out-prefix", str(tmp_path / "fig")])
    assert code == 0
    text = (tmp_path / "fig.svg").read_text()
    assert 'fill="#1f77b4"' in text
    assert 'fill="#d62728"' in text
    assert 'fill="#ffcc00"' in text


@pytest.mark.parametrize("color_map, default_color, fills", [
    ('D=a"b,R=#fff', "#ffcc00", ['a"b', "#fff", "#ffcc00"]),
    ("D=#1f77b4", 'x"y', ["#1f77b4", 'x"y', 'x"y']),
    ("D=<&>", "x\"y'z", ["<&>", "x\"y'z", "x\"y'z"]),
])
def test_render_quotes_node_fills(tmp_path, color_map, default_color, fills):
    # a fill holding a quote or markup is escaped, so the SVG stays well-formed
    ks = [4] * 3
    schema = write_schema(tmp_path / "schema.json", ks, attrs=("party",))
    rows = [{"codes": [0, 0, 0], "attrs": [party]} for party in ("D", "R", "I")]
    survey = write_survey(tmp_path / "survey.csv", ks, rows, attrs=("party",))
    assert main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "3",
                 "--out-prefix", str(tmp_path / "g")]) == 0
    assert main(["render", "--graph", str(tmp_path / "g.graphml"), "--seed", "1",
                 "--iterations", "5", "--color-attr", "party", "--color-map", color_map,
                 "--default-color", default_color, "--out-prefix", str(tmp_path / "fig")]) == 0
    read = []
    parser = expat.ParserCreate()
    parser.StartElementHandler = lambda tag, attrs: tag == "circle" and read.append(attrs["fill"])
    parser.Parse((tmp_path / "fig.svg").read_bytes(), True)
    assert read == fills


def test_carriage_returns_in_attributes_reach_the_color_map(tmp_path):
    # csv keeps a \r inside a quoted field; the GraphML must carry it to render
    ks = [4] * 3
    schema = write_schema(tmp_path / "schema.json", ks, attrs=("party",))
    survey = tmp_path / "survey.csv"
    survey.write_bytes(b'pid,party,q00,q01,q02\np000,"D\rR",0,0,0\np001,"D\r\nR",0,0,0\n'
                       b'p002,I,0,0,0\n')
    assert main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "3", "--out-prefix", str(tmp_path / "g")]) == 0
    back = import_graphml(tmp_path / "g.graphml")
    assert [back.node_attrs[u]["party"] for u in back.nodes] == ["D\rR", "D\r\nR", "I"]
    assert main(["render", "--graph", str(tmp_path / "g.graphml"), "--iterations", "5",
                 "--color-attr", "party", "--color-map", "D\rR=#000001,D\r\nR=#000002",
                 "--default-color", "#000003", "--out-prefix", str(tmp_path / "fig")]) == 0
    fills = re.findall(r'<circle [^>]* fill="([^"]*)"', (tmp_path / "fig.svg").read_text())
    assert fills == ["#000001", "#000002", "#000003"]


@pytest.mark.parametrize("pid", ["a\x01x", "a\x1fx", "a\ufffex"])
def test_project_refuses_an_id_that_xml_cannot_hold(tmp_path, capsys, pid):
    ks = [2, 2]
    schema = write_schema(tmp_path / "schema.json", ks)
    survey = tmp_path / "survey.csv"
    survey.write_text(f"pid,q00,q01\n{pid},1,1\nb,1,1\nc,0,0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["project", "--survey", str(survey), "--schema", str(schema), "--mode", "exact",
                 "--threshold", "auto", "--out-prefix", str(out / "run")]) == 2
    block = json.loads(capsys.readouterr().err)
    assert block["error"]["type"] == "ValidationError" and block["error"]["exit_code"] == 2
    assert repr(pid) in block["error"]["message"] and "XML 1.0" in block["error"]["message"]
    assert not out.exists()  # nor the directory the command made for its outputs


def test_bad_color_map_is_validation_error(tmp_path, capsys):
    graph_path = tmp_path / "b.graphml"
    export_graphml(barbell_graph(), graph_path)
    code = main(["render", "--graph", str(graph_path), "--color-map", "nonsense",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    assert "VALUE=COLOR" in capsys.readouterr().err


def test_an_empty_color_in_the_color_map_is_refused(tmp_path, capsys):
    # an empty fill is not a paint; an empty attribute value may still be mapped
    ks = [4] * 3
    schema = write_schema(tmp_path / "schema.json", ks, attrs=("party",))
    rows = [{"codes": [0, 0, 0], "attrs": [party]} for party in ("D", "", "I")]
    survey = write_survey(tmp_path / "survey.csv", ks, rows, attrs=("party",))
    assert main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "3",
                 "--out-prefix", str(tmp_path / "g")]) == 0
    render = ["render", "--graph", str(tmp_path / "g.graphml"), "--iterations", "5",
              "--color-attr", "party", "--default-color", "#000003",
              "--out-prefix", str(tmp_path / "fig")]
    capsys.readouterr()
    for color_map in ("D=", "D=#000002,I= "):
        assert main([*render, "--color-map", color_map]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError" and "its color is empty" in error["message"]
        assert not list(tmp_path.glob("fig*"))
    assert main([*render, "--color-map", "=#000001,D=#000002"]) == 0
    fills = re.findall(r'<circle [^>]* fill="([^"]*)"', (tmp_path / "fig.svg").read_text())
    assert fills == ["#000002", "#000001", "#000003"]


def test_a_failed_render_removes_the_directories_it_made(tmp_path, capsys):
    # the unmapped nodes are found after the SVG's path is requested
    ks = [4] * 3
    schema = write_schema(tmp_path / "schema.json", ks, attrs=("party",))
    rows = [{"codes": [0, 0, 0], "attrs": [party]} for party in ("D", "R", "I")]
    survey = write_survey(tmp_path / "survey.csv", ks, rows, attrs=("party",))
    assert main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "3",
                 "--out-prefix", str(tmp_path / "g")]) == 0
    (tmp_path / "kept").mkdir()  # a directory that was there before the run stays
    for prefix in (tmp_path / "new" / "sub" / "fig", tmp_path / "kept" / "sub" / "fig"):
        capsys.readouterr()
        assert main(["render", "--graph", str(tmp_path / "g.graphml"), "--iterations", "5",
                     "--color-attr", "party", "--color-map", "D=#000000", "--default-color", "",
                     "--out-prefix", str(prefix)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"
    assert not (tmp_path / "new").exists()
    assert list((tmp_path / "kept").iterdir()) == []


def test_pipeline_reruns_are_byte_identical(tmp_path):
    survey, schema = two_block_inputs(tmp_path, n_per_block=8, m=6)
    for name in ("r1", "r2"):
        assert main(["project", "--survey", str(survey), "--schema", str(schema),
                     "--mode", "score", "--threshold", "auto",
                     "--out-prefix", str(tmp_path / name / "run")]) == 0
    for suffix in ("run.graphml", "run.edges.csv", "run.sweep.csv", "run.manifest.json"):
        a = (tmp_path / "r1" / suffix).read_bytes()
        b = (tmp_path / "r2" / suffix).read_bytes()
        assert a == b, suffix


def test_communities_prints_removal_table(tmp_path, capsys):
    graph_path = tmp_path / "barbell.graphml"
    export_graphml(barbell_graph(), graph_path)
    main(["communities", "--graph", str(graph_path), "--out-prefix", str(tmp_path / "c")])
    out = capsys.readouterr().out
    assert "step  removed edge" in out
    assert "a0 -- b0" in out


def test_communities_names_the_report_that_holds_the_removals_it_does_not_print(
        tmp_path, capsys):
    # a path of 13 nodes splits into 13 components after 12 removals, 10 shown
    nodes = [f"n{i:02d}" for i in range(13)]
    graph_path = tmp_path / "path.graphml"
    export_graphml(graph_from_edges(nodes, list(zip(nodes, nodes[1:]))), graph_path)
    prefix = tmp_path / "out" / "c"
    assert main(["communities", "--graph", str(graph_path), "--target", "13",
                 "--out-prefix", str(prefix)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == f"      ... 2 more removals in {prefix}.communities.json"
    assert (tmp_path / "out" / "c.communities.json").exists()


def test_failure_error_block_reports_sweep(tmp_path, capsys):
    ks = [4, 4]
    schema = write_schema(tmp_path / "schema.json", ks)
    rows = [[0, 0]] * 2 + [[1, 1]] * 2 + [[2, 2]] * 2
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "exact", "--threshold", "auto", "--min-level", "1",
                 "--out-prefix", str(tmp_path / "f")])
    assert code == 3
    block = json.loads(capsys.readouterr().err)
    assert block["error"]["sweep"] == [{"threshold": "2", "giant_fraction": "1/3"}]


def test_inspect_dump_normalized(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [5, 4])
    survey = write_survey(tmp_path / "survey.csv", [5, 4], [[0, 3], [2, 1]])
    out_csv = tmp_path / "new" / "norm.csv"  # its directory is made
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema),
                 "--dump-normalized", str(out_csv)])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[1] == "p000,-1,1"
    assert lines[2] == "p001,0,-1/3"


def test_inspect_dump_keeps_a_carriage_return_in_a_quoted_id(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [5, 4])
    survey = tmp_path / "survey.csv"
    survey.write_bytes(b'pid,q00,q01\n"a\rb",0,3\n"c\r\nd",2,NA\n')
    out_csv = tmp_path / "norm.csv"
    assert main(["inspect", "--survey", str(survey), "--schema", str(schema),
                 "--missing-policy", "keep_pairwise", "--dump-normalized", str(out_csv)]) == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["pid", "q00", "q01"], ["a\rb", "-1", "1"], ["c\r\nd", "0", "NA"]]


# each output path names one of the command's inputs; the survey and the
# schema files are written under those names, and the prefix is "p"
OVERWRITES = {
    "dump-normalized-is-the-survey": (
        ["inspect", "--dump-normalized", "s.csv"], "s.csv", "schema.json"),
    "edge-list-is-the-survey": (
        ["project", "--mode", "exact", "--threshold", "1", "--out-prefix", "p"],
        "p.edges.csv", "schema.json"),
    "manifest-is-the-schema": (
        ["project", "--mode", "exact", "--threshold", "1", "--out-prefix", "p"],
        "s.csv", "p.manifest.json"),
}


@pytest.mark.parametrize("case", sorted(OVERWRITES))
def test_an_output_that_would_replace_an_input_is_refused(tmp_path, capsys, monkeypatch, case):
    argv, survey_name, schema_name = OVERWRITES[case]
    monkeypatch.chdir(tmp_path)
    write_schema(tmp_path / schema_name, [4, 4])
    write_survey(tmp_path / survey_name, [4, 4], [[0, 1], [1, 1], [3, 2]])
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert main([*argv, "--survey", survey_name, "--schema", schema_name]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "ValidationError" and error["exit_code"] == 2
    assert "would be replaced" in error["message"]
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_a_fixed_threshold_run_does_not_refuse_the_sweep_file_it_never_writes(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_schema(tmp_path / "schema.json", [4, 4])
    write_survey(tmp_path / "x.sweep.csv", [4, 4], [[0, 1], [1, 1], [3, 2]])
    survey = (tmp_path / "x.sweep.csv").read_bytes()
    assert main(["project", "--mode", "exact", "--threshold", "1", "--survey", "x.sweep.csv",
                 "--schema", "schema.json", "--out-prefix", "x"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "wrote x.graphml, x.edges.csv, x.manifest.json")
    assert (tmp_path / "x.sweep.csv").read_bytes() == survey


def test_a_failed_normalized_dump_leaves_no_file_behind(tmp_path, capsys, monkeypatch):
    schema = write_schema(tmp_path / "schema.json", [5, 4])
    survey = write_survey(tmp_path / "survey.csv", [5, 4], [[0, 3], [2, 1]])
    out = tmp_path / "out"
    out.mkdir()
    argv = ["inspect", "--survey", str(survey), "--schema", str(schema),
            "--dump-normalized", str(out / "norm.csv")]

    def full_disk(normalized, path):  # a partial first line, then the disk is full
        Path(path).write_text("pid,q00")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(cli, "write_normalized_csv", full_disk)
    assert main(argv) == 2
    block = json.loads(capsys.readouterr().err)
    assert block["error"]["type"] == "ValidationError" and block["error"]["exit_code"] == 2
    assert os.strerror(errno.ENOSPC) in block["error"]["message"]
    assert f"cannot access {out / 'norm.csv'}:" in block["error"]["message"]  # not its temporary
    assert ".tmp" not in block["error"]["message"]
    assert list(out.iterdir()) == []  # no partial dump, no temporary file

    (out / "norm.csv").write_bytes(b"an earlier dump\n")
    assert main(argv) == 2
    assert [path.name for path in out.iterdir()] == ["norm.csv"]
    assert (out / "norm.csv").read_bytes() == b"an earlier dump\n"


def test_thread_env_var_does_not_change_output(tmp_path):
    # the pair kernel runs on BLAS; its thread count must not reach the outputs
    ks = [4] * 10 + [5] * 3
    schema = write_schema(tmp_path / "schema.json", ks)
    rng = random.Random(11)
    rows = [[rng.randrange(k) if rng.random() > 0.03 else "NA" for k in ks] for _ in range(700)]
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    src = Path(__file__).resolve().parents[1] / "src"
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        for threshold, run in (("17/2", "run"), ("auto", "auto")):
            done = subprocess.run(
                [sys.executable, "-m", "opinionnet.cli", "project", "--survey", str(survey),
                 "--schema", str(schema), "--missing-policy", "keep_pairwise", "--mode", "score",
                 "--threshold", threshold, "--out-prefix", str(tmp_path / f"t{threads}" / run)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
    for suffix in ("run.graphml", "run.edges.csv", "run.manifest.json", "auto.sweep.csv",
                   "auto.graphml", "auto.manifest.json"):
        assert (tmp_path / "t2" / suffix).read_bytes() == (tmp_path / "t1" / suffix).read_bytes()


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_2_with_one_error_block(tmp_path, unbuffered):
    survey, schema = two_block_inputs(tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:  # each print then fails at once, not at the final flush
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will read what the run prints
    try:
        done = subprocess.run(
            [sys.executable, "-m", "opinionnet.cli", "project", "--survey", str(survey),
             "--schema", str(schema), "--mode", "exact", "--threshold", "4",
             "--out-prefix", str(tmp_path / "run")],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == 2
    [line] = done.stderr.splitlines()  # the JSON block and no traceback after it
    block = json.loads(line)
    assert block["error"]["exit_code"] == 2
    assert block["error"]["message"] == "standard output closed before the run finished"


def test_cli_import_leaves_the_network_stack_unloaded():
    # xml.sax.saxutils imports urllib.request, and with it http.client and ssl
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys, opinionnet.cli; "
             "print([m for m in ('urllib.request', 'http.client', 'ssl') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_survey_with_byte_order_mark_loads(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [4, 4])
    survey = tmp_path / "survey.csv"
    survey.write_bytes(b"\xef\xbb\xbfpid,q00,q01\na,1,2\nb,0,3\n")
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema), "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["n_participants"] == 2


def test_non_utf8_survey_is_validation_error(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [4, 4])
    survey = tmp_path / "survey.csv"
    survey.write_bytes("pid,q00,q01\nRen\u00e9,1,2\n".encode("latin-1"))
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema)])
    assert code == 2
    block = json.loads(capsys.readouterr().err)
    assert block["error"]["type"] == "ValidationError"
    assert "not UTF-8" in block["error"]["message"]


def test_render_rejects_negative_iterations(tmp_path, capsys):
    graph_path = tmp_path / "b.graphml"
    export_graphml(barbell_graph(), graph_path)
    code = main(["render", "--graph", str(graph_path), "--iterations", "-5",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    block = json.loads(capsys.readouterr().err)
    assert "iterations" in block["error"]["message"]
    assert not (tmp_path / "x.svg").exists()



def test_render_rejects_negative_seed(tmp_path, capsys):
    graph_path = tmp_path / "b.graphml"
    export_graphml(barbell_graph(), graph_path)
    code = main(["render", "--graph", str(graph_path), "--seed", "-1",
                 "--out-prefix", str(tmp_path / "x")])
    assert code == 2
    block = json.loads(capsys.readouterr().err)
    assert "seed" in block["error"]["message"]
    assert not (tmp_path / "x.svg").exists()


def test_attitudes_signed_mode_via_cli(tmp_path):
    # q00 and q01 have 4 co-positive and 3 co-negative participants: dual mode
    # writes two edges for them, signed mode one edge of weight 1
    ks = [5, 5, 5]
    schema = write_schema(tmp_path / "schema.json", ks)
    rows = [[4, 4, 0], [4, 3, 0], [0, 0, 4], [0, 1, 3], [3, 4, 2], [1, 0, 4], [4, 4, 4]]
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["attitudes", "--survey", str(survey), "--schema", str(schema),
                 "--attitude-mode", "signed", "--out-prefix", str(tmp_path / "att")])
    assert code == 0
    manifest = json.loads((tmp_path / "att.manifest.json").read_text())
    assert manifest["parameters"]["attitude_mode"] == "signed"
    written = (tmp_path / "att.edges.csv").read_bytes()
    attitudes = project_attitudes(renormalize(load_survey(survey, SurveySchema.from_json(schema))))
    signed = edgelist_bytes(style_edges(attitudes, mode="signed"), tmp_path / "signed.csv")
    dual = edgelist_bytes(style_edges(attitudes, mode="dual"), tmp_path / "dual.csv")
    assert written == signed != dual
    assert b"q00,q01,1,1.0,positive,dotted" in written


def test_project_exclude_neutral_pairs_via_cli(tmp_path):
    # 3-point items: code 1 is the neutral midpoint, and rows share it often
    ks = [3] * 4
    schema = write_schema(tmp_path / "schema.json", ks)
    rows = [[1, 1, 1, 1], [1, 1, 1, 0], [1, 1, 2, 2], [0, 1, 1, 2], [2, 2, 1, 1], [0, 0, 1, 2],
            [2, 2, 2, 1]]
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--mode", "binarized", "--threshold", "2", "--exclude-neutral-pairs",
                 "--out-prefix", str(tmp_path / "bin")])
    assert code == 0
    manifest = json.loads((tmp_path / "bin.manifest.json").read_text())
    assert manifest["parameters"]["exclude_neutral_pairs"] is True
    assert manifest["parameters"]["mode"] == "binarized"
    written = (tmp_path / "bin.edges.csv").read_bytes()
    signs = binarize(renormalize(load_survey(survey, SurveySchema.from_json(schema))))
    excluded, counted = (
        edgelist_bytes(project_participants(binarized_agreement_weights(
            signs, count_neutral_pairs=count), 2), tmp_path / f"count-{count}.csv")
        for count in (False, True))
    assert written == excluded != counted
    assert len(written.splitlines()) > 1  # some pairs still agree off the midpoint


def test_keep_pairwise_policy_via_cli(tmp_path, capsys):
    schema = write_schema(tmp_path / "schema.json", [4, 4])
    survey = tmp_path / "survey.csv"
    survey.write_text("pid,q00,q01\na,1,NA\nb,1,2\nc,1,2\n")
    code = main(["project", "--survey", str(survey), "--schema", str(schema),
                 "--missing-policy", "keep_pairwise", "--mode", "exact",
                 "--threshold", "1", "--out-prefix", str(tmp_path / "kp")])
    assert code == 0
    edges = (tmp_path / "kp.edges.csv").read_text().splitlines()[1:]
    pairs = {tuple(line.split(",")[:2]) for line in edges}
    assert ("a", "b") in pairs and ("b", "c") in pairs


def test_auto_threshold_with_a_huge_scale_step_lcm_writes_its_sweep(tmp_path, capsys):
    # D is about 1.3e16, more weight levels than level flags could track; the
    # sweep takes its levels from the pairs and writes every one of them
    ks = [3, 4, 6, 8, 12, 14, 18, 20, 24, 30, 32, 38, 42, 44]
    schema = write_schema(tmp_path / "schema.json", ks)
    rng = random.Random(107)
    rows = [[rng.randrange(k) for k in ks] for _ in range(24)]
    survey = write_survey(tmp_path / "survey.csv", ks, rows)
    code = main(["project", "--survey", str(survey), "--schema", str(schema), "--mode", "score",
                 "--threshold", "auto", "--out-prefix", str(tmp_path / "run")])
    assert code == 0, capsys.readouterr().err
    level, frac, sweep = sweep_oracle(all_pair_weights(rows, ks, "score"), 24, Fraction(1, 2))
    lines = (tmp_path / "run.sweep.csv").read_text().splitlines()
    assert lines[1:] == [f"{format_fraction(t)},{format_fraction(f)},{float(f)!r}" for t, f in sweep]
    assert f"auto threshold: {format_fraction(level)} " in capsys.readouterr().out


MALFORMED_GRAPHML = {
    "non_numeric_weight": (">47/6<", ">x47/6<"),
    "missing_weight": ('<data key="e_weight">47/6</data>', ""),
    "sign_outside_positive_negative": (">positive<", ">neutral<"),
    "style_outside_solid_dashed_dotted": (">solid<", ">wavy<"),
    "edge_without_source": (' source="a"', ""),
    "edge_to_undeclared_node": (' target="b"', ' target="zz"'),
    "non_integer_item_count": (">13<", ">thirteen<"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_GRAPHML))
def test_malformed_graphml_exits_2(tmp_path, capsys, case):
    path = tmp_path / "g.graphml"
    export_graphml(ProjectionGraph("participant", ["a", "b"], [Edge("a", "b", Fraction(47, 6))],
                                   extra={"n_items": 13}), path)
    old, new = MALFORMED_GRAPHML[case]
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    code = main(["communities", "--graph", str(path), "--out-prefix", str(tmp_path / "c")])
    block = json.loads(capsys.readouterr().err)
    assert code == 2
    assert block["error"]["type"] == "ValidationError"
    assert block["error"]["exit_code"] == 2


@pytest.mark.parametrize("command", ["project", "attitudes", "census", "communities", "render"])
def test_unwritable_out_prefix_exits_2(tmp_path, capsys, command):
    survey, schema = two_block_inputs(tmp_path)
    graph = tmp_path / "barbell.graphml"
    export_graphml(barbell_graph(), graph)
    inputs = {
        "project": ["--survey", str(survey), "--schema", str(schema), "--mode", "exact",
                    "--threshold", "4"],
        "attitudes": ["--survey", str(survey), "--schema", str(schema)],
        "census": ["--survey", str(survey), "--schema", str(schema)],
        "communities": ["--graph", str(graph)],
        "render": ["--graph", str(graph), "--iterations", "5"],
    }
    (tmp_path / "afile").write_text("a regular file\n")
    code = main([command, *inputs[command], "--out-prefix", str(tmp_path / "afile" / "x")])
    block = json.loads(capsys.readouterr().err)
    assert code == 2
    assert block["error"]["type"] == "ValidationError"
    assert "afile" in block["error"]["message"]


def test_a_failed_write_leaves_no_output_under_the_prefix(tmp_path, capsys, monkeypatch):
    survey, schema = two_block_inputs(tmp_path)
    out = tmp_path / "out"
    argv = ["project", "--survey", str(survey), "--schema", str(schema), "--mode", "score",
            "--threshold", "auto", "--out-prefix", str(out / "run")]
    export = cli.export_edgelist

    def full_disk(graph, path):  # the sweep and GraphML files are written by now
        Path(path).write_text("u,v,weight\n")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    monkeypatch.setattr(cli, "export_edgelist", full_disk)
    assert main(argv) == 2
    block = json.loads(capsys.readouterr().err)
    assert block["error"]["type"] == "ValidationError" and block["error"]["exit_code"] == 2
    assert os.strerror(errno.ENOSPC) in block["error"]["message"]
    assert f"cannot access {out / 'run.edges.csv'}:" in block["error"]["message"]
    assert ".tmp" not in block["error"]["message"]
    assert not out.exists()  # no manifest, no partial output, no temporary file, no directory

    # a failed rerun leaves the files of the run before it as they were
    monkeypatch.setattr(cli, "export_edgelist", export)
    assert main(argv) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(before) == ["run.edges.csv", "run.graphml", "run.manifest.json",
                              "run.sweep.csv"]
    monkeypatch.setattr(cli, "export_edgelist", full_disk)
    assert main(argv) == 2
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_schema_that_is_not_utf8_exits_2(tmp_path, capsys):
    survey, schema = two_block_inputs(tmp_path)
    schema.write_bytes(b"\xff" + schema.read_bytes())
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema)])
    block = json.loads(capsys.readouterr().err)
    assert code == 2
    assert "not valid JSON" in block["error"]["message"]


@pytest.mark.parametrize("scale", ["NaN", "Infinity", "32769"])
def test_schema_scale_that_no_code_can_hold_exits_2(tmp_path, capsys, scale):
    survey, schema = two_block_inputs(tmp_path)
    schema.write_text(schema.read_text().replace('"scale": 4', f'"scale": {scale}', 1))
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema)])
    block = json.loads(capsys.readouterr().err)
    assert code == 2
    assert block["error"]["type"] == "ValidationError"


def test_min_level_with_a_huge_denominator_is_exact(tmp_path, capsys):
    survey, schema = two_block_inputs(tmp_path)
    sweeps = []
    for level in ("1", f"1/{10**400}", f"{5 * 10**400 + 1}/{10**400}"):
        code = main(["project", "--survey", str(survey), "--schema", str(schema),
                     "--mode", "exact", "--threshold", "auto", "--target-fraction", "1",
                     "--min-level", level, "--out-prefix", str(tmp_path / "run")])
        err = capsys.readouterr().err
        sweeps.append(json.loads(err)["error"]["sweep"] if code else
                      (tmp_path / "run.sweep.csv").read_text())
    # levels are integers 0..5: a floor of 10**-400 stops at level 1, one above 5 allows none
    assert sweeps[0] == sweeps[1]
    assert sweeps[2] == []


def test_communities_out_of_budget_prints_error_block(tmp_path, capsys):
    graph_path = tmp_path / "barbell.graphml"
    export_graphml(barbell_graph(), graph_path)
    # one removal (the bridge) gives 2 components, not the 3 asked for
    code = main(["communities", "--graph", str(graph_path), "--target", "3",
                 "--max-removed-fraction", "1/13", "--out-prefix", str(tmp_path / "comm")])
    block = json.loads(capsys.readouterr().err)
    assert code == 3
    assert block["error"]["type"] == "AlgorithmError"
    assert "budget" in block["error"]["message"]
    report = json.loads((tmp_path / "comm.communities.json").read_text())
    assert report["status"] == "budget_exhausted"
    assert len(report["removed_edges"]) == 1


def test_communities_target_above_node_count_exits_2(tmp_path, capsys):
    graph_path = tmp_path / "barbell.graphml"
    export_graphml(barbell_graph(), graph_path)
    code = main(["communities", "--graph", str(graph_path), "--target", "9",
                 "--out-prefix", str(tmp_path / "comm")])
    block = json.loads(capsys.readouterr().err)
    assert code == 2
    assert block["error"]["type"] == "ValidationError"
    assert "9 exceeds the graph's 8 nodes" in block["error"]["message"]
    assert not (tmp_path / "comm.communities.json").exists()


def test_every_manifest_lists_exactly_the_files_its_run_wrote(tmp_path, capsys):
    ks = [4] * 5
    schema = write_schema(tmp_path / "schema.json", ks, attrs=["party"])
    rows = [{"codes": [0] * 5, "attrs": ["D"]}] * 4 + [{"codes": [3] * 5, "attrs": ["R"]}] * 4
    rows += [{"codes": [0, 0, 3, 3, 1], "attrs": ["D"]}]
    survey = write_survey(tmp_path / "survey.csv", ks, rows, attrs=["party"])
    inputs = ["--survey", str(survey), "--schema", str(schema)]
    out = tmp_path / "out"
    graph = out / "fixed.graphml"
    runs = {
        "fixed": ["project", *inputs, "--mode", "exact", "--threshold", "3"],
        "auto": ["project", *inputs, "--mode", "exact", "--threshold", "auto"],
        "att": ["attitudes", *inputs],
        "comm": ["communities", "--graph", str(graph)],
        "census": ["census", *inputs],
        "fig": ["render", "--graph", str(graph), "--iterations", "20", "--color-attr", "party"],
        "bip": ["render", *inputs, "--bipartite"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out-prefix", str(out / name)]) == 0, name
        wrote = capsys.readouterr().out.splitlines()[-1]
        manifest_path = out / f"{name}.manifest.json"
        created = sorted(out.glob(f"{name}.*"))
        assert manifest_path in created
        outputs = json.loads(manifest_path.read_text())["outputs"].values()
        listed = {entry["file"]: entry["sha256"] for entry in outputs}
        assert sorted(listed) == [p.name for p in created if p != manifest_path], name
        for path in created:
            if path != manifest_path:
                assert hashlib.sha256(path.read_bytes()).hexdigest() == listed[path.name], path
        assert wrote.startswith("wrote "), wrote
        named = wrote.removeprefix("wrote ").split(", ")
        assert named[-1] == str(manifest_path) and sorted(named) == [str(p) for p in created]
    assert (out / "auto.sweep.csv").exists()


@pytest.mark.parametrize("argv,named", [
    (["render", "--seed", "abc", "--out-prefix", "OUT"], "--seed"),
    (["project", "--survey", "SURVEY", "--schema", "SCHEMA", "--mode", "exact",
      "--out-prefix", "OUT"], "--threshold"),
    (["inspect", "--survey", "SURVEY", "--schema", "SCHEMA", "--out-prefix", "OUT"],
     "--out-prefix"),
    ([], "command"),
], ids=["bad-int", "missing-option", "unknown-option", "no-subcommand"])
def test_usage_error_prints_the_json_error_block(tmp_path, capsys, argv, named):
    survey, schema = two_block_inputs(tmp_path)
    paths = {"OUT": str(tmp_path / "out" / "x"), "SURVEY": str(survey), "SCHEMA": str(schema)}
    before = sorted(tmp_path.rglob("*"))
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.count("\n") == 1
    block = json.loads(captured.err)["error"]
    assert block["type"] == "ValidationError" and block["exit_code"] == 2
    assert named in block["message"], block["message"]
    assert sorted(tmp_path.rglob("*")) == before

@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["render", "--help"]])
def test_help_and_version_still_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage:" if "--help" in argv else "opinionnet ")


@pytest.mark.parametrize("edit,named", [
    (('"scale": 4', '"scale": 2.5'), ["'q00'", "2.5"]),
    (('"scale": 4', '"scale": "3"'), ["'q00'", "'3'"]),
    (('"scale": 4', '"scale": true'), ["'q00'", "True"]),
    (('"attribute_columns": []', '"attribute_columns": "ab"'), ["attribute_columns", "'ab'"]),
    (('"id_column": "pid"', '"id_column": ""'), ["must name an id column"]),
    (('"id": "q00"', '"id": ""'), ["item ids must be non-empty"]),
    # answers coded 1 would silently read as missing
    (('"missing_token": "NA"', '"missing_token": "1"'), ["'1'", "valid code", "'q00'"]),
    # cells are trimmed before the comparison, so this token never matches
    (('"missing_token": "NA"', '"missing_token": " NA"'), ["' NA'", "whitespace"]),
    (('"missing_token": "NA"', '"missing_token": null'), ["None", "not a string"]),
], ids=["float", "string", "bool", "string-columns", "empty-id-column", "empty-item-id",
        "token-is-a-code", "token-never-matches", "token-not-a-string"])
def test_schema_values_are_validated_not_coerced(tmp_path, capsys, edit, named):
    survey, schema = two_block_inputs(tmp_path)
    text = schema.read_text()
    assert edit[0] in text
    schema.write_text(text.replace(*edit, 1))
    code = main(["inspect", "--survey", str(survey), "--schema", str(schema)])
    block = json.loads(capsys.readouterr().err)["error"]
    assert code == 2
    assert block["type"] == "ValidationError"
    assert all(part in block["message"] for part in named), block["message"]
