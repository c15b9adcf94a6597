import hashlib
import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from xml.etree import ElementTree
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionnet import (
    ColorScheme,
    Edge,
    ProjectionGraph,
    SurveyItem,
    SurveySchema,
    ValidationError,
    LayoutResult,
    export_edgelist,
    export_graphml,
    fr_layout,
    import_graphml,
    renormalize,
    render_bipartite_svg,
    render_svg,
)
from opinionnet import render
from opinionnet.render import escape, quoteattr

from helpers import edge_list, graph_from_edges, make_matrix
from oracles import expat_import_graphml, fr_positions_add_at, per_edge_export_graphml


def F(*args):
    return Fraction(*args)


def two_cliques_graph():
    left = [f"a{i}" for i in range(10)]
    right = [f"b{i}" for i in range(10)]
    pairs = []
    for side in (left, right):
        pairs.extend(itertools.combinations(side, 2))
    pairs.append((left[0], right[0]))
    return graph_from_edges(left + right, pairs), left, right


def sample_graph():
    return ProjectionGraph(
        kind="participant",
        nodes=["p1", "p2", "p3"],
        edges=[
            Edge("p1", "p2", F(23, 2), "positive", "solid"),
            Edge("p1", "p3", F(-7, 3), "negative", "dashed"),
        ],
        node_attrs={"p1": {"party": "D"}, "p2": {"party": "R"}, "p3": {"party": "I"}},
        threshold_used=F(23, 2),
        negative_threshold_used=F(-2),
        extra={"mode": "score", "n_items": 13},
    )


# ---------------------------------------------------------------------------
# layout
# ---------------------------------------------------------------------------


def test_single_node_at_origin():
    graph = graph_from_edges(["only"], [])
    layout = fr_layout(graph, seed=1)
    assert layout.positions == {"only": (0.0, 0.0)}


def test_same_seed_reproduces_positions_exactly():
    graph, _, _ = two_cliques_graph()
    a = fr_layout(graph, seed=42, iterations=80)
    b = fr_layout(graph, seed=42, iterations=80)
    assert a.positions == b.positions


def dual_sign_cliques_graph():
    graph, left, right = two_cliques_graph()
    edges = [Edge(*e) for e in edge_list(graph)]
    edges += [Edge(a, b, F(-1), "negative") for a, b in zip(left[1:6], right[2:7])]
    edges += [Edge(left[2], left[9], F(-2), "negative")]  # beside a positive edge
    return ProjectionGraph(kind="participant", nodes=graph.nodes, edges=edges)


def random_dual_sign_graph():
    """Seeded random 300-node graph with about 4n pairs; a tenth carry both signs."""
    n = 300
    rng = np.random.default_rng(2026)
    nodes = [f"r{i:03d}" for i in range(n)]
    pairs = {tuple(sorted(p)) for p in rng.integers(0, n, (4 * n, 2)).tolist() if p[0] != p[1]}
    edges = []
    for u, v in sorted(pairs):
        draw = rng.random()
        if draw < 0.1 or draw >= 0.55:
            edges.append(Edge(nodes[u], nodes[v], F(1)))
        if draw < 0.55:
            edges.append(Edge(nodes[u], nodes[v], F(-1), "negative"))
    return ProjectionGraph(kind="participant", nodes=nodes, edges=edges)


LAYOUT_GRAPHS = {
    "dual-sign-cliques": (dual_sign_cliques_graph, 60),
    "two-nodes": (lambda: ProjectionGraph(
        kind="participant", nodes=["a", "b"], edges=[Edge("a", "b", F(-1), "negative")]), 60),
    "isolated-nodes": (lambda: graph_from_edges(
        [f"i{i}" for i in range(12)], [("i0", "i1"), ("i1", "i2"), ("i5", "i9")]), 60),
    "random-300": (random_dual_sign_graph, 4),
}


@pytest.mark.parametrize("name", LAYOUT_GRAPHS)
def test_layout_matches_add_at_scatter_bitwise(name):
    build, iterations = LAYOUT_GRAPHS[name]
    graph = build()
    layout = fr_layout(graph, seed=13, iterations=iterations)
    expected = fr_positions_add_at(graph, 13, iterations)
    assert [layout.positions[u] for u in graph.nodes] == [tuple(p) for p in expected.tolist()]


def negative_only_graph():
    nodes = [f"n{i}" for i in range(9)]
    return ProjectionGraph(kind="participant", nodes=nodes, edges=[
        Edge(nodes[i], nodes[(i + 4) % 9], F(-1), "negative") for i in range(9)])


@pytest.mark.parametrize("side", [1, 3, 7])
@pytest.mark.parametrize("name", [*LAYOUT_GRAPHS, "negative-only"])
def test_layout_in_row_blocks_matches_add_at_scatter_bitwise(name, side, monkeypatch):
    # blocks of `side` rows j; 7 divides none of the node counts (20, 2, 12, 300, 9)
    build, iterations = LAYOUT_GRAPHS.get(name, (negative_only_graph, 30))
    graph = build()
    monkeypatch.setattr(render, "LAYOUT_PLANE_BYTES", (side + 1) * 8 * graph.n_nodes)
    layout = fr_layout(graph, seed=13, iterations=iterations)
    expected = fr_positions_add_at(graph, 13, iterations)
    assert [layout.positions[u] for u in graph.nodes] == [tuple(p) for p in expected.tolist()]


def test_layout_iteration_holds_a_few_row_blocks_not_n_by_n_planes():
    # (n, n) float64 planes at n = 3,000 take 72 MB each
    graph = _random_graph(3_000, 6_000, seed=3)
    tracemalloc.start()
    try:
        fr_layout(graph, seed=1, iterations=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("seed", [-1, 1.5, "7", True, None])
def test_layout_rejects_a_seed_that_is_not_a_non_negative_int(seed):
    graph, _, _ = two_cliques_graph()
    with pytest.raises(ValidationError, match="seed"):
        fr_layout(graph, seed=seed, iterations=1)


def test_layout_accepts_numpy_integer_seed():
    graph, _, _ = two_cliques_graph()
    assert fr_layout(graph, seed=np.int64(5), iterations=3).positions == \
        fr_layout(graph, seed=5, iterations=3).positions


@pytest.mark.parametrize("iterations", [1.5, True, -1, "5", np.int64(3)],
                         ids=["float", "bool", "negative", "str", "numpy-int"])
def test_layout_iterations_must_be_a_non_negative_int(iterations):
    graph, _, _ = two_cliques_graph()
    if isinstance(iterations, np.integer):
        assert fr_layout(graph, seed=5, iterations=iterations).positions == \
            fr_layout(graph, seed=5, iterations=int(iterations)).positions
        return
    with pytest.raises(ValidationError, match="iterations.*" + re.escape(repr(iterations))):
        fr_layout(graph, seed=5, iterations=iterations)


# both quote kinds, the escaped characters, control whitespace and non-ASCII
ATTRIBUTE_TEXT = st.text(st.one_of(st.sampled_from(list("\"'&<>\n\r\t ;#a")),
                                   st.characters(blacklist_categories=("Cs",))), max_size=30)


@settings(max_examples=300, deadline=None)
@given(text=ATTRIBUTE_TEXT)
def test_local_xml_escapes_match_saxutils(text):
    assert escape(text) == saxutils.escape(text)
    assert quoteattr(text) == saxutils.quoteattr(text)


def test_layout_refuses_an_empty_graph():
    with pytest.raises(ValidationError, match="at least one node"):
        fr_layout(ProjectionGraph(kind="participant", nodes=[], edges=[]), seed=1)


def test_different_seed_moves_nodes():
    graph, _, _ = two_cliques_graph()
    a = fr_layout(graph, seed=1, iterations=40)
    b = fr_layout(graph, seed=2, iterations=40)
    assert a.positions != b.positions


def test_two_cliques_separate_in_layout():
    graph, left, right = two_cliques_graph()
    layout = fr_layout(graph, seed=3, iterations=300)

    def dist(u, v):
        (x1, y1), (x2, y2) = layout.positions[u], layout.positions[v]
        return math.hypot(x1 - x2, y1 - y2)

    intra = [dist(u, v) for side in (left, right) for u, v in itertools.combinations(side, 2)]
    inter = [dist(u, v) for u in left for v in right]
    assert sum(inter) / len(inter) > sum(intra) / len(intra)


def test_layout_positions_are_finite():
    graph, _, _ = two_cliques_graph()
    layout = fr_layout(graph, seed=9, iterations=50)
    for x, y in layout.positions.values():
        assert math.isfinite(x) and math.isfinite(y)


def test_zero_iterations_returns_seeded_initial_placement():
    graph, _, _ = two_cliques_graph()
    a = fr_layout(graph, seed=6, iterations=0)
    b = fr_layout(graph, seed=6, iterations=0)
    assert a.positions == b.positions
    # unit-disc start: all radii at most 1
    for x, y in a.positions.values():
        assert x * x + y * y <= 1.0 + 1e-12


def test_unicode_node_ids_round_trip_graphml(tmp_path):
    graph = ProjectionGraph(
        kind="participant",
        nodes=["rené", "张三"],
        edges=[Edge("rené", "张三", F(2))],
        node_attrs={"rené": {"city": "São Paulo"}},
    )
    path = tmp_path / "u.graphml"
    export_graphml(graph, path)
    back = import_graphml(path)
    assert back.nodes == graph.nodes
    assert edge_list(back) == edge_list(graph)
    assert back.node_attrs == graph.node_attrs


# ---------------------------------------------------------------------------
# GraphML round-trip
# ---------------------------------------------------------------------------


def test_graphml_round_trip_with_attributes(tmp_path):
    graph = sample_graph()
    path = tmp_path / "g.graphml"
    export_graphml(graph, path)
    back = import_graphml(path)
    assert back.kind == graph.kind
    assert back.nodes == graph.nodes
    assert back.node_attrs == graph.node_attrs
    assert edge_list(back) == edge_list(graph)  # exact weights, sign, style
    assert back.threshold_used == graph.threshold_used
    assert back.negative_threshold_used == graph.negative_threshold_used
    assert back.extra == graph.extra


def test_graphml_export_quotes_each_node_id_once(tmp_path, monkeypatch):
    graph = sample_graph()
    path = tmp_path / "g.graphml"
    export_graphml(graph, path)
    quoted = []

    def counted(text):
        quoted.append(text)
        return quoteattr(text)

    monkeypatch.setattr(render, "quoteattr", counted)
    again = tmp_path / "again.graphml"
    export_graphml(graph, again)
    assert again.read_bytes() == path.read_bytes()
    assert graph.n_edges and sorted(u for u in quoted if u in graph.nodes) == sorted(graph.nodes)


def test_graphml_round_trip_attitude_dual_edges(tmp_path):
    graph = ProjectionGraph(
        kind="attitude",
        nodes=["trust_gov", "trust_press"],
        edges=[
            Edge("trust_gov", "trust_press", F(120), "positive", "dashed"),
            Edge("trust_gov", "trust_press", F(-44), "negative", "dotted"),
        ],
        threshold_used=F(1),
        negative_threshold_used=F(-1),
        extra={"n_participants": 300, "attitude_mode": "dual"},
    )
    path = tmp_path / "att.graphml"
    export_graphml(graph, path)
    back = import_graphml(path)
    assert edge_list(back) == edge_list(graph)
    assert back.extra == graph.extra


@pytest.mark.parametrize("with_layout", [False, True])
def test_graphml_keeps_node_attributes_named_x_and_y(tmp_path, with_layout):
    # only the nx and ny keys of the positions that earlier versions embedded
    # are skipped on import, not every attribute that shares their names
    graph = ProjectionGraph(
        "participant", ["a", "b", "c"], [Edge("a", "b", F(2))],
        node_attrs={"a": {"x": "left", "party": "D"}, "b": {"y": "0.5"},
                    "c": {"x": "right", "y": "top"}},
        threshold_used=F(1), extra={"mode": "exact_agreement", "n_items": 3})
    path = tmp_path / "g.graphml"
    if with_layout:  # the file an earlier version wrote with positions embedded
        per_edge_export_graphml(graph, path, fr_layout(graph, seed=1, iterations=5))
    else:
        export_graphml(graph, path)
    for read in (import_graphml, expat_import_graphml):
        back = read(path)
        assert back.node_attrs == graph.node_attrs
        assert edge_list(back) == edge_list(graph)


def test_graphml_text_keeps_carriage_returns(tmp_path):
    # XML reads a raw \r, or \r\n, in element text back as \n
    graph = ProjectionGraph(
        "participant", ["a", "b", "c"], [Edge("a", "b", F(1))],
        node_attrs={"a": {"note": "x\ry"}, "b": {"note": "p\r\nq"}, "c": {"note": "\r"}},
        extra={"mode": "m\r", "n_items": 3})
    path = tmp_path / "g.graphml"
    export_graphml(graph, path)
    for read in (import_graphml, expat_import_graphml):
        back = read(path)
        assert back.node_attrs == graph.node_attrs
        assert back.extra == graph.extra


@pytest.mark.parametrize("nodes, attrs, named", [
    (["a", "b\x01", "c\x02"], {}, "node id 'b\\x01'"),
    (["a", "b"], {"a": {"ok": "1", "bad\x1f": "2"}}, "attribute name 'bad\\x1f'"),
    (["a", "b"], {"a": {"n": "v"}, "b": {"n": "v\x0bw"}}, "attribute value 'v\\x0bw'"),
    (["a", "b\uffff"], {}, "node id 'b\\uffff'"),
    (["a", "b"], {"a": {"n": "\ufffe"}}, "attribute value '\\ufffe'"),
])
def test_graphml_refuses_characters_xml_forbids(tmp_path, nodes, attrs, named):
    graph = ProjectionGraph("participant", nodes, [Edge("a", nodes[1], F(1))], node_attrs=attrs)
    path = tmp_path / "g.graphml"
    with pytest.raises(ValidationError, match=re.escape(named)):
        export_graphml(graph, path)
    assert not path.exists()
    allowed = ProjectionGraph("participant", ["a", "t\tab", "l\nf", "c\rr"],
                              [Edge("a", "c\rr", F(1))], node_attrs={"a": {"n\t": "v\n\r"}})
    export_graphml(allowed, path)  # tab, line feed and carriage return are XML characters
    assert import_graphml(path).nodes == allowed.nodes


def test_svgs_refuse_fills_and_labels_xml_forbids(tmp_path):
    graph = sample_graph()
    layout = fr_layout(graph, seed=1, iterations=5)
    scheme = ColorScheme(attribute="party", mapping={"D": "#000", "R": "r\x08"},
                         default_color="\x00")
    with pytest.raises(ValidationError, match=re.escape("fill 'r\\x08'")):
        render_svg(graph, layout, scheme, tmp_path / "g.svg")
    schema = SurveySchema(items=(SurveyItem("q0", 2), SurveyItem("q\x7f\x1b", 2)),
                          id_column="pid")
    matrix = renormalize(make_matrix([[0, 1]], [2, 2], schema=schema))
    with pytest.raises(ValidationError, match=re.escape("item label 'q\\x7f\\x1b'")):
        render_bipartite_svg(matrix, tmp_path / "b.svg")
    assert list(tmp_path.iterdir()) == []


def test_graphml_deterministic_bytes(tmp_path):
    graph = sample_graph()
    p1, p2 = tmp_path / "a.graphml", tmp_path / "b.graphml"
    export_graphml(graph, p1)
    export_graphml(graph, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _random_graph(n_nodes, n_edges, seed):
    rng = np.random.default_rng(seed)
    pairs = np.unique(rng.integers(0, n_nodes, size=(3 * n_edges, 2)), axis=0)
    us, vs = pairs[pairs[:, 0] < pairs[:, 1]][:n_edges].T
    table = [F(k, 6) for k in range(-60, 61)]
    return ProjectionGraph.from_arrays(
        "participant", [f"p{i:05d}" for i in range(n_nodes)], us, vs, table,
        rng.integers(0, len(table), len(us)), rng.integers(0, 2, len(us)),
        rng.integers(0, 3, len(us)), extra={"mode": "score", "n_items": 10})


EXPORTERS = [export_graphml, export_edgelist,
             lambda graph, path: render_svg(graph, fr_layout(graph, 1, iterations=0), None, path)]


@pytest.mark.parametrize("export", EXPORTERS, ids=["graphml", "edgelist", "svg"])
def test_exports_are_the_same_bytes_whatever_the_chunk_size(export, tmp_path, monkeypatch):
    graph = _random_graph(40, 300, seed=9)
    export(graph, tmp_path / "whole")
    for chunk in (1, 7, 299, 300):
        monkeypatch.setattr(render, "_EDGE_CHUNK", chunk)
        export(graph, tmp_path / f"chunk{chunk}")
        assert (tmp_path / f"chunk{chunk}").read_bytes() == (tmp_path / "whole").read_bytes()


@pytest.mark.parametrize("export", [export_graphml, export_edgelist])
def test_exporters_hold_less_memory_than_the_file_they_write(export, tmp_path):
    graph = _random_graph(2_000, 50_000, seed=50)
    assert graph.n_edges > 49_000
    path = tmp_path / "out"
    tracemalloc.start()
    try:
        export(graph, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_graphml_escapes_special_characters(tmp_path):
    graph = ProjectionGraph(
        kind="participant",
        nodes=['p "quoted"', "p <&>"],
        edges=[Edge('p "quoted"', "p <&>", F(1))],
        node_attrs={'p "quoted"': {"note": 'a "b" & <c>'}},
    )
    path = tmp_path / "esc.graphml"
    export_graphml(graph, path)
    back = import_graphml(path)
    assert set(back.nodes) == set(graph.nodes)
    assert back.node_attrs == graph.node_attrs


def test_import_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.graphml"
    bad.write_text("this is not xml")
    with pytest.raises(ValidationError, match="parseable"):
        import_graphml(bad)
    with pytest.raises(ValidationError, match="not found"):
        import_graphml(tmp_path / "missing.graphml")


@pytest.mark.parametrize("body, named", [
    ('<key id="k" for="node" attr.name="party" attr.type="string"/>', "no <graph> element"),
    ('<graph id="G" edgedefault="undirected"><node id="a"/><node/></graph>',
     "a node in .* has no id"),
])
def test_import_refuses_graphml_without_a_graph_or_a_node_id(tmp_path, body, named):
    path = tmp_path / "bad.graphml"
    path.write_text('<?xml version="1.0" encoding="UTF-8"?>\n'
                    f'<graphml xmlns="http://graphml.graphdrawing.org/xmlns">{body}</graphml>\n')
    with pytest.raises(ValidationError, match=named):
        import_graphml(path)


def test_import_reads_data_text_up_to_the_first_child_element(tmp_path):
    path = tmp_path / "nested.graphml"
    path.write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<g:graphml xmlns:g="http://graphml.graphdrawing.org/xmlns">'
        '<g:key id="k" for="node" attr.name="party" attr.type="string"/>'
        '<g:graph id="G" edgedefault="undirected">'
        '<g:node id="a"><g:data key="k">left<g:b>inner</g:b>tail</g:data></g:node>'
        '<g:node id="b"/></g:graph></g:graphml>\n'
    )
    back = import_graphml(path)  # the same attributes as ElementTree's element.text
    assert back.nodes == ["a", "b"]
    assert back.node_attrs == {"a": {"party": "left"}, "b": {}}


def test_empty_edge_graph_round_trips(tmp_path):
    graph = ProjectionGraph(kind="participant", nodes=["a", "b"], edges=[])
    path = tmp_path / "empty.graphml"
    export_graphml(graph, path)
    back = import_graphml(path)
    assert back.nodes == ["a", "b"]
    assert back.n_edges == 0


# ---------------------------------------------------------------------------
# edge list
# ---------------------------------------------------------------------------


def test_edgelist_fraction_and_decimal_columns(tmp_path):
    graph = sample_graph()
    path = tmp_path / "edges.csv"
    export_edgelist(graph, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "u,v,weight,weight_decimal,sign,style"
    assert lines[1] == "p1,p2,23/2,11.5,positive,solid"
    assert lines[2].startswith("p1,p3,-7/3,-2.3333333333333335,negative,dashed")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


def test_svg_bytes_deterministic(tmp_path):
    graph = sample_graph()
    layout = fr_layout(graph, seed=11, iterations=40)
    scheme = ColorScheme(attribute="party", mapping={"D": "#1f77b4", "R": "#d62728"},
                         default_color="#ffcc00")
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(graph, layout, scheme, p1)
    render_svg(graph, layout, scheme, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_svg_party_colors(tmp_path):
    graph = sample_graph()
    layout = fr_layout(graph, seed=11, iterations=10)
    scheme = ColorScheme(attribute="party",
                         mapping={"D": "#1f77b4", "R": "#d62728", "I": "#ffcc00"},
                         default_color=None)
    path = tmp_path / "colors.svg"
    render_svg(graph, layout, scheme, path)
    text = path.read_text()
    assert 'fill="#1f77b4"' in text
    assert 'fill="#d62728"' in text
    assert 'fill="#ffcc00"' in text


def test_svg_strokes_mirror_edge_classes(tmp_path):
    # blue positive and red negative lines, dashed by style class, in edge order
    graph = ProjectionGraph(
        kind="attitude",
        nodes=["x", "y", "z"],
        edges=[
            Edge("x", "y", F(9), "positive", "solid"),
            Edge("x", "z", F(5), "positive", "dashed"),
            Edge("y", "z", F(-2), "negative", "dotted"),
        ],
        extra={"n_participants": 9},
    )
    path = tmp_path / "g.svg"
    render_svg(graph, fr_layout(graph, seed=3, iterations=10), None, path)
    lines = ElementTree.parse(path).getroot().iter("{http://www.w3.org/2000/svg}line")
    strokes = [(line.get("stroke"), line.get("stroke-dasharray")) for line in lines]
    assert strokes == [("#1f77b4", None), ("#1f77b4", "6,4"), ("#d62728", "1.5,3")]


def test_svg_no_red_without_negative_edges(tmp_path):
    graph = ProjectionGraph(
        kind="participant",
        nodes=["a", "b"],
        edges=[Edge("a", "b", F(3))],
    )
    layout = fr_layout(graph, seed=2, iterations=10)
    path = tmp_path / "pos.svg"
    render_svg(graph, layout, None, path)
    assert "#d62728" not in path.read_text()


def test_svg_missing_attribute_lists_nodes(tmp_path):
    graph = ProjectionGraph(
        kind="participant",
        nodes=["a", "b"],
        edges=[],
        node_attrs={"a": {"party": "D"}},
    )
    layout = fr_layout(graph, seed=2, iterations=5)
    scheme = ColorScheme(attribute="party", mapping={"D": "#111111"})
    with pytest.raises(ValidationError, match="missing on nodes: b"):
        render_svg(graph, layout, scheme, tmp_path / "x.svg")


def test_svg_unmapped_value_without_default_lists_nodes(tmp_path):
    graph = ProjectionGraph(
        kind="participant",
        nodes=["a", "b"],
        edges=[],
        node_attrs={"a": {"party": "D"}, "b": {"party": "Green"}},
    )
    layout = fr_layout(graph, seed=2, iterations=5)
    scheme = ColorScheme(attribute="party", mapping={"D": "#111111"}, default_color=None)
    with pytest.raises(ValidationError, match="no color mapped.*b"):
        render_svg(graph, layout, scheme, tmp_path / "x.svg")


def test_color_scheme_without_an_attribute_needs_a_default_color():
    # with no attribute every node takes the default fill, so there must be one
    with pytest.raises(ValidationError, match="without an attribute needs a default_color"):
        ColorScheme(default_color=None)
    graph = ProjectionGraph(kind="participant", nodes=["a", "b"], edges=[])
    assert ColorScheme(default_color="#000001").fill_for(graph) == {"a": "#000001",
                                                                    "b": "#000001"}


def test_color_scheme_without_an_attribute_takes_no_mapping():
    with pytest.raises(ValidationError, match="without an attribute has no values to map"):
        ColorScheme(mapping={"D": "#f00"})
    assert ColorScheme(mapping={}).mapping == {}


@pytest.mark.parametrize("kwargs, message", [
    ({"attribute": "party", "mapping": {"D": ""}}, "color mapped to 'D' is empty"),
    ({"attribute": "party", "mapping": {"D": "#f00", "": ""}}, "color mapped to '' is empty"),
    ({"attribute": "party", "default_color": ""}, "default_color is empty"),
    ({"default_color": ""}, "default_color is empty"),
])
def test_color_scheme_refuses_an_empty_color(kwargs, message):
    # an empty fill is not a paint; a value mapped to one would be drawn unfilled
    with pytest.raises(ValidationError, match=message):
        ColorScheme(**kwargs)


def test_svg_layout_must_cover_all_nodes(tmp_path):
    graph = ProjectionGraph(kind="participant", nodes=["a", "b"], edges=[])
    layout = LayoutResult(positions={"a": (0.0, 0.0)}, seed=0, iterations=0)
    with pytest.raises(ValidationError, match="lacks positions.*b"):
        render_svg(graph, layout, None, tmp_path / "x.svg")


def test_bipartite_svg_colors_and_dashes(tmp_path):
    # codes on a 5-point item: 0 -> solid red, 2 -> yellow, 3 -> dashed blue,
    # 4 -> solid blue
    rows = [[0, 4], [2, 3]]
    nm = renormalize(make_matrix(rows, [5, 5]))
    path = tmp_path / "bip.svg"
    render_bipartite_svg(nm, path)
    text = path.read_text()
    assert "#1f77b4" in text
    assert "#d62728" in text
    assert "#ffcc00" in text
    assert "stroke-dasharray" in text
    assert text.count("<circle") == 2  # one dot per participant
    assert text.count("<rect") == 3  # background + one marker per item


def _bipartite_matrix(n, seed):
    """n participants on eight items of 2 to 7 points, a tenth of the answers
    missing; two item labels need escaping."""
    scales = [2, 3, 4, 5, 7, 7, 7, 7]
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 7, (n, len(scales))) % scales
    rows = [[None if gone else c for c, gone in zip(row, missing)]
            for row, missing in zip(codes.tolist(), (rng.random(codes.shape) < 0.1).tolist())]
    labels = ["q<0>", "a & b", *map("q{}".format, range(2, 8))]
    schema = SurveySchema(items=tuple(map(SurveyItem, labels, scales)), id_column="pid")
    return renormalize(make_matrix(rows, scales, schema=schema))


def test_bipartite_svg_bytes_are_pinned(tmp_path):
    # the digest of the file as the whole-file writer wrote it
    path = tmp_path / "bip.svg"
    render_bipartite_svg(_bipartite_matrix(50, seed=32), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "26bc843f6cf36a1e532fa7949681bf0e0f5685b81dfaaaa283c18de8eefca55d"


def test_bipartite_svg_holds_less_memory_than_the_file_it_writes(tmp_path):
    matrix = _bipartite_matrix(4_000, seed=40)
    path = tmp_path / "bip.svg"
    tracemalloc.start()
    try:
        render_bipartite_svg(matrix, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_bipartite_svg_skips_missing_responses(tmp_path):
    rows = [[0, None]]
    nm = renormalize(make_matrix(rows, [5, 5]))
    path = tmp_path / "bip.svg"
    render_bipartite_svg(nm, path)
    assert path.read_text().count("<line") == 1
