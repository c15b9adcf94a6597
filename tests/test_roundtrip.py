"""Generated graphs: export/import round-trips, the two constructors, networkx oracles."""

from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from opinionnet import (
    Edge,
    ProjectionGraph,
    connected_components,
    edge_betweenness,
    export_dot,
    export_edgelist,
    export_graphml,
    import_graphml,
)
from opinionnet.project import SIGNS, STYLES

# ids whose code-point order differs from dictionary or UTF-16 order, plus
# characters the exporters must escape or quote
AWKWARD_IDS = ["Z", "a", "z", "É", "é", "ａ", "𝔘", "日本", 'q"x', "<&>", "a,b", "p 1", "\\"]
XML_TEXT = st.characters(blacklist_categories=("Cs", "Cc", "Cn"))  # XML 1.0 characters
NODE_IDS = st.one_of(st.sampled_from(AWKWARD_IDS), st.text(XML_TEXT, min_size=1, max_size=5))
WEIGHTS = st.fractions(min_value=-12, max_value=12, max_denominator=60)
EXAMPLES = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def graphs(draw):
    nodes = draw(st.lists(NODE_IDS, min_size=1, max_size=7, unique=True))
    kind = draw(st.sampled_from(["participant", "attitude"]))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    sign_sets = [("positive",), ("negative",)]
    if kind == "attitude":
        sign_sets.append(("positive", "negative"))  # both relations on one pair
    edges = []
    for u, v in chosen:
        for sign in draw(st.sampled_from(sign_sets)):
            ends = (v, u) if draw(st.booleans()) else (u, v)
            edges.append(Edge(*ends, draw(WEIGHTS), sign, draw(st.sampled_from(STYLES))))
    attrs = draw(st.dictionaries(st.sampled_from(nodes),
                                 st.dictionaries(st.sampled_from(["party", "note, <&>"]),
                                                 st.text(XML_TEXT, max_size=4), max_size=2)))
    extra = {"n_items": 13} if kind == "participant" else {"n_participants": 40,
                                                           "attitude_mode": "dual"}
    return ProjectionGraph(kind, nodes, draw(st.permutations(edges)), node_attrs=attrs,
                           extra=extra)


def _columns(graph):
    return (graph.us, graph.vs, graph.signs, graph.styles, graph.weight_codes)


@EXAMPLES
@given(graph=graphs())
def test_exports_survive_import_byte_for_byte(tmp_path_factory, graph):
    tmp = tmp_path_factory.mktemp("rt")
    export_graphml(graph, tmp / "a.graphml")
    back = import_graphml(tmp / "a.graphml")
    assert back.nodes == graph.nodes
    assert back.edges == graph.edges
    assert back.node_attrs == graph.node_attrs
    assert back.extra == graph.extra
    for export, name in ((export_graphml, "g.graphml"), (export_edgelist, "e.csv"),
                         (export_dot, "d.dot")):
        export(graph, tmp / f"first-{name}")
        export(back, tmp / f"second-{name}")
        assert (tmp / f"first-{name}").read_bytes() == (tmp / f"second-{name}").read_bytes()


@EXAMPLES
@given(graph=graphs(), data=st.data())
def test_edge_constructor_and_array_path_agree(graph, data):
    edges = data.draw(st.permutations(graph.edges))
    index = {u: i for i, u in enumerate(graph.nodes)}
    flipped = [data.draw(st.booleans()) for _ in edges]
    twin = ProjectionGraph.from_arrays(
        graph.kind, graph.nodes,
        [index[e.v if f else e.u] for e, f in zip(edges, flipped)],
        [index[e.u if f else e.v] for e, f in zip(edges, flipped)],
        [e.weight for e in edges], np.arange(len(edges)),  # a table with repeats
        [SIGNS.index(e.sign) for e in edges], [STYLES.index(e.style) for e in edges],
        node_attrs=graph.node_attrs, extra=graph.extra,
    )
    assert twin.edges == graph.edges
    assert twin.weight_table == graph.weight_table
    for a, b in zip(_columns(twin), _columns(graph)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the documented invariants of the columns
    assert list(graph.weight_table) == sorted(set(e.weight for e in graph.edges))
    assert all(e.u < e.v for e in graph.edges)
    keys = [(e.u, e.v, e.sign) for e in graph.edges]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@EXAMPLES
@given(graph=graphs())
def test_components_and_betweenness_match_networkx(tmp_path_factory, graph):
    nx = pytest.importorskip("networkx")
    path = tmp_path_factory.mktemp("nx") / "g.graphml"
    export_graphml(graph, path)
    ours = import_graphml(path)
    theirs = nx.read_graphml(path, force_multigraph=True)
    positive = nx.Graph()
    positive.add_nodes_from(theirs.nodes)
    positive.add_edges_from((u, v) for u, v, d in theirs.edges(data=True) if d["sign"] == "positive")
    every = nx.Graph(theirs)

    for edge_filter, reference in (("positive_only", positive), ("all", every)):
        got = connected_components(ours, edge_filter).components
        assert sorted(got) == sorted(sorted(c) for c in nx.connected_components(reference))

    expected = {tuple(sorted(e)): b for e, b in
                nx.edge_betweenness_centrality(positive, normalized=False).items()}
    got = edge_betweenness(ours)
    assert got.keys() == expected.keys()
    for key, value in got.items():
        assert abs(value - expected[key]) <= 1e-9
    assert edge_betweenness(ours, exact=True) == pytest.approx(got, abs=1e-9)


def test_mixed_denominators_share_one_table():
    graph = ProjectionGraph("participant", ["a", "b", "c", "d"], [
        Edge("a", "b", Fraction(1, 3)), Edge("c", "b", Fraction(2, 6)),
        Edge("a", "c", Fraction(5, 7)), Edge("d", "a", Fraction(-3, 14), "negative"),
    ])
    assert graph.weight_table == (Fraction(-3, 14), Fraction(1, 3), Fraction(5, 7))
    assert graph.weight_codes.tolist() == [1, 2, 0, 1]
