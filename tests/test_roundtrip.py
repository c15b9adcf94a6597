"""Generated graphs: export/import round-trips, the two constructors, networkx oracles."""

import csv
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from opinionnet import (
    Edge,
    ProjectionGraph,
    connected_components,
    edge_betweenness,
    export_edgelist,
    export_graphml,
    fr_layout,
    import_graphml,
    render_svg,
)
from opinionnet import render
from opinionnet.errors import ValidationError
from opinionnet.project import SIGNS, STYLES

from helpers import edge_list
from oracles import (
    expat_import_graphml,
    per_edge_export_edgelist,
    per_edge_export_graphml,
    per_edge_render_svg,
)

# ids whose code-point order differs from dictionary or UTF-16 order, plus
# characters the exporters must escape or quote
AWKWARD_IDS = ["Z", "a", "z", "É", "é", "ａ", "𝔘", "日本", 'q"x', "<&>", "a,b", "p 1", "\\"]
# XML 1.0 characters: the controls it allows are tab, line feed and carriage return
XML_TEXT = st.characters(blacklist_categories=("Cs", "Cc", "Cn"),
                         whitelist_characters="\t\n\r")
NODE_IDS = st.one_of(st.sampled_from(AWKWARD_IDS), st.text(XML_TEXT, min_size=1, max_size=5))
WEIGHTS = st.fractions(min_value=-12, max_value=12, max_denominator=60)
EXAMPLES = settings(max_examples=40, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def graphs(draw, node_ids=NODE_IDS, min_edges=0):
    nodes = draw(st.lists(node_ids, min_size=1 + bool(min_edges), max_size=7, unique=True))
    kind = draw(st.sampled_from(["participant", "attitude"]))
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=min_edges,
                           max_size=12)) if pairs else []
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


def _every_awkward_id_graph():
    """Every awkward id, each linked to the next by both signs, with attributes."""
    nodes = AWKWARD_IDS + ["t\tab", "two\nlines", "c\rr", "p 2 3", "'"]
    edges = [Edge(u, v, Fraction(k - 9, 7), sign, STYLES[k % 3])
             for k, (u, v) in enumerate(zip(nodes, nodes[1:])) for sign in SIGNS]
    attrs = {u: {"party": u, "note, <&>": str(k)} for k, u in enumerate(nodes) if k % 2}
    return ProjectionGraph("attitude", nodes, edges, node_attrs=attrs,
                           extra={"n_participants": 40, "attitude_mode": "dual"})


def _columns(graph):
    return (graph.us, graph.vs, graph.signs, graph.styles, graph.weight_codes)


@EXAMPLES
@given(graph=graphs())
@example(graph=_every_awkward_id_graph())
def test_exports_survive_import_byte_for_byte(tmp_path_factory, graph):
    tmp = tmp_path_factory.mktemp("rt")
    export_graphml(graph, tmp / "a.graphml")
    back = import_graphml(tmp / "a.graphml")
    assert back.nodes == graph.nodes
    assert edge_list(back) == edge_list(graph)
    assert back.node_attrs == graph.node_attrs
    assert back.extra == graph.extra
    for export, name in ((export_graphml, "g.graphml"), (export_edgelist, "e.csv")):
        export(graph, tmp / f"first-{name}")
        export(back, tmp / f"second-{name}")
        assert (tmp / f"first-{name}").read_bytes() == (tmp / f"second-{name}").read_bytes()


@EXAMPLES
@given(graph=graphs(), data=st.data())
def test_edge_constructor_and_array_path_agree(graph, data):
    edges = data.draw(st.permutations(edge_list(graph)))
    index = {u: i for i, u in enumerate(graph.nodes)}
    ends = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v, *_ in edges]
    twin = ProjectionGraph.from_arrays(
        graph.kind, graph.nodes, [index[a] for a, _ in ends], [index[b] for _, b in ends],
        [w for _, _, w, *_ in edges], np.arange(len(edges)),  # a table with repeats
        [SIGNS.index(s) for *_, s, _ in edges], [STYLES.index(t) for *_, t in edges],
        node_attrs=graph.node_attrs, extra=graph.extra,
    )
    assert edge_list(twin) == edge_list(graph)
    assert twin.weight_table == graph.weight_table
    for a, b in zip(_columns(twin), _columns(graph)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the documented invariants of the columns
    assert list(graph.weight_table) == sorted(set(weight for _, _, weight, *_ in edge_list(graph)))
    assert all(u < v for u, v, *_ in edge_list(graph))
    keys = [(u, v, sign) for u, v, _, sign, *_ in edge_list(graph)]
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

    got = connected_components(ours).components
    assert sorted(got) == sorted(sorted(c) for c in nx.connected_components(positive))

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


# ---------------------------------------------------------------------------
# import_graphml against the expat-only reader
# ---------------------------------------------------------------------------

# ids that expat would change if they were written raw (tabs, line ends) or
# that the exporter writes with entity references or single quotes
READER_IDS = st.one_of(
    st.sampled_from(AWKWARD_IDS + ["t\tab", "two\nlines", "c\rr", "p 2 3", "'"]),
    st.text(XML_TEXT, min_size=1, max_size=5))
EDGE_LINE = "    <edge "
NODE_LINE = "    <node "
DOCTYPES = ['<!DOCTYPE graphml [<!ATTLIST edge sign CDATA "x">]>',
            '<!DOCTYPE graphml [<!ATTLIST data key CDATA "e_sign">]>',
            '<!DOCTYPE graphml [<!ENTITY w "1">]>', "<!DOCTYPE graphml>"]
KEYS = ['<key id="e_weight" for="node" attr.name="weight"/>',
        '<key id="e_sign" for="edge" attr.name="style"/>',
        '<key id="e_style" for="all" attr.name="style"/>',
        '<key id="e_weight_decimal" for="edge" attr.name="weight"/>',
        '<key id="e_weight_decimal" for="edge" attr.name="sign"/>',
        '<key id="zz" for="edge" attr.name="weight"/>']
FORBIDDEN = st.sampled_from([chr(c) for c in range(32) if chr(c) not in "\t\n\r"]
                            + ["\ufffe", "\uffff"])


def _run(draw, lines):
    """A drawn run of node lines or of edge lines as a slice [i, j); empty
    before </graph> if there are none of the drawn kind."""
    kind = draw(st.sampled_from([NODE_LINE, EDGE_LINE]))
    at = [i for i, line in enumerate(lines) if line.startswith(kind)]
    if not at:
        end = lines.index("  </graph>")
        return end, end
    i = draw(st.sampled_from(at))
    return i, draw(st.sampled_from([k + 1 for k in at if k >= i]))


def _wrap(*around):
    """Put a drawn run of lines between a drawn (before, after) pair of lines."""
    def mangle(draw, lines):
        i, j = _run(draw, lines)
        before, after = draw(st.sampled_from(around))
        return lines[:i] + [before] + lines[i:j] + [after] + lines[j:]
    return mangle


def _per_line(edit):
    """Apply a drawn edit to each line of a drawn run."""
    def mangle(draw, lines):
        i, j = _run(draw, lines)
        return lines[:i] + [edit(draw, line) for line in lines[i:j]] + lines[j:]
    return mangle


def _insert(what, where):
    def mangle(draw, lines):
        at = lines.index(where) if isinstance(where, str) else draw(st.integers(1, len(lines) - 1))
        return lines[:at] + [draw(what)] + lines[at:]
    return mangle


def _values(line, edit):
    """line with edit(value) applied to its source, target and id values."""
    return re.sub(r'(source|target|id)="([^"]*)"', lambda m: f'{m[1]}="{edit(m[2])}"', line)


def _spliced(draw, raw, what):
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(what) + raw[at:]


def _second_graph(draw, lines):
    i, j = _run(draw, lines)
    end = lines.index("</graphml>")
    moved = draw(st.booleans())
    head = lines[:i] + lines[j:end] if moved else lines[:end]
    return head + ['  <graph id="H" edgedefault="undirected">', *lines[i:j], "  </graph>",
                   *lines[end:]]


MANGLES = {
    "plain": lambda draw, lines: lines,
    "edge_in_data": _wrap(('    <data key="g_kind">', "</data>"),
                          ('    <data key="zz">', "</data>"),
                          ('    <node id="zz"><data key="na0">', "</data></node>")),
    "comment": _wrap(("<!--", "-->")),
    "cdata": _wrap(("<![CDATA[", "]]>")),
    "doctype": _insert(st.sampled_from(DOCTYPES),
                       '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'),
    "forged_placeholder": _insert(st.sampled_from([
        f"<?{kind}{data}?>" for kind in (render._PLACEHOLDER, render._NODE_PLACEHOLDER)
        for data in ("", " 0")]), None),
    "single_quotes": _per_line(lambda draw, line: re.sub(r'(source|target|id)="([^"\']*)"',
                                                         r"\1='\2'", line)),
    "reordered": _per_line(lambda draw, line: re.sub(r'source=("[^"]*") target=("[^"]*")',
                                                     r"target=\2 source=\1", line)),
    "extra_whitespace": _per_line(lambda draw, line: line.replace(*draw(st.sampled_from(
        [("<edge ", "<edge  "), ('">', '" >'), ("</edge>", "</edge >"), ("<data ", "<data\n"),
         ("</edge>", "</edge>  "), ("<node ", "<node  "), ('"/>', '" />'), ("/>", "/>  ")])))),
    "raw_whitespace": _per_line(lambda draw, line: _values(line, lambda v: v.replace(
        " ", draw(st.sampled_from(["\t", "\n", "\r", "\r\n"]))))),
    "entity": _per_line(lambda draw, line: _values(line, lambda v: "".join(
        f"&#{ord(c)};" if c.isalnum() and draw(st.booleans()) else c for c in v))),
    "keys": _insert(st.sampled_from(KEYS), '  <graph id="G" edgedefault="undirected">'),
    "second_graph": _second_graph,
    "control_character": _per_line(lambda draw, line: _values(line,
                                                              lambda v: v + draw(FORBIDDEN))),
}
ENCODINGS = {  # applied to the joined text
    "utf8": lambda draw, text: text.encode("utf-8"),
    "iso_8859_1": lambda draw, text: text.replace('encoding="UTF-8"',
                                                  'encoding="ISO-8859-1"').encode("utf-8"),
    "bom": lambda draw, text: b"\xef\xbb\xbf" + text.replace(
        'encoding="UTF-8"', draw(st.sampled_from(['encoding="UTF-8"', 'encoding="utf-8"']))
    ).encode("utf-8"),
    "crlf": lambda draw, text: text.replace("\n", "\r\n").encode("utf-8"),
    "one_line": lambda draw, text: text.replace("\n", "").encode("utf-8"),
    "invalid_utf8": lambda draw, text: _spliced(draw, text.encode("utf-8"), st.sampled_from(
        [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbf\xbe"])),
}
FAMILIES = [(m, "utf8") for m in MANGLES] + [("plain", e) for e in ENCODINGS if e != "utf8"]
CHUNKS = st.sampled_from([1 << 20, 7, 64, 300])


def _reading(read, path):
    try:
        graph = read(path)
    except ValidationError:
        return "ValidationError"
    return (graph.kind, graph.nodes, graph.node_attrs, graph.extra, graph.threshold_used,
            graph.negative_threshold_used, graph.weight_table,
            [column.tolist() for column in _columns(graph)])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(graph=graphs(READER_IDS, min_edges=1), data=st.data())
def test_import_matches_the_expat_only_reader(tmp_path, graph, data):
    """Every example exports one graph and reads each mangled family of it."""
    export_graphml(graph, tmp_path / "g.graphml")  # rewritten by every example
    lines = (tmp_path / "g.graphml").read_text(encoding="utf-8").split("\n")
    for mangle, encoding in FAMILIES:
        path = tmp_path / f"{mangle}-{encoding}.graphml"
        text = "\n".join(MANGLES[mangle](data.draw, lines))
        path.write_bytes(ENCODINGS[encoding](data.draw, text))
        with pytest.MonkeyPatch.context() as patch:
            # small chunks put cuts inside lines, runs and multi-byte characters
            patch.setattr(render, "_CHUNK", data.draw(CHUNKS))
            assert _reading(import_graphml, path) == _reading(expat_import_graphml, path), \
                (mangle, encoding)


def _no_fallback(self):
    raise AssertionError("whole-file fallback")


@EXAMPLES
@given(graph=graphs(READER_IDS), chunk=CHUNKS)
def test_plain_exports_are_read_without_the_whole_file_fallback(tmp_path, graph, chunk):
    path = tmp_path / "g.graphml"  # rewritten by every example
    export_graphml(graph, path)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render._GraphMLReader, "parse", _no_fallback)
        patch.setattr(render, "_CHUNK", chunk)
        assert _reading(import_graphml, path) == _reading(expat_import_graphml, path)


# ids that export_graphml writes as they are, so their lines can be lifted
PLAIN_IDS = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Cn"),
                                  blacklist_characters='"&<>'), min_size=1, max_size=5)


@EXAMPLES
@given(graph=graphs(PLAIN_IDS), chunk=st.sampled_from([render._CHUNK, 300, 512]))
def test_plain_node_and_edge_lines_never_reach_expat(tmp_path, graph, chunk):
    """expat sees only the nodes that carry data: attributes, or the
    positions that earlier versions embedded (written here by the oracle).
    Small chunks still hold a whole line (these lines are under 300 bytes);
    bytes with no line end are passed to expat as they are."""
    bare = ProjectionGraph(graph.kind, graph.nodes, [Edge(*e) for e in edge_list(graph)],
                           extra=graph.extra)
    layout = fr_layout(graph, 1, iterations=0)
    with_data = sum(map(bool, graph.node_attrs.values()))
    seen = Counter()
    start = render._GraphMLReader.start

    def counted(self, tag, attrs):
        seen[tag.rpartition("}")[2]] += 1
        start(self, tag, attrs)

    path = tmp_path / "g.graphml"  # rewritten by every example
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render._GraphMLReader, "start", counted)
        patch.setattr(render._GraphMLReader, "parse", _no_fallback)
        patch.setattr(render, "_CHUNK", chunk)
        for write, exported, nodes_seen in (
                (export_graphml, bare, 0), (export_graphml, graph, with_data),
                (lambda g, p: per_edge_export_graphml(g, p, layout), graph, graph.n_nodes)):
            write(exported, path)
            seen.clear()
            back = import_graphml(path)
            assert (seen["node"], seen["edge"]) == (nodes_seen, 0)
            assert (back.nodes, edge_list(back), back.node_attrs) == \
                (exported.nodes, edge_list(exported), exported.node_attrs)


def test_a_realistic_import_read_in_small_chunks_matches_expat(tmp_path, monkeypatch):
    """Hundreds of nodes, thousands of edges, dozens of weights of both signs
    and some nodes with data, read in chunks of a few KiB, so that runs of
    lines and tail candidates cross chunk cuts."""
    rng = np.random.default_rng(19)
    n, n_edges = 300, 4000
    nodes = [f"p{i:05d}" for i in range(n)]
    iu, iv = np.triu_indices(n, 1)
    pick = rng.choice(len(iu), n_edges, replace=False)
    levels = rng.integers(-40, 41, n_edges)  # weights k/6, negative edges below 0
    graph = ProjectionGraph.from_arrays(
        "participant", nodes, iu[pick], iv[pick], [Fraction(k, 6) for k in range(-40, 41)],
        levels + 40, (levels >= 0).astype(np.int8), rng.integers(0, 3, n_edges),
        node_attrs={u: {"party": f"b{k % 3}"} for k, u in enumerate(nodes) if k % 37 == 5},
        extra={"n_items": 13})
    path = tmp_path / "g.graphml"
    export_graphml(graph, path)
    monkeypatch.setattr(render._GraphMLReader, "parse", _no_fallback)
    monkeypatch.setattr(render, "_CHUNK", 3000)
    assert len(set(levels.tolist())) > 60 and path.stat().st_size > 50 * 3000
    assert _reading(import_graphml, path) == _reading(expat_import_graphml, path)
    # a foreign processing instruction between two lifted edge lines is
    # ignored, as expat's reader ignores it, and the lift still confirms
    lines = path.read_text(encoding="utf-8").split("\n")
    at = [k for k, line in enumerate(lines) if line.startswith("    <edge ")][2000]
    path.write_text("\n".join(lines[:at] + ["<?foo bar?>"] + lines[at:]), encoding="utf-8")
    assert _reading(import_graphml, path) == _reading(expat_import_graphml, path)


def test_an_edge_list_reads_back_through_csv_reader_whatever_its_ids(tmp_path):
    # ids holding a comma, a quote, a line feed or a carriage return are quoted
    graph = _every_awkward_id_graph()
    export_edgelist(graph, tmp_path / "e.csv")
    with open(tmp_path / "e.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [tuple(row[:2]) for row in rows[1:]] == [(u, v) for u, v, *_ in edge_list(graph)]


@EXAMPLES
@given(graph=graphs(READER_IDS), chunk=st.sampled_from([1, render._EDGE_CHUNK]))
@example(graph=_every_awkward_id_graph(), chunk=1)
@example(graph=_every_awkward_id_graph(), chunk=render._EDGE_CHUNK)
def test_exporters_write_the_bytes_of_the_per_edge_formatters(tmp_path, graph, chunk):
    layout = fr_layout(graph, 1, iterations=0)
    pairs = {
        "graphml": (export_graphml, per_edge_export_graphml),
        "edgelist": (export_edgelist, per_edge_export_edgelist),
        "svg": (lambda g, p: render_svg(g, layout, None, p),
                lambda g, p: per_edge_render_svg(g, layout, p)),
    }
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_EDGE_CHUNK", chunk)
        for name, (export, reference) in pairs.items():
            export(graph, tmp_path / name)  # rewritten by every example
            reference(graph, tmp_path / f"{name}.reference")
            assert (tmp_path / name).read_bytes() == \
                (tmp_path / f"{name}.reference").read_bytes(), name
