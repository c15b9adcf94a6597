"""Deterministic force-directed layout and figure-style exports.

Every exporter is a pure function of its inputs: stable element ordering,
fixed numeric formatting (SVG coordinates use 6 significant digits, GraphML
decimal weights 17), and no timestamps, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import numbers
import re
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import compress, count
from pathlib import Path
from xml.parsers import expat

import numpy as np

from .errors import ValidationError
from .ingest import quote_cell
from .normalize import NormalizedMatrix
from .project import (
    DASHED,
    DOTTED,
    NEGATIVE,
    POSITIVE,
    SIGNS,
    SOLID,
    STYLES,
    ProjectionGraph,
    edge_columns,
)
from .rational import as_fraction, format_fraction

POSITIVE_COLOR = "#1f77b4"  # blue
NEGATIVE_COLOR = "#d62728"  # red
NEUTRAL_COLOR = "#ffcc00"  # yellow
_COLORS = {POSITIVE: POSITIVE_COLOR, NEGATIVE: NEGATIVE_COLOR}

_DASH_PATTERNS = {SOLID: None, DASHED: "6,4", DOTTED: "1.5,3"}


def escape(text: str) -> str:
    """XML character data, as xml.sax.saxutils.escape (whose import pulls in urllib)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def quoteattr(text: str) -> str:
    """A quoted XML attribute value, as xml.sax.saxutils.quoteattr."""
    text = escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    return f"'{text}'" if "'" not in text else '"{}"'.format(text.replace('"', "&quot;"))


def _text(text: str) -> str:
    """Element text; XML would read a raw \\r, or \\r\\n, back as \\n."""
    return escape(text).replace("\r", "&#13;")


def _refuse_non_xml(*groups) -> None:
    """Raise a ValidationError naming the first string, of (what, strings)
    groups, with a character XML 1.0 forbids; a clean file costs one search."""
    bad = "[\\x00-\\x08\\x0b\\x0c\\x0e-\\x1f\\ufffe\\uffff]"  # C0 but tab, LF, CR; FFFE; FFFF
    if re.search(bad, "".join("".join(strings) for _, strings in groups)):
        what, x = next((what, x) for what, xs in groups for x in xs if re.search(bad, x))
        raise ValidationError(f"{what} {x!r} holds a character that XML 1.0 forbids")


def _fmt6(x: float) -> str:
    return format(float(x), ".6g")


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


_EDGE_CHUNK = 4096  # edge lines formatted and written at a time
# bytes of each (side + 1, n) float64 plane of fr_layout's repulsion, so side
# = this // (8 n) - 1 rows j at a time and every n up to 180 is one block.
# Measured on a 2-core x86-64 machine at n = 3,000: 128 KiB and 512 KiB run
# an iteration 25% slower than 256 KiB
LAYOUT_PLANE_BYTES = 256 << 10


def _write_with_edges(path, before, graph: ProjectionGraph, sources, targets, tail,
                      after) -> None:
    """Write a UTF-8 text file: the lines before, one line per edge in
    canonical order, sources[u] + targets[v] + tail(weight, sign, style), then
    the lines after.

    sources and targets hold one string per node; tail is called once per
    distinct (weight, sign, style) combination, so no per-edge Fraction is
    built or formatted. The three string columns are 1-D object arrays (the
    tails indexed by combination code). Edge lines are written _EDGE_CHUNK
    at a time: numpy gathers each chunk's sources, targets and tails into
    the columns of one (chunk, 3) object buffer, allocated once per call,
    and its rows are joined in one C-level join. So no Python code runs per
    edge, and memory is bounded by the chunk, not by the file.
    """
    sources = np.array(sources, dtype=object)
    targets = np.array(targets, dtype=object)
    tails = np.empty(len(graph.weight_table) * 6, dtype=object)  # combination code -> tail
    made = np.zeros(len(tails), dtype=bool)
    buffer = np.empty((min(_EDGE_CHUNK, graph.n_edges), 3), dtype=object)
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(line + "\n" for line in before)
        for s in range(0, graph.n_edges, _EDGE_CHUNK):
            e = s + _EDGE_CHUNK
            combo = ((graph.weight_codes[s:e].astype(np.intp) * 2 + graph.signs[s:e]) * 3
                     + graph.styles[s:e])
            new = combo[~made[combo]]
            for c in set(new.tolist()):
                tails[c] = tail(graph.weight_table[c // 6], SIGNS[c // 3 % 2], STYLES[c % 3]) + "\n"
            made[new] = True
            rows = buffer[:len(combo)]
            rows[:, 0] = sources[graph.us[s:e]]
            rows[:, 1] = targets[graph.vs[s:e]]
            rows[:, 2] = tails[combo]
            out.write("".join(rows.ravel().tolist()))
        out.writelines(line + "\n" for line in after)


@dataclass
class LayoutResult:
    """Node positions in abstract units plus the parameters that made them."""

    positions: dict
    seed: int
    iterations: int


def fr_layout(graph: ProjectionGraph, seed: int, iterations: int = 500) -> LayoutResult:
    """Force-directed layout: all-pairs repulsion, attraction on positive edges.

    Classic spring layout with a linear cooling schedule and seeded initial
    placement on the unit disc; seed and iterations are non-negative ints.
    Negative edges exert no force. Identical (graph, seed, iterations)
    reproduce identical positions. O(V^2) time per iteration; O(B V + E)
    memory, where the repulsion works on B rows of node pairs at a time and
    B = LAYOUT_PLANE_BYTES // (8 V) - 1 (at least 1, at most V).

    Summation order: each node's repulsion is summed over the other nodes in
    ascending index order, one at a time, and the node's edge forces are
    then added in edge order. No BLAS call and no pairwise reduction touches
    these sums, so positions equal those of the (n, n, 2) form that the
    tests keep as their reference bit for bit, whatever the BLAS settings
    and the block size.
    """
    for name, value in (("seed", seed), ("iterations", iterations)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValidationError(f"layout {name} must be a non-negative integer, got {value!r}")
    n = graph.n_nodes
    if n < 1:
        raise ValidationError("layout needs at least one node")
    if n == 1:
        return LayoutResult({graph.nodes[0]: (0.0, 0.0)}, seed, iterations)

    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(n))
    angle = rng.random(n) * (2.0 * np.pi)
    pos = np.stack([radius * np.cos(angle), radius * np.sin(angle)])  # rows x and y

    k = np.sqrt(1.0 / n)
    positive = graph.positive_mask()
    us, vs = graph.us[positive], graph.vs[positive]
    e = len(us)
    # A positive edge (u, v) exerts (u - v) * |u - v| / k, added at v and
    # subtracted at u. Each node's displacement is its repulsion, then those
    # edge forces in edge order: one bincount over `ends`, whose y half keys
    # bins n..2n-1, sums the rows of `force`.
    ends = np.concatenate([np.arange(n), vs, us])
    ends = np.concatenate([ends, ends + n])
    force = np.empty((2, n + 2 * e))
    repulsion, pull, push = force[:, :n], force[:, n:n + e], force[:, n + e:]
    d, d2 = np.empty((2, e)), np.empty((2, e))
    g2 = np.empty((2, n))  # the squared displacements, then their length and step
    # The repulsion of `side` nodes j at a time: b[:, j, i] = pos[:, i] -
    # pos[:, j] in the rows of a (side + 1, n) plane per coordinate. Summing
    # over the rows of a C-contiguous plane adds them in ascending order, so
    # with each block's rows after the running sums in row 0, every node adds
    # j = 0, 1, ... one at a time. The diagonal's b is 0, so its weight does
    # not matter.
    side = min(n, max(1, LAYOUT_PLANE_BYTES // (8 * n) - 1))
    b, sq = np.empty((2, side + 1, n)), np.empty((2, side, n))
    blocks = []  # (pos of the block's j, its term rows, its squares, the rows it sums, j0)
    for j0 in range(0, n, side):
        m, lead = min(side, n - j0), 1 if j0 else 0
        blocks.append((pos[:, j0:j0 + m, None], b[:, lead:lead + m], sq[:, :m],
                       b[:, :lead + m], j0))
    t0 = 0.1
    for it in range(iterations):
        t = t0 * (1.0 - it / iterations)
        for pos_j, terms, squares, summed, j0 in blocks:
            if j0:
                b[:, 0] = repulsion
            np.subtract(pos[:, None, :], pos_j, out=terms)
            np.multiply(terms, terms, out=squares)
            w = squares[0]
            w += squares[1]
            np.maximum(w, 1e-12, out=w)
            np.divide(k * k, w, out=w)
            terms *= w
            summed.sum(axis=1, out=repulsion)
        # each edge's force once; (-s) * d is -(s * d) exactly, so each end u
        # gets the negation of what its end v gets. take's "clip" leaves the
        # in-range indices as they are, where "raise" would buffer its out
        np.take(pos, us, axis=1, out=d, mode="clip")
        d -= np.take(pos, vs, axis=1, out=d2, mode="clip")
        np.multiply(d, d, out=d2)
        scale = d2[0]
        scale += d2[1]
        np.sqrt(scale, out=scale)
        np.maximum(scale, 1e-9, out=scale)
        scale /= k
        np.multiply(d, scale, out=pull)
        np.negative(pull, out=push)
        g = np.bincount(ends, weights=force.ravel(), minlength=2 * n).reshape(2, n)
        np.multiply(g, g, out=g2)
        length, step = g2
        length += step
        np.sqrt(length, out=length)
        np.maximum(length, 1e-12, out=length)
        np.minimum(length, t, out=step)
        step /= length
        g *= step
        pos += g

    positions = dict(zip(graph.nodes, zip(pos[0].tolist(), pos[1].tolist())))
    return LayoutResult(positions, seed, iterations)


# ---------------------------------------------------------------------------
# GraphML
# ---------------------------------------------------------------------------

_GRAPH_FIELD_TYPES = {
    "kind": "string",
    "mode": "string",
    "attitude_mode": "string",
    "n_items": "int",
    "n_participants": "int",
    "threshold": "string",
    "negative_threshold": "string",
}
# the node keys of the x and y positions that files written by earlier versions
# embed; never attributes
_LAYOUT_KEYS = ("nx", "ny")


def export_graphml(graph: ProjectionGraph, path) -> None:
    """Lossless GraphML export: nodes, attributes, exact weights, sign, style.

    Weights are serialized as exact fraction strings alongside a decimal
    convenience value. A node id, attribute name or attribute value holding a
    character that XML 1.0 forbids is refused before anything is written.
    """
    graph_data = {"kind": graph.kind}
    for name in ("mode", "attitude_mode", "n_items", "n_participants"):
        if name in graph.extra:
            graph_data[name] = graph.extra[name]
    if graph.threshold_used is not None:
        graph_data["threshold"] = format_fraction(graph.threshold_used)
    if graph.negative_threshold_used is not None:
        graph_data["negative_threshold"] = format_fraction(graph.negative_threshold_used)

    attr_names = graph.attribute_names()
    _refuse_non_xml(("node id", graph.nodes), ("attribute name", attr_names), ("attribute value",
                    [str(v) for attrs in graph.node_attrs.values() for v in attrs.values()]))
    key_defs = []  # (key_id, domain, name, type)
    for name in graph_data:
        key_defs.append((f"g_{name}", "graph", name, _GRAPH_FIELD_TYPES[name]))
    for i, name in enumerate(attr_names):
        key_defs.append((f"na{i}", "node", name, "string"))
    key_defs.extend([
        ("e_weight", "edge", "weight", "string"),
        ("e_weight_decimal", "edge", "weight_decimal", "double"),
        ("e_sign", "edge", "sign", "string"),
        ("e_style", "edge", "style", "string"),
    ])

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">',
    ]
    for key_id, domain, name, attr_type in key_defs:
        lines.append(
            f'  <key id={quoteattr(key_id)} for="{domain}" '
            f'attr.name={quoteattr(name)} attr.type="{attr_type}"/>'
        )
    lines.append('  <graph id="G" edgedefault="undirected">')
    for name, value in graph_data.items():
        lines.append(f'    <data key="g_{name}">{_text(str(value))}</data>')
    attr_key = {name: f"na{i}" for i, name in enumerate(attr_names)}
    quoted = [quoteattr(u) for u in graph.nodes]
    for u, qu in zip(graph.nodes, quoted):
        attrs = graph.node_attrs[u]
        data = "".join(f'<data key="{attr_key[name]}">{_text(str(attrs[name]))}</data>'
                       for name in attr_names if name in attrs)
        lines.append(f'    <node id={qu}>{data}</node>' if data else f'    <node id={qu}/>')
    _write_with_edges(
        path, lines, graph,
        [f'    <edge source={qu} target=' for qu in quoted], [qu + ">" for qu in quoted],
        lambda w, sign, style: (
            f'<data key="e_weight">{escape(format_fraction(w))}</data>'
            f'<data key="e_weight_decimal">{_fmt17(float(w))}</data>'
            f'<data key="e_sign">{sign}</data>'
            f'<data key="e_style">{style}</data>'
            f'</edge>'
        ),
        ["  </graph>", "</graphml>"],
    )


def import_graphml(path) -> ProjectionGraph:
    """Rebuild a ProjectionGraph from a GraphML file written by export_graphml.

    Embedded layout positions, if any, are ignored; everything else (node set,
    attributes, exact weights, sign, style, thresholds) round-trips. Keys must
    be declared before the graph that uses them, as GraphML requires.

    The file is read in chunks cut at line ends. Each run of edge lines in
    export_graphml's exact form, and each run of attribute-free node lines
    (<node id="..."/>) between them, is lifted out and replaced by a
    placeholder processing instruction; expat parses the rest. A regex split
    matches only the edge heads, capturing each source and target; the text
    after a head is its tail candidate, and each distinct candidate is
    checked once against the tail's exact form and later decoded once into
    its weight, sign and style. The lifted lines count only if expat reports
    every placeholder where it was put, as a child of the first <graph>, and
    the file is plain UTF-8 with no DOCTYPE and, for edges, with the edge
    keys declared as export_graphml declares them. Any other file is parsed
    again whole by expat, with nothing lifted, so every file reads as expat
    alone reads it.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"graph file not found: {path}")
    try:
        reader = _GraphMLReader(path).lift() or _GraphMLReader(path).parse()
    except expat.ExpatError as exc:
        raise ValidationError(f"not a parseable GraphML file: {path}: {exc}") from exc
    return reader.graph()


_CHUNK = 1 << 20  # bytes read per step of the lifted parse, then cut back to a line end
_PLACEHOLDER = "opinionnet-lifted-edges"
_NODE_PLACEHOLDER = "opinionnet-lifted-nodes"
_MARKS = {kind: f"<?{kind}?>".encode() for kind in (_PLACEHOLDER, _NODE_PLACEHOLDER)}
# A value that expat passes on unchanged: no markup, entity reference or quote,
# no control character (expat turns tabs and line ends in attribute values into
# spaces and \r in text into \n), nothing that XML forbids, and no byte that
# is not UTF-8 (decoded to a lone surrogate, which expat is left to reject).
_PLAIN = '[^"&<>\\x00-\\x1f\\ud800-\\udfff\\ufffe\\uffff]*'
# compiled on first use (re caches them), not at import: the CLI starts faster
_EDGE_HEAD = f'    <edge source="({_PLAIN})" target="({_PLAIN})">'
_EDGE_TAIL = (f'<data key="e_weight">{_PLAIN}</data><data key="e_weight_decimal">{_PLAIN}</data>'
              f'<data key="e_sign">{_PLAIN}</data><data key="e_style">{_PLAIN}</data></edge>\n')
_NODE_LINE = f'    <node id="({_PLAIN})"/>\n'
_TAIL_VALUES = 'key="e_(?:weight|sign|style)">([^<]*)<'  # a lifted tail's weight, sign, style
_EDGE_KEYS = {"e_weight": ("edge", "weight"), "e_sign": ("edge", "sign"),
              "e_style": ("edge", "style")}


class _Unconfirmed(Exception):
    """The lifted parse may differ from expat's own reading of the file."""


class _GraphMLReader:
    """expat handlers that collect a GraphML file's keys, graph data, nodes
    and edges. An edge is kept as three codes: its source and target in a
    dict of distinct node ids, and its tail in a dict of distinct tails,
    whose keys are a lifted line's raw tail or the (weight, sign, style) that
    expat read. Ids and tails are checked once per file, not once per edge.

    parse() reads the whole file with expat. lift() reads it with runs of
    canonical edge lines and of attribute-free node lines lifted out, each
    run's ids and tails taken from its placeholder in document order, and
    returns None whenever that reading could differ from parse()'s.
    """

    def __init__(self, path: Path):
        self.path = path
        self.keys = {}  # key id -> (domain, attribute name)
        self.graph_data, self.nodes, self.node_attrs = {}, [], {}
        self.ids = defaultdict(count().__next__)  # node id -> code, in first-seen order
        self.tails = defaultdict(count().__next__)  # tail -> code
        self.columns = ([], [], [])  # source, target and tail codes per edge
        self.runs = deque()  # (offset, kind, run) of placeholders fed but not yet reported
        self.fed = 0  # bytes handed to expat, or put in the chunk it gets next
        self.depth = 0
        self.in_graph = self.seen_graph = False
        self.element = None  # (tag, attributes, data) of the open node or edge
        self.data = self.name = None  # where the open <data> element's text goes

    def _parser(self):
        parser = expat.ParserCreate(namespace_separator="}")
        parser.buffer_text = True
        parser.StartElementHandler = self.start
        parser.CharacterDataHandler = self.chars
        parser.EndElementHandler = self.end
        return parser

    def parse(self) -> "_GraphMLReader":
        with open(self.path, "rb") as fh:
            self._parser().ParseFile(fh)
        return self

    def lift(self) -> "_GraphMLReader | None":
        parser = self.parser = self._parser()
        parser.ProcessingInstructionHandler = self.placeholder
        parser.StartDoctypeDeclHandler = self.doctype
        parser.XmlDeclHandler = self.declaration
        rest = b""
        try:
            with open(self.path, "rb") as fh:
                while True:
                    block = fh.read(_CHUNK)
                    data = rest + block
                    cut = data.rfind(b"\n") + 1 if block else len(data)
                    if cut:
                        data, rest = self._lifted(data[:cut]), data[cut:]
                    else:  # no line end, so no line to lift: expat gets it as it is
                        rest = b""
                        self.fed += len(data)
                    parser.Parse(data, not block)
                    if not block:
                        break
        except (expat.ExpatError, ValidationError, _Unconfirmed):
            return None
        return None if self.runs else self

    def _lifted(self, chunk: bytes) -> bytes:
        """chunk with each run of canonical edge lines, and each run of
        attribute-free node lines between them, replaced by a placeholder."""
        # text before the first edge head, then each head's source and target
        # and the text after it, its tail candidate; bytes that are not UTF-8
        # (a cut inside a character, say) round-trip as lone surrogates
        parts = re.split(_EDGE_HEAD, chunk.decode("utf-8", "surrogateescape"))
        sources, targets, after = parts[1::3], parts[2::3], parts[3::3]
        lead = {}  # candidate -> length of the tail line it starts with, None if none
        for text in set(after):
            line = re.match(_EDGE_TAIL, text)
            lead[text] = line.end() if line else None
        # a candidate that is exactly one tail line keeps its run going
        broken = {text: end != len(text) for text, end in lead.items()}
        pieces, text, start = [], [parts[0]], 0
        for k in [*compress(count(), map(broken.__getitem__, after)), len(after)]:
            end = lead[after[k]] if k < len(after) else None
            stop = k + 1 if end else k  # the run's edges are start..stop
            if stop > start:
                self._text(pieces, "".join(text))
                tails = after[start:k] + [after[k][:end]] if end else after[start:k]
                self._mark(pieces, _PLACEHOLDER, (sources[start:stop], targets[start:stop], tails))
                text = []
            if k < len(after):  # a tail line's trailing text, or a head without a tail
                text.append(after[k][end:] if end else
                            f'    <edge source="{sources[k]}" target="{targets[k]}">{after[k]}')
            start = k + 1
        self._text(pieces, "".join(text))
        return b"".join(pieces)

    def _text(self, pieces: list, text: str) -> None:
        """Put text, with each run of attribute-free node lines lifted out."""
        parts = re.split(_NODE_LINE, text)
        between, ids = parts[::2], parts[1::2]
        # a run starts at the first line and at every line after other text
        starts = [i for i in range(len(ids)) if between[i] or not i]
        for start, stop in zip(starts, starts[1:] + [len(ids)]):
            self._put(pieces, between[start])
            self._mark(pieces, _NODE_PLACEHOLDER, ids[start:stop])
        self._put(pieces, between[-1])

    def _put(self, pieces: list, text: str) -> None:
        pieces.append(text.encode("utf-8", "surrogateescape"))
        self.fed += len(pieces[-1])

    def _mark(self, pieces: list, kind: str, run) -> None:
        """Put kind's placeholder; queue its run with the offset it is fed at."""
        self.runs.append((self.fed, kind, run))
        pieces.append(_MARKS[kind])
        self.fed += len(_MARKS[kind])

    def placeholder(self, target, data):
        if target not in _MARKS:
            return  # processing instructions are ignored, as parse() ignores them
        offset, kind, run = self.runs.popleft() if self.runs else (None, None, ())
        if not (offset == self.parser.CurrentByteIndex and self.depth == 2 and self.in_graph):
            raise _Unconfirmed
        if kind == _NODE_PLACEHOLDER:
            self.nodes.extend(run)
            return
        if not (all(self.keys.get(k) == v for k, v in _EDGE_KEYS.items())
                and self.keys.get("e_weight_decimal") not in _EDGE_KEYS.values()):
            raise _Unconfirmed
        for column, codes, values in zip(self.columns, (self.ids, self.ids, self.tails), run):
            column.extend(map(codes.__getitem__, values))

    def doctype(self, *args):
        raise _Unconfirmed  # a DTD can declare entities and default attributes

    def declaration(self, version, encoding, standalone):
        if encoding is not None and encoding.lower() != "utf-8":
            raise _Unconfirmed

    def start(self, tag, attrs):
        self.name = None  # like ElementTree, data text stops at a child element
        self.depth += 1
        depth, tag = self.depth, tag.rpartition("}")[2]
        if not self.in_graph:
            if depth == 2 and tag == "key":
                self.keys[attrs.get("id")] = (attrs.get("for"), attrs.get("attr.name"))
            elif depth == 2 and tag == "graph" and not self.seen_graph:
                self.in_graph = self.seen_graph = True
        elif tag == "data" and (depth == 3 or (depth == 4 and self.element is not None)):
            key = attrs.get("key")
            domain, name = self.keys.get(key, (None, None))
            data = self.graph_data if depth == 3 else self.element[2]
            if (name is not None and domain == ("graph" if depth == 3 else self.element[0])
                    and not (depth == 4 and key in _LAYOUT_KEYS)):
                self.data, self.name = data, name
                data[name] = ""
        elif depth == 3 and tag in ("node", "edge"):
            self.element = (tag, attrs, {})

    def chars(self, text):
        if self.name is not None:
            self.data[self.name] += text

    def end(self, tag):
        self.name = None
        if self.depth == 2:
            self.in_graph = False
        elif self.depth == 3 and self.element is not None:
            tag, attrs, data = self.element
            self.element = None
            if tag == "node":
                if attrs.get("id") is None:
                    raise ValidationError(f"a node in {self.path} has no id")
                self.nodes.append(attrs["id"])
                if data:
                    self.node_attrs[attrs["id"]] = data
            elif attrs.get("source") is None or attrs.get("target") is None:
                raise ValidationError(f"an edge in {self.path} lacks a source or target")
            elif "weight" not in data:
                raise ValidationError(f"an edge in {self.path} lacks a weight")
            else:
                sources, targets, tails = self.columns
                sources.append(self.ids[attrs["source"]])
                targets.append(self.ids[attrs["target"]])
                tails.append(self.tails[data["weight"], data.get("sign", POSITIVE),
                                        data.get("style", SOLID)])
        self.depth -= 1

    def graph(self) -> ProjectionGraph:
        if not self.seen_graph:
            raise ValidationError(f"no <graph> element in {self.path}")
        extra = dict(self.graph_data)
        kind = extra.pop("kind", "participant")
        thresholds = [extra.pop(name, None) for name in ("threshold", "negative_threshold")]
        for name in ("n_items", "n_participants"):
            if name in extra:
                try:
                    extra[name] = int(extra[name])
                except ValueError:
                    raise ValidationError(f"graph {name} {extra[name]!r} in {self.path} "
                                          f"is not an integer") from None
        # the distinct ids and tails go through the per-edge checks as if each were one edge
        tails = [re.findall(_TAIL_VALUES, tail) if isinstance(tail, str) else tail
                 for tail in self.tails]  # (weight, sign, style) each
        node_of, _, table, weight_of, sign_of, style_of = edge_columns(
            self.nodes, list(self.ids), (), *(zip(*tails) if tails else ((), (), ())))
        sources, targets, tails = (np.array(column, dtype=np.intp) for column in self.columns)
        return ProjectionGraph.from_arrays(
            kind, self.nodes, node_of[sources], node_of[targets], table, weight_of[tails],
            sign_of[tails], style_of[tails],
            node_attrs=self.node_attrs,
            threshold_used=None if thresholds[0] is None else as_fraction(thresholds[0]),
            negative_threshold_used=None if thresholds[1] is None else as_fraction(thresholds[1]),
            extra=extra,
        )


# ---------------------------------------------------------------------------
# Edge lists
# ---------------------------------------------------------------------------


def export_edgelist(graph: ProjectionGraph, path) -> None:
    """Edge list CSV: u,v,weight,weight_decimal,sign,style (exact fraction first)."""
    cells = [quote_cell(u) + "," for u in graph.nodes]
    _write_with_edges(
        path, ["u,v,weight,weight_decimal,sign,style"], graph, cells, cells,
        lambda w, sign, style: f"{format_fraction(w)},{float(w)!r},{sign},{style}",
        [],
    )


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


@dataclass
class ColorScheme:
    """Node fill colors keyed by a declared attribute.

    Every node must carry the attribute; values not in the mapping fall back
    to default_color when given, otherwise the offending nodes are reported.
    With attribute=None all nodes take default_color, which must then be given,
    and there is nothing to map. An empty color is not a paint and is refused.
    """

    attribute: str | None = None
    mapping: dict = None
    default_color: str | None = "#999999"

    def __post_init__(self):
        if self.mapping is None:
            self.mapping = {}
        if self.attribute is None and self.default_color is None:
            raise ValidationError("a ColorScheme without an attribute needs a default_color")
        if self.attribute is None and self.mapping:
            raise ValidationError("a ColorScheme without an attribute has no values to map")
        for value, color in self.mapping.items():
            if color == "":
                raise ValidationError(f"the color mapped to {value!r} is empty")
        if self.default_color == "":
            raise ValidationError("default_color is empty; pass None to make an unmapped "
                                  "value an error")

    def fill_for(self, graph: ProjectionGraph) -> dict:
        if self.attribute is None:
            return {u: self.default_color for u in graph.nodes}
        missing = [u for u in graph.nodes if self.attribute not in graph.node_attrs.get(u, {})]
        if missing:
            raise ValidationError(
                f"attribute {self.attribute!r} missing on nodes: {', '.join(sorted(missing))}"
            )
        fills = {}
        unmapped = []
        for u in graph.nodes:
            value = graph.node_attrs[u][self.attribute]
            if value in self.mapping:
                fills[u] = self.mapping[value]
            elif self.default_color is not None:
                fills[u] = self.default_color
            else:
                unmapped.append(u)
        if unmapped:
            raise ValidationError(
                f"no color mapped for attribute {self.attribute!r} on nodes: "
                f"{', '.join(sorted(unmapped))}"
            )
        return fills


def _svg_scale(positions, nodes, width, height, pad):
    xs = [positions[u][0] for u in nodes]
    ys = [positions[u][1] for u in nodes]
    x_min, y_min = min(xs), min(ys)
    span_x = (max(xs) - x_min) or 1.0
    span_y = (max(ys) - y_min) or 1.0

    def to_screen(u):
        x, y = positions[u]
        sx = pad + (x - x_min) / span_x * (width - 2 * pad)
        sy = height - (pad + (y - y_min) / span_y * (height - 2 * pad))
        return sx, sy

    return to_screen


def _svg_head(width: int, height: int) -> list:
    return ['<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="#ffffff"/>']


def _stroke(color, style, width, opacity) -> str:
    """The attributes after a <line>'s coordinates, through the closing "/>"."""
    dash = _DASH_PATTERNS[style]
    return (f' stroke="{color}" stroke-width="{_fmt6(width)}"'
            + (f' stroke-dasharray="{dash}"' if dash else "")
            + f' stroke-opacity="{_fmt6(opacity)}"/>')


def render_svg(graph: ProjectionGraph, layout: LayoutResult, color_scheme: ColorScheme | None,
               path) -> None:
    """Render a laid-out graph to an 800 x 800 SVG 1.1 with deterministic bytes.

    Positive edges are blue, negative red; the per-edge style class maps to
    solid/dashed/dotted strokes. Nodes are circles of radius 5 filled by the
    color scheme. A fill holding a character that XML 1.0 forbids is refused.
    """
    missing = [u for u in graph.nodes if u not in layout.positions]
    if missing:
        raise ValidationError(f"layout lacks positions for nodes: {', '.join(sorted(missing))}")
    scheme = color_scheme or ColorScheme()
    fills = scheme.fill_for(graph)
    colors = list(dict.fromkeys(fills.values()))  # distinct, in node order
    _refuse_non_xml(("fill", colors))
    quoted = {color: quoteattr(color) for color in colors}
    to_screen = _svg_scale(layout.positions, graph.nodes, 800, 800, pad=25.0)

    screen = [to_screen(u) for u in graph.nodes]
    xs = [_fmt6(x) for x, _ in screen]
    ys = [_fmt6(y) for _, y in screen]
    circles = [
        f'<circle cx="{x}" cy="{y}" r="5" '
        f'fill={quoted[fills[u]]} stroke="#333333" stroke-width="0.5"/>'
        for u, x, y in zip(graph.nodes, xs, ys)
    ]
    _write_with_edges(
        path, _svg_head(800, 800), graph, [f'<line x1="{x}" y1="{y}"' for x, y in zip(xs, ys)],
        [f' x2="{x}" y2="{y}"' for x, y in zip(xs, ys)],
        lambda w, sign, style: _stroke(_COLORS[sign], style, 1.5, 0.7),
        circles + ["</svg>"],
    )


def render_bipartite_svg(normalized: NormalizedMatrix, path) -> None:
    """Direct two-layer rendering of the participant-item bipartite graph,
    1200 x 700.

    Items sit on the top rank, participants on the bottom. Each response is
    one edge: blue for positive, red for negative, yellow for neutral; full
    endorsement (|value| = 1) draws solid, intermediate values dashed. An
    item label holding a character that XML 1.0 forbids is refused.
    """
    n, m = normalized.n_participants, normalized.n_items
    item_ids = normalized.schema.item_ids
    _refuse_non_xml(("item label", list(item_ids)))
    pad = 60.0
    item_y, part_y = pad, 700 - pad

    def item_x(j):
        return pad + (1200 - 2 * pad) * (j + 0.5) / m

    def part_x(i):
        return pad + (1200 - 2 * pad) * (i + 0.5) / n

    d = normalized.denominator
    strokes = {}  # numerator -> its line's attributes after the coordinates, and line end

    def stroke(numer):
        if numer not in strokes:
            color = (POSITIVE_COLOR if numer > 0 else NEGATIVE_COLOR) if numer else NEUTRAL_COLOR
            style = SOLID if abs(numer) in (d, 0) else DASHED
            strokes[numer] = _stroke(color, style, 0.8, 0.5) + "\n"
        return strokes[numer]

    ends = [f'x2="{_fmt6(item_x(j))}" y2="{_fmt6(item_y)}"' for j in range(m)]
    with open(path, "w", encoding="utf-8") as out:  # one participant's lines at a time
        out.writelines(line + "\n" for line in _svg_head(1200, 700))
        for i in range(n):
            start = f'<line x1="{_fmt6(part_x(i))}" y1="{_fmt6(part_y)}" '
            out.write("".join(start + end + stroke(numer) for end, numer, present in zip(
                ends, normalized.numerators[i].tolist(), normalized.mask[i].tolist()) if present))
        for j, item in enumerate(item_ids):
            x = item_x(j)
            out.write(f'<rect x="{_fmt6(x - 5)}" y="{_fmt6(item_y - 5)}" width="10" height="10" '
                      f'fill="#222222"/>\n'
                      f'<text x="{_fmt6(x)}" y="{_fmt6(item_y - 12)}" font-size="11" '
                      f'text-anchor="middle">{escape(item)}</text>\n')
        out.writelines(f'<circle cx="{_fmt6(part_x(i))}" cy="{_fmt6(part_y)}" r="2.5" '
                       f'fill="#555555"/>\n' for i in range(n))
        out.write("</svg>\n")
