"""Deterministic force-directed layout and figure-style exports.

Every exporter is a pure function of its inputs: stable element ordering,
fixed numeric formatting (SVG coordinates use 6 significant digits, embedded
layout positions 17), and no timestamps, so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from .errors import ValidationError
from .normalize import NormalizedMatrix
from .project import DASHED, DOTTED, Edge, NEGATIVE, POSITIVE, ProjectionGraph, SOLID
from .rational import as_fraction, format_fraction

POSITIVE_COLOR = "#1f77b4"  # blue
NEGATIVE_COLOR = "#d62728"  # red
NEUTRAL_COLOR = "#ffcc00"  # yellow

_DASH_PATTERNS = {SOLID: None, DASHED: "6,4", DOTTED: "1.5,3"}


def _fmt6(x: float) -> str:
    return format(float(x), ".6g")


def _fmt17(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class LayoutResult:
    """Node positions in abstract units plus the parameters that made them."""

    positions: dict
    seed: int
    iterations: int
    bounding_box: tuple

    def covers(self, graph: ProjectionGraph) -> bool:
        return all(u in self.positions for u in graph.nodes)


def fr_layout(graph: ProjectionGraph, seed: int, iterations: int = 500, *,
              negative_mode: str = "ignore") -> LayoutResult:
    """Force-directed layout: all-pairs repulsion, attraction on positive edges.

    Classic spring layout with a linear cooling schedule and seeded initial
    placement on the unit disc. Negative edges exert no force by default;
    negative_mode="repel" makes them push their endpoints apart. Identical
    (graph, seed, iterations, parameters) reproduce identical positions.
    O(V^2) per iteration.
    """
    if negative_mode not in ("ignore", "repel"):
        raise ValidationError(f"unknown negative edge mode {negative_mode!r}")
    if iterations < 0:
        raise ValidationError(f"layout iterations must be at least 0, got {iterations}")
    n = graph.n_nodes
    if n < 1:
        raise ValidationError("layout needs at least one node")
    if n == 1:
        return LayoutResult({graph.nodes[0]: (0.0, 0.0)}, seed, iterations,
                            (0.0, 0.0, 0.0, 0.0))

    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(n))
    angle = rng.random(n) * (2.0 * np.pi)
    pos = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])

    k = np.sqrt(1.0 / n)
    us, vs = graph.edge_index_arrays(POSITIVE)
    nus, nvs = graph.edge_index_arrays(NEGATIVE)
    t0 = 0.1
    for it in range(iterations):
        t = t0 * (1.0 - it / iterations)
        delta = pos[:, None, :] - pos[None, :, :]
        dist2 = (delta**2).sum(axis=2)
        np.fill_diagonal(dist2, 1.0)
        dist2 = np.maximum(dist2, 1e-12)
        disp = (delta * (k * k / dist2)[:, :, None]).sum(axis=1)
        if len(us):
            dvec = pos[us] - pos[vs]
            dlen = np.maximum(np.sqrt((dvec**2).sum(axis=1)), 1e-9)
            pull = dvec * (dlen / k)[:, None]
            np.add.at(disp, vs, pull)
            np.subtract.at(disp, us, pull)
        if negative_mode == "repel" and len(nus):
            dvec = pos[nus] - pos[nvs]
            dlen = np.maximum(np.sqrt((dvec**2).sum(axis=1)), 1e-9)
            push = dvec * (dlen / k)[:, None]
            np.add.at(disp, nus, push)
            np.subtract.at(disp, nvs, push)
        length = np.maximum(np.sqrt((disp**2).sum(axis=1)), 1e-12)
        pos += disp * (np.minimum(length, t) / length)[:, None]

    xs, ys = pos[:, 0], pos[:, 1]
    bbox = (float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))
    positions = {u: (float(pos[i, 0]), float(pos[i, 1])) for i, u in enumerate(graph.nodes)}
    return LayoutResult(positions, seed, iterations, bbox)


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


def export_graphml(graph: ProjectionGraph, path, layout: LayoutResult | None = None) -> None:
    """Lossless GraphML export: nodes, attributes, exact weights, sign, style.

    Weights are serialized as exact fraction strings alongside a decimal
    convenience value; a provided layout embeds x/y per node.
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
    key_defs = []  # (key_id, domain, name, type)
    for name in graph_data:
        key_defs.append((f"g_{name}", "graph", name, _GRAPH_FIELD_TYPES[name]))
    for i, name in enumerate(attr_names):
        key_defs.append((f"na{i}", "node", name, "string"))
    if layout is not None:
        key_defs.append(("nx", "node", "x", "double"))
        key_defs.append(("ny", "node", "y", "double"))
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
        lines.append(f'    <data key="g_{name}">{escape(str(value))}</data>')
    attr_key = {name: f"na{i}" for i, name in enumerate(attr_names)}
    for u in graph.nodes:
        attrs = graph.node_attrs.get(u, {})
        data = [
            f'<data key={quoteattr(attr_key[name])}>{escape(str(attrs[name]))}</data>'
            for name in attr_names
            if name in attrs
        ]
        if layout is not None:
            x, y = layout.positions[u]
            data.append(f'<data key="nx">{_fmt17(x)}</data>')
            data.append(f'<data key="ny">{_fmt17(y)}</data>')
        if data:
            lines.append(f'    <node id={quoteattr(u)}>{"".join(data)}</node>')
        else:
            lines.append(f'    <node id={quoteattr(u)}/>')
    for e in graph.edges:
        lines.append(
            f'    <edge source={quoteattr(e.u)} target={quoteattr(e.v)}>'
            f'<data key="e_weight">{escape(format_fraction(e.weight))}</data>'
            f'<data key="e_weight_decimal">{_fmt17(float(e.weight))}</data>'
            f'<data key="e_sign">{e.sign}</data>'
            f'<data key="e_style">{e.style}</data>'
            f'</edge>'
        )
    lines.append("  </graph>")
    lines.append("</graphml>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _local_name(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def import_graphml(path) -> ProjectionGraph:
    """Rebuild a ProjectionGraph from a GraphML file written by export_graphml.

    Embedded layout positions, if any, are ignored; everything else (node set,
    attributes, exact weights, sign, style, thresholds) round-trips.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"graph file not found: {path}")
    try:
        tree = ET.parse(path)
    except ET.ParseError as exc:
        raise ValidationError(f"not a parseable GraphML file: {path}: {exc}") from exc
    root = tree.getroot()

    key_names = {}
    for child in root:
        if _local_name(child.tag) == "key":
            key_names[child.get("id")] = (child.get("for"), child.get("attr.name"))
    graph_el = None
    for child in root:
        if _local_name(child.tag) == "graph":
            graph_el = child
            break
    if graph_el is None:
        raise ValidationError(f"no <graph> element in {path}")

    def data_of(element, domain):
        out = {}
        for child in element:
            if _local_name(child.tag) != "data":
                continue
            dom, name = key_names.get(child.get("key"), (None, None))
            if dom == domain and name is not None:
                out[name] = child.text or ""
        return out

    graph_data = data_of(graph_el, "graph")
    kind = graph_data.pop("kind", "participant")
    threshold = graph_data.pop("threshold", None)
    negative_threshold = graph_data.pop("negative_threshold", None)
    extra = {}
    for name, value in graph_data.items():
        extra[name] = int(value) if name in ("n_items", "n_participants") else value

    nodes = []
    node_attrs = {}
    edges = []
    for child in graph_el:
        tag = _local_name(child.tag)
        if tag == "node":
            node_id = child.get("id")
            nodes.append(node_id)
            attrs = data_of(child, "node")
            attrs.pop("x", None)
            attrs.pop("y", None)
            if attrs:
                node_attrs[node_id] = attrs
        elif tag == "edge":
            data = data_of(child, "edge")
            if "weight" not in data:
                raise ValidationError(f"edge in {path} lacks a weight")
            edges.append(Edge(
                child.get("source"),
                child.get("target"),
                Fraction(data["weight"]),
                data.get("sign", POSITIVE),
                data.get("style", SOLID),
            ))
    return ProjectionGraph(
        kind=kind,
        nodes=nodes,
        edges=edges,
        node_attrs=node_attrs,
        threshold_used=None if threshold is None else as_fraction(threshold),
        negative_threshold_used=None if negative_threshold is None else as_fraction(negative_threshold),
        extra=extra,
    )


# ---------------------------------------------------------------------------
# DOT and edge lists
# ---------------------------------------------------------------------------


def _dot_quote(s: str) -> str:
    return '"' + str(s).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(graph: ProjectionGraph, path, layout: LayoutResult | None = None) -> None:
    """Graphviz DOT export; edge style mirrors the style class, color the sign."""
    lines = ["graph G {"]
    for u in graph.nodes:
        attrs = graph.node_attrs.get(u, {})
        parts = [f"{k}={_dot_quote(v)}" for k, v in sorted(attrs.items())]
        if layout is not None:
            x, y = layout.positions[u]
            parts.append(f'pos="{_fmt6(x)},{_fmt6(y)}!"')
        if parts:
            lines.append(f"  {_dot_quote(u)} [{', '.join(parts)}];")
        else:
            lines.append(f"  {_dot_quote(u)};")
    for e in graph.edges:
        color = POSITIVE_COLOR if e.sign == POSITIVE else NEGATIVE_COLOR
        lines.append(
            f"  {_dot_quote(e.u)} -- {_dot_quote(e.v)} "
            f'[weight={_dot_quote(format_fraction(e.weight))}, sign="{e.sign}", '
            f'style="{e.style}", color="{color}"];'
        )
    lines.append("}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def export_edgelist(graph: ProjectionGraph, path) -> None:
    """Edge list CSV: u,v,weight,weight_decimal,sign,style (exact fraction first)."""
    lines = ["u,v,weight,weight_decimal,sign,style"]

    def cell(value: str) -> str:
        if any(c in value for c in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value

    for e in graph.edges:
        lines.append(",".join([
            cell(e.u),
            cell(e.v),
            format_fraction(e.weight),
            repr(float(e.weight)),
            e.sign,
            e.style,
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------


@dataclass
class ColorScheme:
    """Node fill colors keyed by a declared attribute.

    Every node must carry the attribute; values not in the mapping fall back
    to default_color when given, otherwise the offending nodes are reported.
    With attribute=None all nodes take default_color.
    """

    attribute: str | None = None
    mapping: dict = None
    default_color: str | None = "#999999"

    def __post_init__(self):
        if self.mapping is None:
            self.mapping = {}

    def fill_for(self, graph: ProjectionGraph) -> dict:
        if self.attribute is None:
            color = self.default_color or "#999999"
            return {u: color for u in graph.nodes}
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


def _edge_svg(x1, y1, x2, y2, color, style, stroke_width=1.5, opacity=None) -> str:
    dash = _DASH_PATTERNS[style]
    parts = [
        f'<line x1="{_fmt6(x1)}" y1="{_fmt6(y1)}" x2="{_fmt6(x2)}" y2="{_fmt6(y2)}"',
        f'stroke="{color}" stroke-width="{_fmt6(stroke_width)}"',
    ]
    if dash:
        parts.append(f'stroke-dasharray="{dash}"')
    if opacity is not None:
        parts.append(f'stroke-opacity="{_fmt6(opacity)}"')
    return " ".join(parts) + "/>"


def render_svg(graph: ProjectionGraph, layout: LayoutResult, color_scheme: ColorScheme | None,
               path, *, width: int = 800, height: int = 800, node_radius: float = 5.0) -> None:
    """Render a laid-out graph to SVG 1.1 with deterministic bytes.

    Positive edges are blue, negative red; the per-edge style class maps to
    solid/dashed/dotted strokes. Nodes are filled by the color scheme.
    """
    missing = [u for u in graph.nodes if u not in layout.positions]
    if missing:
        raise ValidationError(f"layout lacks positions for nodes: {', '.join(sorted(missing))}")
    scheme = color_scheme or ColorScheme()
    fills = scheme.fill_for(graph)
    to_screen = _svg_scale(layout.positions, graph.nodes, width, height, pad=20 + node_radius)

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for e in graph.edges:
        x1, y1 = to_screen(e.u)
        x2, y2 = to_screen(e.v)
        color = POSITIVE_COLOR if e.sign == POSITIVE else NEGATIVE_COLOR
        lines.append(_edge_svg(x1, y1, x2, y2, color, e.style, opacity=0.7))
    for u in graph.nodes:
        x, y = to_screen(u)
        lines.append(
            f'<circle cx="{_fmt6(x)}" cy="{_fmt6(y)}" r="{_fmt6(node_radius)}" '
            f'fill="{fills[u]}" stroke="#333333" stroke-width="0.5"/>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def render_bipartite_svg(normalized: NormalizedMatrix, path, *,
                         width: int = 1200, height: int = 700) -> None:
    """Direct two-layer rendering of the participant-item bipartite graph.

    Items sit on the top rank, participants on the bottom. Each response is
    one edge: blue for positive, red for negative, yellow for neutral; full
    endorsement (|value| = 1) draws solid, intermediate values dashed.
    """
    n, m = normalized.n_participants, normalized.n_items
    item_ids = normalized.schema.item_ids
    pad = 60.0
    item_y, part_y = pad, height - pad

    def item_x(j):
        return pad + (width - 2 * pad) * (j + 0.5) / m

    def part_x(i):
        return pad + (width - 2 * pad) * (i + 0.5) / n

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    d = normalized.denominator
    for i in range(n):
        for j in range(m):
            if not normalized.mask[i, j]:
                continue
            numer = int(normalized.numerators[i, j])
            if numer > 0:
                color = POSITIVE_COLOR
            elif numer < 0:
                color = NEGATIVE_COLOR
            else:
                color = NEUTRAL_COLOR
            style = SOLID if abs(numer) in (d, 0) else DASHED
            lines.append(_edge_svg(part_x(i), part_y, item_x(j), item_y, color, style,
                                   stroke_width=0.8, opacity=0.5))
    for j, item in enumerate(item_ids):
        x = item_x(j)
        lines.append(
            f'<rect x="{_fmt6(x - 5)}" y="{_fmt6(item_y - 5)}" width="10" height="10" '
            f'fill="#222222"/>'
        )
        lines.append(
            f'<text x="{_fmt6(x)}" y="{_fmt6(item_y - 12)}" font-size="11" '
            f'text-anchor="middle">{escape(item)}</text>'
        )
    for i in range(n):
        lines.append(
            f'<circle cx="{_fmt6(part_x(i))}" cy="{_fmt6(part_y)}" r="2.5" fill="#555555"/>'
        )
    lines.append("</svg>")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
