"""Brute-force reference implementations.

Everything here is written against plain Python data (lists, Fractions) and
stays independent of the package's numpy code paths, so it can serve as an
oracle for them. The exceptions are betweenness_per_source and
fr_positions_add_at, earlier numpy versions of package code kept as the
bitwise references for their replacements, expat_import_graphml, the
GraphML reader that parses every element with expat, kept as the reference
for import_graphml's lifted edge lines, full_row_select_threshold, a
Prim pass that computes each joining vertex's row against all N columns,
kept as the reference for select_threshold's banded pass, and
loop_load_survey, the loader that parses and checks one cell at a time,
kept as the reference for load_survey's per-token tables, and the per_edge_
exporters, which format each edge with its own f-string, kept as the byte
references for the exporters that join whole columns of edge lines.
"""

import csv
import math
from collections import deque
from fractions import Fraction
from pathlib import Path
from xml.parsers import expat

import numpy as np

from opinionnet import thirds_style
from opinionnet.errors import NoGiantComponentError, ValidationError
from opinionnet.ingest import MISSING, MISSING_POLICIES, LoadReport, ResponseMatrix, SurveySchema
from opinionnet.project import (POSITIVE, SCORE, SOLID, PairWeights, ProjectionGraph,
                                ThresholdSelection, edge_columns)
from opinionnet.rational import as_fraction, format_fraction

from helpers import edge_list


def normalized_value(code: int, scale_size: int) -> Fraction:
    k = scale_size
    return Fraction(2 * code - (k - 1), k - 1)


def sign_of(code: int, scale_size: int) -> int:
    v = normalized_value(code, scale_size)
    return (v > 0) - (v < 0)


def pair_weight(row_u, row_v, scale_sizes, mode, count_neutral_pairs=True):
    """Weight of one pair from raw codes (None marks missing): (weight, co)."""
    co = 0
    agree = 0
    diff = Fraction(0)
    for cu, cv, k in zip(row_u, row_v, scale_sizes):
        if cu is None or cv is None:
            continue
        co += 1
        if mode == "exact_agreement":
            agree += int(cu == cv)
        elif mode == "score":
            diff += abs(normalized_value(cu, k) - normalized_value(cv, k))
        elif mode == "binarized_agreement":
            su, sv = sign_of(cu, k), sign_of(cv, k)
            if su == sv and not (su == 0 and not count_neutral_pairs):
                agree += 1
        else:
            raise ValueError(mode)
    if mode == "score":
        return co - diff, co
    return Fraction(agree), co


def all_pair_weights(rows, scale_sizes, mode, count_neutral_pairs=True):
    n = len(rows)
    return {
        (i, j): pair_weight(rows[i], rows[j], scale_sizes, mode, count_neutral_pairs)
        for i in range(n)
        for j in range(i + 1, n)
    }


def attitude_edges(rows, scale_sizes, items, mode):
    """Styled attitude edges and counts from raw codes (None marks missing).

    Returns (edges, counts): the edges as (u, v, weight, sign, style) tuples,
    u < v, sorted; counts maps every ordered pair of distinct items to its
    (co-positive, co-negative) participant counts.
    """
    n = len(rows)
    edges, counts = [], {}
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            pos = neg = 0
            for row in rows:
                if row[a] is None or row[b] is None:
                    continue
                sa, sb = sign_of(row[a], scale_sizes[a]), sign_of(row[b], scale_sizes[b])
                pos += int(sa > 0 and sb > 0)
                neg += int(sa < 0 and sb < 0)
            counts[items[a], items[b]] = counts[items[b], items[a]] = (pos, neg)
            u, v = sorted((items[a], items[b]))
            weights = [pos, -neg] if mode == "dual" else [pos - neg]
            for w in weights:
                style = thirds_style(abs(w), n)
                if style is not None:
                    edges.append((u, v, Fraction(w), "positive" if w > 0 else "negative", style))
    return sorted(edges), counts


def components_from_edges(n, edges):
    """Connected components as index lists, largest first."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return sorted(groups.values(), key=len, reverse=True)


def sweep_oracle(weight_map, n, target):
    """Descending level sweep by full graph rebuilds: (chosen, fraction, sweep)."""
    levels = sorted({w for w, _ in weight_map.values()}, reverse=True)
    sweep = []
    for level in levels:
        edges = [pair for pair, (w, _) in weight_map.items() if w >= level]
        comps = components_from_edges(n, edges)
        frac = Fraction(len(comps[0]), n)
        sweep.append((level, frac))
        if frac >= target:
            return level, frac, sweep
    return None, None, sweep


def edge_betweenness_by_path_enumeration(n, edges):
    """Exact edge betweenness by listing every shortest path of every pair."""
    adjacency = [[] for _ in range(n)]
    edge_index = {}
    for e, (a, b) in enumerate(edges):
        adjacency[a].append(b)
        adjacency[b].append(a)
        edge_index[(min(a, b), max(a, b))] = e
    bet = [Fraction(0)] * len(edges)
    for s in range(n):
        dist = [-1] * n
        preds = [[] for _ in range(n)]
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    preds[w].append(v)
        for t in range(s + 1, n):
            if dist[t] < 0:
                continue
            paths = []
            stack = []

            def walk(v):
                if v == s:
                    paths.append(list(stack))
                    return
                for p in preds[v]:
                    stack.append((p, v))
                    walk(p)
                    stack.pop()

            walk(t)
            share = Fraction(1, len(paths))
            for path in paths:
                for a, b in path:
                    bet[edge_index[(min(a, b), max(a, b))]] += share
    return bet


def betweenness_per_source(n_nodes: int, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Float64 edge betweenness, one BFS per source over all directed edges.

    The package's earlier engine, kept verbatim as the bitwise reference for
    the blocked engine (analyze._betweenness_fast): each delta[u] adds its
    children in directed-edge index order, and each bet[e] adds sources in
    ascending order. O(depth * E) per source.
    """
    n_edges = len(us)
    bet = np.zeros(n_edges)
    if n_edges == 0 or n_nodes == 0:
        return bet
    src = np.concatenate([us, vs]).astype(np.int64)
    dst = np.concatenate([vs, us]).astype(np.int64)
    eid = np.concatenate([np.arange(n_edges), np.arange(n_edges)])
    for s in range(n_nodes):
        dist = np.full(n_nodes, -1, dtype=np.int64)
        sigma = np.zeros(n_nodes)
        dist[s] = 0
        sigma[s] = 1.0
        depth = 0
        while True:
            on = dist[src] == depth
            if not on.any():
                break
            tails = dst[on]
            fresh = tails[dist[tails] < 0]
            if fresh.size:
                dist[fresh] = depth + 1
            dag_local = dist[tails] == depth + 1
            if dag_local.any():
                sigma += np.bincount(tails[dag_local],
                                     weights=sigma[src[on][dag_local]],
                                     minlength=n_nodes)
            depth += 1
        max_depth = depth - 1
        if max_depth < 1:
            continue
        delta = np.zeros(n_nodes)
        dsrc = dist[src]
        ddst = dist[dst]
        dag = (dsrc >= 0) & (ddst == dsrc + 1)
        for level in range(max_depth, 0, -1):
            m = dag & (ddst == level)
            if not m.any():
                continue
            u = src[m]
            w = dst[m]
            contrib = sigma[u] / sigma[w] * (1.0 + delta[w])
            bet += np.bincount(eid[m], weights=contrib, minlength=n_edges)
            delta += np.bincount(u, weights=contrib, minlength=n_nodes)
    return bet / 2.0


def fr_positions_add_at(graph, seed, iterations):
    """Force-directed positions with the edge forces scattered by np.add.at.

    The package's earlier layout loop, kept as the reference for the
    bincount scatter in render.fr_layout; returns the (n, 2) positions.
    """
    n = graph.n_nodes
    rng = np.random.default_rng(seed)
    radius = np.sqrt(rng.random(n))
    angle = rng.random(n) * (2.0 * np.pi)
    pos = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    k = np.sqrt(1.0 / n)
    positive = graph.positive_mask()
    us, vs = graph.us[positive], graph.vs[positive]
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
        length = np.maximum(np.sqrt((disp**2).sum(axis=1)), 1e-12)
        pos += disp * (np.minimum(length, t) / length)[:, None]
    return pos


def rand_index(labels_a, labels_b) -> Fraction:
    """Pair-counting agreement between two labelings of the same points."""
    n = len(labels_a)
    agree = 0
    total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            same_a = labels_a[i] == labels_a[j]
            same_b = labels_b[i] == labels_b[j]
            agree += int(same_a == same_b)
    return Fraction(agree, total)


def random_rows(rng, n, scale_sizes, missing_rate=0.0):
    rows = []
    for _ in range(n):
        row = []
        for k in scale_sizes:
            if missing_rate and rng.random() < missing_rate:
                row.append(None)
            else:
                row.append(rng.randrange(k))
        rows.append(row)
    return rows


_LAYOUT_KEYS = ("nx", "ny")  # export_graphml's layout keys, which the import skips


def expat_import_graphml(path) -> ProjectionGraph:
    """Rebuild a ProjectionGraph from a GraphML file written by export_graphml.

    Embedded layout positions, if any, are ignored; everything else (node set,
    attributes, exact weights, sign, style, thresholds) round-trips. Keys must
    be declared before the graph that uses them, as GraphML requires.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"graph file not found: {path}")
    reader = _GraphMLReader(path)
    parser = expat.ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    parser.StartElementHandler = reader.start
    parser.CharacterDataHandler = reader.chars
    parser.EndElementHandler = reader.end
    try:
        with open(path, "rb") as fh:
            parser.ParseFile(fh)
    except expat.ExpatError as exc:
        raise ValidationError(f"not a parseable GraphML file: {path}: {exc}") from exc
    return reader.graph()


class _GraphMLReader:
    """expat handlers that collect a GraphML file's keys, graph data, nodes
    and edge columns: each edge appends its endpoint ids and its weight, sign
    and style strings to lists."""

    def __init__(self, path: Path):
        self.path = path
        self.keys = {}  # key id -> (domain, attribute name)
        self.graph_data, self.nodes, self.node_attrs = {}, [], {}
        self.columns = ([], [], [], [], [])  # sources, targets, weights, signs, styles
        self.depth = 0
        self.in_graph = self.seen_graph = False
        self.element = None  # (tag, attributes, data) of the open node or edge
        self.data = self.name = None  # where the open <data> element's text goes

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
                for column, value in zip(self.columns, (
                        attrs["source"], attrs["target"], data["weight"],
                        data.get("sign", POSITIVE), data.get("style", SOLID))):
                    column.append(value)
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
        return ProjectionGraph.from_arrays(
            kind, self.nodes, *edge_columns(self.nodes, *self.columns),
            node_attrs=self.node_attrs,
            threshold_used=None if thresholds[0] is None else as_fraction(thresholds[0]),
            negative_threshold_used=None if thresholds[1] is None else as_fraction(thresholds[1]),
            extra=extra,
        )


MAX_SWEEP_LEVELS = 2**24  # level flags full_row_select_threshold may allocate (16 MiB)


def full_row_select_threshold(weights: PairWeights, target_fraction=Fraction(1, 2), *,
                              min_level=None) -> ThresholdSelection:
    """Highest weight level whose edge set reaches the target giant component.

    Descends through the distinct weight values present, adding all edges at
    each level, and stops at the first (hence highest) level where the largest
    component covers at least target_fraction of the participants. Levels are
    distinct values, so ties cannot occur. min_level bounds the descent; if
    the target is never reached the sweep so far is raised with the error.

    One pass of Prim's algorithm over the complete weighted graph builds a
    maximum spanning tree and the histogram of all pair weights: each added
    vertex's numerator row is binned against the vertices still outside the
    tree, so every pair is counted once. The components of the edges at or
    above any level are those of the tree edges at or above it (single
    linkage; Gower & Ross 1969), so the sweep unions tree edges only.

    The histogram is an array with one flag per representable weight level
    (2*m*D + 1 for score weights, m + 1 otherwise). Surveys whose scale steps
    have a huge least common multiple D would need more than
    MAX_SWEEP_LEVELS of them; they are a ValidationError, and such surveys
    need an explicit threshold.
    """
    target = as_fraction(target_fraction)
    if not (0 < target <= 1):
        raise ValidationError(f"target fraction {target} must lie in (0, 1]")
    if weights.rescale:
        raise ValidationError("automatic threshold selection is not supported for "
                              "rescaled pairwise weights")
    n = weights.n_participants
    d = weights.denominator
    off = weights.n_items * d if weights.mode == SCORE else 0  # lowest numerator, negated
    levels = off + weights.n_items * d + 1
    if levels > MAX_SWEEP_LEVELS:
        raise ValidationError(
            f"the threshold sweep would track {levels} weight levels, more than "
            f"{MAX_SWEEP_LEVELS}; give an explicit threshold instead")

    present = np.zeros(levels, dtype=bool)  # weight level present among the pairs
    lowest = np.iinfo(np.int64).min
    best = np.full(n, lowest, dtype=np.int64)  # heaviest link to the tree; lowest once inside
    link = np.zeros(n, dtype=np.int64)
    outside = np.ones(n, dtype=bool)
    tree = []  # (numerator, u, v) per spanning-tree edge
    v = 0
    outside[v] = False
    for _ in range(n - 1):
        row = weights.block_numerators(v, v + 1, 0, n)[0][0]  # unrescaled: counts unused
        present[row[outside].astype(np.intp) + off] = True
        closer = outside & (row > best)
        best[closer] = row[closer]
        link[closer] = v
        v = int(np.argmax(best))
        tree.append((int(best[v]), int(link[v]), v))
        best[v] = lowest
        outside[v] = False
    tree.sort(reverse=True)

    numerators = np.nonzero(present)[0][::-1] - off  # descending weight levels
    if min_level is not None:
        numerators = numerators[numerators >= math.ceil(as_fraction(min_level) * d)]

    sweep: list[tuple[Fraction, Fraction]] = []
    joined = None
    for level_numer in numerators.tolist():
        edges = [(u, v) for numer, u, v in tree if numer >= level_numer]
        if len(edges) != joined:  # components only change as tree edges join
            joined, largest = len(edges), len(components_from_edges(n, edges)[0])
        level = Fraction(level_numer, d)
        frac = Fraction(largest, n)
        sweep.append((level, frac))
        if largest * target.denominator >= target.numerator * n:
            return ThresholdSelection(level, frac, sweep)

    raise NoGiantComponentError(
        f"no weight level reached a giant component of {format_fraction(target)} "
        f"of the {n} participants",
        sweep,
    )


def loop_load_survey(csv_path, schema: SurveySchema, missing_policy: str = "drop_participant") -> ResponseMatrix:
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

        ids: list[str] = []
        rows: list[list[int]] = []
        attr_vals: list[list[str]] = [[] for _ in schema.attribute_columns]
        seen_ids: dict[str, int] = {}
        missing_cells = 0
        row_no = 0
        try:
            for row in reader:
                row_no += 1
                if len(row) != len(header):
                    raise ValidationError(
                        f"malformed CSV: data row {row_no} has {len(row)} fields, expected {len(header)}"
                    )
                pid = row[id_pos]
                if pid in seen_ids:
                    raise ValidationError(
                        f"duplicate participant id {pid!r} at data row {row_no} "
                        f"(first seen at data row {seen_ids[pid]})"
                    )
                seen_ids[pid] = row_no
                codes_row = []
                for item, pos in zip(schema.items, item_pos):
                    token = row[pos].strip()
                    if token == schema.missing_token:
                        codes_row.append(MISSING)
                        missing_cells += 1
                        continue
                    try:
                        value = int(token)
                    except ValueError:
                        raise ValidationError(
                            f"invalid code at data row {row_no}, column {item.item_id!r}: "
                            f"{row[pos]!r} is neither an integer nor the missing token"
                        ) from None
                    if value < 0 or value >= item.scale_size:
                        raise ValidationError(
                            f"out-of-range code at data row {row_no}, column {item.item_id!r}: "
                            f"got {value}, valid codes are 0..{item.scale_size - 1}"
                        )
                    codes_row.append(value)
                ids.append(pid)
                rows.append(codes_row)
                for k, pos in enumerate(attr_pos):
                    attr_vals[k].append(row[pos])
        except csv.Error as exc:
            raise ValidationError(f"malformed CSV near data row {row_no + 1} in {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"survey file {path} is not UTF-8 text: {exc}") from exc

    rows_read = len(rows)
    if rows_read == 0:
        raise ValidationError(f"survey file {path} contains a header but no data rows")

    codes = np.array(rows, dtype=np.int16)
    keep = np.ones(rows_read, dtype=bool)
    if missing_policy == "drop_participant":
        keep = (codes != MISSING).all(axis=1)
        if not keep.any():
            raise ValidationError(
                f"all {rows_read} rows were dropped by the drop_participant policy"
            )
    rows_dropped = int(rows_read - keep.sum())
    report = LoadReport(rows_read=rows_read, rows_dropped=rows_dropped, missing_cells=missing_cells)

    kept_idx = np.nonzero(keep)[0]
    attributes = {
        c: tuple(attr_vals[k][i] for i in kept_idx)
        for k, c in enumerate(schema.attribute_columns)
    }
    return ResponseMatrix(
        schema=schema,
        participant_ids=[ids[i] for i in kept_idx],
        codes=codes[kept_idx],
        attributes=attributes,
        report=report,
    )


# ---------------------------------------------------------------------------
# Exporters that format each edge with its own f-string, kept as the byte
# references for the exporters that join whole columns of edge lines
# ---------------------------------------------------------------------------

def _write_lines(path, lines) -> None:
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def per_edge_export_graphml(graph: ProjectionGraph, path, layout=None) -> None:
    """export_graphml's bytes; with a layout, a file as earlier versions wrote
    it, with each node's position under the keys nx and ny."""
    from opinionnet.render import _GRAPH_FIELD_TYPES, _fmt17, escape, quoteattr

    def text(value) -> str:  # XML reads a raw \r back as \n
        return escape(str(value)).replace("\r", "&#13;")

    graph_data = {"kind": graph.kind}
    for name in ("mode", "attitude_mode", "n_items", "n_participants"):
        if name in graph.extra:
            graph_data[name] = graph.extra[name]
    if graph.threshold_used is not None:
        graph_data["threshold"] = format_fraction(graph.threshold_used)
    if graph.negative_threshold_used is not None:
        graph_data["negative_threshold"] = format_fraction(graph.negative_threshold_used)
    attr_names = graph.attribute_names()
    key_defs = [(f"g_{name}", "graph", name, _GRAPH_FIELD_TYPES[name]) for name in graph_data]
    key_defs += [(f"na{i}", "node", name, "string") for i, name in enumerate(attr_names)]
    if layout is not None:
        key_defs += [("nx", "node", "x", "double"), ("ny", "node", "y", "double")]
    key_defs += [("e_weight", "edge", "weight", "string"),
                 ("e_weight_decimal", "edge", "weight_decimal", "double"),
                 ("e_sign", "edge", "sign", "string"), ("e_style", "edge", "style", "string")]
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">']
    lines += [f'  <key id={quoteattr(key_id)} for="{domain}" attr.name={quoteattr(name)} '
              f'attr.type="{attr_type}"/>' for key_id, domain, name, attr_type in key_defs]
    lines.append('  <graph id="G" edgedefault="undirected">')
    lines += [f'    <data key="g_{name}">{text(value)}</data>'
              for name, value in graph_data.items()]
    attr_key = {name: f"na{i}" for i, name in enumerate(attr_names)}
    for u in graph.nodes:
        attrs = graph.node_attrs.get(u, {})
        data = [f'<data key={quoteattr(attr_key[name])}>{text(attrs[name])}</data>'
                for name in attr_names if name in attrs]
        if layout is not None:
            x, y = layout.positions[u]
            data += [f'<data key="nx">{_fmt17(x)}</data>', f'<data key="ny">{_fmt17(y)}</data>']
        lines.append(f'    <node id={quoteattr(u)}>{"".join(data)}</node>' if data
                     else f'    <node id={quoteattr(u)}/>')
    lines += [f'    <edge source={quoteattr(u)} target={quoteattr(v)}>'
              f'<data key="e_weight">{escape(format_fraction(weight))}</data>'
              f'<data key="e_weight_decimal">{_fmt17(float(weight))}</data>'
              f'<data key="e_sign">{sign}</data><data key="e_style">{style}</data></edge>'
              for u, v, weight, sign, style in edge_list(graph)]
    _write_lines(path, lines + ["  </graph>", "</graphml>"])


def per_edge_export_edgelist(graph: ProjectionGraph, path) -> None:
    def cell(value: str) -> str:
        if any(c in value for c in ',"\n\r'):
            return '"' + value.replace('"', '""') + '"'
        return value

    _write_lines(path, ["u,v,weight,weight_decimal,sign,style"] + [
        f"{cell(u)},{cell(v)},{format_fraction(weight)},{float(weight)!r},{sign},{style}"
        for u, v, weight, sign, style in edge_list(graph)])


def per_edge_render_svg(graph: ProjectionGraph, layout, path) -> None:
    from opinionnet.render import _COLORS, ColorScheme, _fmt6, _stroke, _svg_scale

    fills = ColorScheme().fill_for(graph)
    to_screen = _svg_scale(layout.positions, graph.nodes, 800, 800, pad=25.0)
    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="800" '
             'height="800" viewBox="0 0 800 800">',
             '<rect width="800" height="800" fill="#ffffff"/>']
    for u, v, _, sign, style in edge_list(graph):
        (x1, y1), (x2, y2) = to_screen(u), to_screen(v)
        lines.append(f'<line x1="{_fmt6(x1)}" y1="{_fmt6(y1)}" x2="{_fmt6(x2)}" y2="{_fmt6(y2)}"'
                     + _stroke(_COLORS[sign], style, 1.5, 0.7))
    for u in graph.nodes:
        x, y = to_screen(u)
        lines.append(f'<circle cx="{_fmt6(x)}" cy="{_fmt6(y)}" r="5" '
                     f'fill="{fills[u]}" stroke="#333333" stroke-width="0.5"/>')
    _write_lines(path, lines + ["</svg>"])
