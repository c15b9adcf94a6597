"""Builders shared across test modules."""

from fractions import Fraction

import numpy as np

from opinionnet import (
    Edge,
    ProjectionGraph,
    ResponseMatrix,
    SurveyItem,
    SurveySchema,
    binarize,
    binarized_agreement_weights,
    exact_agreement_weights,
    project_participants,
    renormalize,
    score_weights,
)
from opinionnet.project import SIGNS, STYLES


def make_schema(scale_sizes, attrs=(), missing_token="NA"):
    items = tuple(SurveyItem(f"q{i:02d}", k) for i, k in enumerate(scale_sizes))
    return SurveySchema(items=items, id_column="pid", attribute_columns=tuple(attrs),
                        missing_token=missing_token)


def make_matrix(rows, scale_sizes, ids=None, attributes=None, schema=None):
    """ResponseMatrix from plain code rows; None marks a missing response."""
    if schema is None:
        attrs = tuple(attributes) if attributes else ()
        schema = make_schema(scale_sizes, attrs=attrs)
    n = len(rows)
    if ids is None:
        ids = [f"p{i:03d}" for i in range(n)]
    codes = np.array([[-1 if c is None else c for c in row] for row in rows], dtype=np.int16)
    return ResponseMatrix(schema, ids, codes, attributes=attributes)


def normalized_values(normalized):
    """Every normalized value as an exact Fraction, None where missing, one
    list per participant, read from the numerators over the denominator."""
    d = normalized.denominator
    return [[Fraction(k, d) if present else None for k, present in zip(row, mask)]
            for row, mask in zip(normalized.numerators.tolist(), normalized.mask.tolist())]


def same_matrix(a, b):
    """Whether two ResponseMatrix objects hold the same schema, ids, codes,
    mask and attributes."""
    return (a.schema == b.schema and a.participant_ids == b.participant_ids
            and np.array_equal(a.codes, b.codes) and np.array_equal(a.mask, b.mask)
            and a.attributes == b.attributes)


def weights_from_rows(rows, scale_sizes, mode, count_neutral_pairs=True, rescale=False,
                      ids=None):
    matrix = make_matrix(rows, scale_sizes, ids=ids)
    if mode == "exact_agreement":
        return exact_agreement_weights(matrix)
    normalized = renormalize(matrix)
    if mode == "score":
        return score_weights(normalized, rescale_to_full=rescale)
    return binarized_agreement_weights(binarize(normalized),
                                       count_neutral_pairs=count_neutral_pairs)


def pair_weights(weights):
    """Every pair's exact weight, {(i, j): weight} for participant indices
    i < j, read from the projection at the bottom of the weight range, where
    every pair is an edge."""
    graph = project_participants(weights, weights.weight_range()[0])
    n = weights.n_participants
    assert graph.n_edges == n * (n - 1) // 2
    table = graph.weight_table
    return {(min(a, b), max(a, b)): table[k] for a, b, k in
            zip(graph.us.tolist(), graph.vs.tolist(), graph.weight_codes.tolist())}


def graph_from_edges(nodes, pairs, kind="participant", n_items=None, **kwargs):
    """ProjectionGraph with unit positive weights over explicit node ids."""
    edges = [Edge(u, v, Fraction(1)) for u, v in pairs]
    extra = kwargs.pop("extra", {})
    if n_items is not None:
        extra["n_items"] = n_items
    return ProjectionGraph(kind=kind, nodes=nodes, edges=edges, extra=extra, **kwargs)


def edge_list(graph):
    """The graph's edges in canonical order as (u, v, weight, sign, style),
    read from its columns."""
    nodes, table = graph.nodes, graph.weight_table
    return [(nodes[a], nodes[b], table[c], SIGNS[s], STYLES[t])
            for a, b, c, s, t in zip(graph.us.tolist(), graph.vs.tolist(),
                                     graph.weight_codes.tolist(), graph.signs.tolist(),
                                     graph.styles.tolist())]


def barbell_graph():
    """Two complete 4-cliques joined by a single bridge (13 edges)."""
    left = [f"a{i}" for i in range(4)]
    right = [f"b{i}" for i in range(4)]
    pairs = []
    for side in (left, right):
        for i in range(4):
            for j in range(i + 1, 4):
                pairs.append((side[i], side[j]))
    pairs.append((left[0], right[0]))
    return graph_from_edges(left + right, pairs)


def index_labels(components, nodes):
    """Map each node to the index of its component, in the given node order."""
    where = {}
    for ci, comp in enumerate(components):
        for u in comp:
            where[u] = ci
    return [where[u] for u in nodes]


def planted_two_block_graph(rng):
    """Two blocks of 100 nodes, edge density 0.3 within and 0.01 across."""
    nodes = [f"p{i:03d}" for i in range(200)]
    pairs = []
    for block in (range(0, 100), range(100, 200)):
        block = list(block)
        for i in range(len(block)):
            for j in range(i + 1, len(block)):
                if rng.random() < 0.3:
                    pairs.append((nodes[block[i]], nodes[block[j]]))
    cross = 0
    for i in range(100):
        for j in range(100, 200):
            if rng.random() < 0.01:
                pairs.append((nodes[i], nodes[j]))
                cross += 1
    return graph_from_edges(nodes, pairs), nodes, cross
