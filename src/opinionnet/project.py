"""The pairwise engine: agreement weights, similarity scores, and projections.

Three weight modes over participant pairs:

* exact_agreement: number of items answered identically (integer, 0..m).
* score: m minus the total absolute difference of normalized responses
  (rational, -m..+m); identical rows score +m, fully opposed extremes -m.
* binarized_agreement: number of items answered on the same side of the
  scale midpoint (integer, 0..m).

Weights are exact rationals held as integer numerators over one shared
denominator. All three modes share one kernel: each row is encoded once as a
one-hot over (item, value) and as that one-hot times a per-item table of
numerator contributions, so a block of numerators is a single matrix
product (see PairWeights). Every pass over all pairs runs over the square
tiles of the upper triangle, SCAN_TILE rows by SCAN_TILE columns, so a
tile's numerators and counts stay in cache and the memory of a pass does not
grow with N. Every product and partial sum is an integer of magnitude at most
m*D (m items, D the shared denominator), so the product runs on one of three
dtype rungs: float32 when m*D < 2**24, float64 when m*D < 2**53, and int64
otherwise. Each rung holds every sum exactly, whatever the BLAS blocking or
thread count, and blocks stay on it. One routine, _tile_pairs, selects
the pairs of a tile for every pass: it compares the block with a threshold's
exact integer level (a table by co-answered count for rescaled weights on
incomplete data), which lies within +-m*D and so on the rung for any
threshold, and the selected numerators stay on the rung too. Positive edges
need w >= threshold, negative edges (disagreement ties) need
w <= negative_threshold. Exact-agreement projections at levels m and m-1 on
complete data skip the pair scan and sort rows instead.
The threshold sweep's pass over all pairs also lives here: _sweep_bands scans
one row of each group of equal rows, on a private copy of the kernel without
co-answered counts, in bands of weight levels from the top down until
select_threshold stops. A band holds only the pairs across its components,
compacted into a forest when they pass a byte budget, and the levels present
are the values of the pairs it selects. For `project --threshold auto` without
a negative threshold, _auto_projection's bands also keep every pair they
select, within the same budget, on the kernel with its counts; the band that
reaches the chosen level then holds the whole graph at that level, and
_held_pairs expands it back over the equal rows, so the graph needs no second
scan. Past the budget, the graph comes from the scan.
"""

from __future__ import annotations

import copy
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NoGiantComponentError, ValidationError
from .ingest import ResponseMatrix
from .normalize import NormalizedMatrix, SignMatrix
from .rational import as_fraction, format_fraction

EXACT_AGREEMENT = "exact_agreement"
SCORE = "score"
BINARIZED_AGREEMENT = "binarized_agreement"

POSITIVE = "positive"
NEGATIVE = "negative"

SOLID = "solid"
DASHED = "dashed"
DOTTED = "dotted"

# the side of the pair scan's square tiles: a tile's float32 numerators and
# co-answered counts (8 B per cell) take 1.1 MiB, within a 2 MiB L2 cache,
# whatever N is. Measured on a 2-core x86-64 machine with OpenBLAS: sides of
# 128 and 256 scan N = 30,000 slower, and at 512 glibc returns the freed tiles
# to the system (13k minor page faults per projection at N = 3,000, none at 384)
SCAN_TILE = 384


def _upper_tiles(n: int):
    """The tiles (r0, r1, c0, c1) that cover each pair i < j of n rows once:
    every row tile against the column tiles from its own on. Only a diagonal
    tile (c0 == r0) holds pairs i >= j, which its scan masks out."""
    side = SCAN_TILE
    for r0 in range(0, n, side):
        for c0 in range(r0, n, side):
            yield r0, min(r0 + side, n), c0, min(c0 + side, n)


class PairWeights:
    """Symmetric pairwise weights over participants, derived from row features.

    Each row is encoded once as a one-hot X over (item, value present in that
    column), all zero where the answer is missing, and as Y = X @ T with T
    block-diagonal: one table per item giving the numerator one co-answered
    item contributes to a pair. The table is the identity for the agreement
    modes (the neutral-neutral cell zeroed when neutral pairs do not count)
    and D - |a - b| for score mode. A block of weight numerators is then one
    matrix product Y[rows] @ X[cols].T, and co-answered counts are M @ M.T
    over the answer mask M. Both come back in the kernel's dtype rung, every
    entry an exact integer. Weights are never materialized for all pairs up
    front; consumers either ask for single pairs (exact Fractions) or stream
    numerator blocks.
    """

    def __init__(self, mode, participant_ids, features, mask, n_items, denominator,
                 rescale=False, count_neutral_pairs=True):
        n = features.shape[0]
        if n < 2:
            raise ValidationError("pairwise weights need at least 2 participants")
        self.mode = mode
        self.participant_ids = tuple(participant_ids)
        self.n_items = int(n_items)
        self.denominator = int(denominator)
        self.rescale = bool(rescale)
        self.count_neutral_pairs = bool(count_neutral_pairs)
        self._features = np.ascontiguousarray(features, dtype=np.int64)
        self._mask = np.ascontiguousarray(mask, dtype=bool)
        # every product and partial sum below is an integer of magnitude at most
        # n_items * denominator, so each rung is exact whatever the BLAS blocking
        # or thread count: float32 below 2**24, float64 below 2**53, else int64
        scale = self.n_items * self.denominator
        dtype = np.float32 if scale < 2**24 else np.float64 if scale < 2**53 else np.int64
        values = [np.unique(self._features[self._mask[:, j], j]) for j in range(self.n_items)]
        self._x = np.empty((n, sum(map(len, values))), dtype=dtype)
        self._y = np.empty_like(self._x)
        at = 0
        for j, vals in enumerate(values):
            onehot = ((self._features[:, j, None] == vals) & self._mask[:, j, None]).astype(dtype)
            self._x[:, at:at + len(vals)] = onehot
            # one table value per entry: exact on the rung
            self._y[:, at:at + len(vals)] = onehot @ self._item_table(vals).astype(dtype)
            at += len(vals)
        self._m = None if self._mask.all() else self._mask.astype(dtype)

    def _item_table(self, values: np.ndarray) -> np.ndarray:
        """Numerator contributed by one co-answered item, per pair of values."""
        if self.mode == SCORE:
            return self.denominator - np.abs(values[:, None] - values[None, :])
        table = np.eye(len(values), dtype=np.int64)
        if self.mode == BINARIZED_AGREEMENT and not self.count_neutral_pairs:
            neutral = values == 0
            table[neutral, neutral] = 0
        return table

    @property
    def n_participants(self) -> int:
        return self._x.shape[0]

    @property
    def has_missing(self) -> bool:
        return self._m is not None

    def weight_range(self) -> tuple[Fraction, Fraction]:
        m = self.n_items
        if self.mode == SCORE:
            return Fraction(-m), Fraction(m)
        return Fraction(0), Fraction(m)

    def co_answered(self, u: int, v: int) -> int:
        """Number of items answered by both members of the pair."""
        self._check_pair(u, v)
        return int((self._mask[u] & self._mask[v]).sum())

    def weight(self, u: int, v: int) -> Fraction:
        """Exact weight of one unordered pair."""
        self._check_pair(u, v)
        numer, co = self.block_numerators(u, u + 1, v, v + 1)
        return _pair_weight_fraction(self, numer[0, 0], None if co is None else co[0, 0])

    def _check_pair(self, u: int, v: int) -> None:
        n = self.n_participants
        if u == v:
            raise ValidationError("no self-pairs")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"pair index out of range: ({u}, {v})")

    def block_numerators(self, r0: int, r1: int, c0: int, c1: int):
        """Weight numerators (and co-answered counts) for rows x cols.

        Returns (numer, co) in the kernel's rung dtype (float32, float64 or
        int64), every entry an exact integer; co is None for complete
        matrices. For score mode numer/denominator is the weight (numer =
        co*D - total difference); for the agreement modes the numerator is
        the integer weight itself.
        """
        numer = self._y[r0:r1] @ self._x[c0:c1].T
        if self._m is None:
            return numer, None
        return numer, self._m[r0:r1] @ self._m[c0:c1].T


def exact_agreement_weights(matrix: ResponseMatrix) -> PairWeights:
    """Per pair, the number of items both answered identically."""
    if matrix.n_participants < 2:
        raise ValidationError("exact agreement needs at least 2 participants")
    return PairWeights(
        EXACT_AGREEMENT,
        matrix.participant_ids,
        matrix.codes.astype(np.int64),
        matrix.mask,
        matrix.n_items,
        1,
    )


def score_weights(normalized: NormalizedMatrix, *, rescale_to_full: bool = False) -> PairWeights:
    """Similarity score per pair: item count minus total normalized difference.

    With pairwise-missing data the item count is replaced by the pair's
    co-answered count; rescale_to_full instead stretches such scores back to
    the full -m..+m range (weight * m / co_answered).
    """
    if normalized.n_participants < 2:
        raise ValidationError("score weights need at least 2 participants")
    return PairWeights(
        SCORE,
        normalized.participant_ids,
        normalized.numerators,
        normalized.mask,
        normalized.n_items,
        normalized.denominator,
        rescale=rescale_to_full,
    )


def binarized_agreement_weights(signs: SignMatrix, *, count_neutral_pairs: bool = True) -> PairWeights:
    """Per pair, the number of items answered on the same side of the midpoint.

    Two neutral answers to the same item count as agreement (it is an
    identical response); pass count_neutral_pairs=False to exclude them.
    """
    if signs.n_participants < 2:
        raise ValidationError("binarized agreement needs at least 2 participants")
    return PairWeights(
        BINARIZED_AGREEMENT,
        signs.participant_ids,
        signs.signs.astype(np.int64),
        signs.mask,
        signs.n_items,
        1,
        count_neutral_pairs=count_neutral_pairs,
    )


@dataclass(frozen=True)
class Edge:
    u: str
    v: str
    weight: Fraction
    sign: str = POSITIVE
    style: str = SOLID


SIGNS = (NEGATIVE, POSITIVE)  # sign codes 0 and 1, in the canonical edge order
STYLES = (SOLID, DASHED, DOTTED)  # style codes 0, 1 and 2


def _distinct_codes(values) -> tuple[list, np.ndarray]:
    """Distinct values in first-seen order, and each value's int32 index among them."""
    distinct = list(dict.fromkeys(values))
    code = {x: i for i, x in enumerate(distinct)}
    return distinct, np.fromiter(map(code.__getitem__, values), dtype=np.int32, count=len(values))


def _label_codes(values, labels: tuple, what: str) -> np.ndarray:
    distinct, codes = _distinct_codes(values)
    for x in distinct:
        if x not in labels:
            raise ValidationError(f"edge {what} {x!r} is not one of {', '.join(labels)}")
    return np.array([labels.index(x) for x in distinct], dtype=np.int8)[codes]


def edge_columns(nodes, sources, targets, weights, signs, styles) -> tuple:
    """Columns for ProjectionGraph.from_arrays from per-edge node ids, weights
    (Fractions or rational strings) and sign and style names.

    Each distinct weight, sign and style is parsed or checked once.
    """
    index = {str(u): i for i, u in enumerate(nodes)}
    try:
        us, vs = (np.fromiter(map(index.__getitem__, map(str, ends)), dtype=np.int64,
                              count=len(ends)) for ends in (sources, targets))
    except KeyError as exc:
        raise ValidationError(f"an edge references unknown node {exc.args[0]!r}") from None
    table, codes = _distinct_codes(weights)
    return (us, vs, [as_fraction(w) for w in table], codes, _label_codes(signs, SIGNS, "sign"),
            _label_codes(styles, STYLES, "style"))


class ProjectionGraph:
    """Weighted undirected graph over participants or attitudes.

    Simple graph with canonical ordering: endpoints sorted within each edge
    and the edges sorted by (u, v, sign), both lexicographically by node id
    ("negative" before "positive"). Participant graphs carry one relation per
    pair; attitude graphs may carry a positive and a negative relation for
    the same pair.

    Edges are stored as columns in canonical order: int32 endpoint indices
    ``us`` and ``vs`` into ``nodes`` (``nodes[us[k]] < nodes[vs[k]]``), int8
    ``signs`` into SIGNS and ``styles`` into STYLES, and int32
    ``weight_codes`` into ``weight_table``, the sorted distinct exact
    weights. The graph is read through these columns. The constructor takes
    Edge-like objects, for graphs built by hand; ``from_arrays`` takes the
    columns directly.

    The canonical order is that of one int64 key per edge,
    ``(rank[u] * n + rank[v]) * 2 + sign`` over the node ids' ranks. Edges are
    sorted by it only when their keys are not already strictly increasing
    (every export and every lifted import arrives in canonical order), and
    a duplicate edge shows as two equal neighbouring keys.
    """

    __slots__ = ("kind", "nodes", "node_attrs", "threshold_used", "negative_threshold_used",
                 "extra", "us", "vs", "signs", "styles", "weight_codes", "weight_table")

    def __init__(self, kind, nodes, edges, node_attrs=None, threshold_used=None,
                 negative_threshold_used=None, extra=None):
        edges = list(edges)
        columns = edge_columns(nodes, *([getattr(e, name) for e in edges]
                                        for name in ("u", "v", "weight", "sign", "style")))
        self._init(kind, nodes, *columns, node_attrs, threshold_used, negative_threshold_used,
                   extra)

    @classmethod
    def from_arrays(cls, kind, nodes, us, vs, weight_table, weight_codes, signs, styles, *,
                    node_attrs=None, threshold_used=None, negative_threshold_used=None,
                    extra=None) -> "ProjectionGraph":
        """Build from edge columns in any order: endpoint indices into nodes,
        codes into a table of weights (repeats allowed), and sign and style
        codes into SIGNS and STYLES."""
        graph = cls.__new__(cls)
        graph._init(kind, nodes, us, vs, weight_table, weight_codes, signs, styles, node_attrs,
                    threshold_used, negative_threshold_used, extra)
        return graph

    def _init(self, kind, nodes, us, vs, weight_table, weight_codes, signs, styles, node_attrs,
              threshold_used, negative_threshold_used, extra) -> None:
        self.kind = kind
        self.nodes = nodes = [str(u) for u in nodes]
        n = len(nodes)
        if len(set(nodes)) != n:
            raise ValidationError("node ids must be unique")
        get = node_attrs.get if node_attrs else {}.get
        self.node_attrs = {u: dict(get(u, ())) for u in nodes}  # each node's own dict
        self.extra = dict(extra) if extra else {}
        self.threshold_used = None if threshold_used is None else as_fraction(threshold_used)
        self.negative_threshold_used = (
            None if negative_threshold_used is None else as_fraction(negative_threshold_used)
        )

        us = np.asarray(us, dtype=np.int64).reshape(-1)
        vs = np.asarray(vs, dtype=np.int64).reshape(-1)
        signs = np.asarray(signs, dtype=np.int8).reshape(-1)
        styles = np.asarray(styles, dtype=np.int8).reshape(-1)
        table = [as_fraction(w) for w in weight_table]
        distinct = sorted(set(table))
        where = {w: i for i, w in enumerate(distinct)}
        codes = np.array([where[w] for w in table], dtype=np.int32)[
            np.asarray(weight_codes, dtype=np.intp).reshape(-1)]
        if len(us) and not (0 <= min(us.min(), vs.min()) and max(us.max(), vs.max()) < n):
            raise ValidationError("an edge references an unknown node index")
        loops = np.flatnonzero(us == vs)
        if len(loops):
            raise ValidationError(f"self-loop on node {nodes[us[loops[0]]]!r}")

        rank = np.empty(n, dtype=np.int64)
        rank[sorted(range(n), key=nodes.__getitem__)] = np.arange(n)
        ru, rv = rank[us], rank[vs]
        flip = ru > rv
        us, vs = np.where(flip, vs, us), np.where(flip, us, vs)
        key = (np.minimum(ru, rv) * n + np.maximum(ru, rv)) * 2 + signs  # the canonical order
        if not (key[1:] > key[:-1]).all():
            order = np.argsort(key)
            key, us, vs, signs, styles, codes = (
                key[order], us[order], vs[order], signs[order], styles[order], codes[order])
        repeat = np.flatnonzero(key[1:] == key[:-1])
        if len(repeat):
            k = repeat[0] + 1
            raise ValidationError(
                f"duplicate {SIGNS[signs[k]]} edge ({nodes[us[k]]!r}, {nodes[vs[k]]!r})")

        for sign, thr, beyond, side in (
                (POSITIVE, self.threshold_used, operator.lt, "below the threshold"),
                (NEGATIVE, self.negative_threshold_used, operator.gt, "above the negative threshold")):
            if thr is None:
                continue
            outside = np.array([beyond(w, thr) for w in distinct], dtype=bool)  # once per weight
            bad = np.flatnonzero(outside[codes] & (signs == SIGNS.index(sign)))
            if len(bad):
                k = bad[0]
                raise ValidationError(f"{sign} edge ({nodes[us[k]]!r}, {nodes[vs[k]]!r}) has "
                                      f"weight {distinct[codes[k]]} {side} {thr}")
        self.us = us.astype(np.int32)
        self.vs = vs.astype(np.int32)
        self.signs = signs
        self.styles = styles
        self.weight_codes = codes
        self.weight_table = tuple(distinct)
        for column in (self.us, self.vs, self.signs, self.styles, self.weight_codes):
            column.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.us)

    def positive_mask(self) -> np.ndarray:
        """Boolean mask of the positive edges over the edge columns."""
        return self.signs == SIGNS.index(POSITIVE)

    def attribute_names(self) -> list:
        names = set()
        for attrs in self.node_attrs.values():
            names.update(attrs)
        return sorted(names)


def _threshold_level(weights: PairWeights, threshold: Fraction, *, negative: bool = False):
    """The exact integer level of the weight numerators at a threshold t.

    A numerator passes when >= ceil(t*D), or for a negative threshold when
    <= floor(t*D). A rescaled weight on incomplete data is m*numer/(c*D) for
    c co-answered items, so its level is a table over c = 0..m, in the
    kernel's rung dtype, of ceil (or floor) of t*c*D/m; the empty pair (c = 0)
    has numerator and weight 0, and passes exactly when 0 passes t. Every
    level lies within +-m*D, so it is exact on the rung for any denominator.
    """
    d, m = weights.denominator, weights.n_items
    rounding = math.floor if negative else math.ceil
    if not (weights.rescale and weights.has_missing):  # rescale is the identity on complete data
        return rounding(threshold * d)
    levels = [rounding(threshold * c * d / m) for c in range(m + 1)]
    levels[0] = -int(threshold < 0) if negative else int(threshold > 0)
    return np.array(levels, dtype=weights._x.dtype)


def _pair_weight_fraction(weights: PairWeights, numer: int, co) -> Fraction:
    if weights.rescale and co is not None:
        if not co:
            return Fraction(0)
        return Fraction(weights.n_items * int(numer), int(co) * weights.denominator)
    return Fraction(int(numer), weights.denominator)


def _scan_edges(weights: PairWeights, level, negative_level):
    """Pairs past either level, from a scan of the upper-triangle tiles
    (_tile_pairs): int32 index arrays (i, j), their sign codes, numerators on
    the kernel's rung and, for rescaled weights on incomplete data, co-answered
    counts (else None).
    """
    parts = [part for tile in _upper_tiles(weights.n_participants)
             for part in _tile_pairs(weights, *tile, level, negative_level)]
    return tuple(None if column[0] is None else np.concatenate(column) for column in zip(*parts))


def _tile_pairs(kernel: PairWeights, r0: int, r1: int, c0: int, c1: int, level,
                negative_level=None) -> list:
    """The pairs i < j of one scan tile, rows r0..r1-1 against columns
    c0..c1-1, whose numerators lie at or above a _threshold_level (and at or
    below negative_level, when given): per sign, int32 (i, j), int8 sign
    codes, the numerators on the kernel's rung and, for rescaled weights on
    incomplete data, the co-answered counts (else None).

    A level is one integer, or a table looked up by each pair's co-answered
    count. Unrescaled weights drop the counts as soon as the product returns,
    and each sign's selection is flattened once; the tile is freed on return,
    before the next is computed.
    """
    numer, co = kernel.block_numerators(r0, r1, c0, c1)
    co = co if kernel.rescale else None
    parts = []
    for sign, lev in ((POSITIVE, level), (NEGATIVE, negative_level)):
        if lev is None:
            continue
        if isinstance(lev, np.ndarray):
            lev = lev[co.astype(np.min_scalar_type(len(lev) - 1))]  # counts <= m
        sel = numer <= lev if sign == NEGATIVE else numer >= lev
        if c0 == r0:
            sel &= ~np.tri(r1 - r0, dtype=bool)  # each pair once
        flat = np.flatnonzero(sel)
        ii, jj = np.divmod(flat, c1 - c0)
        parts.append(((ii + r0).astype(np.int32), (jj + c0).astype(np.int32),
                      np.full(len(flat), SIGNS.index(sign), dtype=np.int8), numer.ravel()[flat],
                      None if co is None else co.ravel()[flat]))
    return parts


def _weight_table(weights: PairWeights, numer: np.ndarray, co) -> tuple[list, np.ndarray]:
    """Distinct exact weights of a numerator (and co-answered) array, on any
    kernel rung (each holds them as exact integers), and each entry's code."""
    if co is None:
        keys, codes = np.unique(numer, return_inverse=True)
        table = [_pair_weight_fraction(weights, k, None) for k in keys.tolist()]
    else:
        keys, codes = np.unique(np.column_stack([numer, co]), axis=0, return_inverse=True)
        table = [_pair_weight_fraction(weights, k, c) for k, c in keys.tolist()]
    return table, codes.reshape(-1)


def _within_group_pairs(rows: np.ndarray) -> tuple:
    """Index pairs (i, j), i < j, of identical rows."""
    n = len(rows)
    order = np.lexsort(rows.T) if rows.shape[1] else np.arange(n)  # stable: equal rows by index
    ranked = rows[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    sizes = np.diff(np.append(starts, n))
    at = np.arange(n)
    later = np.repeat(starts + sizes, sizes) - at - 1  # group members after each position
    partner = np.repeat(at + 1 - (np.cumsum(later) - later), later) + np.arange(later.sum())
    return order[np.repeat(at, later)], order[partner]


def _bucketed_agreement_pairs(weights: PairWeights, threshold_int: int):
    """Pairs with exact-agreement weight >= m or m-1 without the full pair scan.

    Rows are grouped by their full response vector (weight m) and, for the
    m-1 level, by each leave-one-item-out sub-vector; only groups share
    qualifying pairs, so the cost is m + 1 row sorts plus output size.
    Returns (i, j, weight) index arrays sorted by (i, j).
    """
    features = weights._features
    n, m = features.shape
    packed = features.astype(np.int16)  # response codes; narrow keys sort faster
    chunks = [_within_group_pairs(packed)]
    if threshold_int == m - 1:
        chunks += [_within_group_pairs(np.delete(packed, j, axis=1)) for j in range(m)]
    ii = np.concatenate([c[0] for c in chunks])
    jj = np.concatenate([c[1] for c in chunks])
    encoded = np.unique(ii * n + jj)  # dedup; identical rows hit every bucket
    ii, jj = encoded // n, encoded % n
    agree = (features[ii] == features[jj]).sum(axis=1).astype(np.int64)
    return ii, jj, agree


# the threshold sweep's bands of levels: the first is to hold about this many
# pairs per distinct row, as the pivot sample predicts, and each next one about
# BAND_GROWTH times as many; the pairs it holds across components (12 B each)
# are compacted into a forest when they pass SWEEP_HELD_BYTES, about 350k
# pairs, and the levels of all its pairs are deduplicated when they pass
# SWEEP_LEVEL_BYTES, 64k levels of a float32 kernel, whatever N is
FIRST_BAND_PAIRS_PER_ROW = 4
BAND_GROWTH = 8
SWEEP_HELD_BYTES = 4 << 20
SWEEP_LEVEL_BYTES = 256 << 10


def _component_roots(n_nodes, us, vs):
    """Smallest node index of each node's component over the edges (us, vs)."""
    root = np.arange(n_nodes)
    while True:
        lo = np.minimum(root[us], root[vs])
        hi = np.maximum(root[us], root[vs])
        if np.array_equal(lo, hi):
            return root
        np.minimum.at(root, hi, lo)  # hook each root onto the smallest root it touches
        while not np.array_equal(root[root], root):  # then point every node at its root
            root = root[root]


def _find_roots(parent: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Roots of nodes in a parent forest; each node is then pointed at its root."""
    root = parent[nodes]
    while not np.array_equal(up := parent[root], root):
        root = up
    parent[nodes] = root
    return root


def _root_merges(n_nodes: int, held: list, size=None):
    """Kruskal's forest of the held (level, u, v) column parts over nodes
    0..n_nodes-1, with the same components at every level; the parent forest
    of the components at the lowest level; and, given size, each merging
    run's level and the largest component it made. The parts are released.

    The edges are sorted by level, descending, and taken in runs of one level
    and at most SWEEP_HELD_BYTES // 64 edges. The roots a run joins are merged
    by _component_roots, each into the smallest root of its component, and
    every merge is one forest edge (level, root, merged root). size holds the
    component size of each root the edges end at; each merged root's size is
    added to its new root's.
    """
    level, us, vs = (np.concatenate(column) for column in zip(*held))
    held.clear()
    order = np.argsort(level, kind="stable")[::-1]
    level, us, vs = level[order], us[order], vs[order]
    del order
    parent = np.arange(n_nodes, dtype=us.dtype)
    merges, runs = [(level[:0], us[:0], vs[:0])], []
    run = max(1, SWEEP_HELD_BYTES // 64)
    cuts = np.union1d(np.flatnonzero(np.diff(level)) + 1, np.arange(run, len(level), run))
    for a, b in zip([0, *cuts], [*cuts, len(level)]):
        ru, rv = _find_roots(parent, us[a:b]), _find_roots(parent, vs[a:b])
        apart = ru != rv
        if not apart.any():
            continue
        touched, ends = np.unique(np.concatenate([ru[apart], rv[apart]]), return_inverse=True)
        root = touched[_component_roots(len(touched), *np.split(ends, 2))]
        moved = root != touched
        merged, root = touched[moved], root[moved]
        parent[merged] = root
        merges.append((np.full(len(merged), level[a]), root, merged))
        if size is not None:
            np.add.at(size, root, size[merged])
            runs.append((level[a], size[root].max()))
    return tuple(np.concatenate(column) for column in zip(*merges)), parent, runs


def _band_pivots(kernel: PairWeights, lowest) -> np.ndarray:
    """The sweep's band floors above the lowest numerator, descending.

    The sample is about one scan tile of cells: SCAN_TILE**2 // n evenly
    spaced rows (at least one) against every column, without self-pairs.
    Each sampled pair stands for n/(2*rows) pairs, so the first floor is the
    level above which FIRST_BAND_PAIRS_PER_ROW pairs per row are expected,
    and each next one has BAND_GROWTH times as many above it.
    """
    n = kernel.n_participants
    size = min(max(1, SCAN_TILE ** 2 // n), n)
    rows = np.arange(size) * n // size
    sample = copy.copy(kernel)
    sample._y, sample._m = kernel._y[rows], None
    numer = sample.block_numerators(0, size, 0, n)[0].ravel()
    numer[np.arange(size) * n + rows] = lowest - 1
    ranks = []
    rank = max(1, int(2 * size * FIRST_BAND_PAIRS_PER_ROW))
    while rank < size * (n - 1):
        ranks.append(numer.size - rank)
        rank *= BAND_GROWTH
    numer.sort()
    pivots = np.unique(numer[ranks])[::-1]
    return pivots[pivots > lowest]


def _distinct_rows(weights: PairWeights) -> tuple:
    """The rows the sweep scans, ascending, and each other row as a copy:
    (self-level, its first row, the copy), from one stable lexsort of the
    answers and missing pattern. Copies stay rows of their own when they are
    fewer than a quarter of the rows, too few to pay for a private encoding."""
    features = weights._features
    ranked = np.where(weights._mask, features, features.min() - 1)  # missing: a value of its own
    order = np.lexsort(ranked.T)  # stable: equal rows by index
    ranked = ranked[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    if 4 * np.count_nonzero(first) > 3 * len(first):
        first[:] = True
    firsts = order[first]
    joined = firsts[np.cumsum(first)[~first] - 1]
    own = np.einsum("ij,ij->i", weights._y[joined], weights._x[joined]).astype(np.int64)
    return np.sort(firsts), (own, joined, order[~first])


def _sweep_bands(weights: PairWeights, floor=None, hold=False):
    """The threshold sweep's pass over all pairs of unrescaled weights, in
    bands of numerator levels from the top down to floor (default: the
    lowest level of the weight range).

    Yields per band its levels present among all pairs, descending, each
    with the size of the largest component at that level; and, with hold,
    every pair the band selected, for _held_pairs, or None past the budget.

    Equal rows (equal answers and missing pattern) are scanned once: a copy
    pairs with every row as its first row does, and no pair of that row
    weighs more than its pair with the copy, their shared self-level (every
    item table's diagonal is its row maximum). So a copy joins its first row
    at that level, as one more held pair, and the bands scan the first rows
    only, on a private copy of the kernel, without co-answered counts unless
    hold. A band is one scan of the upper-triangle tiles at its floor, each
    tile's pairs selected by _tile_pairs as the projection's scan selects
    them: every selected level is present, and only the pairs across the
    components at the band's top, each labelled by a root participant, are
    held (Filter-Kruskal; Osipov, Sanders & Singler 2009). Its end merges them
    level by level, adding up component sizes (_root_merges). Held pairs past
    SWEEP_HELD_BYTES are compacted into a forest with the same components at
    every level, which the end merges again, and the levels of the selected
    pairs are deduplicated once they pass SWEEP_LEVEL_BYTES, not tile by
    tile, so memory stays near one tile plus the two budgets.

    With hold, a band also keeps every pair it selects as (level, i, j) over
    the scanned rows, 12 B per pair on the float32 rung, until they pass
    SWEEP_HELD_BYTES; a band that passes it keeps none, and neither do the
    lower bands, which select every pair it does. The kernel copy then keeps
    its co-answered counts on incomplete data, as project_participants' scan
    does: the weights' own kernel computes every pair the graph is built from.
    _tile_pairs drops those counts as soon as each product returns.
    """
    lowest = _threshold_level(weights, weights.weight_range()[0])
    floor = lowest if floor is None else max(floor, lowest)
    rows, copies = _distinct_rows(weights)
    kernel = copy.copy(weights)
    if not hold:
        kernel._m = None
    if len(rows) < weights.n_participants:
        kernel._x, kernel._y = weights._x[rows], weights._y[rows]
        kernel._m = None if kernel._m is None else kernel._m[rows]

    n, n_all = len(rows), weights.n_participants
    label = rows.astype(np.int32)  # each row's component, as a participant, at the band's top
    no_pairs = (np.empty(0, kernel._x.dtype), label[:0], label[:0])  # (level, u, v) over labels
    own, first_row, copy_of = copies
    first_at = np.searchsorted(rows, first_row)  # each copy's first row among rows
    size, largest = np.ones(n_all, dtype=np.int64), 1  # component sizes by root
    pivots = _band_pivots(kernel, lowest)
    top = math.inf
    for pivot in [*pivots[pivots > floor], floor]:
        levels, held, level_bytes, held_bytes = [], [no_pairs], 0, 0
        kept, kept_bytes = [] if hold else None, 0
        for tile in _upper_tiles(n):
            (ii, jj, _, values, _), = _tile_pairs(kernel, *tile, pivot)
            u, v = label[ii], label[jj]
            apart = u != v  # only pairs across components are held
            levels.append(values)
            held.append((values[apart], u[apart], v[apart]))
            level_bytes += values.nbytes
            held_bytes += sum(column.nbytes for column in held[-1])
            if level_bytes > SWEEP_LEVEL_BYTES:
                levels, level_bytes = [np.unique(np.concatenate(levels))], 0
            if held_bytes > SWEEP_HELD_BYTES:  # the band's end merges this forest again
                forest, held_bytes = _root_merges(n_all, held)[0], 0
                held.append(forest)
            if kept is not None:
                kept.append((values, ii, jj))
                kept_bytes += values.nbytes + ii.nbytes + jj.nbytes
                if kept_bytes > SWEEP_HELD_BYTES:  # so would every lower band's pairs
                    kept = hold = None
        joins = np.flatnonzero((own >= pivot) & (own < top))
        held.append((own[joins].astype(no_pairs[0].dtype),  # exact on the rung
                     label[first_at[joins]], copy_of[joins].astype(label.dtype)))
        _, parent, runs = _root_merges(n_all, held, size)
        runs = np.array(runs, dtype=np.int64).reshape(-1, 2)  # (level, largest) per run
        label = _find_roots(parent, label)
        present = np.union1d(np.concatenate(levels), own[joins]).astype(np.int64)
        present = present[present < top][::-1]
        # the largest component at each level: that after the last run at or above it
        largest = np.maximum.accumulate([largest, *runs[:, 1]])
        at = np.searchsorted(-runs[:, 0], -present, side="right")
        yield (list(zip(present.tolist(), largest[at].tolist())),
               None if kept is None else (rows, copies, kept))
        largest, top = largest[-1], pivot


def _held_pairs(held, level: int) -> tuple:
    """Every pair (i, j) of participants, and its int64 numerator, at or
    above a numerator level, from the pairs a band of _sweep_bands held at or
    above its floor, which must not lie above the level.

    The band's pairs are pairs of the rows it scanned; each other row is a
    copy of one of those, its first row. A copy pairs with every row as its
    first row does, so the pairs of two first rows stand for those of their
    copies too, and the members of one group (a first row and its copies)
    pair with each other at their shared self-level.
    """
    rows, (own, joined, copies), kept = held
    numer, ii, jj = (np.concatenate(column) for column in zip(*kept))
    keep = np.flatnonzero(numer >= level)
    numer, ii, jj = numer[keep].astype(np.int64), rows[ii[keep]], rows[jj[keep]]
    if not len(copies):
        return ii, jj, numer
    head = np.arange(len(rows) + len(copies))  # each participant's first row
    head[copies] = joined
    members = np.argsort(head, kind="stable")  # grouped by first row
    size = np.bincount(head, minlength=len(head))
    start = np.cumsum(size) - size
    # the pairs of two first rows, for every member of each group
    reps = size[ii] * size[jj]
    k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
    width = np.repeat(size[jj], reps)
    us = members[np.repeat(start[ii], reps) + k // width]
    vs = members[np.repeat(start[jj], reps) + k % width]
    # and within each group whose self-level reaches the level
    grouped = np.flatnonzero(np.isin(head, joined[own >= level]))
    a, b = (grouped[end] for end in _within_group_pairs(head[grouped, None]))
    self_level = np.zeros(len(head), dtype=np.int64)
    self_level[joined] = own
    return (np.concatenate([us, a]), np.concatenate([vs, b]),
            np.concatenate([np.repeat(numer, reps), self_level[head[a]]]))


@dataclass
class ThresholdSelection:
    """Result of the descending weight-level sweep."""

    chosen_threshold: Fraction
    giant_fraction_at_chosen: Fraction
    sweep: list
    target_fraction: Fraction


def select_threshold(weights: PairWeights, target_fraction=Fraction(1, 2), *,
                     min_level=None) -> ThresholdSelection:
    """Highest weight level whose edge set reaches the target giant component.

    Descends through the distinct weight values present, adding all edges at
    each level, and stops at the first (hence highest) level where the largest
    component covers at least target_fraction of the participants. Levels are
    distinct values, so ties cannot occur. min_level bounds the descent; if
    the target is never reached the sweep so far is raised with the error.

    The levels and the largest component at each come from _sweep_bands, one
    band of levels at a time, and only while the target is not reached. A
    band merges its pairs across components into the earlier bands'
    components, level by level (Kruskal 1956; single linkage, Gower & Ross
    1969), and ties may join in any order. The bands run on a copy of the
    kernel without co-answered counts and hold no pairs for a graph;
    _auto_projection is the sweep that does.
    """
    return _sweep(weights, target_fraction, min_level)[0]


def _auto_projection(weights: PairWeights, target_fraction, min_level, negative_threshold,
                     node_attrs) -> tuple:
    """select_threshold, then project_participants at the chosen level and the
    negative threshold, refused before the sweep if out of range: (selection, graph).

    Without a negative threshold this is one pass over all pairs: the sweep's
    bands run on the weights' own kernel, co-answered counts included on
    incomplete data, as project_participants' scan does, and each holds its
    pairs at or above its floor while they fit SWEEP_HELD_BYTES. The band
    that reaches the target holds every pair at or above the chosen level, so
    the graph is built from those, with each copy of a scanned row expanded
    back (_held_pairs). Past the budget the graph comes from the scan; so it
    does with a negative threshold, after select_threshold's count-free sweep.
    Either way it equals project_participants(weights, chosen, negative_threshold).
    """
    neg = None if negative_threshold is None else as_fraction(negative_threshold)
    _check_range(weights, "negative threshold", neg)
    selection, (level, held) = _sweep(weights, target_fraction, min_level, neg is None)
    threshold = selection.chosen_threshold
    if held is None:
        return selection, project_participants(weights, threshold, neg, node_attrs)
    ii, jj, numer = _held_pairs(held, level)
    signs = np.full(len(ii), SIGNS.index(POSITIVE), dtype=np.int8)
    return selection, _participant_graph(weights, ii, jj, signs, numer, None, threshold, None,
                                         node_attrs)


def _sweep(weights: PairWeights, target_fraction, min_level, hold=False) -> tuple:
    """select_threshold's sweep, down the (level, largest component) pairs of
    _sweep_bands: the selection, and the chosen numerator level with what its
    band held (None without hold)."""
    target = as_fraction(target_fraction)
    if not (0 < target <= 1):
        raise ValidationError(f"target fraction {target} must lie in (0, 1]")
    if weights.rescale:
        raise ValidationError("automatic threshold selection is not supported for "
                              "rescaled pairwise weights")
    n = weights.n_participants
    d = weights.denominator
    floor = None if min_level is None else _threshold_level(weights, as_fraction(min_level))

    sweep: list[tuple[Fraction, Fraction]] = []
    for levels, held in _sweep_bands(weights, floor, hold):
        for level_numer, largest in levels:  # descending
            level, frac = Fraction(level_numer, d), Fraction(largest, n)
            sweep.append((level, frac))
            if largest * target.denominator >= target.numerator * n:
                return ThresholdSelection(level, frac, sweep, target), (level_numer, held)

    raise NoGiantComponentError(
        f"no weight level reached a giant component of {format_fraction(target)} "
        f"of the {n} participants",
        sweep,
    )


def _check_range(weights: PairWeights, name: str, value) -> None:
    """Refuse a threshold (None passes) outside the weight range."""
    lo, hi = weights.weight_range()
    if value is not None and not (lo <= value <= hi):
        raise ValidationError(
            f"{name} {value} outside representable range [{lo}, {hi}] for {weights.mode}")


def project_participants(weights: PairWeights, threshold, negative_threshold=None,
                         node_attrs=None) -> ProjectionGraph:
    """Threshold pairwise weights into a participant graph.

    Positive edges link pairs with weight >= threshold; when a negative
    threshold is given, pairs with weight <= negative_threshold get negative
    (disagreement) edges. Isolated participants are retained as nodes. Any
    rational threshold in the weight range is compared exactly.
    """
    threshold = as_fraction(threshold)
    neg = None if negative_threshold is None else as_fraction(negative_threshold)
    _check_range(weights, "threshold", threshold)
    _check_range(weights, "negative threshold", neg)
    if neg is not None and neg >= threshold:
        raise ValidationError(
            f"negative threshold {neg} must be strictly below threshold {threshold}"
        )
    level = _threshold_level(weights, threshold)
    neg_level = None if neg is None else _threshold_level(weights, neg, negative=True)

    m = weights.n_items
    if (weights.mode == EXACT_AGREEMENT and not weights.has_missing and neg is None
            and level in (m, m - 1)):
        ii, jj, numer = _bucketed_agreement_pairs(weights, level)
        signs, co = np.full(len(ii), SIGNS.index(POSITIVE), dtype=np.int8), None
    else:
        ii, jj, signs, numer, co = _scan_edges(weights, level, neg_level)
    return _participant_graph(weights, ii, jj, signs, numer, co, threshold, neg, node_attrs)


def _participant_graph(weights: PairWeights, ii, jj, signs, numer, co, threshold, neg,
                       node_attrs) -> ProjectionGraph:
    """The participant graph of the pairs (ii, jj) past the thresholds, from
    their sign codes, numerators and co-answered counts (None unless rescaled)."""
    table, codes = _weight_table(weights, numer, co)
    return ProjectionGraph.from_arrays(
        "participant", weights.participant_ids, ii, jj, table, codes, signs,
        np.zeros(len(ii), dtype=np.int8),
        node_attrs=node_attrs,
        threshold_used=threshold,
        negative_threshold_used=neg,
        extra={"mode": weights.mode, "n_items": weights.n_items},
    )


@dataclass(eq=False)
class AttitudeGraph:
    """Item-pair co-endorsement counts over N participants.

    pos and neg are symmetric int64 m x m matrices in schema item order:
    pos[i, j] participants scored both items i and j positively and
    neg[i, j] scored both negatively. Participants neutral or missing on
    either item contribute to neither, so pos + neg <= N off the diagonal.
    """

    items: tuple
    n_participants: int
    pos: np.ndarray
    neg: np.ndarray

    def count(self, a: str, b: str) -> tuple[int, int]:
        """(co-positive, co-negative) counts of two distinct items, in either order."""
        for item in (a, b):
            if item not in self.items:
                raise ValidationError(f"unknown item id {item!r}")
        if a == b:
            raise ValidationError(f"no self-pairs: item {a!r} paired with itself")
        i, j = self.items.index(a), self.items.index(b)
        return int(self.pos[i, j]), int(self.neg[i, j])


def project_attitudes(normalized: NormalizedMatrix) -> AttitudeGraph:
    """Project items onto an attitude graph: co-positive and co-negative
    participant counts per item pair, as two m x m matrix products."""
    if normalized.n_items < 2:
        raise ValidationError("attitude projection needs at least 2 items")
    pos = ((normalized.numerators > 0) & normalized.mask).astype(np.int64)
    neg = ((normalized.numerators < 0) & normalized.mask).astype(np.int64)
    return AttitudeGraph(tuple(normalized.schema.item_ids), normalized.n_participants,
                         pos.T @ pos, neg.T @ neg)


def thirds_style(count, total) -> str | None:
    """Style class by thirds of the total: (0, T/3] dotted, (T/3, 2T/3] dashed,
    (2T/3, T] solid; zero or negative counts get no edge.

    Boundaries are exact: a count of exactly T/3 is dotted, exactly 2T/3 dashed.
    """
    count = as_fraction(count)
    total = as_fraction(total)
    if count <= 0:
        return None
    if 3 * count <= total:
        return DOTTED
    if 3 * count <= 2 * total:
        return DASHED
    return SOLID


def style_edges(graph: AttitudeGraph, mode: str = "dual") -> ProjectionGraph:
    """The attitude graph as a ProjectionGraph over its items, each edge styled
    by thirds of |weight| over N.

    Edges come from the nonzero counts of the upper triangle: in dual mode
    each item pair may carry a positive edge weighted +pos and a negative
    edge weighted -neg; in signed mode a single edge carries pos - neg. Zero
    counts (and a zero difference) produce no edge.
    """
    if not isinstance(graph, AttitudeGraph):
        raise ValidationError(f"cannot style object of type {type(graph).__name__}")
    if mode not in ("dual", "signed"):
        raise ValidationError(f"unknown attitude mode {mode!r}; expected 'dual' or 'signed'")
    a, b = np.triu_indices(len(graph.items), 1)
    pos, neg = graph.pos[a, b], graph.neg[a, b]
    if mode == "dual":
        a, b, weights = np.tile(a, 2), np.tile(b, 2), np.concatenate([pos, -neg])
    else:
        weights = pos - neg
    keep = np.flatnonzero(weights)
    table, codes = np.unique(weights[keep], return_inverse=True)
    table = [Fraction(w) for w in table.tolist()]
    styles = [STYLES.index(thirds_style(abs(w), graph.n_participants)) for w in table]
    return ProjectionGraph.from_arrays(
        "attitude", graph.items, a[keep], b[keep], table, codes,
        weights[keep] > 0,  # sign code 1 is positive
        np.array(styles, dtype=np.int8)[codes], threshold_used=1, negative_threshold_used=-1,
        extra={"n_participants": graph.n_participants, "attitude_mode": mode})
