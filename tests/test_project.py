import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opinionnet import (
    Edge,
    ProjectionGraph,
    SurveyItem,
    SurveySchema,
    ValidationError,
    exact_agreement_weights,
    project_attitudes,
    project_participants,
    renormalize,
    score_weights,
    select_threshold,
    style_edges,
    thirds_style,
)

import opinionnet.project as project
from opinionnet.project import SCORE, PairWeights
from opinionnet.rational import as_fraction
from opinionnet.render import export_graphml

from helpers import edge_list, make_matrix, pair_weights, weights_from_rows
from oracles import all_pair_weights, attitude_edges, random_rows, sweep_oracle


def F(*args):
    return Fraction(*args)


DEFAULT_TILE = project.SCAN_TILE


def scan_in_tiles_of(monkeypatch, side):
    """Make the pair scan use square tiles of `side` rows and columns (None:
    the default side)."""
    monkeypatch.setattr(project, "SCAN_TILE", DEFAULT_TILE if side is None else side)


# ---------------------------------------------------------------------------
# exact agreement
# ---------------------------------------------------------------------------


def test_exact_identical_rows_reach_item_count():
    row = [1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 4, 4, 4]
    ks = [4] * 10 + [5] * 3
    w = weights_from_rows([row, list(row)], ks, "exact_agreement")
    assert pair_weights(w)[0, 1] == 13


def test_exact_counts_equal_coordinates():
    w = weights_from_rows([[1, 2, 3], [1, 2, 4]], [5, 5, 5], "exact_agreement")
    assert pair_weights(w)[0, 1] == 2


def test_exact_minimal_link_weight_one():
    w = weights_from_rows([[0, 0, 0], [0, 1, 1]], [4, 4, 4], "exact_agreement")
    assert pair_weights(w)[0, 1] == 1


def test_exact_requires_two_participants():
    with pytest.raises(ValidationError, match="at least 2"):
        exact_agreement_weights(make_matrix([[1]], [4]))


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def test_score_identical_rows_reach_plus_m():
    ks = [4] * 10 + [5] * 3
    row = [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 0, 2, 4]
    w = weights_from_rows([row, list(row)], ks, "score")
    assert pair_weights(w)[0, 1] == 13


def test_score_opposite_extremes_reach_minus_m():
    ks = [4] * 10 + [5] * 3
    low = [0] * 13
    high = [k - 1 for k in ks]
    w = weights_from_rows([low, high], ks, "score")
    assert pair_weights(w)[0, 1] == -13


def test_score_direct_arithmetic():
    # two 5-point items: (-1, 1/2) vs (-1/2, 1/2) differ by 1/2 in total
    w = weights_from_rows([[0, 3], [1, 3]], [5, 5], "score")
    assert pair_weights(w)[0, 1] == F(3, 2)


def test_score_minimum_needs_extremes_on_every_item():
    # one non-extreme answer caps the per-item difference below 2
    ks = [5] * 4
    w = weights_from_rows([[0, 0, 0, 1], [4, 4, 4, 4]], ks, "score")
    assert pair_weights(w)[0, 1] > -4
    w2 = weights_from_rows([[0, 0, 0, 0], [4, 4, 4, 4]], ks, "score")
    assert pair_weights(w2)[0, 1] == -4


# ---------------------------------------------------------------------------
# binarized agreement
# ---------------------------------------------------------------------------


def test_binarized_counts_equal_signs():
    # signs (+1,+1,-1) vs (+1,+1,+1) -> 2
    w = weights_from_rows([[1, 1, 0], [1, 1, 1]], [2, 2, 2], "binarized_agreement")
    assert pair_weights(w)[0, 1] == 2


def test_binarized_same_side_codes_agree():
    # 4-point codes 3 and 2 normalize to 1 and 1/3: both positive
    w = weights_from_rows([[3], [2]], [4], "binarized_agreement")
    assert pair_weights(w)[0, 1] == 1


def test_binarized_neutral_pair_rule_and_its_flip():
    # signs (0,+1) vs (0,-1): both-neutral counts as agreement by default
    rows = [[1, 2], [1, 0]]
    ks = [3, 3]
    w = weights_from_rows(rows, ks, "binarized_agreement")
    assert pair_weights(w)[0, 1] == 1
    # flipping the rule must flip the oracle the same way
    w_off = weights_from_rows(rows, ks, "binarized_agreement", count_neutral_pairs=False)
    assert pair_weights(w_off)[0, 1] == 0
    oracle_on = all_pair_weights(rows, ks, "binarized_agreement", True)[(0, 1)][0]
    oracle_off = all_pair_weights(rows, ks, "binarized_agreement", False)[(0, 1)][0]
    assert pair_weights(w)[0, 1] == oracle_on
    assert pair_weights(w_off)[0, 1] == oracle_off


# ---------------------------------------------------------------------------
# weight invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
def test_symmetry_by_full_enumeration(mode):
    # the scan reads only the tiles on and above the diagonal, so a pair's
    # numerator and weight must not depend on which participant comes first
    rng = random.Random(17)
    ks = [2, 3, 4, 5, 5]
    rows = random_rows(rng, 30, ks, missing_rate=0.1)
    w = weights_from_rows(rows, ks, mode)
    numer, co = w.block_numerators(0, 30, 0, 30)
    assert (numer == numer.T).all()
    assert co is not None and (co == co.T).all()
    backward = pair_weights(weights_from_rows(rows[::-1], ks, mode))
    assert {(29 - j, 29 - i): weight for (i, j), weight in backward.items()} == pair_weights(w)


@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
def test_weights_match_oracle(mode):
    rng = random.Random(23)
    for missing_rate in (0.0, 0.2):
        ks = [rng.randrange(2, 8) for _ in range(rng.randrange(2, 8))]
        rows = random_rows(rng, 18, ks, missing_rate=missing_rate)
        oracle = all_pair_weights(rows, ks, mode)
        assert pair_weights(weights_from_rows(rows, ks, mode)) == {
            pair: weight for pair, (weight, _) in oracle.items()}
        if mode == "score":  # co-answered counts reach an output through rescaled weights
            assert pair_weights(weights_from_rows(rows, ks, mode, rescale=True)) == {
                pair: weight * len(ks) / co if co else 0 for pair, (weight, co) in oracle.items()}


def test_weight_ranges():
    rng = random.Random(31)
    ks = [4, 5, 6]
    rows = random_rows(rng, 20, ks, missing_rate=0.15)
    m = len(ks)
    for mode in ("exact_agreement", "score", "binarized_agreement"):
        for value in pair_weights(weights_from_rows(rows, ks, mode)).values():
            if mode == "score":
                assert -m <= value <= m
            else:
                assert 0 <= value <= m


def test_dominance_full_score_iff_identical_iff_full_agreement():
    rng = random.Random(41)
    ks = [4, 4, 5, 3]
    rows = random_rows(rng, 12, ks)
    rows.append(list(rows[0]))  # force one identical pair
    ws = pair_weights(weights_from_rows(rows, ks, "score"))
    we = pair_weights(weights_from_rows(rows, ks, "exact_agreement"))
    m = len(ks)
    for i, j in ws:
        assert (ws[i, j] == m) == (we[i, j] == m)
        assert (ws[i, j] == m) == (rows[i] == rows[j])


def test_adjacent_codes_stay_linked_under_scoring():
    # one 4-point item one step apart: exact agreement drops to m-1 while the
    # score only drops to m - 2/3, so a threshold of m-1 keeps the pair linked
    ks = [4] * 13
    base = [2] * 13
    near = list(base)
    near[4] = 3
    m = len(ks)
    we = weights_from_rows([base, near], ks, "exact_agreement")
    ws = weights_from_rows([base, near], ks, "score")
    assert pair_weights(we)[0, 1] == m - 1
    assert pair_weights(ws)[0, 1] == m - F(2, 3)
    graph = project_participants(ws, m - 1)
    assert [sign for *_, sign, _ in edge_list(graph)].count("positive") == 1


def test_relabeling_invariance():
    rng = random.Random(59)
    ks = [4, 4, 5]
    rows = random_rows(rng, 15, ks)
    ids = [f"p{i:02d}" for i in range(15)]
    perm = list(range(15))
    rng.shuffle(perm)
    a = make_matrix(rows, ks, ids=ids)
    b = make_matrix([rows[p] for p in perm], ks, ids=[ids[p] for p in perm])
    ga = project_participants(score_weights(renormalize(a)), F(1))
    gb = project_participants(score_weights(renormalize(b)), F(1))
    edges_a = {(u, v, weight) for u, v, weight, *_ in edge_list(ga)}
    edges_b = {(u, v, weight) for u, v, weight, *_ in edge_list(gb)}
    assert edges_a == edges_b
    assert set(ga.nodes) == set(gb.nodes)


def test_exact_agreement_never_exceeds_binarized():
    # identical codes imply identical signs, so the binarized count dominates
    rng = random.Random(103)
    ks = [3, 4, 5, 7]
    rows = random_rows(rng, 20, ks, missing_rate=0.1)
    we = pair_weights(weights_from_rows(rows, ks, "exact_agreement"))
    wb = pair_weights(weights_from_rows(rows, ks, "binarized_agreement"))
    assert all(we[pair] <= wb[pair] for pair in we)


def test_threshold_monotonicity():
    rng = random.Random(61)
    ks = [4, 5, 4, 5]
    rows = random_rows(rng, 25, ks)
    w = weights_from_rows(rows, ks, "score")
    thresholds = [F(-4), F(-1), F(0), F(1, 2), F(2), F(3), F(4)]
    previous = None
    for theta in reversed(thresholds):  # descending theta: edge sets grow
        edges = {(u, v) for u, v, *_ in edge_list(project_participants(w, theta))}
        if previous is not None:
            assert previous <= edges
        previous = edges


# ---------------------------------------------------------------------------
# projection thresholds
# ---------------------------------------------------------------------------


def test_projection_at_m_minus_one_exact_agreement():
    rows = [
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1],  # one item away
        [1, 1, 1, 1, 0, 0, 0, 0],  # four items away
    ]
    ks = [3] * 8
    w = weights_from_rows(rows, ks, "exact_agreement")
    graph = project_participants(w, len(ks) - 1)
    assert {(u, v) for u, v, *_ in edge_list(graph)} == {("p000", "p001")}
    assert graph.threshold_used == 7


def test_projection_at_plus_m_links_identical_only():
    ks = [4] * 13
    rows = [[1] * 13, [1] * 13, [1] * 12 + [2]]
    w = weights_from_rows(rows, ks, "score")
    graph = project_participants(w, 13)
    assert [(u, v) for u, v, *_ in edge_list(graph)] == [("p000", "p001")]


def test_threshold_11_5_means_total_difference_at_most_1_5():
    ks = [5] * 13
    base = [2] * 13
    delta3 = list(base)
    delta3[0] = 3
    delta3[1] = 3
    delta3[2] = 3  # three half-steps: diff 3/2, score 23/2
    delta4 = list(base)
    for j in range(4, 8):
        delta4[j] = 3  # four half-steps: diff 2, score 11
    w = weights_from_rows([base, delta3, delta4], ks, "score")
    assert pair_weights(w)[0, 1] == F(23, 2)
    assert pair_weights(w)[0, 2] == 11
    assert pair_weights(w)[1, 2] == F(19, 2)
    graph = project_participants(w, "11.5")
    assert {(u, v) for u, v, *_ in edge_list(graph)} == {("p000", "p001")}
    fraction_graph = project_participants(w, "23/2")
    assert {(u, v) for u, v, *_ in edge_list(fraction_graph)} == {("p000", "p001")}


def test_negative_threshold_adds_disagreement_edges():
    ks = [5] * 13
    rows = [[0] * 13, [0] * 13, [4] * 13]
    w = weights_from_rows(rows, ks, "score")
    graph = project_participants(w, 13, negative_threshold=-3)
    positives = {(u, v) for u, v, _, sign, _ in edge_list(graph) if sign == "positive"}
    negatives = {(u, v) for u, v, _, sign, _ in edge_list(graph) if sign == "negative"}
    assert positives == {("p000", "p001")}
    assert negatives == {("p000", "p002"), ("p001", "p002")}
    for _, _, weight, sign, _ in edge_list(graph):
        if sign == "negative":
            assert weight <= -3


def test_isolated_nodes_retained():
    ks = [4] * 5
    rows = [[0] * 5, [0] * 5, [3] * 5]
    w = weights_from_rows(rows, ks, "exact_agreement")
    graph = project_participants(w, 5)
    assert graph.n_nodes == 3
    assert {(u, v) for u, v, *_ in edge_list(graph)} == {("p000", "p001")}


def test_threshold_validation():
    w = weights_from_rows([[0, 0], [1, 1]], [4, 4], "score")
    with pytest.raises(ValidationError, match="outside representable range"):
        project_participants(w, 3)
    with pytest.raises(ValidationError, match="outside representable range"):
        project_participants(w, -3)
    with pytest.raises(ValidationError, match="strictly below"):
        project_participants(w, 0, negative_threshold=0)
    with pytest.raises(ValidationError, match="outside representable range"):
        project_participants(w, 1, negative_threshold=-5)


def test_node_attributes_flow_to_graph():
    mx = make_matrix([[0], [1]], [4], attributes={"party": ["D", "R"]})
    w = exact_agreement_weights(mx)
    graph = project_participants(w, 0, node_attrs=mx.node_attributes())
    assert graph.node_attrs["p000"] == {"party": "D"}
    assert graph.node_attrs["p001"] == {"party": "R"}


def test_bucketed_projection_matches_scan(monkeypatch):
    # thresholds at levels m and m-1 on complete exact-agreement data take the
    # hash-bucket path, fractional ones too; its edges must be exactly the
    # oracle's qualifying pairs
    ks = [3] * 6
    rows = [random.Random(i % 9).choices(range(3), k=6) for i in range(60)]
    rows += [list(rows[0]), list(rows[1])]
    w = weights_from_rows(rows, ks, "exact_agreement")
    oracle = all_pair_weights(rows, ks, "exact_agreement")
    bucketed = []
    original = project._bucketed_agreement_pairs
    monkeypatch.setattr(project, "_bucketed_agreement_pairs",
                        lambda *a: bucketed.append(a[1]) or original(*a))
    for threshold in (6, 5, F(11, 2), F(9, 2)):
        bucketed.clear()
        graph = project_participants(w, threshold)
        assert bucketed == [math.ceil(threshold)]
        expected = sorted((f"p{i:03d}", f"p{j:03d}", weight)
                          for (i, j), (weight, _) in oracle.items() if weight >= threshold)
        assert [(u, v, weight) for u, v, weight, *_ in edge_list(graph)] == expected
        assert expected


def test_bucketed_projection_with_duplicate_rows_matches_oracle():
    # groups of identical rows, and rows one item away from each other that
    # are themselves repeated, so pairs qualify at both m and m-1
    ks = [4] * 5
    base = [[0, 1, 2, 3, 0], [3, 3, 3, 3, 3], [1, 0, 1, 0, 1], [2, 1, 0, 3, 2], [0, 0, 3, 1, 1]]
    rows = []
    for r, row in enumerate(base):
        rows += [list(row)] * (r % 3 + 2)  # 2 to 4 copies
        variant = list(row)
        variant[r] = (variant[r] + 1) % 4
        rows += [variant] * 2  # differs from its base row in item r only
    rows += [[2, 2, 0, 0, 1]]  # a row with no partner
    random.Random(5).shuffle(rows)
    w = weights_from_rows(rows, ks, "exact_agreement")
    oracle = all_pair_weights(rows, ks, "exact_agreement")
    for threshold in (5, 4):
        graph = project_participants(w, threshold)
        expected = sorted((f"p{i:03d}", f"p{j:03d}", weight)
                          for (i, j), (weight, _) in oracle.items() if weight >= threshold)
        assert [(u, v, weight) for u, v, weight, *_ in edge_list(graph)] == expected
    assert any(weight == 4 for weight, _ in oracle.values())
    # one item: at threshold m - 1 = 0 the leave-one-out rows are empty and
    # every pair qualifies
    rows = [[0], [1], [0], [2]]
    graph = project_participants(weights_from_rows(rows, [3], "exact_agreement"), 0)
    assert [(u, v) for u, v, *_ in edge_list(graph)] == [(f"p{i:03d}", f"p{j:03d}")
                                                  for i, j in itertools.combinations(range(4), 2)]


def test_int64_kernel_matches_oracle_on_huge_denominator(monkeypatch):
    # the scale steps are distinct primes, so the shared denominator is their
    # product (about 1.3e16) and m * D passes 2**53: the kernel multiplies in int64
    ks = [3, 4, 6, 8, 12, 14, 18, 20, 24, 30, 32, 38, 42, 44]
    rng = random.Random(107)
    rows = random_rows(rng, 24, ks, missing_rate=0.1)
    w = weights_from_rows(rows, ks, "score")
    assert w.n_items * w.denominator >= 2**53
    oracle = all_pair_weights(rows, ks, "score")
    assert pair_weights(w) == {pair: weight for pair, (weight, _) in oracle.items()}
    scan_in_tiles_of(monkeypatch, 5)
    graph = project_participants(w, 0, negative_threshold=-1)
    got = {(u, v): (weight, sign) for u, v, weight, sign, *_ in edge_list(graph)}
    want = {}
    for (i, j), (weight, _) in oracle.items():
        if weight >= 0 or weight <= -1:
            want[(f"p{i:03d}", f"p{j:03d}")] = (weight, "positive" if weight >= 0 else "negative")
    assert got == want


def test_float64_kernel_matches_oracle_past_the_float32_range(monkeypatch):
    # the scale steps 2, 3, 5, ..., 19 are distinct primes: D = 9,699,690 and
    # m * D = 77,597,520 lies past 2**24 and below 2**53, the float64 rung
    ks = [3, 4, 6, 8, 12, 14, 18, 20]
    rng = random.Random(24)
    rows = random_rows(rng, 30, ks, missing_rate=0.1)
    w = weights_from_rows(rows, ks, "score")
    assert 2**24 <= w.n_items * w.denominator < 2**53
    assert w._x.dtype == w._y.dtype == np.float64
    oracle = all_pair_weights(rows, ks, "score")
    assert pair_weights(w) == {pair: weight for pair, (weight, _) in oracle.items()}
    scan_in_tiles_of(monkeypatch, 7)
    graph = project_participants(w, F(1, 2), negative_threshold=-1)
    got = {(u, v): (weight, sign) for u, v, weight, sign, *_ in edge_list(graph)}
    want = {(f"p{i:03d}", f"p{j:03d}"): (weight, "positive" if weight >= F(1, 2) else "negative")
            for (i, j), (weight, _) in oracle.items() if weight >= F(1, 2) or weight <= -1}
    assert got == want and want


@pytest.mark.parametrize("n_items, denominator, dtype", [
    (3, 5_592_405, np.float32),  # m * D = 2**24 - 1
    (4, 2**22, np.float64),  # m * D = 2**24
    (1, 2**24, np.float64),
    (2, 2**52, np.int64),  # m * D = 2**53
])
def test_kernel_dtype_rung_at_its_bounds(n_items, denominator, dtype):
    d = denominator
    # opposite extremes score -m * D, the largest numerator magnitude
    features = np.array([[-d] * n_items, [d] * n_items, [0] * n_items,
                         [d - 1 - 2 * j for j in range(n_items)]])
    w = PairWeights(SCORE, ["a", "b", "c", "e"], features, np.ones(features.shape, dtype=bool),
                    n_items, d)
    assert w._x.dtype == w._y.dtype == dtype
    assert [a.tobytes() for a in _stacked_encodings(w)] == [w._x.tobytes(), w._y.tobytes()]
    weights = pair_weights(w)
    for i, j in itertools.combinations(range(len(features)), 2):
        expected = F(sum(d - abs(int(a) - int(b)) for a, b in zip(features[i], features[j])), d)
        assert weights[i, j] == expected
    assert weights[0, 1] == -n_items
    # whole blocks come back on the rung, every entry exact
    numer, co = w.block_numerators(0, 4, 0, 4)
    assert numer.dtype == dtype and co is None
    assert [[int(x) for x in row] for row in numer] == [
        [sum(d - abs(int(a) - int(b)) for a, b in zip(u, v)) for v in features] for u in features]


# one survey shape per dtype rung; the float64 and int64 ones have scale steps
# that are distinct primes, so their shared denominators are large
RUNG_SCALES = {
    np.float32: [4, 5, 3, 4],
    np.float64: [3, 4, 6, 8, 12, 14, 18, 20],
    np.int64: [3, 4, 6, 8, 12, 14, 18, 20, 24, 30, 32, 38, 42, 44],
}


@pytest.mark.parametrize("dtype", list(RUNG_SCALES))
@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
def test_kernel_blocks_match_the_oracle_on_every_rung(dtype, mode):
    ks = RUNG_SCALES[dtype]
    rows = random_rows(random.Random(len(ks)), 23, ks, missing_rate=0.15)
    w = weights_from_rows(rows, ks, mode)
    numer, co = w.block_numerators(0, 23, 0, 23)
    assert numer.dtype == co.dtype == (dtype if mode == "score" else np.float32)
    for (i, j), (weight, co_answered) in all_pair_weights(rows, ks, mode).items():
        assert Fraction(int(numer[i, j]), w.denominator) == weight
        assert int(co[i, j]) == int(co[j, i]) == co_answered


def _stacked_encodings(w):
    """The encodings as first built: bool one-hots and int64 table products,
    stacked, then cast to the rung."""
    onehots, tables = [], []
    for j in range(w.n_items):
        column = w._features[:, j]
        values = np.unique(column[w._mask[:, j]])
        onehots.append((column[:, None] == values[None, :]) & w._mask[:, j, None])
        tables.append(w._item_table(values))
    return (np.hstack(onehots).astype(w._x.dtype),
            np.hstack([x @ t for x, t in zip(onehots, tables)]).astype(w._x.dtype))


@pytest.mark.parametrize("dtype", list(RUNG_SCALES))
@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement",
                                  "binarized_without_neutral"])
def test_encodings_built_on_the_rung_equal_the_stacked_ones_bit_for_bit(dtype, mode):
    ks = RUNG_SCALES[dtype]
    rows = random_rows(random.Random(len(ks) + 1), 40, ks, missing_rate=0.15)
    if mode == "binarized_without_neutral":
        w = weights_from_rows(rows, ks, "binarized_agreement", count_neutral_pairs=False)
    else:
        w = weights_from_rows(rows, ks, mode)
    x, y = _stacked_encodings(w)
    assert w._x.dtype == w._y.dtype == (dtype if mode == "score" else np.float32)
    assert w._x.shape == x.shape and w._x.tobytes() == x.tobytes()
    assert w._y.shape == y.shape and w._y.tobytes() == y.tobytes()


def _oracle_edges(rows, ks, mode, threshold, negative_threshold, rescale):
    edges = {}
    for (i, j), (weight, co) in all_pair_weights(rows, ks, mode).items():
        if rescale:
            weight = weight * len(ks) / co if co else Fraction(0)
        if weight >= threshold:
            edges[(f"p{i:03d}", f"p{j:03d}")] = (weight, "positive")
        elif negative_threshold is not None and weight <= negative_threshold:
            edges[(f"p{i:03d}", f"p{j:03d}")] = (weight, "negative")
    return edges


@pytest.mark.parametrize("dtype", list(RUNG_SCALES))
@pytest.mark.parametrize("mode, rescale", [("exact_agreement", False), ("score", False),
                                           ("binarized_agreement", False), ("score", True)])
def test_projection_matches_the_oracle_on_every_rung_and_block_size(dtype, mode, rescale,
                                                                    monkeypatch):
    ks = RUNG_SCALES[dtype]
    rows = random_rows(random.Random(40 + len(ks)), 31, ks, missing_rate=0.2)
    w = weights_from_rows(rows, ks, mode, rescale=rescale)
    weights = sorted(_oracle_edges(rows, ks, mode, -len(ks), None, rescale).values())
    lo, hi = weights[len(weights) // 4][0], weights[3 * len(weights) // 4][0]
    hi = hi if lo < hi else weights[-1][0]
    # at weight levels, between levels, and (score) below zero
    thresholds = [(hi, None), (hi, lo), (F(math.floor(lo + hi), 2) + F(1, 4), lo)]
    if mode == "score":
        thresholds.append((F(-1), weights[0][0]))
    for threshold, negative in thresholds:
        expected = _oracle_edges(rows, ks, mode, threshold, negative, rescale)
        assert {sign for _, sign in expected.values()} == (
            {"positive"} if negative is None else {"positive", "negative"})
        for side in (1, 7, None):
            scan_in_tiles_of(monkeypatch, side)
            graph = project_participants(w, threshold, negative)
            got = {(u, v): (weight, sign) for u, v, weight, sign, _ in edge_list(graph)}
            assert got == expected


@pytest.mark.parametrize("threshold", [F(1, 2**58), F(-1, 2**58)])
def test_a_rescaled_threshold_with_a_huge_denominator_is_exact(threshold):
    # m = 3 and D = 4: the numerators +-12 of the weights +-3 times m * 2**58
    # pass 2**63, so an int64 cross-multiplication with the threshold wraps
    ks = [5, 5, 5]
    rows = [[0, 0, 0], [0, 0, 0], [1, None, 2], [4, 4, 4]]
    graph = project_participants(weights_from_rows(rows, ks, "score", rescale=True), threshold)
    assert [(u, v, weight) for u, v, weight, *_ in edge_list(graph)] == [
        ("p000", "p001", 3), ("p000", "p002", F(3, 4)), ("p001", "p002", F(3, 4))]
    assert ({(u, v): (weight, sign) for u, v, weight, sign, *_ in edge_list(graph)}
            == _oracle_edges(rows, ks, "score", threshold, None, True))


@lru_cache(maxsize=None)
def _rung_survey(dtype, mode, rescale):
    """Weights of a small survey on a dtype rung, and the oracle's weight per pair."""
    ks = RUNG_SCALES[dtype]
    rows = random_rows(random.Random(7 + len(ks)), 24, ks, missing_rate=0.2)
    w = weights_from_rows(rows, ks, mode, rescale=rescale)
    oracle = {(f"p{i:03d}", f"p{j:03d}"): weight * len(ks) / co if rescale and co
              else Fraction(0) if rescale else weight
              for (i, j), (weight, co) in all_pair_weights(rows, ks, mode).items()}
    return w, oracle


@st.composite
def _fine_thresholds(draw, w, oracle):
    """A threshold within a few units of its denominator of a weight, 0 or a
    range end, with a denominator near 2**62 / (m * D), near 2**62 / (m**2 * D)
    or above 2**62."""
    m, d = w.n_items, w.denominator
    den = max(1, draw(st.one_of(st.integers(-8, 8).map(lambda k: 2**62 // (m * d) + k),
                                st.integers(-8, 8).map(lambda k: 2**62 // (m * m * d) + k),
                                st.integers(1, 2**70).map(lambda k: 2**62 + k))))
    lo, hi = w.weight_range()
    near = draw(st.sampled_from(sorted(set(oracle.values()) | {Fraction(0), lo, hi})))
    threshold = Fraction(math.floor(near * den) + draw(st.integers(-2, 2)), den)
    return min(max(threshold, lo), hi)


@pytest.mark.parametrize("dtype", list(RUNG_SCALES))
@pytest.mark.parametrize("mode, rescale", [("exact_agreement", False), ("score", False),
                                           ("binarized_agreement", False), ("score", True)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_rational_threshold_matches_the_oracle_on_every_rung(dtype, mode, rescale, data):
    w, oracle = _rung_survey(dtype, mode, rescale)
    first, second = data.draw(_fine_thresholds(w, oracle)), data.draw(_fine_thresholds(w, oracle))
    if data.draw(st.booleans()) and first != second:
        threshold, negative = max(first, second), min(first, second)
    else:
        threshold, negative = first, None
    graph = project_participants(w, threshold, negative)
    assert {(u, v): (weight, sign) for u, v, weight, sign, *_ in edge_list(graph)} == {
        pair: (weight, "positive" if weight >= threshold else "negative")
        for pair, weight in oracle.items()
        if weight >= threshold or (negative is not None and weight <= negative)}


@pytest.mark.parametrize("missing_rate, rescale, bytes_per_cell", [
    pytest.param(0.0, False, 8, id="0.0"),
    pytest.param(0.03, False, 12, id="0.03"),
    pytest.param(0.03, True, 16, id="0.03-rescaled"),
])
def test_the_pair_scan_holds_no_int64_block(missing_rate, rescale, bytes_per_cell):
    # the bounds are in cells of a block of 512 x 3,000, more than one scan
    # tile holds: the tiles' float32 numerators take 4 B per cell, and the
    # whole scan stays below one int64 block (8 B per cell); on incomplete
    # data the kernel also returns float32 co-answered counts, 4 B per cell
    # more, which the scan uses only for rescaled weights, whose per-count
    # level lookup indexes by a one-byte count and stays below two int64 blocks
    ks = [4] * 10 + [5] * 3
    rows = random_rows(random.Random(3), 3_000, ks, missing_rate=missing_rate)
    w = weights_from_rows(rows, ks, "score", rescale=rescale)
    assert project.SCAN_TILE ** 2 <= 512 * 3_000 and w.has_missing == bool(missing_rate)
    tracemalloc.start()
    try:
        graph = project_participants(w, F(15, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.n_edges > 10_000
    assert peak < 512 * 3_000 * bytes_per_cell


def test_ordinary_surveys_take_the_float32_rung():
    ks = [4] * 10 + [5] * 3
    rows = random_rows(random.Random(3), 5, ks)
    for mode in ("exact_agreement", "score", "binarized_agreement"):
        assert weights_from_rows(rows, ks, mode)._x.dtype == np.float32


def test_scan_tiles_cover_each_pair_once_and_keep_their_size_as_n_grows(monkeypatch):
    # a tile's float32 numerators and counts (8 B per cell) fit a 2 MiB cache
    # whatever n is
    assert 8 * project.SCAN_TILE ** 2 <= 2 << 20
    for n in (2, 100, 3_000, 30_000):
        cells = [(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in project._upper_tiles(n)]
        assert max(cells) == min(n, project.SCAN_TILE) ** 2
    for side, n in ((1, 5), (3, 10), (7, 7), (7, 30), (16, 200), (1000, 61)):
        scan_in_tiles_of(monkeypatch, side)
        covered = np.zeros((n, n), dtype=int)
        for r0, r1, c0, c1 in project._upper_tiles(n):
            assert c0 >= r0 and 0 < r1 - r0 <= side and 0 < c1 - c0 <= side
            covered[r0:r1, c0:c1] += 1
        assert covered.max() == 1 and covered[np.triu_indices(n, 1)].all()  # each i < j once


def test_block_size_does_not_change_the_written_graph(tmp_path, monkeypatch):
    rng = random.Random(71)
    ks = [4, 5, 3, 4, 2]
    rows = random_rows(rng, 61, ks, missing_rate=0.1)
    w = weights_from_rows(rows, ks, "score")
    written = set()
    for side in (None, 1, 2, 7, 60, 61, 1000):
        path = tmp_path / f"g{side}.graphml"
        scan_in_tiles_of(monkeypatch, side)
        export_graphml(project_participants(w, F(1, 2), negative_threshold=F(-1, 3)), path)
        written.add(path.read_bytes())
    assert len(written) == 1


def test_block_size_does_not_change_output(monkeypatch):
    rng = random.Random(89)
    ks = [4, 4, 5, 3]
    rows = random_rows(rng, 33, ks, missing_rate=0.1)
    w = weights_from_rows(rows, ks, "score")
    default = project_participants(w, F(1, 3), negative_threshold=F(-2))
    scan_in_tiles_of(monkeypatch, 2)
    tiny = project_participants(w, F(1, 3), negative_threshold=F(-2))
    assert edge_list(default) == edge_list(tiny)


def test_pairwise_missing_score_uses_co_answered():
    ks = [5, 5, 5]
    rows = [[0, None, 4], [0, 2, None]]
    w = weights_from_rows(rows, ks, "score")
    # only item 0 is co-answered: weight = 1 - 0 = 1, rescaled 3 * 1 / 1 = 3
    assert pair_weights(w)[0, 1] == 1
    assert pair_weights(weights_from_rows(rows, ks, "score", rescale=True))[0, 1] == 3


def test_rescaled_pairwise_score():
    ks = [5, 5, 5, 5]
    rows = [[0, 0, None, 4], [0, 4, 2, None]]
    w = weights_from_rows(rows, ks, "score", rescale=True)
    # co = 2, raw = 2 - 2 = 0 -> rescaled 4 * 0 / 2 = 0
    assert pair_weights(w)[0, 1] == 0
    rows2 = [[0, 0, 0, None], [0, 0, 4, None]]
    w2 = weights_from_rows(rows2, ks, "score", rescale=True)
    # co = 3, raw = 3 - 2 = 1 -> rescaled 4/3
    assert pair_weights(w2)[0, 1] == F(4, 3)
    graph = project_participants(w2, F(4, 3))
    assert graph.n_edges == 1


@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
def test_banded_sweep_drops_counts_not_numerators(mode):
    # the sweep's banded pass runs on a subset kernel without co-answered counts;
    # on incomplete data its selections are still those of the exact weights
    rng = random.Random(55)
    ks = [4, 5, 3, 7]
    rows = random_rows(rng, 40, ks, missing_rate=0.3)
    w = weights_from_rows(rows, ks, mode)
    assert w.has_missing
    pairs = all_pair_weights(rows, ks, mode)
    for target in (F(1, 40), F(1, 2), F(1)):
        level, frac, sweep = sweep_oracle(pairs, 40, target)
        selection = select_threshold(w, target)
        assert selection.chosen_threshold == level
        assert selection.giant_fraction_at_chosen == frac
        assert selection.sweep == sweep


def test_banded_sweep_leaves_the_weights_untouched():
    # the pass scans a subset kernel without counts, of the distinct rows
    # when copies abound: the caller's kernel keeps its rows and its counts
    rng = random.Random(56)
    ks = [4, 5, 3, 7]
    distinct = random_rows(rng, 12, ks, missing_rate=0.3)
    for rows in (distinct, distinct + distinct[:8]):
        w = weights_from_rows(rows, ks, "score")
        n = len(rows)
        before = w.block_numerators(0, n, 0, n)
        select_threshold(w, F(1))
        after = w.block_numerators(0, n, 0, n)
        assert w.n_participants == n and w.has_missing and after[1] is not None
        for old, new in zip(before, after):
            assert old.dtype == new.dtype and (old == new).all()


@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
def test_every_mode_refuses_a_single_participant_alike(mode):
    with pytest.raises(ValidationError, match="^pairwise weights need at least 2 participants$"):
        weights_from_rows([[0, 1]], [4, 4], mode)


def test_as_fraction_reads_a_float_by_its_shortest_decimal_and_refuses_non_numbers():
    assert as_fraction(0.1) == F(1, 10)
    for value in (True, [1]):
        with pytest.raises(ValidationError, match="cannot interpret"):
            as_fraction(value)


def test_as_fraction_takes_numpy_integers_and_floats_and_refuses_numpy_bools():
    assert as_fraction(np.int64(3)) == 3 and as_fraction(np.uint8(7)) == 7
    assert as_fraction(np.float32(0.5)) == F(1, 2)
    assert as_fraction(np.float32(0.1)) == F(1, 10)  # float32's shortest decimal
    with pytest.raises(ValidationError, match="cannot interpret"):
        as_fraction(np.bool_(True))
    with pytest.raises(ValidationError, match="cannot parse"):
        as_fraction(np.float32("nan"))
    weights = weights_from_rows([[0, 1, 2], [0, 1, 1], [2, 2, 0]], [3, 3, 3], "exact_agreement")
    assert edge_list(project_participants(weights, np.int64(2))) == \
        edge_list(project_participants(weights, 2))


def test_rescale_is_identity_on_complete_data():
    rng = random.Random(101)
    ks = [4, 5, 3]
    rows = random_rows(rng, 12, ks)
    plain = weights_from_rows(rows, ks, "score")
    rescaled = weights_from_rows(rows, ks, "score", rescale=True)
    assert pair_weights(plain) == pair_weights(rescaled)
    ga = project_participants(plain, F(1, 2))
    gb = project_participants(rescaled, F(1, 2))
    assert [e[:3] for e in edge_list(ga)] == [e[:3] for e in edge_list(gb)]


def test_no_co_answered_items_scores_zero():
    ks = [4, 4]
    rows = [[0, None], [None, 1]]
    # and so does its rescaled weight, which is not m * 0 / 0
    for rescale in (False, True):
        assert pair_weights(weights_from_rows(rows, ks, "score", rescale=rescale))[0, 1] == 0


# ---------------------------------------------------------------------------
# attitude projection and styling
# ---------------------------------------------------------------------------


def test_attitude_counts_by_definition():
    # values (+1,+1), (+1,-1), (-1,-1) on two items
    ag = project_attitudes(renormalize(make_matrix([[1, 1], [1, 0], [0, 0]], [2, 2])))
    assert (ag.pos[0, 1], ag.neg[0, 1]) == (1, 1)


def test_attitude_all_positive_is_top_third_solid():
    n = 9
    ag = project_attitudes(renormalize(make_matrix([[1, 1]] * n, [2, 2])))
    assert ag.pos[0, 1] == n and ag.neg[0, 1] == 0
    graph = style_edges(ag)
    [(_, _, weight, sign, style)] = edge_list(graph)
    assert sign == "positive"
    assert style == "solid"
    assert weight == n


def test_attitude_neutral_and_missing_count_for_neither():
    rows = [[2, 4], [None, 4], [4, 4]]
    ag = project_attitudes(renormalize(make_matrix(rows, [5, 5])))
    assert (ag.pos[0, 1], ag.neg[0, 1]) == (1, 0)


def test_attitude_pos_plus_neg_bounded_by_n():
    rng = random.Random(97)
    ks = [5, 4, 3, 5]
    rows = random_rows(rng, 50, ks, missing_rate=0.1)
    ag = project_attitudes(renormalize(make_matrix(rows, ks)))
    assert (ag.pos == ag.pos.T).all() and (ag.neg == ag.neg.T).all()
    for a, b in itertools.combinations(range(len(ks)), 2):
        pos, neg = ag.pos[a, b], ag.neg[a, b]
        assert 0 <= pos <= 50
        assert 0 <= neg <= 50
        assert pos + neg <= 50


# awkward ids, drawn in random order so schema order differs from canonical order
ATTITUDE_ITEM_IDS = ["b", "a", "Z", "é", "q10", "q9", "x y", "m", "<&>"]


@pytest.mark.parametrize("mode", ["dual", "signed"])
def test_attitude_graph_matches_loop_oracle(mode):
    rng = random.Random(606)
    for _ in range(60):
        m = rng.randrange(2, 8)
        ks = [rng.randrange(2, 8) for _ in range(m)]  # odd scales have a neutral midpoint
        ids = rng.sample(ATTITUDE_ITEM_IDS, m)
        schema = SurveySchema(items=tuple(map(SurveyItem, ids, ks)), id_column="pid")
        rows = random_rows(rng, rng.randrange(1, 40), ks, missing_rate=0.15)
        ag = project_attitudes(renormalize(make_matrix(rows, ks, schema=schema)))
        edges, counts = attitude_edges(rows, ks, ids, mode)
        graph = style_edges(ag, mode=mode)
        assert edge_list(graph) == edges
        index = {item: i for i, item in enumerate(ag.items)}
        assert {(a, b): (ag.pos[index[a], index[b]], ag.neg[index[a], index[b]])
                for a, b in counts} == counts


def test_attitude_needs_two_items():
    with pytest.raises(ValidationError, match="at least 2 items"):
        project_attitudes(renormalize(make_matrix([[1], [0]], [4])))


def test_thirds_boundaries_exact():
    n = 6
    assert thirds_style(0, n) is None
    assert thirds_style(1, n) == "dotted"
    assert thirds_style(2, n) == "dotted"  # exactly N/3
    assert thirds_style(3, n) == "dashed"
    assert thirds_style(4, n) == "dashed"  # exactly 2N/3
    assert thirds_style(5, n) == "solid"
    assert thirds_style(6, n) == "solid"
    # non-divisible total: boundaries stay exact rationals
    assert thirds_style(2, 7) == "dotted"  # 6 <= 7
    assert thirds_style(3, 7) == "dashed"  # 9 > 7, 9 <= 14
    assert thirds_style(5, 7) == "solid"  # 15 > 14


def test_styled_attitude_graph_dual_edges():
    rows = [[1, 1], [1, 1], [0, 0]]
    graph = style_edges(project_attitudes(renormalize(make_matrix(rows, [2, 2]))))
    signs = {(sign, weight, style) for _, _, weight, sign, style in edge_list(graph)}
    assert signs == {("positive", F(2), "dashed"), ("negative", F(-1), "dotted")}
    assert graph.extra["n_participants"] == 3


def test_styled_attitude_negative_full_is_solid_red():
    rows = [[0, 0]] * 5
    graph = style_edges(project_attitudes(renormalize(make_matrix(rows, [2, 2]))))
    assert [e[2:] for e in edge_list(graph)] == [(-5, "negative", "solid")]


def test_zero_count_pairs_get_no_edge():
    rows = [[1, 1], [0, 1]]  # no co-negative pair on (q00, q01)
    graph = style_edges(project_attitudes(renormalize(make_matrix(rows, [2, 2]))))
    assert [sign for *_, sign, _ in edge_list(graph)] == ["positive"]


def test_style_edges_takes_attitude_graphs_only():
    ag = project_attitudes(renormalize(make_matrix([[1, 1], [0, 1]], [2, 2])))
    with pytest.raises(ValidationError, match="cannot style object of type ProjectionGraph"):
        style_edges(style_edges(ag))
    with pytest.raises(ValidationError, match="unknown attitude mode 'both'"):
        style_edges(ag, mode="both")


def test_attitude_signed_mode_single_edge():
    rows = [[1, 1], [1, 1], [0, 0]]
    graph = style_edges(project_attitudes(renormalize(make_matrix(rows, [2, 2]))), mode="signed")
    [(_, _, weight, sign, _)] = edge_list(graph)
    assert weight == 1  # 2 positive - 1 negative
    assert sign == "positive"


# ---------------------------------------------------------------------------
# ProjectionGraph container semantics
# ---------------------------------------------------------------------------


def test_graph_canonicalizes_edges():
    graph = ProjectionGraph(
        kind="participant",
        nodes=["b", "a", "c"],
        edges=[Edge("c", "a", F(2)), Edge("b", "a", F(1))],
    )
    assert [(u, v) for u, v, *_ in edge_list(graph)] == [("a", "b"), ("a", "c")]


def test_graph_rejects_duplicates_self_loops_unknown_nodes():
    with pytest.raises(ValidationError, match="duplicate"):
        ProjectionGraph("participant", ["a", "b"], [Edge("a", "b", F(1)), Edge("b", "a", F(2))])
    with pytest.raises(ValidationError, match="self-loop"):
        ProjectionGraph("participant", ["a"], [Edge("a", "a", F(1))])
    with pytest.raises(ValidationError, match="unknown node"):
        ProjectionGraph("participant", ["a"], [Edge("a", "z", F(1))])
    with pytest.raises(ValidationError, match="unique"):
        ProjectionGraph("participant", ["a", "a"], [])


def test_graph_enforces_threshold_invariants():
    with pytest.raises(ValidationError, match="below the threshold"):
        ProjectionGraph("participant", ["a", "b"], [Edge("a", "b", F(1))],
                        threshold_used=F(2))
    with pytest.raises(ValidationError, match="above the negative threshold"):
        ProjectionGraph("participant", ["a", "b"], [Edge("a", "b", F(-1), "negative")],
                        threshold_used=F(2), negative_threshold_used=F(-3))
    # without declared thresholds no constraint applies
    ProjectionGraph("participant", ["a", "b"], [Edge("a", "b", F(-1), "negative")])


def test_attitude_graph_may_carry_both_signs_per_pair():
    graph = ProjectionGraph(
        kind="attitude",
        nodes=["x", "y"],
        edges=[Edge("x", "y", F(3), "positive"), Edge("x", "y", F(-2), "negative")],
        extra={"n_participants": 5},
    )
    assert graph.n_edges == 2


# ---------------------------------------------------------------------------
# canonical edge order
# ---------------------------------------------------------------------------

CANONICAL_NODES = ["d", "b", "e", "a", "c"]  # index order is not id order
CANONICAL_TABLE = [F(1, 3), F(-2), F(5, 7)]


def _from_rows(rows, nodes=CANONICAL_NODES):
    """An attitude graph from (u, v, weight code, sign, style) rows."""
    us, vs, codes, signs, styles = (np.array(column, dtype=np.int64).reshape(-1)
                                    for column in (zip(*rows) if rows else [()] * 5))
    return ProjectionGraph.from_arrays("attitude", nodes, us, vs, CANONICAL_TABLE, codes, signs,
                                       styles)


def _canonical_key(row, nodes=CANONICAL_NODES):
    u, v = sorted((nodes[row[0]], nodes[row[1]]))
    return u, v, row[3]


def _graph_columns(graph):
    return ([column.tolist() for column in (graph.us, graph.vs, graph.weight_codes, graph.signs,
                                            graph.styles)], graph.weight_table)


def _edge_rows(seed):
    rng = random.Random(seed)
    return [(a, b, rng.randrange(3), sign, rng.randrange(3))
            for a, b in itertools.combinations(range(len(CANONICAL_NODES)), 2)
            for sign in (0, 1) if rng.random() < 0.7]


@pytest.mark.parametrize("u, v", [(0, 5), (-1, 2)])
def test_from_arrays_refuses_an_unknown_node_index(u, v):
    with pytest.raises(ValidationError, match="unknown node index"):
        _from_rows([(u, v, 0, 0, 0)])


def test_from_arrays_gives_equal_columns_for_canonical_index_ordered_and_shuffled_edges(
        monkeypatch):
    rows = _edge_rows(4)  # pairs in index order, which is not the canonical order
    canonical = sorted(rows, key=_canonical_key)
    assert canonical != rows
    shuffled = rows[:]
    random.Random(5).shuffle(shuffled)
    flipped = [(b, a, *rest) for a, b, *rest in canonical]
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **k: sorts.append(1) or argsort(*a, **k))
    graph = _from_rows(canonical)
    assert not sorts  # canonical edges are not sorted again
    nodes = CANONICAL_NODES
    assert [(nodes[u], nodes[v], s) for u, v, s in zip(graph.us.tolist(), graph.vs.tolist(),
                                                       graph.signs.tolist())] == [
        _canonical_key(row) for row in canonical]
    for other in (rows, shuffled, flipped):
        assert _graph_columns(_from_rows(other)) == _graph_columns(graph)
    assert sorts  # the index-ordered and shuffled edges are


@pytest.mark.parametrize("sign", [0, 1])
def test_an_adjacent_duplicate_is_reported_like_a_shuffled_one(sign):
    canonical = sorted(_edge_rows(6), key=_canonical_key)
    at = next(i for i, row in enumerate(canonical) if row[3] == sign)
    a, b, code, _, style = canonical[at]
    repeated = canonical[:at + 1] + [(b, a, (code + 1) % 3, sign, style)] + canonical[at + 1:]
    shuffled = repeated[:]
    random.Random(7).shuffle(shuffled)
    messages = []
    for rows in (repeated, shuffled):
        with pytest.raises(ValidationError, match="duplicate .* edge") as excinfo:
            _from_rows(rows)
        messages.append(str(excinfo.value))
    u, v, _ = _canonical_key(canonical[at])
    assert messages == [f"duplicate {project.SIGNS[sign]} edge ({u!r}, {v!r})"] * 2


def test_graphs_with_no_edges_or_two_nodes_still_build():
    assert _from_rows([]).n_edges == 0
    assert _from_rows([], nodes=["a"]).n_edges == 0
    graph = _from_rows([(0, 1, 2, 1, 0), (1, 0, 0, 0, 1)], nodes=["b", "a"])
    assert _graph_columns(graph) == ([[1, 1], [0, 0], [1, 2], [0, 1], [1, 0]],
                                     (F(-2), F(1, 3), F(5, 7)))
