import itertools
import random
import tempfile
import tracemalloc
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from opinionnet import (
    Edge,
    NoGiantComponentError,
    ProjectionGraph,
    ValidationError,
    binarize,
    connected_components,
    edge_betweenness,
    girvan_newman,
    load_survey,
    profile_census,
    project_participants,
    renormalize,
    score_weights,
    select_threshold,
)

from opinionnet import analyze, project
from opinionnet.analyze import _betweenness_exact, _betweenness_fast
from opinionnet.project import PairWeights

from helpers import (
    barbell_graph,
    edge_list,
    giant_subgraph,
    graph_from_edges,
    make_matrix,
    planted_two_block_graph,
    weights_from_rows,
)
from paper_survey import write_bloc_survey
from oracles import (
    MAX_SWEEP_LEVELS,
    all_pair_weights,
    betweenness_per_source,
    components_from_edges,
    edge_betweenness_by_path_enumeration,
    full_row_select_threshold,
    random_rows,
    sweep_oracle,
)


def F(*args):
    return Fraction(*args)


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------


def test_two_disjoint_triangles():
    nodes = [f"t{i}" for i in range(6)]
    pairs = [("t0", "t1"), ("t1", "t2"), ("t0", "t2"), ("t3", "t4"), ("t4", "t5"), ("t3", "t5")]
    report = connected_components(graph_from_edges(nodes, pairs))
    assert [len(c) for c in report.components] == [3, 3]
    assert report.giant_fraction == F(1, 2)


def test_edgeless_graph_has_singletons():
    n = 7
    report = connected_components(graph_from_edges([f"n{i}" for i in range(n)], []))
    assert [len(c) for c in report.components] == [1] * n
    assert report.giant_fraction == F(1, n)


def test_components_partition_the_node_set():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randrange(2, 30)
        nodes = [f"x{i:02d}" for i in range(n)]
        pairs = set()
        for _ in range(rng.randrange(0, 2 * n)):
            a, b = rng.sample(range(n), 2)
            pairs.add((nodes[min(a, b)], nodes[max(a, b)]))
        report = connected_components(graph_from_edges(nodes, sorted(pairs)))
        assert sum(len(c) for c in report.components) == n
        seen = set()
        for comp in report.components:
            seen.update(comp)
        assert seen == set(nodes)


def test_negative_edges_excluded_by_default():
    graph = ProjectionGraph(
        kind="participant",
        nodes=["a", "b", "c"],
        edges=[Edge("a", "b", F(3)), Edge("b", "c", F(-2), "negative")],
    )
    positive_only = connected_components(graph)
    assert [len(c) for c in positive_only.components] == [2, 1]


def test_component_ordering_size_then_smallest_id():
    nodes = ["a", "b", "c", "d"]
    report = connected_components(graph_from_edges(nodes, [("c", "d")]))
    assert report.components == [["c", "d"], ["a"], ["b"]]


# ---------------------------------------------------------------------------
# threshold selection
# ---------------------------------------------------------------------------


def test_identical_rows_choose_max_level():
    ks = [4, 4, 4]
    rows = [[1, 2, 3]] * 5
    w = weights_from_rows(rows, ks, "exact_agreement")
    selection = select_threshold(w)
    assert selection.chosen_threshold == 3
    assert selection.giant_fraction_at_chosen == 1


def test_two_equal_blocks_meet_inclusive_target():
    # two blocks identical within and fully different across: at level m the
    # largest clique holds exactly half the nodes, which meets target 1/2
    ks = [4, 4, 4, 4]
    rows = [[0, 0, 0, 0]] * 4 + [[1, 1, 1, 1]] * 4
    w = weights_from_rows(rows, ks, "exact_agreement")
    selection = select_threshold(w, F(1, 2))
    assert selection.chosen_threshold == 4
    assert selection.giant_fraction_at_chosen == F(1, 2)


@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
@pytest.mark.parametrize("missing_rate", [0.0, 0.15])
def test_selection_matches_brute_force_sweep(mode, missing_rate):
    rng = random.Random(hash((mode, missing_rate)) % (2**31))
    for _ in range(6):
        ks = [rng.randrange(2, 6) for _ in range(rng.randrange(2, 6))]
        rows = random_rows(rng, rng.randrange(4, 16), ks, missing_rate=missing_rate)
        w = weights_from_rows(rows, ks, mode)
        target = F(rng.randrange(1, 4), 4)
        oracle_weights = {p: wc for p, wc in all_pair_weights(rows, ks, mode).items()}
        expected_level, expected_frac, expected_sweep = sweep_oracle(
            oracle_weights, len(rows), target
        )
        selection = select_threshold(w, target)
        assert selection.chosen_threshold == expected_level
        assert selection.giant_fraction_at_chosen == expected_frac
        assert selection.sweep == expected_sweep


def test_sweep_fraction_is_monotone():
    rng = random.Random(29)
    ks = [4, 5, 3]
    rows = random_rows(rng, 20, ks)
    w = weights_from_rows(rows, ks, "score")
    selection = select_threshold(w, F(99, 100))
    fractions = [frac for _, frac in selection.sweep]
    assert fractions == sorted(fractions)
    levels = [level for level, _ in selection.sweep]
    assert levels == sorted(levels, reverse=True)


def test_sweep_matches_oracle():
    rng = random.Random(37)
    ks = [4, 4, 5, 3]
    n = 40
    target = F(3, 4)
    for mode in ("exact_agreement", "score", "binarized_agreement"):
        for missing_rate in (0.0, 0.2):
            rows = random_rows(rng, n, ks, missing_rate=missing_rate)
            w = weights_from_rows(rows, ks, mode)
            level, frac, sweep = sweep_oracle(all_pair_weights(rows, ks, mode), n, target)
            selection = select_threshold(w, target)
            assert selection.chosen_threshold == level
            assert selection.giant_fraction_at_chosen == frac
            assert selection.sweep == sweep
            # a floor just above the chosen level stops the descent one level short
            with pytest.raises(NoGiantComponentError) as excinfo:
                select_threshold(w, target, min_level=level + F(1, 1000))
            assert excinfo.value.sweep == sweep[:-1]


def _selection_or_sweep(select, weights, target, min_level=None):
    """The ThresholdSelection, or the sweep carried by NoGiantComponentError."""
    try:
        return select(weights, target, min_level=min_level)
    except NoGiantComponentError as exc:
        return ("no giant component", exc.sweep)


def _sweep_cases(rng, mode, missing_rate):
    """Random surveys of 2 to a few hundred rows, half of them drawn from a
    handful of distinct rows, so that equal weights and equal rows abound."""
    for n in (2, 3, 5, 17, 60, 240):
        ks = [rng.randrange(2, 7) for _ in range(rng.randrange(1, 7))]
        yield random_rows(rng, n, ks, missing_rate=missing_rate), ks
        protos = random_rows(rng, rng.randrange(1, 5), ks, missing_rate=missing_rate)
        yield [list(rng.choice(protos)) for _ in range(n)], ks


@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
@pytest.mark.parametrize("missing_rate", [0.0, 0.2])
def test_select_threshold_matches_the_full_row_prim_reference(mode, missing_rate):
    rng = random.Random(f"prefix-prim:{mode}:{missing_rate}")
    for rows, ks in _sweep_cases(rng, mode, missing_rate):
        w = weights_from_rows(rows, ks, mode)
        for target in (F(1, len(rows)), F(1, 3), F(1, 2), F(9, 10), F(1)):
            expected = full_row_select_threshold(w, target)
            assert select_threshold(w, target) == expected
            # floors at, just above and below the chosen level, and at a random one
            lo, hi = w.weight_range()
            for floor in (expected.chosen_threshold, expected.chosen_threshold + F(1, 997),
                          expected.chosen_threshold - 1, lo + (hi - lo) * F(rng.random())):
                assert (_selection_or_sweep(select_threshold, w, target, floor)
                        == _selection_or_sweep(full_row_select_threshold, w, target, floor))


def _count_cells(monkeypatch) -> list:
    """Record the cells of every kernel call."""
    cells = []
    original = PairWeights.block_numerators

    def counted(self, r0, r1, c0, c1):
        cells.append((r1 - r0) * (c1 - c0))
        return original(self, r0, r1, c0, c1)

    monkeypatch.setattr(PairWeights, "block_numerators", counted)
    return cells


def _one_band_cells(n, side):
    """One sample of side**2 // n rows (at least one) against every column,
    then one pass over the upper-triangle tiles, row tile by row tile."""
    return [min(max(1, side ** 2 // n), n) * n] + [
        (min(r0 + side, n) - r0) * (min(c0 + side, n) - c0)
        for r0 in range(0, n, side) for c0 in range(r0, n, side)]


@pytest.mark.parametrize("n", [2, 3, 50, 201])
def test_the_banded_pass_requests_one_sample_block_and_one_band(n, monkeypatch):
    # a uniform survey of distinct rows reaches the target in its first band
    rng = random.Random(n)
    ks = [4, 5, 3, 7, 6, 5, 4, 6]
    rows = random_rows(rng, n, ks, missing_rate=0.1)
    assert len({tuple(row) for row in rows}) == n
    w = weights_from_rows(rows, ks, "score")
    monkeypatch.setattr(project, "SCAN_TILE", 16)
    cells = _count_cells(monkeypatch)
    select_threshold(w, F(1, 2))
    assert cells == _one_band_cells(n, 16)


def test_the_banded_pass_scans_distinct_rows_only(monkeypatch):
    # 120 rows, copies of 30 distinct ones: the kernel sees the 30 only
    rng = random.Random(120)
    ks = [4, 5, 3, 7, 6, 5]
    distinct = random_rows(rng, 30, ks, missing_rate=0.1)
    rows = distinct + [list(rng.choice(distinct)) for _ in range(90)]
    w = weights_from_rows(rows, ks, "score")
    monkeypatch.setattr(project, "SCAN_TILE", 16)
    cells = _count_cells(monkeypatch)
    selection = select_threshold(w, F(1, 2))
    assert cells[:len(_one_band_cells(30, 16))] == _one_band_cells(30, 16)
    assert selection == full_row_select_threshold(w, F(1, 2))


def _banded_survey(rng, kind, missing_rate):
    """Rows of a survey of ten 4-point and three 5-point items: uniform,
    half of them copies of 4 rows, copies of 4 rows with 1 to 3 items
    redrawn, or one row repeated."""
    ks = [4] * 10 + [5] * 3
    rows = random_rows(rng, 200, ks, missing_rate=missing_rate)
    protos = rows[:4]
    if kind == "duplicates":
        rows = [list(rng.choice(protos)) if rng.random() < 0.5 else row for row in rows]
    elif kind == "near_duplicates":
        rows = [list(rng.choice(protos)) for _ in rows]
        for row in rows:
            for j in rng.sample(range(len(ks)), rng.randint(1, 3)):
                row[j] = rng.randrange(ks[j])
    elif kind == "identical":
        rows = [list(protos[0]) for _ in range(40)]
    return rows, ks


BANDED_CASES = (
    [(mode, rate, "uniform") for mode in ("exact_agreement", "score", "binarized_agreement",
                                          "binarized_without_neutral") for rate in (0.0, 0.03)]
    + [(mode, 0.03, kind) for kind in ("duplicates", "near_duplicates")
       for mode in ("exact_agreement", "score", "binarized_agreement")]
    + [("score", 0.0, "identical"), ("binarized_agreement", 0.03, "identical")]
)


def _banded_weights(mode, missing_rate, kind):
    rows, ks = _banded_survey(random.Random(f"banded:{mode}:{missing_rate}:{kind}"), kind,
                              missing_rate)
    if mode == "binarized_without_neutral":
        return weights_from_rows(rows, ks, "binarized_agreement", count_neutral_pairs=False)
    return weights_from_rows(rows, ks, mode)


def _assert_matches_the_full_row_reference(w):
    """Selections and floored sweeps equal the full-row Prim reference."""
    n = w.n_participants
    for target in (F(1, n), F(1, 2), F(9, 10), F(1)):
        expected = full_row_select_threshold(w, target)
        assert select_threshold(w, target) == expected
        if target == F(1, 2):  # the sweep a floor cuts short, and one below the chosen level
            for floor in (expected.chosen_threshold + F(1, 997), expected.chosen_threshold - 1):
                assert (_selection_or_sweep(select_threshold, w, target, floor)
                        == _selection_or_sweep(full_row_select_threshold, w, target, floor))


@pytest.mark.parametrize("mode,missing_rate,kind", BANDED_CASES)
def test_banded_sweep_matches_the_full_row_reference(mode, missing_rate, kind, monkeypatch):
    monkeypatch.setattr(project, "SCAN_TILE", 37)  # several row and column tiles
    _assert_matches_the_full_row_reference(_banded_weights(mode, missing_rate, kind))


def _counted_bands(monkeypatch) -> list:
    """Record how many bands each sweep scans, and how many compactions run."""
    counts = {"bands": 0, "compactions": 0}
    bands, merges = project._sweep_bands, project._root_merges

    def counted_bands(*args):
        for band in bands(*args):
            counts["bands"] += 1
            yield band

    def counted_merges(*args):
        counts["compactions"] += 1
        return merges(*args)

    monkeypatch.setattr(project, "_sweep_bands", counted_bands)
    monkeypatch.setattr(project, "_root_merges", counted_merges)
    return counts


@pytest.mark.parametrize("mode,missing_rate,kind", [
    ("score", 0.03, "uniform"), ("binarized_agreement", 0.03, "duplicates"),
    ("exact_agreement", 0.0, "near_duplicates")])
def test_banded_sweep_is_exact_under_compaction_and_a_too_high_pivot(mode, missing_rate, kind,
                                                                      monkeypatch):
    w = _banded_weights(mode, missing_rate, kind)
    monkeypatch.setattr(project, "SCAN_TILE", 37)
    counts = _counted_bands(monkeypatch)
    budgets = project.SWEEP_HELD_BYTES, project.SWEEP_LEVEL_BYTES
    # compact the held pairs and deduplicate the levels after nearly every tile
    monkeypatch.setattr(project, "SWEEP_HELD_BYTES", 64)
    monkeypatch.setattr(project, "SWEEP_LEVEL_BYTES", 64)
    _assert_matches_the_full_row_reference(w)
    assert counts["compactions"] > counts["bands"]
    monkeypatch.setattr(project, "SWEEP_HELD_BYTES", budgets[0])
    monkeypatch.setattr(project, "SWEEP_LEVEL_BYTES", budgets[1])
    monkeypatch.setattr(project, "FIRST_BAND_PAIRS_PER_ROW", 0)  # a band of the top sampled pair
    monkeypatch.setattr(project, "BAND_GROWTH", 2)
    counts["bands"] = 0
    assert select_threshold(w, F(1)) == full_row_select_threshold(w, F(1))
    assert counts["bands"] >= 3
    _assert_matches_the_full_row_reference(w)


def _graph_state(graph):
    """Everything a ProjectionGraph holds, as plain values."""
    return (graph.kind, graph.nodes, graph.node_attrs, graph.threshold_used,
            graph.negative_threshold_used, graph.extra, graph.weight_table,
            *(column.tolist() for column in (graph.us, graph.vs, graph.signs, graph.styles,
                                             graph.weight_codes)))


def _scans(monkeypatch) -> list:
    """Record each projection scan that _auto_projection falls back to."""
    scans = []
    original = project.project_participants

    def counted(*args, **kwargs):
        scans.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(project, "project_participants", counted)
    return scans


def _assert_fused_matches_the_scan(w, target, min_level=None):
    """_auto_projection gives select_threshold's selection and the graph of
    project_participants at the chosen level; returns the selection."""
    attrs = {u: {"row": str(i)} for i, u in enumerate(w.participant_ids[::3])}
    try:
        expected = select_threshold(w, target, min_level=min_level)
    except NoGiantComponentError as exc:
        with pytest.raises(NoGiantComponentError) as excinfo:
            project._auto_projection(w, target, min_level, None, attrs)
        assert excinfo.value.sweep == exc.sweep
        return None
    selection, graph = project._auto_projection(w, target, min_level, None, attrs)
    assert selection == expected
    reference = project_participants(w, expected.chosen_threshold, node_attrs=attrs)
    assert _graph_state(graph) == _graph_state(reference)
    assert graph.node_attrs is not attrs and all(
        graph.node_attrs[u] is not a for u, a in attrs.items())
    return selection


@pytest.mark.parametrize("mode,missing_rate,kind", BANDED_CASES)
def test_fused_auto_projection_equals_the_selection_and_the_scan(mode, missing_rate, kind,
                                                                 monkeypatch):
    w = _banded_weights(mode, missing_rate, kind)
    monkeypatch.setattr(project, "SCAN_TILE", 37)  # several row and column tiles
    scans = _scans(monkeypatch)
    n = w.n_participants
    for target in (F(1, n), F(1, 2), F(9, 10), F(1)):
        selection = _assert_fused_matches_the_scan(w, target)
        for floor in (selection.chosen_threshold, selection.chosen_threshold + F(1, 997)):
            _assert_fused_matches_the_scan(w, target, floor)
    assert scans == []  # every graph came from the held pairs


def test_fused_auto_projection_expands_a_group_at_exactly_the_chosen_level(monkeypatch):
    # half the rows are copies of 4 rows, so the sweep scans the distinct
    # rows only; at target 1/200 the chosen level 13 is one group's
    # self-level, and another group's self-level 12 lies below it
    w = _banded_weights("exact_agreement", 0.03, "duplicates")
    rows, (own, joined, copies) = project._distinct_rows(w)
    assert len(rows) < w.n_participants and sorted(set(own.tolist())) == [12, 13]
    scans = _scans(monkeypatch)
    monkeypatch.setattr(project, "SCAN_TILE", 37)
    selection = _assert_fused_matches_the_scan(w, F(1, 200))
    assert selection.chosen_threshold == 13 and scans == []
    _assert_fused_matches_the_scan(w, F(1, 200), 13)  # the floor band stops at the group
    assert _assert_fused_matches_the_scan(w, F(1, 2), 6).chosen_threshold == 6
    assert scans == []


@pytest.mark.parametrize("mode", ["exact_agreement", "score", "binarized_agreement"])
@pytest.mark.parametrize("missing_rate", [0.0, 0.2])
def test_fused_auto_projection_matches_on_the_reference_surveys(mode, missing_rate, monkeypatch):
    rng = random.Random(f"fused:{mode}:{missing_rate}")
    scans = _scans(monkeypatch)
    for rows, ks in _sweep_cases(rng, mode, missing_rate):
        w = weights_from_rows(rows, ks, mode)
        for target in (F(1, len(rows)), F(1, 2), F(1)):
            _assert_fused_matches_the_scan(w, target)
    assert scans == []


@pytest.mark.parametrize("mode,missing_rate,kind", [
    ("score", 0.03, "uniform"), ("binarized_agreement", 0.03, "duplicates"),
    ("exact_agreement", 0.0, "uniform")])
def test_fused_auto_projection_scans_when_the_pairs_pass_the_budget(mode, missing_rate, kind,
                                                                    monkeypatch):
    w = _banded_weights(mode, missing_rate, kind)
    monkeypatch.setattr(project, "SWEEP_HELD_BYTES", 64)  # also compacts after nearly every tile
    scans = _scans(monkeypatch)
    for target in (F(1, 2), F(1)):
        selection = _assert_fused_matches_the_scan(w, target)
        assert scans[-1] == selection.chosen_threshold
    assert len(scans) == 2


def _kernel_calls(monkeypatch) -> list:
    """Record the cells of every kernel call, and whether it returned counts."""
    calls = []
    original = PairWeights.block_numerators

    def counted(self, r0, r1, c0, c1):
        numer, co = original(self, r0, r1, c0, c1)
        calls.append(((r1 - r0) * (c1 - c0), co is not None))
        return numer, co

    monkeypatch.setattr(PairWeights, "block_numerators", counted)
    return calls


def _incomplete_score_weights(monkeypatch):
    """Score weights of 201 distinct rows, a tenth of their cells missing,
    scanned in tiles of 16."""
    rng = random.Random(201)
    ks = [4, 5, 3, 7, 6, 5, 4, 6]
    rows = random_rows(rng, 201, ks, missing_rate=0.1)
    monkeypatch.setattr(project, "SCAN_TILE", 16)
    return weights_from_rows(rows, ks, "score")


def test_fused_auto_projection_is_one_pass_with_counts_on_incomplete_data(monkeypatch):
    # one sample block and one band of tiles, as select_threshold alone; the
    # band's tiles run on the weights' own kernel, counts included, as the
    # scan they replace does, while select_threshold's run without counts
    w = _incomplete_score_weights(monkeypatch)
    calls = _kernel_calls(monkeypatch)
    selection, graph = project._auto_projection(w, F(1, 2), None, None, None)
    fused, calls[:] = list(calls), []
    assert select_threshold(w, F(1, 2)) == selection
    assert [cells for cells, _ in fused] == [cells for cells, _ in calls] == _one_band_cells(201, 16)
    assert [with_counts for _, with_counts in fused] == [False] + [True] * (len(fused) - 1)
    assert not any(with_counts for _, with_counts in calls)
    assert graph.n_edges > 0


def test_auto_projection_with_a_negative_threshold_sweeps_without_counts_then_scans(
        monkeypatch):
    # no band holds the negative edges, so the sweep runs as select_threshold
    # alone, without counts and holding no pairs, and one scan of tiles with
    # counts builds the graph
    w = _incomplete_score_weights(monkeypatch)

    def not_called(*args):
        raise AssertionError("a negative threshold's graph comes from the scan")

    monkeypatch.setattr(project, "_held_pairs", not_called)
    calls = _kernel_calls(monkeypatch)
    selection, graph = project._auto_projection(w, F(1, 2), None, -2, None)
    band = _one_band_cells(201, 16)
    assert [cells for cells, _ in calls] == band + band[1:]
    assert [with_counts for _, with_counts in calls] == [False] * len(band) + [True] * len(band[1:])
    assert select_threshold(w, F(1, 2)) == selection
    reference = project_participants(w, selection.chosen_threshold, -2)
    assert _graph_state(graph) == _graph_state(reference)
    assert 0 < int(graph.positive_mask().sum()) < graph.n_edges  # both signs


def _bench_survey(n=3000):
    """The sweep workload's survey: 3,000 rows (or n) of ten 4-point and three
    5-point items at the bench's default seed, 3% of the cells missing."""
    answers, holes = random.Random(8675309), random.Random("8675309:missing")
    ks = [4] * 10 + [5] * 3
    rows = [[answers.randrange(k) for k in ks] for _ in range(n)]
    return [[None if holes.random() < 0.03 else a for a in row] for row in rows], ks


def _duplicate_heavy_survey():
    """4,000 rows, about half of them copies of 4 prototype rows."""
    rng = random.Random(5)
    ks = [4] * 10 + [5] * 3
    rows = random_rows(rng, 4000, ks)
    return [list(rng.choice(rows[:4])) if rng.random() < 0.5 else row for row in rows], ks


def _four_bloc_survey():
    """4,000 distinct rows in four blocs of 1,000: a bloc answers its own value
    on 8 items and differs on 5 free items, so pairs within a bloc weigh 8 or
    more and pairs across blocs 5 or less. The bloc pairs are bands of their
    own and the giant component needs the 6M pairs across blocs: the band that
    holds them must compact."""
    rng = random.Random(4)
    free = list(itertools.product(range(4), repeat=5))
    return [[bloc] * 8 + list(c) for bloc in range(4) for c in rng.sample(free, 1000)], [4] * 13


def _traced_peak(call):
    """The call's result and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _tile_bytes():
    """One scan tile's float32 numerators and co-answered counts."""
    return 8 * project.SCAN_TILE ** 2


@pytest.mark.parametrize("survey,mode,target", [
    (_bench_survey, "score", F(1, 2)), (_bench_survey, "binarized_agreement", F(1, 2)),
    (_duplicate_heavy_survey, "binarized_agreement", F(1, 2)),
    (_duplicate_heavy_survey, "score", F(1)), (_four_bloc_survey, "exact_agreement", F(1, 2))],
    ids=["bench-score", "bench-binarized", "duplicates-binarized", "duplicates-score-target-1",
         "four-blocs-exact"])
def test_banded_sweep_peak_stays_within_tiles_and_the_held_budget(survey, mode, target,
                                                                  monkeypatch):
    # a tile's selection and the held pairs with their compaction's sort; at
    # most 22 MB with today's constants, below the 49 MB of four of the former
    # 512 x 3,000 scan blocks
    rows, ks = survey()
    w = weights_from_rows(rows, ks, mode)
    counts = _counted_bands(monkeypatch)
    selection, peak = _traced_peak(lambda: select_threshold(w, target))
    bound = 8 * _tile_bytes() + 3 * project.SWEEP_HELD_BYTES
    assert bound <= 4 * 512 * 3_000 * 8
    assert peak <= bound
    if survey is _four_bloc_survey:
        assert selection.chosen_threshold == 5 and selection.giant_fraction_at_chosen == 1
        assert counts["compactions"] > 2 * counts["bands"]


@pytest.mark.parametrize("n", [3_000, 10_000])
def test_scan_and_sweep_peaks_stay_within_four_tiles_as_n_grows(n):
    # both passes over all pairs run in tiles of a fixed side, so neither
    # holds a block as wide as n; the projection at the chosen level emits
    # about one edge per row
    assert n > 2 * project.SCAN_TILE
    rows, ks = _bench_survey(n)
    w = weights_from_rows(rows, ks, "score")
    assert w.has_missing
    selection, sweep_peak = _traced_peak(lambda: select_threshold(w, F(1, 2)))
    graph, scan_peak = _traced_peak(lambda: project_participants(w, selection.chosen_threshold))
    assert n // 2 < graph.n_edges < 2 * n
    assert max(sweep_peak, scan_peak) <= 4 * _tile_bytes()


@pytest.mark.parametrize("mode", ["binarized_agreement", "exact_agreement"])
def test_integer_weight_peaks_stay_within_four_tiles_and_the_held_budget(mode):
    # integer weights have few levels, so the band that reaches the target
    # holds many pairs across components beside its tiles: 5.4 MB (binarized)
    # and 4.6 MB (exact) at N = 10,000, above four tiles' 4.7 MB
    rows, ks = _bench_survey(10_000)
    w = weights_from_rows(rows, ks, mode)
    selection, sweep_peak = _traced_peak(lambda: select_threshold(w, F(1, 2)))
    graph, scan_peak = _traced_peak(lambda: project_participants(w, selection.chosen_threshold))
    assert graph.n_edges > 0
    assert max(sweep_peak, scan_peak) <= 4 * _tile_bytes() + project.SWEEP_HELD_BYTES


def test_min_level_floor_triggers_explicit_failure():
    # three equal blocks pairwise different on every item never reach 1/2
    # above level 0
    ks = [4, 4]
    rows = [[0, 0]] * 3 + [[1, 1]] * 3 + [[2, 2]] * 3
    w = weights_from_rows(rows, ks, "exact_agreement")
    with pytest.raises(NoGiantComponentError) as excinfo:
        select_threshold(w, F(1, 2), min_level=1)
    sweep = excinfo.value.sweep
    assert sweep == [(F(2), F(1, 3))]
    # without the floor, level 0 connects everything
    selection = select_threshold(w, F(1, 2))
    assert selection.chosen_threshold == 0
    assert selection.giant_fraction_at_chosen == 1


def test_target_fraction_validation():
    w = weights_from_rows([[0], [1]], [4], "exact_agreement")
    with pytest.raises(ValidationError):
        select_threshold(w, 0)
    with pytest.raises(ValidationError):
        select_threshold(w, F(3, 2))


def test_rescaled_weights_refuse_auto_selection():
    w = weights_from_rows([[0, None], [0, 1]], [4, 4], "score", rescale=True)
    with pytest.raises(ValidationError, match="rescaled"):
        select_threshold(w)


def test_rescaled_weights_on_complete_data_select_the_unrescaled_threshold():
    # rescaling is the identity when no answer is missing, so nothing is refused
    ks = [4, 5, 3]
    rows = random_rows(random.Random(102), 30, ks)
    rescaled = weights_from_rows(rows, ks, "score", rescale=True)
    assert not rescaled.rescale
    for target in (F(1, 2), F(1)):
        assert select_threshold(rescaled, target) == select_threshold(
            weights_from_rows(rows, ks, "score"), target)


def test_auto_threshold_sweeps_more_levels_than_flags_could_track():
    # the scales of the int64 kernel test: D is about 1.3e16, so 2*m*D + 1
    # score levels would need exbibytes of level flags; the sweep takes its
    # levels from the pairs instead, which the flag-based oracle refuses
    ks = [3, 4, 6, 8, 12, 14, 18, 20, 24, 30, 32, 38, 42, 44]
    rows = random_rows(random.Random(107), 24, ks)
    w = weights_from_rows(rows, ks, "score")
    assert 2 * w.n_items * w.denominator + 1 > MAX_SWEEP_LEVELS
    with pytest.raises(ValidationError, match="weight levels"):
        full_row_select_threshold(w)
    for target in (F(1, 2), F(1)):
        level, frac, sweep = sweep_oracle(all_pair_weights(rows, ks, "score"), 24, target)
        selection = select_threshold(w, target)
        assert (selection.chosen_threshold, selection.giant_fraction_at_chosen) == (level, frac)
        assert selection.sweep == sweep


def test_target_fraction_one_demands_full_connectivity():
    ks = [4, 4, 4]
    rows = [[0, 0, 0]] * 3 + [[1, 0, 0]] * 2
    w = weights_from_rows(rows, ks, "exact_agreement")
    selection = select_threshold(w, 1)
    assert selection.chosen_threshold == 2  # the level joining both clusters
    assert selection.giant_fraction_at_chosen == 1


def test_unreachable_target_component_count_is_refused():
    graph = graph_from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    with pytest.raises(ValidationError, match="count 4 exceeds the graph's 3 nodes"):
        girvan_newman(graph, target_components=4)
    report = girvan_newman(graph, target_components=3)  # the node count is reachable
    assert report.status == "split"
    assert len(report.removed_edges) == 2  # every edge got removed
    assert [len(c) for c in report.final_components] == [1, 1, 1]


# ---------------------------------------------------------------------------
# edge betweenness
# ---------------------------------------------------------------------------


def test_path_graph_betweenness():
    graph = graph_from_edges(["a", "b", "c"], [("a", "b"), ("b", "c")])
    fast = edge_betweenness(graph)
    exact = edge_betweenness(graph, exact=True)
    assert fast == {("a", "b"): 2.0, ("b", "c"): 2.0}
    assert exact == {("a", "b"): F(2), ("b", "c"): F(2)}


def test_bridge_between_cliques_is_strictly_maximal():
    graph = barbell_graph()
    values = edge_betweenness(graph, exact=True)
    bridge = values[("a0", "b0")]
    assert bridge == 16  # all 16 cross pairs traverse it
    for edge, value in values.items():
        if edge != ("a0", "b0"):
            assert value < bridge


def test_cycle_edges_all_equal():
    graph = graph_from_edges(["a", "b", "c", "d"],
                             [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    values = edge_betweenness(graph, exact=True)
    assert set(values.values()) == {F(2)}


def test_betweenness_oracle_on_random_graphs():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randrange(2, 13)
        nodes = [f"n{i:02d}" for i in range(n)]
        pairs = set()
        for _ in range(rng.randrange(1, 3 * n)):
            a, b = rng.sample(range(n), 2)
            pairs.add((min(a, b), max(a, b)))
        pairs = sorted(pairs)
        graph = graph_from_edges(nodes, [(nodes[a], nodes[b]) for a, b in pairs])
        expected = edge_betweenness_by_path_enumeration(n, pairs)
        exact = edge_betweenness(graph, exact=True)
        fast = edge_betweenness(graph)
        for (a, b), value in zip(pairs, expected):
            key = (nodes[a], nodes[b])
            assert exact[key] == value
            assert abs(fast[key] - float(value)) < 1e-9


def _random_edge_arrays(rng, n, n_pairs, n_blocks=1):
    """Distinct edges inside n_blocks node ranges, in shuffled order and orientation."""
    bounds = np.linspace(0, n, n_blocks + 1).astype(int)
    pairs = set()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for _ in range(n_pairs // n_blocks):
            a, b = sorted(rng.choice(np.arange(lo, hi), size=2, replace=False))
            pairs.add((int(a), int(b)))
    pairs = np.array(sorted(pairs), dtype=np.int32)[rng.permutation(len(pairs))]
    flip = rng.random(len(pairs)) < 0.5
    return np.where(flip, pairs[:, 1], pairs[:, 0]), np.where(flip, pairs[:, 0], pairs[:, 1])


def _bitwise_cases():
    rng = np.random.default_rng(61)
    cases = [(5, np.zeros(0, np.int32), np.zeros(0, np.int32))]  # no edges
    cases.append((0, np.zeros(0, np.int32), np.zeros(0, np.int32)))
    for n, n_pairs, n_blocks in [(30, 45, 1), (30, 120, 3), (47, 60, 4), (60, 400, 2),
                                 (80, 90, 1), (120, 1100, 2)]:
        us, vs = _random_edge_arrays(rng, n, n_pairs, n_blocks)
        cases.append((n + 5, us, vs))  # five isolated nodes at the end
    return cases


@pytest.fixture(params=[None, 0.0, float("inf")], ids=["default", "dense", "compact"])
def level_form(request, monkeypatch):
    """The default per-level rule, or every level in one form."""
    if request.param is not None:
        monkeypatch.setattr(analyze, "_DENSE_LEVEL_SHARE", request.param)


def _recorded_level_forms(monkeypatch) -> list:
    """Each level's choice (True for dense) in the betweenness passes that follow."""
    forms = []
    choose = analyze._dense_level

    def recorded(entries, keys):
        forms.append(choose(entries, keys))
        return forms[-1]

    monkeypatch.setattr(analyze, "_dense_level", recorded)
    return forms


def test_blocked_betweenness_is_bitwise_per_source(level_form):
    # several components, isolated nodes, no edges, edges in a permuted,
    # non-canonical order and orientation
    for n, us, vs in _bitwise_cases():
        assert np.array_equal(_betweenness_fast(n, us, vs), betweenness_per_source(n, us, vs))


@pytest.mark.parametrize("sources_per_block", [1, 3])
def test_blocked_betweenness_is_bitwise_for_any_block_size(monkeypatch, level_form,
                                                           sources_per_block):
    for n, us, vs in _bitwise_cases():
        per_source = 8 * (analyze._NODE_WORDS * n + analyze._EDGE_WORDS * len(us))
        monkeypatch.setattr(analyze, "BETWEENNESS_BLOCK_BYTES", sources_per_block * per_source)
        if sources_per_block == 3 and n:
            assert n % 3  # the last block is short
        assert np.array_equal(_betweenness_fast(n, us, vs), betweenness_per_source(n, us, vs))


def test_blocked_betweenness_is_bitwise_past_exact_path_counts(level_form):
    # 50 layers of 6 nodes, each node linked to 3 of the layer before: shortest
    # path counts pass 2**53, where the order of each sum changes its rounding
    rng = np.random.default_rng(67)
    width, depth = 6, 50
    pairs = [((layer - 1) * width + int(i), layer * width + j)
             for layer in range(1, depth) for j in range(width)
             for i in rng.choice(width, size=3, replace=False)]
    order = rng.permutation(len(pairs))
    us = np.array([pairs[i][i % 2] for i in order])
    vs = np.array([pairs[i][1 - i % 2] for i in order])
    n = width * depth
    assert np.array_equal(_betweenness_fast(n, us, vs), betweenness_per_source(n, us, vs))


def test_one_pass_takes_both_level_forms_and_stays_bitwise(monkeypatch):
    # a 60-clique joined to a 40-node path: a block of clique sources reaches
    # the clique in one dense level, then walks the path one sparse level at
    # a time
    k, tail = 60, 40
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    pairs += [(i, i + 1) for i in range(k - 1, k + tail - 1)]
    order = np.random.default_rng(71).permutation(len(pairs))
    us = np.array([pairs[i][0] for i in order])
    vs = np.array([pairs[i][1] for i in order])
    forms = _recorded_level_forms(monkeypatch)
    fast = _betweenness_fast(k + tail, us, vs)
    assert set(forms) == {True, False}
    assert np.array_equal(fast, betweenness_per_source(k + tail, us, vs))


def _depth_paths_degree(n, us, vs):
    """Largest BFS depth and shortest-path count over all sources, and the largest degree."""
    adjacency = [[] for _ in range(n)]
    for a, b in zip(us.tolist(), vs.tolist()):
        adjacency[a].append(b)
        adjacency[b].append(a)
    depth = paths = 0
    for s in range(n):
        dist, sigma, queue = {s: 0}, {s: 1}, deque([s])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y not in dist:
                    dist[y], sigma[y] = dist[x] + 1, 0
                    queue.append(y)
                if dist[y] == dist[x] + 1:
                    sigma[y] += sigma[x]
        depth, paths = max(depth, max(dist.values())), max(paths, max(sigma.values()))
    return depth, paths, max(map(len, adjacency))


def test_float_betweenness_is_within_its_relative_bound_of_the_exact_values():
    # Every term is positive, so each rounding moves a value by a relative
    # u = 2**-53 at most, and k roundings by gamma_k = k*u / (1 - k*u) (Higham,
    # Accuracy and Stability of Numerical Algorithms, ch. 3-4). Path counts
    # below 2**53 are exact. A term sigma[v] / sigma[w] * (1 + delta[w]) adds
    # three roundings to those of delta[w], and a dependency delta[v] sums at
    # most degree such terms, adding degree - 1. A DAG path holds at most
    # depth - 1 nodes below its source, so one source's term for an edge
    # carries (depth - 1) * (degree + 2) + 3 roundings, and adding the n
    # sources in order n - 1 more: |fast - exact| <= gamma_K * exact with
    # K = n + 2 + (depth - 1) * (degree + 2), 393 here; the measured worst is
    # about 13 roundings.
    n = 300
    us, vs = _random_edge_arrays(np.random.default_rng(83), n, 800)
    depth, paths, degree = _depth_paths_degree(n, us, vs)
    assert paths < 2**53
    k = n + 2 + (depth - 1) * (degree + 2)
    u = Fraction(1, 2**53)
    bound = k * u / (1 - k * u)
    fast = _betweenness_fast(n, us, vs)
    exact = _betweenness_exact(n, us, vs)
    worst = max(abs(Fraction(f) - x) / x for f, x in zip(fast.tolist(), exact) if x)
    assert worst <= bound
    assert worst > 0  # the bound is tested, not met by exact arithmetic


def test_betweenness_ignores_negative_edges():
    graph = ProjectionGraph(
        kind="participant",
        nodes=["a", "b", "c"],
        edges=[Edge("a", "b", F(1)), Edge("b", "c", F(-1), "negative")],
    )
    assert set(edge_betweenness(graph)) == {("a", "b")}


# ---------------------------------------------------------------------------
# Girvan-Newman
# ---------------------------------------------------------------------------


def test_barbell_splits_after_one_removal():
    graph = barbell_graph()
    report = girvan_newman(graph, target_components=2)
    assert report.status == "split"
    assert report.removed_edges == [("a0", "b0")]
    assert report.original_edge_count == 13
    assert report.removed_fraction == F(1, 13)
    assert sorted(len(c) for c in report.final_components) == [4, 4]


def test_gn_is_deterministic():
    rng = random.Random(53)
    nodes = [f"n{i:02d}" for i in range(24)]
    pairs = set()
    for block in (range(12), range(12, 24)):
        block = list(block)
        for _ in range(40):
            a, b = rng.sample(block, 2)
            pairs.add((nodes[min(a, b)], nodes[max(a, b)]))
    pairs.add((nodes[0], nodes[12]))
    pairs.add((nodes[3], nodes[15]))
    graph = graph_from_edges(nodes, sorted(pairs))
    first = girvan_newman(graph, target_components=2)
    second = girvan_newman(graph, target_components=2)
    assert first.removed_edges == second.removed_edges
    assert first.final_components == second.final_components
    assert [h.component_sizes for h in first.history] == [h.component_sizes for h in second.history]


def test_gn_tie_break_is_lexicographic():
    graph = graph_from_edges(["a", "b", "c", "d"],
                             [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    report = girvan_newman(graph, target_components=2)
    # all four edges tie at first; the lexicographically smallest goes first
    assert report.removed_edges[0] == ("a", "b")
    assert report.removed_edges == [("a", "b"), ("c", "d")]
    assert sorted(len(c) for c in report.final_components) == [2, 2]


def _exact_gn_removals(graph, target_components):
    """Removal order with exact betweenness and the lexicographic tie-break."""
    edges = [(u, v) for u, v, _, sign, _ in edge_list(graph) if sign == "positive"]
    index = {u: i for i, u in enumerate(graph.nodes)}
    removed = []
    while len(components_from_edges(graph.n_nodes, [(index[u], index[v]) for u, v in edges])) \
            < target_components:
        bet = _betweenness_exact(graph.n_nodes, [index[u] for u, _ in edges],
                                 [index[v] for _, v in edges])
        removed.append(edges.pop(bet.index(max(bet))))
    return removed


def _hypercube_q4():
    nodes = [f"{i:02d}" for i in range(16)]
    pairs = [(nodes[i], nodes[i | 1 << b]) for i in range(16) for b in range(4) if not i & 1 << b]
    return graph_from_edges(nodes, pairs)


def _grid_4x4():
    nodes = [f"r{r}c{c}" for r in range(4) for c in range(4)]
    pairs = [(f"r{r}c{c}", f"r{r}c{c + 1}") for r in range(4) for c in range(3)]
    pairs += [(f"r{r}c{c}", f"r{r + 1}c{c}") for r in range(3) for c in range(4)]
    return graph_from_edges(nodes, pairs)


def _cycle_c8():
    nodes = [f"c{i}" for i in range(8)]
    return graph_from_edges(nodes, [(nodes[i], nodes[(i + 1) % 8]) for i in range(8)])


@pytest.mark.parametrize("build", [_hypercube_q4, _grid_4x4, _cycle_c8],
                         ids=["q4", "grid4x4", "c8"])
def test_gn_tie_break_holds_against_exact_betweenness(build):
    graph = build()
    report = girvan_newman(graph, target_components=2)
    assert report.removed_edges == _exact_gn_removals(graph, 2)


def test_gn_hypercube_removes_smallest_tied_edge_first():
    # all 32 edges of Q4 tie at exact betweenness 8; float rounding must not
    # pick another one
    report = girvan_newman(_hypercube_q4(), target_components=2)
    assert report.removed_edges[0] == ("00", "01")


def _planted():
    return planted_two_block_graph(random.Random(991))[0]


def _paper_giant():
    """The giant of the auto projection of a 400-row, two-bloc survey (s = 1.5)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "blocs.csv"
        matrix = load_survey(path, write_bloc_survey(path, 1, 400, 1.5))
    weights = score_weights(renormalize(matrix))
    return giant_subgraph(
        project_participants(weights, select_threshold(weights, F(1, 2)).chosen_threshold))


def _remaining_component_sizes(graph, removed):
    """Component sizes after each removal, by the union-find oracle."""
    index = {u: i for i, u in enumerate(graph.nodes)}
    edges = [(index[u], index[v]) for u, v, _, sign, _ in edge_list(graph) if sign == "positive"]
    sizes = []
    for edge in removed:
        edges.remove((index[edge[0]], index[edge[1]]))
        sizes.append([len(c) for c in components_from_edges(graph.n_nodes, edges)])
    return sizes


@pytest.mark.parametrize("build", [_hypercube_q4, _grid_4x4, _planted, _paper_giant],
                         ids=["q4", "grid4x4", "planted", "paper_giant"])
def test_gn_history_matches_per_source_engine(monkeypatch, build):
    graph = build()
    forms = _recorded_level_forms(monkeypatch)
    report = girvan_newman(graph, target_components=2)
    if build is _paper_giant:
        assert False in forms  # its sparse levels take the compact form
    monkeypatch.setattr(analyze, "_betweenness_fast", betweenness_per_source)
    reference = girvan_newman(graph, target_components=2)
    assert [(h.edge, h.betweenness) for h in report.history] == \
        [(h.edge, h.betweenness) for h in reference.history]
    assert [h.component_sizes for h in report.history] == \
        _remaining_component_sizes(graph, report.removed_edges)
    assert report.final_components == reference.final_components


def test_gn_disconnected_input_returns_immediately():
    nodes = [f"t{i}" for i in range(6)]
    pairs = [("t0", "t1"), ("t1", "t2"), ("t3", "t4"), ("t4", "t5")]
    report = girvan_newman(graph_from_edges(nodes, pairs), target_components=2)
    assert report.status == "already_satisfied"
    assert report.removed_edges == []
    assert report.removed_fraction == 0
    assert report.history == []


def test_gn_budget_exhaustion_reports_partial_history():
    nodes = ["a", "b", "c", "d"]
    graph = graph_from_edges(nodes, [("a", "b"), ("b", "c"), ("c", "d")])
    report = girvan_newman(graph, target_components=4, max_removed_fraction=F(1, 3))
    assert report.status == "budget_exhausted"
    assert len(report.removed_edges) == 1
    assert len(report.history) == 1


def test_gn_history_records_component_census():
    graph = barbell_graph()
    report = girvan_newman(graph, target_components=2)
    assert len(report.history) == 1
    step = report.history[0]
    assert step.edge == ("a0", "b0")
    assert step.component_sizes == [4, 4]
    assert step.betweenness == 16.0


def test_gn_parameter_validation():
    graph = barbell_graph()
    with pytest.raises(ValidationError):
        girvan_newman(graph, target_components=0)
    with pytest.raises(ValidationError):
        girvan_newman(graph, max_removed_fraction=F(3, 2))


# ---------------------------------------------------------------------------
# profile census
# ---------------------------------------------------------------------------


def test_single_profile_over_8_items():
    rows = [[1, 0, 1, 0, 1, 0, 1, 0]] * 10
    census = profile_census(binarize(renormalize(make_matrix(rows, [2] * 8))))
    assert census.realized_profiles == 1
    assert census.realized_fraction == F(1, 256)
    assert not census.has_neutral_or_missing


def test_three_profiles_among_hundred():
    profiles = [[0] * 8, [1] * 8, [1, 0] * 4]
    rows = [profiles[i % 3] for i in range(100)]
    census = profile_census(binarize(renormalize(make_matrix(rows, [2] * 8))))
    assert census.realized_profiles == 3
    assert census.realized_fraction == F(3, 256)
    assert sum(census.profiles.values()) == 100


def test_a_missing_answer_counts_as_neutral_or_missing():
    matrix = make_matrix([[1, 0], [None, 1]], [2, 2])
    census = profile_census(binarize(renormalize(matrix)))
    assert set(census.profiles) == {"+-", "?+"}
    assert census.has_neutral_or_missing and census.to_dict()["has_neutral_or_missing"]


def test_neutral_switches_denominator_to_ternary():
    rows = [[1, 1], [1, 0]]
    census = profile_census(binarize(renormalize(make_matrix(rows, [3, 3]))))
    assert census.has_neutral_or_missing
    assert census.realized_fraction == census.fraction_of_ternary_space == F(2, 9)
    assert census.fraction_of_binary_space == F(2, 4)


def test_neutral_and_missing_count_against_four_symbols():
    # one 3-point item answered 0, 1, 2 and missing: four profiles, -, 0, + and ?
    census = profile_census(binarize(renormalize(make_matrix([[0], [1], [2], [None]], [3]))))
    assert census.realized_profiles == census.space == 4
    assert census.realized_fraction == 1
    many = [[0, 1], [1, None], [2, 2], [None, 0], [1, 1]]
    census = profile_census(binarize(renormalize(make_matrix(many, [3, 3]))))
    assert census.space == 16 and census.realized_fraction == F(5, 16)


def test_missing_marks_profile_distinctly():
    rows = [[1, None], [1, 0]]
    census = profile_census(binarize(renormalize(make_matrix(rows, [2, 2]))))
    assert census.realized_profiles == 2
    assert "+?" in census.profiles


def test_census_counts_sum_and_permutation_invariance():
    rng = random.Random(67)
    rows = [[rng.randrange(2) for _ in range(6)] for _ in range(50)]
    census_a = profile_census(binarize(renormalize(make_matrix(rows, [2] * 6))))
    shuffled = list(rows)
    rng.shuffle(shuffled)
    census_b = profile_census(binarize(renormalize(make_matrix(shuffled, [2] * 6))))
    assert sum(census_a.profiles.values()) == 50
    assert census_a.profiles == census_b.profiles
    assert census_a.realized_profiles <= min(50, 2**6)  # no neutrals on 2-point scales
