"""Acceptance suite: one test per release criterion, each with a runtime budget.

Every expected value below is either forced by a definition, computed by an
independent brute-force oracle (tests/oracles.py), or planted by construction.
Run with `pytest tests/test_acceptance.py -v` for one line per criterion.
"""

import csv
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from opinionnet import (
    Edge,
    ProjectionGraph,
    binarize,
    connected_components,
    edge_betweenness,
    girvan_newman,
    load_survey,
    profile_census,
    project_attitudes,
    project_participants,
    renormalize,
    score_weights,
    select_threshold,
    style_edges,
    thirds_style,
)
import opinionnet.project as project
from opinionnet.cli import main

from helpers import (
    barbell_graph,
    edge_list,
    giant_subgraph,
    graph_from_edges,
    index_labels,
    make_matrix,
    normalized_values,
    pair_weights,
    planted_two_block_graph,
    same_matrix,
    weights_from_rows,
)
from oracles import (
    all_pair_weights,
    edge_betweenness_by_path_enumeration,
    rand_index,
    random_rows,
    sweep_oracle,
)
from paper_survey import write_bloc_survey


def F(*args):
    return Fraction(*args)


def finish(name, t0, limit):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"{name}: runtime {elapsed:.2f}s exceeded the {limit}s budget"
    print(f"ACCEPTANCE PASS: {name} [{elapsed:.2f}s < {limit}s]")


# ---------------------------------------------------------------------------
# 1. renormalization exactness
# ---------------------------------------------------------------------------


def test_criterion_renormalization_exactness():
    t0 = time.perf_counter()
    nm5 = renormalize(make_matrix([[0, 1, 2, 3, 4]], [5] * 5))
    assert normalized_values(nm5) == [[F(-1), F(-1, 2), F(0), F(1, 2), F(1)]]
    nm4 = renormalize(make_matrix([[0, 1, 2, 3]], [4] * 4))
    assert normalized_values(nm4) == [[F(-1), F(-1, 3), F(1, 3), F(1)]]
    finish("renormalization exactness", t0, 1.0)


# ---------------------------------------------------------------------------
# 2. projection oracle over random surveys
# ---------------------------------------------------------------------------


def test_criterion_projection_matches_brute_force_oracle(monkeypatch):
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    modes = ("exact_agreement", "score", "binarized_agreement")
    for trial in range(200):
        n = rng.randrange(4, 51)
        m = rng.randrange(2, 11)
        ks = [rng.randrange(2, 8) for _ in range(m)]
        missing_rate = 0.0 if trial % 2 == 0 else rng.uniform(0.05, 0.3)
        rows = random_rows(rng, n, ks, missing_rate=missing_rate)
        mode = modes[trial % 3]
        weights = weights_from_rows(rows, ks, mode)
        oracle = all_pair_weights(rows, ks, mode)
        # every pair's weight, read from the tiled scan with tile boundaries
        # at random places, then the scan's selection at a mid-range threshold
        monkeypatch.setattr(project, "SCAN_TILE", rng.randrange(3, 16))
        assert pair_weights(weights) == {pair: w for pair, (w, _) in oracle.items()}
        if mode == "score" and missing_rate:
            # the kernel's co-answered counts reach an output through rescaled weights
            rescaled = weights_from_rows(rows, ks, mode, rescale=True)
            assert pair_weights(rescaled) == {pair: w * m / co if co else 0
                                              for pair, (w, co) in oracle.items()}
        values = sorted(w for w, _ in oracle.values())
        theta = values[len(values) // 2]
        graph = project_participants(weights, theta)
        got = {(u, v) for u, v, *_ in edge_list(graph)}
        ids = weights.participant_ids
        expected_edges = {
            (ids[i], ids[j]) for (i, j), (w, _) in oracle.items() if w >= theta
        }
        assert got == expected_edges
    finish("projection oracle (200 random surveys, 3 modes)", t0, 30.0)


# ---------------------------------------------------------------------------
# 3. score range and extremes
# ---------------------------------------------------------------------------


def test_criterion_score_range_and_extremes():
    t0 = time.perf_counter()
    rng = random.Random(77)
    m = 8
    ks = [rng.randrange(2, 8) for _ in range(m)]
    low = [0] * m
    high = [k - 1 for k in ks]
    rows = random_rows(rng, 140, ks, missing_rate=0.05)
    rows += [low, high, list(low), [0] * (m - 1) + [1]]
    n = len(rows)
    weights = pair_weights(weights_from_rows(rows, ks, "score"))
    mask = [[c is not None for c in row] for row in rows]
    checked = 0
    for i in range(n):
        for j in range(i + 1, n):
            w = weights[i, j]
            assert -m <= w <= m
            complete_pair = all(mask[i]) and all(mask[j])
            identical = complete_pair and rows[i] == rows[j]
            opposite = complete_pair and all(
                {rows[i][t], rows[j][t]} == {0, ks[t] - 1} and ks[t] > 1 and rows[i][t] != rows[j][t]
                for t in range(m)
            )
            assert (w == m) == identical
            assert (w == -m) == opposite
            checked += 1
    assert checked >= 10_000
    # the planted pairs exercise both extremes
    assert weights[n - 4, n - 2] == m
    assert weights[n - 4, n - 3] == -m
    finish(f"score range and extremes ({checked} fuzzed pairs)", t0, 10.0)


# ---------------------------------------------------------------------------
# 4. threshold sweep on the three-block survey
# ---------------------------------------------------------------------------


def test_criterion_threshold_sweep_three_blocks():
    t0 = time.perf_counter()
    m = 13
    ks = [4] * m
    block_a = [0] * m
    block_b = [0] * m
    block_b[0] = block_b[1] = 1  # differs from A on 2 items
    block_c = [0] * m
    for j in range(2, 6):
        block_c[j] = 1  # differs from A on 4, from B on 6 items
    rows = [block_a] * 10 + [block_b] * 10 + [block_c] * 10
    weights = weights_from_rows(rows, ks, "exact_agreement")

    oracle_weights = all_pair_weights(rows, ks, "exact_agreement")
    expected_level, expected_frac, expected_sweep = sweep_oracle(oracle_weights, 30, F(1, 2))
    assert expected_level == m - 2  # blocks A and B merge two levels down

    selection = select_threshold(weights, F(1, 2))
    assert selection.chosen_threshold == expected_level
    assert selection.giant_fraction_at_chosen == expected_frac == F(2, 3)
    assert selection.sweep == expected_sweep
    fractions = [frac for _, frac in selection.sweep]
    assert fractions == sorted(fractions)
    finish("threshold sweep on three-block survey", t0, 5.0)


# ---------------------------------------------------------------------------
# 5. giant-component shape: sparse at m-1, giant at m-2
# ---------------------------------------------------------------------------


def _giant_shape_rows():
    """40 rows where level m-1 captures 35% and level m-2 exactly 70%."""
    m = 13
    base = [0] * m
    rows = [list(base) for _ in range(8)]  # identical core
    for i in range(6):  # one change each: weight m-1 against the core
        row = list(base)
        row[i] = 1
        rows.append(row)
    for a, b in list(itertools.combinations(range(6), 2))[:14]:
        row = list(base)  # two changes, values distinct from the one-change rows
        row[a] = 2
        row[b] = 2
        rows.append(row)
    triples = [(6, 7, 8), (9, 10, 11), (6, 9, 12), (7, 10, 12)]
    for triple in triples:  # 12 far rows, pairwise >= 3 apart
        for value in (1, 2, 3):
            row = list(base)
            for j in triple:
                row[j] = value
            rows.append(row)
    return rows, m


def test_criterion_giant_component_shape_matches_reported_pattern():
    t0 = time.perf_counter()
    rows, m = _giant_shape_rows()
    assert len(rows) == 40
    weights = weights_from_rows(rows, [4] * m, "exact_agreement")

    at_m1 = connected_components(project_participants(weights, m - 1))
    at_m2 = connected_components(project_participants(weights, m - 2))
    assert at_m1.giant_fraction < F(1, 2)
    assert at_m1.giant_fraction == F(14, 40)
    assert at_m2.giant_fraction >= F(7, 10)
    assert at_m2.giant_fraction == F(28, 40)

    selection = select_threshold(weights, F(1, 2))
    assert selection.chosen_threshold == m - 2
    assert selection.giant_fraction_at_chosen == F(7, 10)
    finish("giant-component shape (sparse at m-1, giant at m-2)", t0, 5.0)


# ---------------------------------------------------------------------------
# 6. betweenness oracle
# ---------------------------------------------------------------------------


def test_criterion_betweenness_matches_path_enumeration():
    t0 = time.perf_counter()
    rng = random.Random(4242)
    for _ in range(100):
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
            assert exact[key] == value  # exact rational equality
            assert abs(fast[key] - float(value)) < 1e-9
    finish("betweenness oracle (100 random graphs)", t0, 20.0)


# ---------------------------------------------------------------------------
# 7. Girvan-Newman structure: barbell and planted two-block graph
# ---------------------------------------------------------------------------


def test_criterion_girvan_newman_structural():
    t0 = time.perf_counter()
    # barbell: one removal (the bridge) splits the graph
    report = girvan_newman(barbell_graph(), target_components=2)
    assert report.status == "split"
    assert report.removed_edges == [("a0", "b0")]
    assert report.original_edge_count == 13
    assert report.removed_fraction == F(1, report.original_edge_count)
    assert sorted(len(c) for c in report.final_components) == [4, 4]

    # planted partition: two blocks of 100, ~1% cross edges
    rng = random.Random(991)
    graph, nodes, cross = planted_two_block_graph(rng)
    assert 70 <= cross <= 130  # about 1% of the 10,000 cross pairs
    planted = [0] * 100 + [1] * 100
    result = girvan_newman(graph, target_components=2)
    assert result.status == "split"
    assert result.removed_fraction < F(1, 20)
    recovered = index_labels(result.final_components, nodes)
    assert rand_index(planted, recovered) >= F(95, 100)
    finish("Girvan-Newman structural (barbell + planted blocks)", t0, 60.0)


@pytest.mark.xfail(
    strict=True,
    reason="two complete 4-node cliques joined by one bridge have 2*6+1 = 13 edges, "
           "so removing the bridge is 1/13 of the edges; a fraction of 1/25 would "
           "require 25 edges, which this graph cannot have",
)
def test_criterion_girvan_newman_barbell_fraction_one_twenty_fifth():
    report = girvan_newman(barbell_graph(), target_components=2)
    assert report.removed_fraction == F(1, 25)


# ---------------------------------------------------------------------------
# 8. attitude projection
# ---------------------------------------------------------------------------


def test_criterion_attitude_projection():
    t0 = time.perf_counter()
    # hand-countable: values (+1,+1), (+1,-1), (-1,-1)
    attitude = project_attitudes(renormalize(make_matrix([[1, 1], [1, 0], [0, 0]], [2, 2])))
    assert (attitude.pos[0, 1], attitude.neg[0, 1]) == (1, 1)

    # pos + neg never exceeds N on fuzzed data
    rng = random.Random(555)
    for _ in range(20):
        m = rng.randrange(2, 7)
        ks = [rng.randrange(2, 8) for _ in range(m)]
        n = rng.randrange(2, 40)
        rows = random_rows(rng, n, ks, missing_rate=0.1)
        ag = project_attitudes(renormalize(make_matrix(rows, ks)))
        for a, b in itertools.combinations(range(m), 2):
            pos, neg = ag.pos[a, b], ag.neg[a, b]
            assert 0 <= pos <= n and 0 <= neg <= n and pos + neg <= n
            pos_hand = sum(
                1 for row in rows
                if row[a] is not None and row[b] is not None
                and row[a] > (ks[a] - 1) / 2 and row[b] > (ks[b] - 1) / 2
            )
            assert pos == pos_hand

    # thirds boundaries exact at N/3 and 2N/3
    for n in (6, 7, 9, 10):
        third = F(n, 3)
        for count in range(0, n + 1):
            style = thirds_style(count, n)
            if count == 0:
                assert style is None
            elif count <= third:
                assert style == "dotted"
            elif count <= 2 * third:
                assert style == "dashed"
            else:
                assert style == "solid"
    # boundary counts realized through actual styled graphs (N = 6)
    rows = [[1, 1]] * 2 + [[0, 1]] * 4
    styled = style_edges(project_attitudes(renormalize(make_matrix(rows, [2, 2]))))
    [(_, _, weight, _, style)] = [e for e in edge_list(styled) if e[3] == "positive"]
    assert weight == 2  # exactly N/3
    assert style == "dotted"
    finish("attitude projection counts and thirds styling", t0, 5.0)


# ---------------------------------------------------------------------------
# 9. profile census
# ---------------------------------------------------------------------------


def test_criterion_profile_census_planted_profiles():
    t0 = time.perf_counter()
    rng = random.Random(31337)
    profiles = set()
    while len(profiles) < 20:
        profiles.add(tuple(rng.randrange(2) for _ in range(8)))
    profiles = sorted(profiles)
    rows = [list(profiles[rng.randrange(20)]) for _ in range(80)]
    rows += [list(p) for p in profiles]  # every planted profile occurs
    census = profile_census(binarize(renormalize(make_matrix(rows, [2] * 8))))
    assert census.realized_profiles == 20
    assert census.realized_fraction == F(20, 256)
    assert sum(census.profiles.values()) == 100
    assert not census.has_neutral_or_missing
    finish("profile census (20 planted profiles of 256)", t0, 5.0)


# ---------------------------------------------------------------------------
# 10. determinism and performance at N = 10,000
# ---------------------------------------------------------------------------


def _write_large_survey(tmp_path):
    ks = [4] * 10 + [5] * 3
    schema = {
        "id_column": "pid",
        "attribute_columns": [],
        "missing_token": "NA",
        "items": [{"id": f"q{i:02d}", "scale": k} for i, k in enumerate(ks)],
    }
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema) + "\n")
    survey_path = tmp_path / "survey.csv"
    rng = random.Random(8675309)
    with open(survey_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pid"] + [f"q{i:02d}" for i in range(13)])
        for p in range(10_000):
            writer.writerow([f"p{p:05d}"] + [rng.randrange(k) for k in ks])
    return survey_path, schema_path


def test_criterion_full_pipeline_determinism_and_performance(tmp_path):
    t0 = time.perf_counter()
    survey, schema = _write_large_survey(tmp_path)
    durations = []
    for run in ("r1", "r2"):
        start = time.perf_counter()
        code = main(["project", "--survey", str(survey), "--schema", str(schema),
                     "--mode", "score", "--threshold", "10",
                     "--out-prefix", str(tmp_path / run / "proj")])
        durations.append(time.perf_counter() - start)
        assert code == 0
    for suffix in ("proj.graphml", "proj.edges.csv", "proj.manifest.json"):
        a = (tmp_path / "r1" / suffix).read_bytes()
        b = (tmp_path / "r2" / suffix).read_bytes()
        assert a == b, f"{suffix} differs between identical runs"
    assert max(durations) < 60.0, f"score projection took {max(durations):.1f}s"
    print(f"ACCEPTANCE PASS: determinism and performance at N=10,000 "
          f"[projection {max(durations):.2f}s < 60s]")
    assert time.perf_counter() - t0 < 150.0


# ---------------------------------------------------------------------------
# 11. round-trips
# ---------------------------------------------------------------------------


def test_criterion_round_trips_survey_and_graphml(tmp_path):
    t0 = time.perf_counter()
    from opinionnet import export_graphml, import_graphml, write_survey

    rng = random.Random(2468)
    for trial in range(25):
        m = rng.randrange(1, 9)
        ks = [rng.randrange(2, 8) for _ in range(m)]
        n = rng.randrange(1, 25)
        rows = random_rows(rng, n, ks, missing_rate=0.2 if trial % 2 else 0.0)
        # line breaks of each kind inside quoted fields, a bare \r included
        breaks = ["", "\r", "\r\n", "\n"]
        attr_pool = ["D", "R", "I", "none", 'quote"d', "comma, value", "", "D\rR", "\r\n", "a\nb"]
        attributes = {"grp": [rng.choice(attr_pool) for _ in range(n)]}
        matrix = make_matrix(rows, ks, ids=[f"id {i},{trial}" + rng.choice(breaks) for i in range(n)],
                             attributes=attributes)
        path = tmp_path / f"survey_{trial}.csv"
        write_survey(matrix, path)
        back = load_survey(path, matrix.schema, missing_policy="keep_pairwise")
        assert same_matrix(back, matrix)

    styles = ["solid", "dashed", "dotted"]
    for trial in range(25):
        n = rng.randrange(2, 20)
        nodes = [f"n{i:02d}" for i in range(n)]
        edges = []
        seen = set()
        for _ in range(rng.randrange(0, 2 * n)):
            a, b = rng.sample(range(n), 2)
            a, b = min(a, b), max(a, b)
            sign = rng.choice(["positive", "negative"])
            if (a, b, sign) in seen:
                continue
            seen.add((a, b, sign))
            weight = F(rng.randrange(-60, 61), rng.randrange(1, 13))
            edges.append(Edge(nodes[a], nodes[b], weight, sign, rng.choice(styles)))
        positive_weights = [e.weight for e in edges if e.sign == "positive"]
        negative_weights = [e.weight for e in edges if e.sign == "negative"]
        graph = ProjectionGraph(
            kind="participant",
            nodes=nodes,
            edges=edges,
            node_attrs={u: {"grp": rng.choice(["x", "y"])} for u in nodes},
            threshold_used=min(positive_weights) if positive_weights else None,
            negative_threshold_used=max(negative_weights) if negative_weights else None,
            extra={"mode": "score", "n_items": 13},
        )
        path = tmp_path / f"graph_{trial}.graphml"
        export_graphml(graph, path)
        back = import_graphml(path)
        assert back.nodes == graph.nodes
        assert edge_list(back) == edge_list(graph)
        assert back.node_attrs == graph.node_attrs
        assert back.threshold_used == graph.threshold_used
        assert back.negative_threshold_used == graph.negative_threshold_used
        assert back.extra == graph.extra
    finish("round-trips (survey CSV and GraphML)", t0, 10.0)


# ---------------------------------------------------------------------------
# 12. the paper's central claim: threshold projection, then GN, finds the blocs
# ---------------------------------------------------------------------------


def test_criterion_girvan_newman_on_the_auto_giant_recovers_planted_blocs(tmp_path):
    """A two-bloc survey of 400 participants (8 items on 7-point scales,
    separation s = 1.5) is projected in score mode at the auto threshold
    (target 1/2). GN then splits the giant component in two, and the Rand
    index of its halves against the planted blocs is at least 0.95 on each of
    seeds 1-5. Measured: 1.000, 0.990, 0.995, 0.995 and 1.000, after 1 to 4
    removals.

    GN runs on the giant alone: the projection leaves isolated participants,
    and girvan_newman counts every component, so on the whole graph a target
    of 2 is already satisfied with no removal.

    Seed 2 is a case of its own. Its giant is one bloc (all 200 of its nodes
    are B; the A bloc is not in it), so the Rand index is that of the split
    GN makes anyway, which cuts off one node (199 / 1).

    At s = 1.0 the same seeds give 0.990, 0.916, 0.911, 0.949 and 0.933 (1 to
    19 removals). That is below the bound, and it is not asserted.
    """
    t0 = time.perf_counter()
    results = {}
    for seed in range(1, 6):
        path = tmp_path / f"blocs_{seed}.csv"
        matrix = load_survey(path, write_bloc_survey(path, seed, 400, 1.5))
        weights = score_weights(renormalize(matrix))
        threshold = select_threshold(weights, F(1, 2)).chosen_threshold
        graph = project_participants(weights, threshold, node_attrs=matrix.node_attributes())
        subgraph = giant_subgraph(graph)
        report = girvan_newman(subgraph, target_components=2)
        assert report.status == "split"
        planted = [graph.node_attrs[u]["bloc"] for u in subgraph.nodes]
        found = index_labels(report.final_components, subgraph.nodes)
        results[seed] = (rand_index(planted, found), [len(c) for c in report.final_components],
                         sorted(set(planted)))
    assert all(rand >= F(95, 100) for rand, _, _ in results.values()), results
    assert results[2][1:] == ([199, 1], ["B"])
    finish("GN on the auto giant recovers planted blocs (5 seeds)", t0, 20.0)
