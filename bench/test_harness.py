"""Self-tests of the benchmark harness: ``python3 -m pytest bench -q``."""

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import fixtures
import workloads
from layers import PER_LAYER_UNITS
from spans import Span, Tracer, self_times
from workloads import WORKLOADS, Context, sha256, timed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_self_times_subtract_the_union_of_children():
    spans = [
        Span(1, "root", None, 0.0, 10.0),
        Span(2, "a", 1, 1.0, 4.0),
        Span(3, "b", 1, 3.0, 6.0),  # overlaps a, as a worker thread's span would
        Span(4, "a.child", 2, 2.0, 3.0),
        Span(5, "late", 1, 9.0, 12.0),  # runs past its parent; only 9..10 counts
    ]
    own = self_times(spans)
    assert own == {1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 3.0}


def test_wrappers_record_parents_counts_and_restore():
    target = SimpleNamespace(work=lambda x: x * 2)
    original = target.work
    tracer = Tracer()
    tracer.wrap(target, "work", "layer.work", lambda a, k, r: {"out": r})
    root = tracer.open("root")
    assert target.work(3) == 6
    workers = [threading.Thread(target=target.work, args=(i,)) for i in range(4)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=10)
        assert not t.is_alive()
    tracer.close(root)
    tracer.restore()
    assert target.work is original
    calls = [s for s in tracer.spans if s.name == "layer.work"]
    assert len(calls) == 5
    assert {s.parent for s in calls} == {root.id}  # worker spans hang off the opener's span
    assert sorted(s.counts["out"] for s in calls) == [0, 2, 4, 6, 6]
    assert len({s.id for s in tracer.spans}) == len(tracer.spans)


def test_fixtures_are_byte_identical_for_a_seed(tmp_path):
    recorded = workloads.expected_digests()["fixtures"]
    for name, missing in (("survey.csv", 0.0), ("survey_missing.csv", 0.03)):
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        fixtures.write_survey(a, fixtures.DEFAULT_SEED, missing_fraction=missing)
        fixtures.write_survey(b, fixtures.DEFAULT_SEED, missing_fraction=missing)
        assert a.read_bytes() == b.read_bytes()
        assert sha256(a) == recorded[name]
        fixtures.write_survey(b, fixtures.DEFAULT_SEED + 1, missing_fraction=missing)
        assert a.read_bytes() != b.read_bytes()
    fixtures.write_planted_graph(tmp_path / "g.graphml", fixtures.DEFAULT_SEED)
    assert sha256(tmp_path / "g.graphml") == recorded["planted.graphml"]
    assert sha256(fixtures.write_schema(tmp_path / "schema.json")) == recorded["schema.json"]


def test_default_survey_is_the_acceptance_survey_prefix(tmp_path):
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        from test_acceptance import _write_large_survey
    finally:
        sys.path.remove(str(ROOT / "tests"))
    acceptance, _ = _write_large_survey(tmp_path)
    ours = fixtures.write_survey(tmp_path / "ours.csv", fixtures.DEFAULT_SEED)
    lines = acceptance.read_text().splitlines(keepends=True)
    assert ours.read_text() == "".join(lines[: fixtures.SURVEY_ROWS + 1])


def test_planted_graph_has_fixed_edge_counts():
    b = fixtures.BLOCK_SIZE
    within, across = round(fixtures.P_IN * b * (b - 1) / 2), round(fixtures.P_OUT * b * b)
    for seed in (1, 2):
        nodes, labels, pairs = fixtures.planted_pairs(seed)
        crossing = sum(labels[nodes.index(u)] != labels[nodes.index(v)] for u, v in pairs)
        assert (len(pairs), crossing) == (2 * within + across, across)


def _run_step(ctx, workload, index):
    step = WORKLOADS[workload].steps[index]
    _, result = timed(step, ctx)
    return step, result


def test_projection_check_fails_on_a_one_byte_corruption(tmp_path):
    ctx = Context(tmp_path, seed=5, rows=300)
    WORKLOADS["sweep"].prepare(ctx)
    step, result = _run_step(ctx, "sweep", 0)
    assert step.check(ctx, result, "sweep", step) == []
    edges = tmp_path / "s1.edges.csv"
    data = bytearray(edges.read_bytes())
    data[-2] ^= 1
    edges.write_bytes(bytes(data))
    assert step.check(ctx, result, "sweep", step)


def test_weight_check_catches_an_off_by_one_kernel_at_any_seed(tmp_path, monkeypatch):
    from opinionnet.project import PairWeights

    original = PairWeights.block_numerators

    def counts_one_item_too_many(self, *args):
        numer, co = original(self, *args)
        return (numer, co) if co is None else (numer + self.denominator, co + 1)

    ctx = Context(tmp_path, seed=5, rows=300)
    WORKLOADS["sweep"].prepare(ctx)
    monkeypatch.setattr(PairWeights, "block_numerators", counts_one_item_too_many)
    step, result = _run_step(ctx, "sweep", 0)
    problems = step.check(ctx, result, "sweep", step)
    assert any("recomputed" in p or "listed at threshold" in p for p in problems), problems


def test_weight_check_catches_a_dropped_bucketed_pair(tmp_path, monkeypatch):
    import opinionnet.project as project

    original = project._bucketed_agreement_pairs
    monkeypatch.setattr(project, "_bucketed_agreement_pairs",
                        lambda *a: tuple(x[1:] for x in original(*a)))
    ctx = Context(tmp_path, seed=5, rows=2000)
    WORKLOADS["dense"].prepare(ctx)
    step, result = _run_step(ctx, "dense", 0)
    problems = step.check(ctx, result, "dense", step)
    assert any("qualifying pairs are missing" in p for p in problems), problems


def test_recorded_digest_check_catches_corruption_the_manifest_hides(tmp_path):
    ctx = Context(tmp_path, fixtures.DEFAULT_SEED, fixtures.SURVEY_ROWS)
    WORKLOADS["split"].prepare(ctx)
    step, result = _run_step(ctx, "split", 1)  # render
    assert step.check(ctx, result, "split", step) == []
    svg = tmp_path / "r.svg"
    text = svg.read_text()
    svg.write_text(text.replace('r="5"', 'r="6"', 1))
    manifest_path = tmp_path / "r.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["outputs"]["svg"]["sha256"] = sha256(svg)
    manifest_path.write_text(json.dumps(manifest))
    problems = step.check(ctx, result, "split", step)
    assert any("differs from recorded" in p for p in problems)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_result_line_names_every_declared_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
        done = _bench("--workload", "sweep", "--seed", "3", "--seconds", "0",
                      "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
        assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == {
            m["name"]: m["unit"] for m in declared}
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER_UNITS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "split", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
