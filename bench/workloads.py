"""The three workloads: their fixtures, their timed steps and the checks.

Every workload is a chain of steps run back to back in one process, CLI
commands through ``opinionnet.cli.main`` and, on dense, a reload of the
written graph (``import_graphml`` then ``connected_components``). Each step
is one operation; it fails on a nonzero exit, an uncaught exception or a
failed output check. Each workload's two heaviest steps give the declared
metrics ``step1_s`` and ``step2_s``.

* sweep: two ``--threshold auto`` projections of a survey with 3% missing
  cells under ``keep_pairwise``. Each makes three full passes of the pair
  kernel (histogram, collect, scan) and emits few edges.
* dense: an exact-agreement projection at m-1 (the hash-bucket path, no
  kernel), a score projection at 15/2 (one kernel pass, then edge assembly
  and writes of a large graph), and the reload of that graph.
* split: Girvan-Newman and a force layout on the planted two-block graph;
  the kernel is idle and the files are small.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import fixtures
from layers import CLI_SPAN

EXPECTED_DIGESTS = Path(__file__).with_name("expected_digests.json")
SWEEP_TARGET = Fraction(1, 2)  # the CLI's default --target-fraction
MIN_RAND_INDEX = Fraction(95, 100)
PAIRS_CHECKED = 100  # listed pairs, and as many random pairs, recomputed per projection
PROJECTED = re.compile(r"projected (\d+) participants: (\d+) positive / (\d+) negative edges")
LARGEST = re.compile(r"largest component: (\S+) of nodes")


@dataclass
class Context:
    """Where one run's fixtures and outputs live, and what earlier steps reported."""

    workdir: Path
    seed: int
    rows: int = fixtures.SURVEY_ROWS
    tracer: object = None
    reported: dict = field(default_factory=dict)
    planted: tuple = ()
    answers: dict = field(default_factory=dict)  # survey file -> {pid: answer codes}

    def __post_init__(self):
        # the pairs each check samples; later chains draw other pairs
        self.rng = random.Random(f"{self.seed}:checks")

    def path(self, name: str) -> Path:
        return self.workdir / name


@dataclass
class Step:
    """One timed operation: ``run`` is timed, ``check`` is not.

    ``metric`` names the declared metric the step's time feeds, if any.
    """

    label: str
    run: Callable
    check: Callable
    prefix: str | None = None
    metric: str | None = None


@dataclass
class Workload:
    name: str
    prepare: Callable
    steps: list


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def expected_digests() -> dict:
    return json.loads(EXPECTED_DIGESTS.read_text())


# ---------------------------------------------------------------------------
# running a step
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    error: str | None = None


def run_cli(ctx: Context, argv: list) -> CliResult:
    """Run one CLI command in-process; its printed output is captured."""
    import opinionnet.cli as cli

    out, err = io.StringIO(), io.StringIO()
    error = None
    span = ctx.tracer.open(CLI_SPAN) if ctx.tracer else None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        code, error = None, traceback.format_exc()
    finally:
        if span is not None:
            ctx.tracer.close(span)
    return CliResult(code, out.getvalue(), err.getvalue(), error)


def timed(step: Step, ctx: Context):
    """(seconds, result) of one step; an exception becomes the result."""
    t0 = perf_counter()
    try:
        result = step.run(ctx)
    except Exception:
        result = traceback.format_exc()
    return perf_counter() - t0, result


# ---------------------------------------------------------------------------
# checks (each returns a list of problems; empty means the operation passed)
# ---------------------------------------------------------------------------


def completed(result) -> bool:
    """The command ran to exit code 0 without a traceback, so its outputs exist."""
    return (isinstance(result, CliResult) and result.error is None and result.code == 0
            and "Traceback" not in result.stderr)


def check_cli(ctx: Context, result, workload: str, step: Step) -> list:
    """Exit status, manifest digests and, at the default seed, recorded digests."""
    if isinstance(result, str):
        return [f"harness error: {result}"]
    if not completed(result):
        return [f"exit code {result.code}: {result.error or result.stderr.strip()}"]
    problems = []
    manifest_path = ctx.path(f"{step.prefix}.manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
        for entry in manifest["outputs"].values():
            if sha256(ctx.path(entry["file"])) != entry["sha256"]:
                problems.append(f"{entry['file']} does not match its manifest digest")
    except (OSError, ValueError, KeyError) as exc:
        problems.append(f"unreadable manifest {manifest_path.name}: {exc}")
    problems += check_recorded_digests(ctx, workload, step)
    return problems


def check_recorded_digests(ctx: Context, workload: str, step: Step) -> list:
    """At the default seed and size, outputs must match the recorded bytes."""
    if ctx.seed != fixtures.DEFAULT_SEED or ctx.rows != fixtures.SURVEY_ROWS:
        return []
    problems = []
    for name, digest in expected_digests()["outputs"][workload].items():
        if not name.startswith(step.prefix + "."):
            continue
        path = ctx.path(name)
        actual = sha256(path) if path.exists() else "missing"
        if actual != digest:
            problems.append(f"{name}: sha256 {actual} differs from recorded {digest}")
    return problems


def check_projection(ctx: Context, result, workload: str, step: Step, survey: str,
                     mode: str) -> list:
    problems = check_cli(ctx, result, workload, step)
    if not completed(result):
        return problems
    found = PROJECTED.search(result.stdout)
    largest = LARGEST.search(result.stdout)
    if not (found and largest):
        return problems + [f"unexpected project output: {result.stdout!r}"]
    positive = int(found.group(2))
    ctx.reported[step.prefix] = (positive, largest.group(1))
    rows, listed = 0, {}
    with open(ctx.path(f"{step.prefix}.edges.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            if row["sign"] == "positive":
                rows += 1
                listed[min(row["u"], row["v"]), max(row["u"], row["v"])] = row["weight"]
    if rows != positive or len(listed) != positive:
        problems.append(f"edge list has {rows} positive rows over {len(listed)} pairs, "
                        f"the command reported {positive}")
    manifest = json.loads(ctx.path(f"{step.prefix}.manifest.json").read_text())
    threshold = Fraction(manifest["parameters"]["resolved_threshold"])
    problems += check_weights(ctx, ctx.answers[survey], mode, threshold, listed)
    sweep_path = ctx.path(f"{step.prefix}.sweep.csv")
    if sweep_path.exists():
        problems += check_sweep(sweep_path)
    return problems


def reference_weight(mode: str, a: list, b: list) -> Fraction:
    """A pair's weight recomputed item by item from the raw answer codes.

    This is a second source for the program's weights: plain Python over the
    fixture file and the scales, with no numpy and no pair kernel. Items
    either participant left missing are skipped (keep_pairwise).
    """
    total = Fraction(0)
    for x, y, k in zip(a, b, fixtures.SCALES):
        if x is None or y is None:
            continue
        vx, vy = Fraction(2 * x - (k - 1), k - 1), Fraction(2 * y - (k - 1), k - 1)
        if mode == "exact":
            total += x == y
        elif mode == "score":
            total += 1 - abs(vx - vy)
        else:  # binarized: same side of the midpoint; two neutral answers agree
            total += (vx > 0) - (vx < 0) == (vy > 0) - (vy < 0)
    return total


def pairs_agreeing_on_all_but_one(answers: dict) -> set:
    """Every pair with at most one differing item, from leave-one-item-out keys."""
    pairs = set()
    for j in range(len(fixtures.SCALES)):
        groups: dict = {}
        for pid, codes in answers.items():
            groups.setdefault(tuple(codes[:j] + codes[j + 1:]), []).append(pid)
        for members in groups.values():
            pairs.update((u, v) for i, u in enumerate(members) for v in members[i + 1:])
    return pairs


def check_weights(ctx: Context, answers: dict, mode: str, threshold: Fraction,
                  listed: dict) -> list:
    """Listed pairs carry their weight; a pair is listed exactly when it reaches the threshold.

    Checks PAIRS_CHECKED listed pairs and as many uniformly random pairs
    against ``reference_weight``. At the exact-agreement level m-1 every
    qualifying pair is cheap to enumerate, so the listed set is compared whole.
    """
    problems = []
    ids = sorted(answers)
    complete = all(None not in codes for codes in answers.values())
    if mode == "exact" and threshold == len(fixtures.SCALES) - 1 and complete:
        expected = pairs_agreeing_on_all_but_one(answers)
        if expected != set(listed):
            problems.append(f"{len(set(listed) - expected)} listed pairs do not qualify and "
                            f"{len(expected - set(listed))} qualifying pairs are missing")
    pairs = ctx.rng.sample(list(listed), min(PAIRS_CHECKED, len(listed)))
    pairs += [tuple(sorted(ctx.rng.sample(ids, 2))) for _ in range(PAIRS_CHECKED)]
    for u, v in pairs:
        weight = reference_weight(mode, answers[u], answers[v])
        shown = listed.get((u, v))
        if (shown is not None) != (weight >= threshold):
            problems.append(f"pair {u},{v} of weight {weight} is {'' if shown else 'not '}"
                            f"listed at threshold {threshold}")
        elif shown is not None and Fraction(shown) != weight:
            problems.append(f"pair {u},{v} is listed with weight {shown}, recomputed {weight}")
    return problems[:5]


def check_sweep(path: Path) -> list:
    """The chosen (last) level reaches the target and every higher level does not."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    levels = [(Fraction(r[0]), Fraction(r[1])) for r in rows]
    if not levels:
        return [f"{path.name}: empty sweep"]
    problems = []
    if any(a <= b for (a, _), (b, _) in zip(levels, levels[1:])):
        problems.append(f"{path.name}: levels are not strictly descending")
    if levels[-1][1] < SWEEP_TARGET:
        problems.append(f"{path.name}: chosen level {levels[-1][0]} misses the target")
    if any(frac >= SWEEP_TARGET for _, frac in levels[:-1]):
        problems.append(f"{path.name}: a level above the chosen one already reaches the target")
    return problems


def check_communities(ctx: Context, result, workload: str, step: Step) -> list:
    problems = check_cli(ctx, result, workload, step)
    if not completed(result):
        return problems
    report = json.loads(ctx.path(f"{step.prefix}.communities.json").read_text())
    if report["status"] != "split":
        problems.append(f"status {report['status']!r}, expected 'split'")
    nodes, labels, _ = ctx.planted
    where = {u: i for i, comp in enumerate(report["final_components"]) for u in comp}
    found = [where.get(u) for u in nodes]
    if rand_index(labels, found) < MIN_RAND_INDEX:
        problems.append("Rand index against the planted blocks is below 0.95")
    return problems


def check_render(ctx: Context, result, workload: str, step: Step) -> list:
    problems = check_cli(ctx, result, workload, step)
    if not completed(result):
        return problems
    svg = ctx.path(f"{step.prefix}.svg").read_text()
    nodes, _, pairs = ctx.planted
    if svg.count("<circle ") != len(nodes) or svg.count("<line ") != len(pairs):
        problems.append("SVG does not draw every node and edge exactly once")
    if not svg.endswith("</svg>\n"):
        problems.append("SVG is truncated")
    return problems


def rand_index(labels_a, labels_b) -> Fraction:
    """Pair-counting agreement between two labelings of the same points."""
    n = len(labels_a)
    agree = sum((labels_a[i] == labels_a[j]) == (labels_b[i] == labels_b[j])
                for i in range(n) for j in range(i + 1, n))
    return Fraction(agree, n * (n - 1) // 2)


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------


def project_step(label: str, prefix: str, survey: str, mode: str, extra: list,
                 metric=None) -> Step:
    def run(ctx):
        return run_cli(ctx, ["project", "--survey", str(ctx.path(survey)),
                             "--schema", str(ctx.path("schema.json")), "--mode", mode, *extra,
                             "--out-prefix", str(ctx.path(prefix))])

    def check(ctx, result, workload, step):
        return check_projection(ctx, result, workload, step, survey, mode)

    return Step(label, run, check, prefix, metric)


def reload_step(graph: str, source: str, metric: str) -> Step:
    """Reload a written graph; source is the step prefix that reported it."""

    def run(ctx):
        import opinionnet.cli as cli  # looked up per call so traced wrappers apply

        reloaded = cli.import_graphml(ctx.path(graph))
        return reloaded, cli.connected_components(reloaded)

    def check(ctx, result, workload, step):
        if isinstance(result, str):
            return [f"reload failed: {result}"]
        from opinionnet import format_fraction

        reloaded, components = result
        if source not in ctx.reported:
            return [f"nothing reported for {graph}"]
        edges, giant = ctx.reported[source]
        problems = []
        if reloaded.n_edges != edges:
            problems.append(f"{graph} reloads with {reloaded.n_edges} edges, expected {edges}")
        if format_fraction(components.giant_fraction) != giant:
            problems.append(f"{graph} reloads with a different giant component")
        return problems

    return Step("reload_s", run, check, metric=metric)


def graph_step(label: str, prefix: str, argv: list, check: Callable, metric: str) -> Step:
    """A CLI command that reads the planted graph."""

    def run(ctx):
        return run_cli(ctx, [*argv[:1], "--graph", str(ctx.path("planted.graphml")),
                             *argv[1:], "--out-prefix", str(ctx.path(prefix))])

    return Step(label, run, check, prefix, metric)


def prepare_survey(name: str, missing_fraction: float):
    def prepare(ctx):
        fixtures.write_schema(ctx.path("schema.json"))
        fixtures.write_survey(ctx.path(name), ctx.seed, rows=ctx.rows,
                              missing_fraction=missing_fraction)
        with open(ctx.path(name), newline="") as fh:
            rows = csv.reader(fh)
            next(rows)
            ctx.answers[name] = {r[0]: [None if c == "NA" else int(c) for c in r[1:]]
                                 for r in rows}

    return prepare


def prepare_planted(ctx):
    ctx.planted = fixtures.write_planted_graph(ctx.path("planted.graphml"), ctx.seed)


PAIRWISE = ["--missing-policy", "keep_pairwise"]

WORKLOADS = {
    "sweep": Workload(
        "sweep",
        prepare_survey("survey_missing.csv", 0.03),
        [
            project_step("project_score_auto_s", "s1", "survey_missing.csv",
                         "score", [*PAIRWISE, "--threshold", "auto"], "step1_s"),
            project_step("project_binarized_auto_s", "s2", "survey_missing.csv",
                         "binarized", [*PAIRWISE, "--threshold", "auto"], "step2_s"),
        ],
    ),
    "dense": Workload(
        "dense",
        prepare_survey("survey.csv", 0.0),
        [
            project_step("project_exact_bucketed_s", "d1", "survey.csv",
                         "exact", ["--threshold", "12"]),
            project_step("project_score_fixed_s", "d2", "survey.csv",
                         "score", ["--threshold", "15/2"], "step1_s"),
            reload_step("d2.graphml", "d2", "step2_s"),
        ],
    ),
    "split": Workload(
        "split",
        prepare_planted,
        [
            graph_step("communities_s", "c", ["communities", "--target", "2"], check_communities,
                       "step1_s"),
            graph_step("render_s", "r", ["render", "--seed", "7"], check_render, "step2_s"),
        ],
    ),
}
