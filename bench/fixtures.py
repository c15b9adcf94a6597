"""Seeded fixture generators for the benchmark.

Every fixture is a pure function of the workload seed: the same seed writes
byte-identical files. The program under test only ever sees these files.

* ``write_survey``: N participants by ten 4-point and three 5-point items. At
  ``DEFAULT_SEED`` the complete survey is the acceptance test's survey
  (``random.Random(8675309)``); rows are drawn in order, so the default
  3,000 rows are the first 3,000 of its 10,000.
* ``missing_fraction`` replaces a share of the cells with the ``NA`` token,
  drawn from a second stream so the answers themselves do not move.
* ``write_planted_graph``: two planted blocks of 60 nodes with edge density
  0.3 inside a block and 0.01 across (the acceptance test's planted graph
  has blocks of 100), written as GraphML through the program's own exporter.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 8675309
SCALES = (4,) * 10 + (5,) * 3
SURVEY_ROWS = 3_000
BLOCK_SIZE = 60
P_IN = 0.3
P_OUT = 0.01


def write_schema(path: Path) -> Path:
    schema = {
        "id_column": "pid",
        "attribute_columns": [],
        "missing_token": "NA",
        "items": [{"id": f"q{i:02d}", "scale": k} for i, k in enumerate(SCALES)],
    }
    path.write_text(json.dumps(schema) + "\n")
    return path


def write_survey(path: Path, seed: int, *, rows: int = SURVEY_ROWS,
                 missing_fraction: float = 0.0) -> Path:
    """Write the survey CSV; cells go missing independently with the given probability."""
    rng = random.Random(seed)
    holes = random.Random(f"{seed}:missing")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pid"] + [f"q{i:02d}" for i in range(len(SCALES))])
        for p in range(rows):
            answers = [rng.randrange(k) for k in SCALES]
            if missing_fraction:
                answers = ["NA" if holes.random() < missing_fraction else a for a in answers]
            writer.writerow([f"p{p:05d}"] + answers)
    return path


def planted_pairs(seed: int):
    """Node ids, planted block labels and edge pairs of the two-block graph.

    Edge counts are fixed at their expectations (531 per block, 36 across)
    and only the placement is random, so Girvan-Newman needs about the same
    number of removals on every seed and timings compare across seeds.
    """
    rng = random.Random(f"{seed}:split")
    nodes = [f"p{i:03d}" for i in range(2 * BLOCK_SIZE)]
    labels = [i // BLOCK_SIZE for i in range(2 * BLOCK_SIZE)]
    within = [(i, j) for i in range(BLOCK_SIZE) for j in range(i + 1, BLOCK_SIZE)]
    pairs = []
    for start in (0, BLOCK_SIZE):
        for i, j in sorted(rng.sample(within, round(P_IN * len(within)))):
            pairs.append((nodes[start + i], nodes[start + j]))
    across = [(i, j) for i in range(BLOCK_SIZE) for j in range(BLOCK_SIZE, 2 * BLOCK_SIZE)]
    for i, j in sorted(rng.sample(across, round(P_OUT * len(across)))):
        pairs.append((nodes[i], nodes[j]))
    return nodes, labels, pairs


def write_planted_graph(path: Path, seed: int):
    """Write the planted two-block GraphML; returns ``planted_pairs(seed)``."""
    from opinionnet import Edge, ProjectionGraph, export_graphml

    nodes, labels, pairs = planted_pairs(seed)
    graph = ProjectionGraph(kind="participant", nodes=nodes,
                            edges=[Edge(u, v, Fraction(1)) for u, v in pairs],
                            extra={"n_items": 13})
    export_graphml(graph, path)
    return nodes, labels, pairs
