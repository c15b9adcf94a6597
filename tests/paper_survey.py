"""A seeded two-bloc survey shaped like the paper's ANES data.

Eight 7-point items by default, two equal blocs and a `bloc` attribute
column holding each participant's planted label (A or B). Answers are drawn
around the scale's midpoint, moved by the separation toward the bloc's side,
with Gaussian noise, rounded and clipped to the scale.
"""

import random
from pathlib import Path

from opinionnet import SurveyItem, SurveySchema


def write_bloc_survey(path, seed, rows, separation, noise=1.3, items=8, scale=7,
                      pattern="shift") -> SurveySchema:
    """Write the survey CSV to path and return its schema.

    Row i is bloc A when i is even and B when it is odd; ids are p00000,
    p00001, ... Every answer comes from one random.Random(seed), row by row
    and item by item: round(gauss(mid + lean * separation, noise)) clipped to
    0..scale-1, with mid = (scale - 1) / 2. With pattern="shift", bloc A
    leans high (lean +1) on every item and bloc B low (-1). With
    pattern="mirror", bloc A leans high on the first half of the items and
    low on the second, and bloc B the reverse.
    """
    if pattern not in ("shift", "mirror"):
        raise ValueError(f"unknown pattern {pattern!r}")
    rng = random.Random(seed)
    mid = (scale - 1) / 2
    item_ids = [f"q{j}" for j in range(items)]
    lines = [",".join(["pid", "bloc", *item_ids])]
    for i in range(rows):
        bloc = "AB"[i % 2]
        side = 1 if bloc == "A" else -1
        leans = [side if pattern == "shift" or j < items // 2 else -side for j in range(items)]
        answers = [min(scale - 1, max(0, round(rng.gauss(mid + lean * separation, noise))))
                   for lean in leans]
        lines.append(",".join([f"p{i:05d}", bloc, *map(str, answers)]))
    Path(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
    return SurveySchema(items=tuple(SurveyItem(q, scale) for q in item_ids), id_column="pid",
                        attribute_columns=("bloc",))
