"""Mapping ordinal codes onto a symmetric scale from -1 to +1, and onto signs.

A code c on a k-point scale becomes (2c - (k-1)) / (k-1): equally spaced
rationals with the endpoints at -1 and +1 and, for odd k, a neutral 0 at the
midpoint. Values are stored as integer numerators over one shared denominator
(the lcm of the per-item steps k-1), so all downstream comparisons are exact.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from .errors import ValidationError
from .ingest import ResponseMatrix, write_csv
from .rational import format_fraction


class NormalizedMatrix:
    """Responses rescaled per item to exact rationals in [-1, +1].

    `numerators` is an int64 array over the shared `denominator`; missing
    entries are masked (numerator slot zeroed). Immutable.
    """

    __slots__ = ("source", "numerators", "mask", "denominator")

    def __init__(self, source: ResponseMatrix, numerators, mask, denominator: int):
        numerators = np.asarray(numerators, dtype=np.int64)
        self.source = source
        self.numerators = numerators
        self.mask = mask
        self.denominator = int(denominator)
        self.numerators.setflags(write=False)

    @property
    def n_participants(self) -> int:
        return self.numerators.shape[0]

    @property
    def n_items(self) -> int:
        return self.numerators.shape[1]

    @property
    def participant_ids(self):
        return self.source.participant_ids

    @property
    def schema(self):
        return self.source.schema


def renormalize(matrix: ResponseMatrix) -> NormalizedMatrix:
    """Map every code to its symmetric scale value, exactly.

    On a 5-point scale the codes 0..4 become -1, -1/2, 0, 1/2, 1; on a
    4-point scale -1, -1/3, 1/3, 1. Missing entries stay missing.
    """
    steps = [item.scale_size - 1 for item in matrix.schema.items]
    denominator = 1
    for s in steps:
        denominator = lcm(denominator, s)
    # downstream pair sums reach n_items * denominator; keep abundant headroom in int64
    if denominator > (2**62) // max(4 * matrix.n_items, 4):
        raise ValidationError(
            "combined scale sizes produce a denominator too large for exact integer arithmetic"
        )
    step_mult = np.array([denominator // s for s in steps], dtype=np.int64)
    km1 = np.array(steps, dtype=np.int64)
    codes = matrix.codes.astype(np.int64)
    numerators = (2 * codes - km1[None, :]) * step_mult[None, :]
    numerators[~matrix.mask] = 0
    return NormalizedMatrix(matrix, numerators, matrix.mask, denominator)


def binarize(normalized: NormalizedMatrix) -> NormalizedMatrix:
    """Renormalize onto the three-point scale: -1 below the midpoint, +1 above,
    0 at it, over denominator 1; missing entries stay missing.

    Neutral (0) occurs only on odd scales and keeps its own class rather than
    being forced to a side. A binarized matrix binarizes to itself.
    """
    return NormalizedMatrix(normalized.source, np.sign(normalized.numerators), normalized.mask, 1)


def write_normalized_csv(normalized: NormalizedMatrix, csv_path) -> None:
    """Debugging dump of normalized values as exact fraction strings; a missing
    cell holds the schema's missing token. Each distinct value is formatted once.
    A token that is also the text of a value is refused: a reader could not
    tell a missing cell from that value."""
    schema = normalized.schema
    numerators = normalized.numerators
    distinct, codes = np.unique(numerators, return_inverse=True)
    values = [format_fraction(Fraction(k, normalized.denominator)) for k in distinct.tolist()]
    if schema.missing_token in values:
        raise ValidationError(f"missing token {schema.missing_token!r} is also a normalized "
                              "value in the dump, so a missing cell could not be told from it")
    text = np.array(values + [schema.missing_token], dtype=object)
    codes = codes.reshape(numerators.shape)
    codes[~normalized.mask] = len(distinct)
    write_csv(csv_path, [schema.id_column, *schema.item_ids],
              ([pid, *row] for pid, row in zip(normalized.participant_ids, text[codes].tolist())))
