import random
from fractions import Fraction

import numpy as np
import pytest

from opinionnet import (
    NormalizedMatrix,
    ValidationError,
    binarize,
    binarized_agreement_weights,
    profile_census,
    renormalize,
    write_normalized_csv,
)

from helpers import make_matrix, make_schema, normalized_values, pair_weights
from oracles import normalized_value, random_rows, sign_of


def F(*args):
    return Fraction(*args)


def scale_points(k):
    """The normalized points of a k-point item, low to high, read from the
    renormalized codes 0..k-1."""
    return [row[0] for row in normalized_values(renormalize(make_matrix([[c] for c in range(k)],
                                                                        [k])))]


def test_five_point_scale_values():
    assert scale_points(5) == [F(-1), F(-1, 2), F(0), F(1, 2), F(1)]


def test_four_point_scale_values():
    assert scale_points(4) == [F(-1), F(-1, 3), F(1, 3), F(1)]


def test_two_point_scale_values():
    assert scale_points(2) == [F(-1), F(1)]


def test_three_point_midpoint_is_zero():
    assert scale_points(3)[1] == 0


def test_renormalize_is_exact_per_entry():
    rng = random.Random(11)
    ks = [2, 3, 4, 5, 6, 7]
    rows = [[rng.randrange(k) for k in ks] for _ in range(25)]
    values = normalized_values(renormalize(make_matrix(rows, ks)))
    for i, row in enumerate(rows):
        for j, (c, k) in enumerate(zip(row, ks)):
            assert values[i][j] == Fraction(2 * c - (k - 1), k - 1)


def test_value_set_symmetric_about_zero():
    for k in range(2, 12):
        values = scale_points(k)
        assert values == sorted(-v for v in values)


def test_missing_preserved():
    nm = renormalize(make_matrix([[0, None], [1, 1]], [4, 4]))
    assert normalized_values(nm)[0] == [-1, None]


def test_reversing_codes_negates_values_exactly():
    rng = random.Random(5)
    ks = [2, 4, 5, 7]
    rows = [[rng.randrange(k) for k in ks] for _ in range(40)]
    flipped = [[k - 1 - c for c, k in zip(row, ks)] for row in rows]
    a = normalized_values(renormalize(make_matrix(rows, ks)))
    b = normalized_values(renormalize(make_matrix(flipped, ks)))
    assert a == [[-v for v in row] for row in b]


def test_binarize_positive_value():
    # +1/3 on a 4-point scale
    sm = binarize(renormalize(make_matrix([[2]], [4])))
    assert sm.numerators[0, 0] == 1


def test_binarize_neutral_midpoint():
    # 0 at the 5-point midpoint
    sm = binarize(renormalize(make_matrix([[2]], [5])))
    assert sm.mask[0, 0] and sm.numerators[0, 0] == 0


def test_binarize_componentwise():
    # values (-1, 0, 1/2) -> signs (-1, 0, +1)
    nm = renormalize(make_matrix([[0, 1, 3]], [4, 3, 5]))
    assert normalized_values(nm) == [[F(-1), F(0), F(1, 2)]]
    sm = binarize(nm)
    assert sm.numerators[0].tolist() == [-1, 0, 1]


def test_binarize_missing_preserved():
    sm = binarize(renormalize(make_matrix([[None, 1]], [4, 4])))
    assert sm.mask[0].tolist() == [False, True]
    assert sm.numerators[0, 0] == 0  # a missing slot holds no sign


def test_sign_depends_only_on_midpoint_position():
    for k in range(2, 10):
        for c in range(k):
            nm = renormalize(make_matrix([[c], [c]], [k]))
            sign = binarize(nm).numerators[0, 0]
            assert sign == sign_of(c, k)
            midpoint = Fraction(k - 1, 2)
            expected = (c > midpoint) - (c < midpoint)
            assert sign == expected


def test_binarize_is_a_normalized_matrix_over_denominator_one():
    matrix = make_matrix([[0, 2, None], [3, 1, 4]], [4, 3, 5])
    binarized = binarize(renormalize(matrix))
    assert type(binarized) is NormalizedMatrix
    assert binarized.denominator == 1
    assert binarized.source is matrix
    assert binarized.participant_ids == matrix.participant_ids
    assert normalized_values(binarized) == [[-1, 1, None], [1, 0, 1]]


def test_binarize_binarizes_a_binarized_matrix_to_itself():
    rows = random_rows(random.Random(11), 30, [2, 3, 4, 5, 7], missing_rate=0.2)
    once = binarize(renormalize(make_matrix(rows, [2, 3, 4, 5, 7])))
    twice = binarize(once)
    assert twice.source is once.source and twice.denominator == 1
    assert np.array_equal(twice.numerators, once.numerators)
    assert np.array_equal(twice.mask, once.mask)


@pytest.mark.parametrize("missing_rate", [0.0, 0.2])
def test_binarized_weights_and_census_read_either_matrix_alike(missing_rate):
    ks = [2, 3, 4, 5, 6, 7]
    rows = random_rows(random.Random(7), 40, ks, missing_rate=missing_rate)
    normalized = renormalize(make_matrix(rows, ks))
    binarized = binarize(normalized)
    assert normalized.denominator > 1
    for count in (True, False):
        assert (pair_weights(binarized_agreement_weights(normalized, count_neutral_pairs=count))
                == pair_weights(binarized_agreement_weights(binarized,
                                                            count_neutral_pairs=count)))
    assert profile_census(normalized).to_dict() == profile_census(binarized).to_dict()


def test_renormalize_matches_oracle_everywhere():
    rng = random.Random(3)
    ks = [rng.randrange(2, 8) for _ in range(9)]
    rows = [[rng.randrange(k) for k in ks] for _ in range(30)]
    values = normalized_values(renormalize(make_matrix(rows, ks)))
    for i, row in enumerate(rows):
        for j, (c, k) in enumerate(zip(row, ks)):
            assert values[i][j] == normalized_value(c, k)


def test_normalized_csv_dump(tmp_path):
    nm = renormalize(make_matrix([[0, 2], [None, 4]], [4, 5]))
    out = tmp_path / "norm.csv"
    write_normalized_csv(nm, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "pid,q00,q01"
    assert lines[1] == "p000,-1,0"
    assert lines[2] == "p001,NA,1"


@pytest.mark.parametrize("token", ["-1", "1/2", "-1/3"])
def test_normalized_csv_dump_refuses_a_token_that_is_a_value(tmp_path, token):
    # the values -1, -1/3, 1/3, 1 and -1, -1/2, 0, 1/2, 1 of a 4- and a 5-point item
    schema = make_schema([4, 5], missing_token=token)
    nm = renormalize(make_matrix([[0, 3], [1, None], [3, 4]], [4, 5], schema=schema))
    out = tmp_path / "norm.csv"
    with pytest.raises(ValidationError, match=f"missing token {token!r}"):
        write_normalized_csv(nm, out)
    assert not out.exists()


def test_denominator_overflow_guard():
    # pairwise-coprime steps make the shared denominator explode past int64
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    ks = [p + 1 for p in primes]
    rows = [[0] * len(ks)]
    with pytest.raises(ValidationError, match="too large for exact integer arithmetic"):
        renormalize(make_matrix(rows, ks))
