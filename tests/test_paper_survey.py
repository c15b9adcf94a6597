import hashlib

from opinionnet import load_survey

from paper_survey import write_bloc_survey


def test_bloc_survey_bytes_are_pinned_per_seed(tmp_path):
    expected = {
        "shift": "14840b6fa2a2bb58bd476b5ec5c04e8d9b32802142869cf5d54e95c08f8f1369",
        "mirror": "5dd6ab621d0e7c4b433ccd8e130d37049dc23d5800ed7324cceed0ac4d98675e",
    }
    for pattern, digest in expected.items():
        first, second = tmp_path / f"{pattern}1.csv", tmp_path / f"{pattern}2.csv"
        schema = write_bloc_survey(first, 7, 12, 1.5, pattern=pattern)
        write_bloc_survey(second, 7, 12, 1.5, pattern=pattern)
        assert first.read_bytes() == second.read_bytes()
        assert hashlib.sha256(first.read_bytes()).hexdigest() == digest
        matrix = load_survey(first, schema)
        assert matrix.participant_ids[:2] == ("p00000", "p00001")
        assert matrix.attributes["bloc"] == ("A", "B") * 6


def test_bloc_survey_patterns_lean_as_documented(tmp_path):
    # a wide separation and little noise put every answer on its bloc's side
    for pattern in ("shift", "mirror"):
        path = tmp_path / f"{pattern}.csv"
        matrix = load_survey(path, write_bloc_survey(path, 3, 20, 2.5, noise=0.3, pattern=pattern))
        for codes, bloc in zip(matrix.codes.tolist(), matrix.attributes["bloc"]):
            side = 1 if bloc == "A" else -1
            leans = [side if pattern == "shift" or j < 4 else -side for j in range(8)]
            assert all((code - 3) * lean > 0 for code, lean in zip(codes, leans))
