"""Every golden run of `tests/_golden.py` reproduces its files under
`tests/golden/`: exit code, stdout and stderr and a CSV artifact byte for
byte, a JSON artifact with its floats rounded to 12 significant digits."""

import json

import pytest

from _golden import CASES, GOLDEN, artifact_file, record, rounded, run


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_matches_its_golden(name):
    code, stdout, stderr, artifact = run(CASES[name])
    assert record(code, stdout, stderr) == (GOLDEN / f"{name}.out").read_text()
    expected = artifact_file(name)
    if expected is None or not expected.exists():
        assert artifact is None
    elif expected.suffix == ".json":
        assert rounded(json.loads(artifact)) == rounded(json.loads(expected.read_text()))
    else:
        assert artifact == expected.read_text()


def test_every_golden_file_has_a_case():
    names = {path.stem for path in GOLDEN.iterdir()}
    assert names == set(CASES)
