"""The package must stay smaller than the seed's 3,143 lines of `src/`."""

from pathlib import Path

SEED_LINES = 3143


def test_src_stays_below_the_seed():
    src = Path(__file__).resolve().parents[1] / "src"
    lines = sum(len(path.read_text().splitlines()) for path in src.rglob("*.py"))
    assert lines < SEED_LINES
