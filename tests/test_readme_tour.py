"""README.md's "Library tour" runs as written, so drift in the docs fails a test."""
from pathlib import Path

from biqz import parse

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library tour"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_the_library_tour_runs():
    names: dict = {}
    exec(compile(_tour(), "README.md: Library tour", "exec"), names)
    assert names["u"] ** 3 == parse("4+4Ik")
    assert names["tv"].certified
