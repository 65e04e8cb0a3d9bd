"""The README's environment-variable table lists exactly what ``src/`` reads.

Every ``REPRO_*`` name that appears anywhere under ``src/`` must have a
row in the README's "Environment variables" table, and every row must
name a variable ``src/`` still mentions — so adding a knob without
documenting it, or deleting one and leaving its row behind, fails here.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def source_knobs():
    names = set()
    for path in (ROOT / "src").rglob("*"):
        if path.suffix in (".py", ".c"):
            names.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return names


def readme_rows():
    """Knob names of the table rows, in table order."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment variables", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE)


def test_readme_table_matches_source():
    in_src = source_knobs()
    in_readme = set(readme_rows())
    assert in_src, "no REPRO_* names found under src/"
    assert sorted(in_src - in_readme) == [], "undocumented knobs"
    assert sorted(in_readme - in_src) == [], "documented knobs src/ no longer reads"


def test_readme_table_has_one_row_per_knob():
    rows = readme_rows()
    assert len(rows) == len(set(rows))
