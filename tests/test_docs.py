"""The documents that point into the code keep pointing at something."""
import re
from pathlib import Path

from repro.dist.overlap import DIVIDED

ROOT = Path(__file__).parents[1]


def test_every_paper_map_symbol_resolves():
    """Each `path.py::symbol` of docs/PAPER_MAP.md names a file (from the
    repo root or from src/repro) and a ``def`` / ``class`` / assignment in
    it, dotted symbols part by part — a rename that forgets the map fails
    here."""
    refs = re.findall(r"`([\w/]+\.py)::([\w.]+)`",
                      (ROOT / "docs" / "PAPER_MAP.md").read_text())
    assert len(refs) >= 30
    missing = []
    for path, symbol in refs:
        file = next((p for p in (ROOT / path, ROOT / "src" / "repro" / path)
                     if p.is_file()), None)
        source = file.read_text() if file else ""
        for part in symbol.split("."):
            if not re.search(rf"^\s*(?:def|class)\s+{part}\b"
                             rf"|^\s*{part}\s*(?::[^=\n]+)?=", source, re.M):
                missing.append(f"{path}::{symbol}")
                break
    assert missing == []


def test_the_documented_fig8_steps_are_the_schedule_data():
    """docs/DOCTOR.md prints ``DIVIDED`` as Fig. 8's numbered steps; the
    block is the data's own repr, not a retyped copy."""
    doc = (ROOT / "docs" / "DOCTOR.md").read_text()
    block = re.search(r"<!-- schedule: DIVIDED -->\n```\n(.*?)```", doc, re.S)
    assert block.group(1) == "".join(
        f"{i}. {step!r}\n" for i, step in enumerate(DIVIDED, 1))
