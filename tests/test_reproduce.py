"""EXPERIMENTS.md and README.md against their generators: the documented
``python -m repro reproduce`` must reproduce the checked-in document, and
the three copies of the headline table must be one rendering."""
import pathlib

from repro.perf.figures import headline
from repro.reproduce import MISSING, generate_experiments_markdown

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCUMENT = ROOT / "EXPERIMENTS.md"


def test_regenerating_from_the_checked_in_reports_is_a_fixed_point():
    """Fails when a hand-written record lives only in the generator (or
    only in the document), or a checked-in report was edited by hand."""
    text = generate_experiments_markdown(ROOT / "benchmarks" / "reports",
                                         DOCUMENT)
    assert MISSING not in text
    assert text == DOCUMENT.read_text()


def test_headline_table_is_computed_in_both_documents():
    table = headline()
    assert table.count("\n") == 16          # header, rule, 15 rows
    assert f"<!-- headline -->\n{table}\n\n" in DOCUMENT.read_text()
    assert f"\n{table}\n\n" in (ROOT / "README.md").read_text()
