"""docs/REACH.md cannot dangle.

The map says, for every top-level def of ``src/repro``, whether the
products reach it, only the tests, or nothing; ``tools/reach.py`` writes
it by running them.  These checks read the source's AST and the map
only: every def the map names exists, and every def it keeps without a
product reaching it names one of the fixed reasons.
"""
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("reach",
                                               ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_every_def_in_the_map_exists():
    rows = reach.read_map()
    assert len(rows) > 500, "docs/REACH.md has no def rows"
    missing = sorted(set(rows) - set(reach.top_level_defs()))
    assert missing == [], f"the map names defs src/repro lacks: {missing}"


def test_every_kept_def_no_product_reaches_names_its_reason():
    unreasoned = [(name, cls, reason)
                  for name, (_, cls, reason) in reach.read_map().items()
                  if cls != "products"
                  and reach.reason_code(reason) not in reach.REASONS]
    assert unreasoned == [], unreasoned

