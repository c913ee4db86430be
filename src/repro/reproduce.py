"""Regenerate the generated blocks of EXPERIMENTS.md.

The document is written by hand; ``python -m repro reproduce`` (or
:func:`generate_experiments_markdown`) owns two kinds of block in it and
leaves every other line alone: the headline table under ``<!-- headline
-->`` (:func:`repro.perf.figures.headline`) and the fenced block under
each ``<!-- report: NAME -->`` marker (``benchmarks/reports/NAME`` as
``pytest benchmarks/ --benchmark-only`` last wrote it).
"""
from __future__ import annotations

import pathlib
import re

from .perf.figures import headline

__all__ = ["MISSING", "generate_experiments_markdown", "write_experiments"]

MISSING = "(report missing — run `pytest benchmarks/ --benchmark-only`)"
_HEADLINE = re.compile(r"(<!-- headline -->\n).*?(\n\n)", re.S)
_REPORT = re.compile(r"(<!-- report: (\S+) -->\n```text\n).*?(\n```\n)", re.S)


def generate_experiments_markdown(
    report_dir: str | pathlib.Path = "benchmarks/reports",
    document: str | pathlib.Path = "EXPERIMENTS.md",
) -> str:
    """``document`` with its generated blocks rebuilt; a marker whose
    report is missing is flagged inline."""
    def report(m: re.Match) -> str:
        path = pathlib.Path(report_dir) / m[2]
        return m[1] + (path.read_text().rstrip() if path.exists()
                       else MISSING) + m[3]

    text = pathlib.Path(document).read_text()
    text = _HEADLINE.sub(lambda m: m[1] + headline() + m[2], text)
    return _REPORT.sub(report, text)


def write_experiments(
    out: str | pathlib.Path = "EXPERIMENTS.md",
    report_dir: str | pathlib.Path = "benchmarks/reports",
) -> pathlib.Path:
    out = pathlib.Path(out)
    out.write_text(generate_experiments_markdown(report_dir))
    return out
