"""The one clean-tree run of ``repro analyze --dataflow`` that the CLI,
JSON, SARIF and clean-repo tests all read."""
import contextlib
import io
import json

import pytest

from repro.cli import main


@pytest.fixture(scope="session")
def clean_dataflow(tmp_path_factory):
    """``(exit status, JSON report, SARIF document)`` of
    ``repro analyze --dataflow --json --sarif OUT`` on the checked-in tree."""
    sarif = tmp_path_factory.mktemp("dataflow") / "analysis.sarif"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(["analyze", "--dataflow", "--json", "--sarif", str(sarif)])
    return rc, json.loads(out.getvalue()), json.loads(sarif.read_text())
