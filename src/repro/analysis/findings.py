"""The sanitizer's shared finding/report format.

All passes — racecheck, memcheck, asuca-lint, dataflow, roofline — emit
:class:`Finding` records with a stable code (``RACE01``, ``MEM03``,
``LINT02``, ...), a human message, and a location that is either a
source position (the static passes) or a device/stream/op coordinate
(the dynamic passes).  :class:`Report` aggregates them with text/JSON
rendering, the CI exit-status rule (any unsuppressed *error* finding
fails), and the trace-session bridge (:meth:`Report.to_session`) that
files each finding as an instant on the offending device track.

This module is also the single home of the suppression convention: an
inline ``# sanitizer: allow[CODE] <rationale>`` comment on the flagged
line moves the finding to the report's suppressed list.  Every pass
resolves suppressions through :func:`is_suppressed` /
:func:`origin_suppressed`, and :func:`stale_suppressions` reports
allow-comments whose finding no longer fires (code ``SUPP01``, a
warning) so dead suppressions cannot linger and mask a future
regression at the same line.
"""
from __future__ import annotations

import difflib
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "CODES", "CodeInfo", "Finding", "Report",
    "suppression_comment", "is_suppressed", "origin_suppressed",
    "scan_suppressions", "stale_suppressions", "codes_table",
]


@dataclass(frozen=True)
class CodeInfo:
    """Registry entry for one finding code: its one-line meaning, the
    pass that emits it, and whether that pass is static (source-anchored)
    or dynamic (device-timeline-anchored)."""

    meaning: str
    passname: str
    kind: str  # 'static' | 'dynamic'


#: every code the sanitizer can emit — the table ``repro analyze
#: --list-codes`` prints, so the tool and the docs cannot drift
CODES: dict[str, CodeInfo] = {
    "RACE01": CodeInfo("conflicting accesses with no happens-before edge",
                       "racecheck", "dynamic"),
    "MEM01": CodeInfo("use-after-free of a device array",
                      "memcheck", "dynamic"),
    "MEM02": CodeInfo("double free of a device array",
                      "memcheck", "dynamic"),
    "MEM03": CodeInfo("device array leaked at teardown",
                      "memcheck", "dynamic"),
    "MEM04": CodeInfo("read of a never-written (uninitialized) device array",
                      "memcheck", "dynamic"),
    "MEM05": CodeInfo("allocator capacity drift (accounting mismatch)",
                      "memcheck", "dynamic"),
    "LINT01": CodeInfo("host<->device transfer reachable from inside a "
                       "step loop", "asuca-lint", "static"),
    "LINT02": CodeInfo("launch configuration violates occupancy limits",
                       "asuca-lint", "static"),
    "LINT03": CodeInfo("stencil reads wider than the declared halo",
                       "asuca-lint", "static"),
    "LINT04": CodeInfo("stale-halo read: halo>0 kernel consumes a field "
                       "written since the last exchange on that axis",
                       "dataflow", "static"),
    "LINT05": CodeInfo("read before first write in the step sequence",
                       "dataflow", "static"),
    "LINT06": CodeInfo("dead store: value overwritten before any read",
                       "dataflow", "static"),
    "LINT07": CodeInfo("fused implementation drifts from its "
                       "stencil declaration", "dataflow", "static"),
    "LINT08": CodeInfo("float64 upcast in a dtype-preserving stencil path",
                       "dataflow", "static"),
    "ROOF01": CodeInfo("measured kernel FLOPs diverge from the cost-table "
                       "model", "roofline", "dynamic"),
    "ROOF02": CodeInfo("measured kernel memory traffic diverges from the "
                       "cost-table model", "roofline", "dynamic"),
    "ROOF03": CodeInfo("on-path kernel has no measured counts (not "
                       "instrumented)", "roofline", "dynamic"),
    "SUPP01": CodeInfo("stale suppression: allow-comment with no matching "
                       "finding", "suppressions", "static"),
}


def codes_table() -> str:
    """Render the :data:`CODES` registry as the aligned table
    ``repro analyze --list-codes`` prints."""
    rows = [("code", "pass", "kind", "meaning")]
    rows += [(code, info.passname, info.kind, info.meaning)
             for code, info in CODES.items()]
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, (code, passname, kind, meaning) in enumerate(rows):
        lines.append(f"{code:<{widths[0]}}  {passname:<{widths[1]}}  "
                     f"{kind:<{widths[2]}}  {meaning}")
        if i == 0:
            lines.append("  ".join("-" * w for w in widths + [7]))
    return "\n".join(lines)


@dataclass
class Finding:
    """One sanitizer finding, in the format shared by all passes."""

    code: str
    message: str
    severity: str = "error"
    # ---- static (lint/dataflow) location
    file: str | None = None
    line: int | None = None
    # ---- dynamic (racecheck/memcheck) location
    device: str | None = None     #: device label, e.g. 'rank2'
    stream: int | None = None     #: stream id of the (first) offending op
    op: str | None = None         #: offending op name
    op_other: str | None = None   #: second op of a racing pair
    buffer: str | None = None     #: memory region involved
    t0: float | None = None       #: virtual time of the offending op
    #: identical hazards collapsed into this finding (e.g. the same racing
    #: op pair recurring every acoustic substep)
    occurrences: int = 1
    suggestion: str = ""

    def __post_init__(self):
        if self.code not in CODES:
            near = difflib.get_close_matches(self.code, CODES, n=1)
            hint = f" — did you mean {near[0]!r}?" if near else ""
            raise ValueError(f"unknown finding code {self.code!r}{hint}")

    @property
    def location(self) -> str:
        if self.file is not None:
            return f"{self.file}:{self.line}"
        parts = []
        if self.device is not None:
            parts.append(self.device)
        if self.stream is not None:
            parts.append(f"stream{self.stream}")
        if self.op is not None:
            parts.append(self.op)
        if self.op_other is not None:
            parts.append(f"vs {self.op_other}")
        return " ".join(parts) if parts else "(global)"

    def text(self) -> str:
        s = f"{self.code} [{self.severity}] {self.location}: {self.message}"
        if self.buffer:
            s += f" (buffer {self.buffer})"
        if self.occurrences > 1:
            s += f" [x{self.occurrences}]"
        if self.suggestion:
            s += f"\n    hint: {self.suggestion}"
        return s

    def as_dict(self) -> dict[str, Any]:
        d = {"code": self.code, "severity": self.severity,
             "message": self.message, "location": self.location,
             "occurrences": self.occurrences}
        for k in ("file", "line", "device", "stream", "op", "op_other",
                  "buffer", "t0", "suggestion"):
            v = getattr(self, k)
            if v not in (None, ""):
                d[k] = v
        return d


# ------------------------------------------------------------ suppression
#: accepted inline suppression: ``# sanitizer: allow[CODE] <rationale>``
_SUPPRESS_RE = re.compile(r"sanitizer:\s*allow\[([A-Z]+\d+)\]")


def is_suppressed(source_lines: list[str], lineno: int, code: str) -> bool:
    """True when line ``lineno`` (1-based) carries an allow-comment for
    ``code`` — the one suppression rule every pass shares."""
    if 1 <= lineno <= len(source_lines):
        return f"sanitizer: allow[{code}]" in source_lines[lineno - 1]
    return False


def origin_suppressed(file: str | Path | None, lineno: int | None,
                      code: str) -> bool:
    """:func:`is_suppressed` against a file on disk (OSError-safe), for
    passes whose findings anchor at an origin rather than parsed text."""
    if file is None or not lineno:
        return False
    try:
        lines = Path(file).read_text().splitlines()
    except OSError:
        return False
    return is_suppressed(lines, lineno, code)


def scan_suppressions(path: str | Path) -> list[tuple[int, str]]:
    """All ``(lineno, code)`` allow-comments in one source file.

    Tokenizes rather than greps, so a docstring that *mentions* the
    comment syntax (as this module's own docs do) is not mistaken for a
    suppression."""
    try:
        text = Path(path).read_text()
    except OSError:
        return []
    out: list[tuple[int, str]] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(text).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            for m in _SUPPRESS_RE.finditer(tok.string):
                out.append((tok.start[0], m.group(1)))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # unparsable file: fall back to the greedy line scan
        for i, line in enumerate(text.splitlines(), start=1):
            for m in _SUPPRESS_RE.finditer(line):
                out.append((i, m.group(1)))
    return out


def stale_suppressions(
    roots: Iterable[str | Path],
    report: "Report",
    ran_codes: set[str],
) -> list[Finding]:
    """``SUPP01`` warnings for allow-comments that suppress nothing.

    Scans every ``*.py`` under ``roots`` for allow-comments whose code is
    in ``ran_codes`` (codes whose pass actually executed — a comment for
    a pass that did not run is not provably stale) and that match no
    finding, suppressed or live, at the same file:line.
    """
    matched = {(f.file, f.line, f.code)
               for f in [*report.findings, *report.suppressed]
               if f.file is not None}
    out: list[Finding] = []
    for root in roots:
        root = Path(root)
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        for path in files:
            for lineno, code in scan_suppressions(path):
                if code not in ran_codes:
                    continue
                if (str(path), lineno, code) in matched:
                    continue
                out.append(Finding(
                    code="SUPP01", severity="warning",
                    message=(f"suppression for {code} matches no finding "
                             f"— the allow-comment is stale"),
                    file=str(path), line=lineno,
                    suggestion="delete the comment (or re-run the pass "
                               "that emits it)",
                ))
    return out


@dataclass
class Report:
    """The combined result of one ``repro analyze`` invocation."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    #: pass names that ran, in order (e.g. ['asuca-lint', 'racecheck'])
    passes: list[str] = field(default_factory=list)
    #: conservative-assumption notes from the dataflow step-graph walker
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No *error* findings (warnings — e.g. ``SUPP01`` — do not gate)."""
        return not any(f.severity == "error" for f in self.findings)

    def extend(self, findings, *, passname: str | None = None) -> "Report":
        self.findings.extend(findings)
        if passname and passname not in self.passes:
            self.passes.append(passname)
        return self

    def exit_status(self) -> int:
        return 0 if self.ok else 1

    def text(self) -> str:
        lines = []
        for f in self.findings:
            lines.append(f.text())
        lines.append(
            f"{len(self.findings)} finding(s), {len(self.suppressed)} "
            f"suppressed — passes: {', '.join(self.passes) or '(none)'}")
        return "\n".join(lines)

    def as_json(self, indent: int | None = 2) -> str:
        return json.dumps({
            "passes": self.passes,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "notes": self.notes,
            "ok": self.ok,
        }, indent=indent)

    # ------------------------------------------------------ obs bridge
    def to_session(self, session) -> int:
        """File each finding as an instant record on the active
        :class:`~repro.obs.trace.TraceSession` — dynamic findings land on
        the offending device/stream track at the op's virtual timestamp,
        static findings on the host track.  Returns the number filed."""
        for f in self.findings:
            session.record_instant(
                f"finding:{f.code}",
                ts=f.t0 if f.t0 is not None else 0.0,
                pid=f.device or "host",
                tid=(f"stream{f.stream}" if f.stream is not None else "main"),
                cat="finding",
                args=f.as_dict(),
            )
        return len(self.findings)
