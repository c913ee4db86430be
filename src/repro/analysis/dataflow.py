"""Whole-program dataflow passes over the step graph (LINT04–LINT08).

The step graph (:mod:`repro.analysis.stepgraph`) linearizes one model
step — kernel invocations, halo exchanges, and the derivations between
them — trusting the ``@stencil`` declarations for per-kernel reads,
writes, and halo widths.  Five passes interpret that sequence:

* ``LINT04`` **stale-halo read** — simulate per-axis halo staleness
  through the step: an interior write (kernel, physics, subscript store)
  dirties a field's halos on both topology axes; an exchange cleans the
  axes it covers; a ``halo > 0`` kernel that then reads a still-dirty
  field (directly or through a derived temporary) consumes a neighbor's
  stale cells.  The sequence is simulated twice so staleness that
  survives a whole step is caught at the *next* step's first reader —
  the cyclic case a one-pass scan misses.
* ``LINT05`` **read before first write** — a local consumed before any
  binding on the walked path (collected during graph construction).
* ``LINT06`` **dead store** — a killing definition (full rebind) whose
  value is overwritten, on an always-reached branch, before any read.
* ``LINT07`` **fusion legality** — every ``register_fused``
  implementation must match its declaration: the reference signature
  plus the leading ``plans``, and no stores into read-only roles.
* ``LINT08`` **precision flow** — under ``dtype_policy='preserve'``
  (the paper's single-precision design point, Sec. IV) neither the
  reference kernel nor an unguarded backend implementation may upcast:
  float64 allocations, ``dtype=np.float64``, ``.astype(np.float64)``.

Suppression is the shared inline convention
(``# sanitizer: allow[LINTnn] why``) plus a checked-in *baseline* file
(:data:`DEFAULT_BASELINE`) for findings that cannot carry an inline
comment; stale baseline entries are reported as ``SUPP01`` warnings.
"""
from __future__ import annotations

import ast
import inspect
import json
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .findings import Finding, origin_suppressed
from .stepgraph import (
    PROGNOSTIC_FIELDS,
    Node,
    StepGraph,
    build_step_graph,
)

__all__ = [
    "DEFAULT_BASELINE", "BaselineEntry", "load_baseline", "apply_baseline",
    "stale_halo_findings", "read_before_write_findings",
    "dead_store_findings", "fusion_findings", "precision_findings",
    "dataflow_pass",
]

#: the repo's checked-in baseline file (empty suppression list while the
#: tree is clean — the schema is exercised by the tests)
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"

_AXIS_NAMES = {0: "x", 1: "y"}


def _axis_label(axes: Iterable[int]) -> str:
    return "/".join(_AXIS_NAMES.get(a, str(a)) for a in sorted(axes))


def _is_field(name: str) -> bool:
    """Tokens are scoped (``fn#3:x``); bare names are state fields."""
    return ":" not in name


# ------------------------------------------------------------------ LINT04
def stale_halo_findings(graph: StepGraph) -> list[Finding]:
    """Per-axis stale-halo simulation over the doubled step sequence."""
    nodes = graph.nodes
    doubled = list(nodes) + list(nodes)
    stale: dict[str, set[int]] = {}
    writer: dict[str, tuple[str, int]] = {}
    seen: set[tuple[str, int, str]] = set()
    findings: list[Finding] = []

    for i, node in enumerate(doubled):
        steady = i >= len(nodes)
        if node.kind == "exchange":
            covered = (node.exch_fields if node.exch_fields is not None
                       else tuple(PROGNOSTIC_FIELDS))
            for f in covered:
                axes = stale.get(f)
                if axes:
                    axes.difference_update(node.axes)
            continue
        # reads are consumed before this node's writes land
        if node.halo > 0:
            for name in sorted(node.reads | node.fields):
                axes = stale.get(name)
                if not axes:
                    continue
                if not steady:
                    continue  # warm-up pass: only establish steady state
                display = name.split(":")[-1]
                key = (node.file, node.line, display)
                if key in seen:
                    continue
                seen.add(key)
                src = writer.get(name)
                where = f" (written at {src[0]}:{src[1]})" if src else ""
                findings.append(Finding(
                    code="LINT04",
                    message=(f"kernel '{node.name}' (halo {node.halo}) "
                             f"reads '{display}' whose "
                             f"{_axis_label(axes)}-axis halos are stale"
                             f"{where} — no exchange since the last "
                             f"interior write"),
                    file=node.file, line=node.line,
                    suggestion="exchange the field (on the stale axes) "
                               "before this kernel, or declare halo=0 if "
                               "the kernel is pointwise",
                ))
        # taint: a derived value inherits the staleness of its inputs
        taint: set[int] = set()
        for r in node.reads | node.fields:
            taint |= stale.get(r, set())
        for w in node.writes:
            if _is_field(w):
                stale[w] = {0, 1}  # interior write dirties both axes
                writer[w] = (node.file, node.line)
            else:
                stale[w] = set(taint)
                if taint:
                    writer[w] = (node.file, node.line)
    return findings


# ------------------------------------------------------------------ LINT05
def read_before_write_findings(graph: StepGraph) -> list[Finding]:
    findings = []
    for name, file, line in graph.use_before_def:
        findings.append(Finding(
            code="LINT05",
            message=(f"'{name}' is read before any write on the step "
                     f"path — at step entry its value is undefined"),
            file=file, line=line,
            suggestion="initialize the value before the step loop or "
                       "define it earlier in the sequence",
        ))
    return findings


# ------------------------------------------------------------------ LINT06
def _always_reaches(killer: Node, definition: Node) -> bool:
    """True when the killer executes whenever the definition does: its
    branch context is a prefix of the definition's."""
    kb, db = killer.branch, definition.branch
    return kb == db[:len(kb)]


def _live_via_backedge(node: Node, token: str,
                       nodes: list[Node]) -> bool:
    """A definition inside a loop body is live when any node of the same
    loop reads it — the walker unrolls loops once, so a loop-carried
    value's consumer appears *earlier* in the linearized body."""
    prefixes = [node.branch[:i + 1]
                for i, seg in enumerate(node.branch)
                if seg.startswith("loop@")]
    if not prefixes:
        return False
    for other in nodes:
        if token not in other.reads:
            continue
        for p in prefixes:
            if other.branch[:len(p)] == p:
                return True
    return False


def dead_store_findings(graph: StepGraph) -> list[Finding]:
    nodes = graph.nodes
    doubled = list(nodes) + list(nodes)
    seen: set[tuple[str, int, str]] = set()
    findings: list[Finding] = []
    for i, node in enumerate(nodes):
        for t in sorted(node.kills & node.writes):
            verdict: tuple[str, int] | None = None
            for later in doubled[i + 1:]:
                if t in later.reads:
                    break
                if t in later.kills and _always_reaches(later, node):
                    verdict = (later.file, later.line)
                    break
            else:
                continue  # never overwritten: not a dead store
            if verdict is None:
                continue
            if _live_via_backedge(node, t, nodes):
                continue
            display = t.split(":")[-1]
            key = (node.file, node.line, display)
            if key in seen:
                continue
            seen.add(key)
            findings.append(Finding(
                code="LINT06",
                message=(f"dead store: '{display}' written here is "
                         f"overwritten at {verdict[0]}:{verdict[1]} "
                         f"before any read"),
                file=node.file, line=node.line,
                suggestion="drop the first write, or read it before the "
                           "overwrite if the value was meant to be used",
            ))
    return findings


# ------------------------------------------------------------------ LINT07
def _impl_location(fn: Callable[..., Any]) -> tuple[str, int]:
    code = getattr(fn, "__code__", None)
    if code is not None:
        return code.co_filename, code.co_firstlineno
    return "<unknown>", 0


def _impl_params(fn: Callable[..., Any]) -> list[str] | None:
    try:
        return list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None


def _impl_tree(fn: Callable[..., Any]) -> tuple[ast.AST, str, int] | None:
    """Parsed body of an implementation, with line numbers rebased to
    the source file."""
    try:
        src = textwrap.dedent(inspect.getsource(fn))
        file = inspect.getsourcefile(fn) or "<unknown>"
        first = fn.__code__.co_firstlineno
    except (OSError, TypeError, AttributeError):
        return None
    tree = ast.parse(src)
    ast.increment_lineno(tree, first - 1)
    return tree, file, first


def _reference_of(entry: Any) -> Callable[..., Any] | None:
    return getattr(entry, "reference", None)


def _spec_of(entry: Any) -> Any:
    return getattr(entry, "spec", entry)


def _stored_names(tree: ast.AST) -> dict[str, int]:
    """Names stored into via subscript/augmented assignment → first line."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        tgt = None
        if isinstance(node, ast.Assign):
            for t in node.targets:
                if isinstance(t, ast.Subscript):
                    tgt = t
        elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, (ast.Subscript, ast.Name)):
            tgt = node.target
        if tgt is None:
            continue
        base = tgt.value if isinstance(tgt, ast.Subscript) else tgt
        if isinstance(base, ast.Name) and base.id not in out:
            out[base.id] = node.lineno
    return out


def fusion_findings(
    specs: Mapping[str, Any] | None = None,
    fused: Mapping[str, Callable[..., Any]] | None = None,
) -> list[Finding]:
    """LINT07 over the registered fused implementations."""
    if specs is None:
        specs = _registry()
    if fused is None:
        from ..stencil.spec import FUSED_IMPLS
        fused = dict(FUSED_IMPLS)

    findings: list[Finding] = []
    for name, impl in sorted(fused.items()):
        file, line = _impl_location(impl)

        def emit(message: str, *, at: int | None = None,
                 suggestion: str = "") -> None:
            findings.append(Finding(
                code="LINT07", message=message, file=file,
                line=at if at is not None else line,
                suggestion=suggestion or
                "make the implementation match the @stencil "
                "declaration (the spec is the source of truth)",
            ))

        entry = specs.get(name)
        if entry is None:
            emit(f"fused impl registered for '{name}' but no "
                 f"@stencil declaration exists under that name")
            continue
        spec = _spec_of(entry)
        ref = _reference_of(entry)
        ref_params = _impl_params(ref) if ref is not None else None
        impl_params = _impl_params(impl)
        if ref_params is not None and impl_params is not None:
            expected = ["plans"] + ref_params
            if not impl_params or impl_params[0] != "plans":
                emit(f"fused impl of '{name}' must take the plan "
                     f"cache as its first parameter "
                     f"(got {tuple(impl_params)})")
            elif impl_params != expected:
                emit(f"fused impl of '{name}' signature "
                     f"{tuple(impl_params)} does not match the "
                     f"reference {tuple(expected)} — callers "
                     f"dispatch by the declared signature")
        parsed = _impl_tree(impl)
        if parsed is None:
            continue
        tree, file, _ = parsed
        read_only = [r for r in spec.reads if r not in spec.writes]
        stored = _stored_names(tree)
        for role in read_only:
            if role in stored and impl_params and role in impl_params:
                emit(f"fused impl of '{name}' writes into "
                     f"'{role}', declared read-only by its spec",
                     at=stored[role])
    return findings


# ------------------------------------------------------------------ LINT08
_ALLOC_DEFAULT_F64 = {"zeros", "ones", "empty", "full"}
_NP_MODULES = {"np", "numpy"}


def _is_float64(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Attribute) and expr.attr == "float64":
        return True
    if isinstance(expr, ast.Name) and expr.id == "float64":
        return True
    if isinstance(expr, ast.Constant) and expr.value == "float64":
        return True
    return False


def _guarded(tree: ast.AST) -> bool:
    """True for impls that return NotImplemented somewhere — their
    dtype gate falls back to the reference for non-native dtypes, so a
    float64 constant inside is behind an explicit opt-in."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Return)
                and isinstance(node.value, ast.Constant)
                and node.value.value is NotImplemented):
            return True
        if (isinstance(node, ast.Return)
                and isinstance(node.value, ast.Name)
                and node.value.id == "NotImplemented"):
            return True
    return False


def _precision_violations(tree: ast.AST) -> list[tuple[int, str]]:
    out: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in _NP_MODULES):
            if func.attr in _ALLOC_DEFAULT_F64:
                if not any(kw.arg == "dtype" for kw in node.keywords):
                    out.append((node.lineno,
                                f"np.{func.attr}(...) without dtype= "
                                f"allocates float64"))
            if func.attr == "float64":
                out.append((node.lineno, "np.float64(...) cast"))
        if isinstance(func, ast.Attribute) and func.attr == "astype":
            if any(_is_float64(a) for a in node.args):
                out.append((node.lineno, ".astype(np.float64)"))
        for kw in node.keywords:
            if kw.arg == "dtype" and _is_float64(kw.value):
                out.append((node.lineno, "dtype=np.float64"))
    return out


def precision_findings(
    specs: Mapping[str, Any] | None = None,
    fused: Mapping[str, Callable[..., Any]] | None = None,
) -> list[Finding]:
    """LINT08 over reference kernels and unguarded fused impls of
    every ``dtype_policy='preserve'`` spec."""
    if specs is None:
        specs = _registry()
    if fused is None:
        from ..stencil.spec import FUSED_IMPLS
        fused = dict(FUSED_IMPLS)

    findings: list[Finding] = []
    seen: set[tuple[str, int]] = set()
    for name, entry in sorted(specs.items()):
        spec = _spec_of(entry)
        if getattr(spec, "dtype_policy", "preserve") != "preserve":
            continue
        bodies: list[tuple[str, Callable[..., Any]]] = []
        ref = _reference_of(entry)
        if ref is not None:
            bodies.append(("reference", ref))
        if name in fused:
            bodies.append(("fused impl", fused[name]))
        for label, fn in bodies:
            parsed = _impl_tree(fn)
            if parsed is None:
                continue
            tree, file, _ = parsed
            if label != "reference" and _guarded(tree):
                continue  # dtype-gated: float64 args never reach it
            for lineno, what in _precision_violations(tree):
                key = (file, lineno)
                if key in seen:
                    continue
                seen.add(key)
                findings.append(Finding(
                    code="LINT08",
                    message=(f"{what} in the {label} of '{name}' — the "
                             f"spec declares dtype_policy='preserve' "
                             f"(the paper's single-precision design "
                             f"point)"),
                    file=file, line=lineno,
                    suggestion="derive the dtype from an input array "
                               "(x.dtype), or declare "
                               "dtype_policy='widen' if the upcast is "
                               "intentional",
                ))
    return findings


# ----------------------------------------------------------------- baseline
@dataclass(frozen=True)
class BaselineEntry:
    """One accepted finding in the checked-in baseline file."""

    code: str
    file: str            #: path suffix the finding's file must end with
    reason: str
    contains: str = ""   #: optional message substring

    def matches(self, f: Finding) -> bool:
        return (f.code == self.code
                and f.file is not None and f.file.endswith(self.file)
                and (not self.contains or self.contains in f.message))


def load_baseline(path: str | Path) -> list[BaselineEntry]:
    data = json.loads(Path(path).read_text())
    if data.get("version") != 1:
        raise ValueError(f"baseline {path}: unsupported version "
                         f"{data.get('version')!r}")
    entries = []
    for raw in data.get("suppressions", []):
        entries.append(BaselineEntry(
            code=raw["code"], file=raw["file"],
            reason=raw.get("reason", ""),
            contains=raw.get("contains", "")))
    return entries


def apply_baseline(
    findings: list[Finding], entries: list[BaselineEntry], *,
    baseline_path: str | Path | None = None,
) -> tuple[list[Finding], list[Finding], list[Finding]]:
    """Split ``findings`` into (kept, baseline-suppressed, stale-entry
    warnings).  Entries that match nothing produce ``SUPP01`` warnings
    anchored at the baseline file."""
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    used: set[int] = set()
    for f in findings:
        hit = next((i for i, e in enumerate(entries) if e.matches(f)),
                   None)
        if hit is None:
            kept.append(f)
        else:
            used.add(hit)
            # tag the provenance so the SARIF export can mark this as
            # an 'external' suppression (vs an in-source allow-comment)
            f._suppressed_via = "baseline"
            suppressed.append(f)
    stale: list[Finding] = []
    for i, e in enumerate(entries):
        if i in used:
            continue
        stale.append(Finding(
            code="SUPP01", severity="warning",
            message=(f"baseline entry ({e.code}, {e.file!r}) matches no "
                     f"finding — the suppression is stale"),
            file=str(baseline_path) if baseline_path else None,
            line=0,
            suggestion="remove the entry from the baseline file",
        ))
    return kept, suppressed, stale


# --------------------------------------------------------------- the pass
def _registry() -> dict[str, Any]:
    from .stepgraph import _default_registry

    return _default_registry()


def graph_findings(graph: StepGraph) -> list[Finding]:
    """All per-graph passes (LINT04/05/06) on one step graph."""
    return (stale_halo_findings(graph)
            + read_before_write_findings(graph)
            + dead_store_findings(graph))


def dataflow_pass(
    *,
    registry: Mapping[str, Any] | None = None,
    baseline: str | Path | None = None,
) -> tuple[list[Finding], list[Finding], list[str]]:
    """Run the full dataflow analysis; returns
    ``(findings, suppressed, notes)``.

    The graph passes run over the decomposed driver's step graph: both
    drivers resume the same long-step body, and the single-domain one
    only adds a fill to it, so whatever is stale there is stale here.

    ``baseline`` is a path to the checked-in baseline file
    (:data:`DEFAULT_BASELINE` when None; pass ``"none"`` to disable).
    Inline ``# sanitizer: allow[...]`` comments are honored first, the
    baseline second.
    """
    graph = build_step_graph("multigpu", registry=registry)
    notes = list(graph.notes)
    raw = (graph_findings(graph) + fusion_findings(specs=registry)
           + precision_findings(specs=registry))

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for f in raw:
        if origin_suppressed(f.file, f.line, f.code):
            suppressed.append(f)
        else:
            findings.append(f)

    if baseline != "none":
        path = DEFAULT_BASELINE if baseline is None else Path(baseline)
        if Path(path).exists():
            entries_ = load_baseline(path)
            findings, base_supp, stale = apply_baseline(
                findings, entries_, baseline_path=path)
            suppressed.extend(base_supp)
            findings.extend(stale)
    return findings, suppressed, notes
