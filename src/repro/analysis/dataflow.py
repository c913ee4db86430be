"""The dataflow pass: stale-halo reads (LINT04) and dead dispatches
(LINT06) found by running (:mod:`repro.analysis.poison`); compiled entries
that drift from their declaration (LINT07) or upcast under
``dtype_policy='preserve'`` (LINT08, the paper's single-precision design
point) found by reading.  Suppression is the shared inline convention
(``# sanitizer: allow[LINTnn] why``) plus a checked-in *baseline* file
(:data:`DEFAULT_BASELINE`); a stale baseline entry is a ``SUPP01`` warning.
"""
from __future__ import annotations

import ast
import inspect
import json
import textwrap
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from .findings import Finding, origin_suppressed

__all__ = [
    "DEFAULT_BASELINE", "BaselineEntry", "load_baseline", "apply_baseline",
    "fusion_findings", "precision_findings", "dataflow_pass",
]

#: the repo's checked-in baseline file (empty suppression list while the
#: tree is clean — the schema is exercised by the tests)
DEFAULT_BASELINE = Path(__file__).resolve().parent / "baseline.json"


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
        if (ref_params is not None and impl_params is not None
                and impl_params != ref_params):
            emit(f"fused impl of '{name}' signature {tuple(impl_params)} "
                 f"does not match the reference {tuple(ref_params)} — "
                 f"callers dispatch by the declared signature")
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
    from ..stencil import load_dycore_specs
    from ..stencil.spec import REGISTRY

    load_dycore_specs()
    return dict(REGISTRY)


def dataflow_pass(
    *, baseline: str | Path | None = None,
) -> tuple[list[Finding], list[Finding]]:
    """Run the full dataflow analysis; returns ``(findings, suppressed)``.

    ``baseline`` is a path to a baseline file (:data:`DEFAULT_BASELINE`
    when None; pass ``"none"`` to disable).  Inline
    ``# sanitizer: allow[...]`` comments are honored first, the baseline
    second.
    """
    from .poison import poison_findings

    raw = poison_findings() + fusion_findings() + precision_findings()

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for f in raw:
        if origin_suppressed(f.file, f.line, f.code):
            suppressed.append(f)
        else:
            findings.append(f)

    if baseline != "none":
        path = DEFAULT_BASELINE if baseline is None else Path(baseline)
        findings, base_supp, stale = apply_baseline(
            findings, load_baseline(path), baseline_path=path)
        suppressed.extend(base_supp)
        findings.extend(stale)
    return findings, suppressed
