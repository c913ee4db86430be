"""asuca-lint: static checks of the repo's GPU invariants.

Three rules, each guarding a claim the paper's speedup rests on:

* ``LINT01`` — **the full-GPU invariant** (Sec. III: "the entire time
  loop runs on the GPU").  No ``copy_to_host``/``copy_from_host`` call
  may be reachable from inside a step loop: flagged when a transfer (or a
  same-module helper that directly transfers) is called anywhere inside a
  function named ``step``/``_step_once``, or inside a ``for``/``while``
  loop of a function named ``run``/``advance``.  Call resolution is one
  level deep and by name within the module — deliberately simple, static,
  and documented; checkpoint/halo paths are allowlisted by function-name
  pattern, and anything else justified carries an inline suppression.

* ``LINT02`` — **launch configurations** must respect the GT200
  occupancy rules the paper's (64, 4, 1) blocks were chosen under: every
  launch the kernel table declares
  (:data:`~repro.gpu.asuca_kernels.KERNEL_TABLE`) must fit the per-SM
  thread limit and keep >= 50% occupancy (the era's latency-hiding
  threshold, :mod:`repro.gpu.occupancy`).  Findings anchor at the
  ``@stencil`` declaration (``spec.origin``) the way LINT03's do.

* ``LINT03`` — **stencil widths**: every ``@stencil`` declaration in
  ``core/``/``physics/`` must fit the grid's halo budget, and the
  declared width must be *true*: the probe harness
  (:mod:`repro.stencil.verify`) perturbs halo rings beyond the declared
  width and asserts the kernel's interior output is invariant.  A kernel
  that reads farther than it declares would read a neighbor rank's
  unexchanged cells in a distributed run.  (This replaces the old
  AST slice-offset guess — the declaration is now the source of truth,
  and the check runs the kernel instead of pattern-matching its source.)

Suppression: an inline ``# sanitizer: allow[CODE] <rationale>`` comment
on the flagged line (for LINT02/LINT03: the ``@stencil`` declaration
line) moves the finding to the report's suppressed list.
"""
from __future__ import annotations

import ast
from pathlib import Path

from ..gpu.occupancy import GT200_LIMITS, SMLimits, occupancy
from .findings import Finding, is_suppressed, origin_suppressed

__all__ = ["lint_paths", "lint_launches", "lint_stencils", "declared_halo"]

#: transfer methods the full-GPU invariant forbids inside step loops
TRANSFER_NAMES = frozenset({"copy_to_host", "copy_from_host"})
#: functions whose whole body counts as "inside the time loop"
STEP_BODY_FUNCS = frozenset({"step", "_step_once"})
#: functions whose for/while loops count as the time loop
STEP_LOOP_FUNCS = frozenset({"run", "advance"})
#: function-name substrings exempt from LINT01 (restart/halo machinery
#: legitimately transfers at its own accounted points)
ALLOW_NAME_PATTERNS = ("checkpoint", "halo", "restore", "recover")


def declared_halo() -> int:
    """The grid's declared halo width (the default of
    :func:`repro.core.grid.make_grid`) — the budget LINT03 checks
    stencil slices against."""
    import inspect

    from ..core.grid import make_grid

    return int(inspect.signature(make_grid).parameters["halo"].default)


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_allowed_name(name: str) -> bool:
    low = name.lower()
    return any(p in low for p in ALLOW_NAME_PATTERNS)


class _ModuleLint:
    def __init__(self, path: Path, display: str, tree: ast.Module,
                 source_lines: list[str]):
        self.path = path
        self.display = display
        self.tree = tree
        self.lines = source_lines
        self.findings: list[Finding] = []
        self.suppressed: list[Finding] = []
        #: function name -> does any same-name function here transfer?
        self.transfers_in: dict[str, bool] = {}

    # -------------------------------------------------------- helpers
    def _emit(self, finding: Finding) -> None:
        if is_suppressed(self.lines, finding.line or 0, finding.code):
            self.suppressed.append(finding)
        else:
            self.findings.append(finding)

    def _functions(self):
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _direct_transfer_calls(fn: ast.AST) -> list[ast.Call]:
        return [n for n in ast.walk(fn)
                if isinstance(n, ast.Call) and _call_name(n) in TRANSFER_NAMES]

    # ---------------------------------------------------------- LINT01
    def check_step_transfers(self) -> None:
        for fn in self._functions():
            self.transfers_in[fn.name] = (
                self.transfers_in.get(fn.name, False)
                or bool(self._direct_transfer_calls(fn)))

        for fn in self._functions():
            if fn.name in STEP_BODY_FUNCS:
                regions = [fn]
            elif fn.name in STEP_LOOP_FUNCS:
                regions = [n for n in ast.walk(fn)
                           if isinstance(n, (ast.For, ast.While))]
            else:
                continue
            if _is_allowed_name(fn.name):
                continue
            for region in regions:
                for call in ast.walk(region):
                    if not isinstance(call, ast.Call):
                        continue
                    name = _call_name(call)
                    if name is None:
                        continue
                    direct = name in TRANSFER_NAMES
                    via = (not direct and self.transfers_in.get(name, False)
                           and not _is_allowed_name(name))
                    if not (direct or via):
                        continue
                    what = (f"'{name}' transfers host<->device" if direct
                            else f"'{name}' (which transfers host<->device)")
                    self._emit(Finding(
                        code="LINT01",
                        message=(f"{what} inside the step loop of "
                                 f"'{fn.name}' — the full-GPU invariant "
                                 f"keeps PCIe traffic out of the time loop"),
                        file=self.display, line=call.lineno,
                        suggestion="hoist the transfer out of the loop, or "
                                   "suppress with '# sanitizer: "
                                   "allow[LINT01] <why>' if this is an "
                                   "accounted checkpoint/halo path",
                    ))


def lint_paths(root: str | Path) -> tuple[list[Finding], list[Finding]]:
    """AST lint (LINT01) over every ``*.py`` under ``root`` (or the single
    file ``root``); returns ``(findings, suppressed)``.  The launch and
    stencil-width checks are :func:`lint_launches` and
    :func:`lint_stencils` — they read declarations, not the AST."""
    root = Path(root)
    files = [root] if root.is_file() else sorted(root.rglob("*.py"))
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for path in files:
        display = str(path)
        text = path.read_text()
        tree = ast.parse(text, filename=display)
        mod = _ModuleLint(path, display, tree, text.splitlines())
        mod.check_step_transfers()
        findings.extend(mod.findings)
        suppressed.extend(mod.suppressed)
    return findings, suppressed


# -------------------------------------------------------------------- LINT02
def lint_launches(
    table: dict | None = None, *, limits: SMLimits = GT200_LIMITS,
) -> tuple[list[Finding], list[Finding]]:
    """LINT02 over the launches of the kernel table (default
    :data:`~repro.gpu.asuca_kernels.KERNEL_TABLE`); returns
    ``(findings, suppressed)``.

    A spec-backed entry launches with the block its ``@stencil``
    declares and its finding anchors there (``spec.origin``), where an
    inline ``# sanitizer: allow[LINT02]`` comment suppresses; a cost-only
    entry launches with the default
    :class:`~repro.gpu.kernel.LaunchConfig` block and anchors at that
    class.
    """
    import inspect

    from ..gpu.asuca_kernels import KERNEL_TABLE
    from ..gpu.kernel import LaunchConfig

    default_origin = (inspect.getsourcefile(LaunchConfig),
                      inspect.getsourcelines(LaunchConfig)[1])
    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for name, decl in (KERNEL_TABLE if table is None else table).items():
        spec = decl.spec
        block = spec.launch if spec else LaunchConfig().block
        origin = spec.origin if spec and spec.origin else default_origin
        threads = block[0] * block[1] * block[2]
        occ = (occupancy(threads, limits=limits)
               if 1 <= threads <= limits.max_threads else None)
        if occ is not None and occ.latency_hiding_ok:
            continue
        detail = (f"{threads} threads/block exceeds the {limits.name} "
                  f"limit of {limits.max_threads}" if occ is None else
                  f"block of {threads} threads reaches only "
                  f"{occ.occupancy:.0%} occupancy (limited by "
                  f"{occ.limiter}; >= 50% needed to hide memory latency)")
        finding = Finding(
            code="LINT02",
            message=f"kernel '{name}' launches block={tuple(block)}: {detail}",
            file=origin[0], line=origin[1],
            suggestion="declare a block geometry validated by "
                       "repro.gpu.occupancy (e.g. the paper's (64, 4, 1))",
        )
        if origin_suppressed(origin[0], origin[1], "LINT02"):
            suppressed.append(finding)
        else:
            findings.append(finding)
    return findings, suppressed


# -------------------------------------------------------------------- LINT03
def lint_stencils(
    *, halo: int | None = None, seed: int = 0,
) -> tuple[list[Finding], list[Finding]]:
    """LINT03 over the stencil declarations; returns
    ``(findings, suppressed)``.

    Two checks per registered :class:`~repro.stencil.spec.StencilSpec`:

    * the declared halo must fit the grid's halo budget
      (:func:`declared_halo`), and
    * the declaration must be honest — the probe harness perturbs every
      halo ring beyond the declared width and the kernel's interior
      output must not change (:func:`repro.stencil.verify.probe_spec`).

    Findings anchor at the ``@stencil`` declaration (``spec.origin``),
    where an inline ``# sanitizer: allow[LINT03]`` comment suppresses.
    """
    from ..stencil import load_dycore_specs
    from ..stencil.verify import probe_all

    budget = declared_halo() if halo is None else halo
    findings: list[Finding] = []
    suppressed: list[Finding] = []

    def emit(finding: Finding, origin: tuple[str, int]) -> None:
        if origin_suppressed(origin[0], origin[1], "LINT03"):
            suppressed.append(finding)
        else:
            findings.append(finding)

    specs = load_dycore_specs()
    for name, spec in sorted(specs.items()):
        origin = spec.origin or ("<unknown>", 0)
        if spec.halo > budget:
            emit(Finding(
                code="LINT03",
                message=(f"stencil '{name}' declares halo {spec.halo}, "
                         f"wider than the grid's halo budget {budget} — "
                         f"the exchange cannot satisfy it"),
                file=origin[0], line=origin[1],
                suggestion="narrow the stencil or raise the grid halo",
            ), origin)
    for result in probe_all(seed=seed):
        if result.probed and not result.clean:
            spec = specs.get(result.name)
            origin = (spec.origin if spec and spec.origin
                      else ("<unknown>", 0))
            emit(Finding(
                code="LINT03",
                message=(f"stencil '{result.name}' declares halo "
                         f"{result.declared_halo} but reads farther: "
                         f"{result.detail}"),
                file=origin[0], line=origin[1],
                suggestion="raise the declared halo to the width the "
                           "kernel actually reads (and check the halo "
                           "exchange covers it)",
            ), origin)
    return findings, suppressed
