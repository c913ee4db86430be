"""Unit tests of the asuca-lint pass: the AST rule (LINT01), the
declaration-driven launch check (LINT02) and stencil halo check (LINT03),
and the run over the repo."""
import dataclasses
import textwrap
from pathlib import Path

from repro.analysis import lint_launches, lint_paths, lint_stencils
from repro.gpu.asuca_kernels import KERNEL_TABLE

REPO_SRC = Path(__file__).parents[2] / "src" / "repro"


def _write(tmp_path, name, body):
    p = tmp_path / name
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(textwrap.dedent(body))
    return p


def _lint(path, **kw):
    return lint_paths(path, **kw)


# ------------------------------------------------------------------ LINT01
def test_transfer_inside_step_is_flagged(tmp_path):
    p = _write(tmp_path, "m.py", """
        class Runner:
            def step(self, state):
                self.arr.copy_to_host(state.out)
    """)
    findings, _ = _lint(p)
    assert [f.code for f in findings] == ["LINT01"]
    assert findings[0].line == 4


def test_transfer_inside_run_loop_is_flagged(tmp_path):
    p = _write(tmp_path, "m.py", """
        class Runner:
            def run(self, state, n):
                for _ in range(n):
                    self.arr.copy_from_host(state.inp)
    """)
    findings, _ = _lint(p)
    assert [f.code for f in findings] == ["LINT01"]


def test_transfer_outside_the_loop_is_clean(tmp_path):
    p = _write(tmp_path, "m.py", """
        class Runner:
            def run(self, state, n):
                self.arr.copy_from_host(state.inp)   # hoisted: fine
                for _ in range(n):
                    self.compute(state)
    """)
    findings, _ = _lint(p)
    assert findings == []


def test_one_level_indirect_transfer_is_flagged(tmp_path):
    p = _write(tmp_path, "m.py", """
        class Runner:
            def push(self, state):
                self.arr.copy_from_host(state.inp)
            def step(self, state):
                self.push(state)
    """)
    findings, _ = _lint(p)
    assert [f.code for f in findings] == ["LINT01"]
    assert "push" in findings[0].message


def test_checkpoint_and_halo_helpers_are_allowlisted(tmp_path):
    p = _write(tmp_path, "m.py", """
        class Runner:
            def save_checkpoint(self, state):
                self.arr.copy_to_host(state.out)
            def exchange_halo(self, state):
                self.arr.copy_from_host(state.inp)
            def step(self, state):
                self.save_checkpoint(state)
                self.exchange_halo(state)
    """)
    findings, _ = _lint(p)
    assert findings == []


def test_inline_suppression_moves_finding_to_suppressed(tmp_path):
    p = _write(tmp_path, "m.py", """
        class Runner:
            def step(self, state):
                self.arr.copy_to_host(state.out)  # sanitizer: allow[LINT01] output cadence is per-step by design
    """)
    findings, suppressed = _lint(p)
    assert findings == []
    assert [f.code for f in suppressed] == ["LINT01"]


# ------------------------------------------------------------------ LINT02
def _perturbed(block, name="advection", **spec_fields):
    """A copy of the kernel table whose ``name`` entry declares ``block``."""
    decl = KERNEL_TABLE[name]
    spec = dataclasses.replace(decl.spec, launch=block, **spec_fields)
    return {**KERNEL_TABLE, name: dataclasses.replace(decl, spec=spec)}


def test_oversized_block_is_flagged():
    findings, _ = lint_launches(_perturbed((64, 32, 1)))
    assert [f.code for f in findings] == ["LINT02"]
    assert "2048" in findings[0].message and "advection" in findings[0].message
    # anchored at the @stencil declaration the table entry is priced from
    origin = KERNEL_TABLE["advection"].spec.origin
    assert (findings[0].file, findings[0].line) == origin


def test_low_occupancy_block_is_flagged():
    findings, _ = lint_launches(_perturbed((8, 1, 1)))
    assert [f.code for f in findings] == ["LINT02"]
    assert "occupancy" in findings[0].message


def test_paper_block_is_clean():
    assert lint_launches(_perturbed((64, 4, 1))) == ([], [])
    assert lint_launches() == ([], [])


# ------------------------------------------------------------------ LINT03
def test_understated_halo_declaration_is_probed_dirty():
    """A spec that declares a halo narrower than the kernel actually
    reads is caught by the probe: perturbing the rings beyond the
    declared width changes the interior output."""
    from repro.stencil import load_dycore_specs
    from repro.stencil.verify import probe_spec

    spec = load_dycore_specs()["advect_scalar"]
    lying = dataclasses.replace(spec, halo=spec.halo - 1)
    result = probe_spec(lying)
    assert result.probed and not result.clean
    assert "interior" in result.detail


def test_honest_halo_declaration_is_probed_clean():
    from repro.stencil import load_dycore_specs
    from repro.stencil.verify import probe_spec

    spec = load_dycore_specs()["advect_scalar"]
    result = probe_spec(spec)
    assert result.probed and result.clean


def test_halo_budget_violation_is_flagged_at_declaration():
    """A declaration wider than the grid's halo budget is a LINT03
    finding anchored at the @stencil line."""
    findings, _ = lint_stencils(halo=1)
    codes = {f.code for f in findings}
    assert codes == {"LINT03"}
    wide = [f for f in findings if "advect_scalar" in f.message]
    assert wide and "budget 1" in wide[0].message
    assert wide[0].file.endswith("advection.py") and wide[0].line


# ------------------------------------------------------------ repo hygiene
def test_repo_source_tree_is_lint_clean():
    """The acceptance gate CI enforces: zero findings on src/repro."""
    findings, _ = lint_paths(REPO_SRC)
    assert findings == [], "\n".join(f.text() for f in findings)


def test_repo_stencil_declarations_are_honest():
    """Every registered spec passes the probe at its declared width —
    the declarations the cost table and drift bands trust are true."""
    findings, suppressed = lint_stencils()
    assert findings == [], "\n".join(f.text() for f in findings)
    assert suppressed == []


def test_inline_suppression_covers_lint02(tmp_path):
    p = _write(tmp_path, "decl.py", """
        @stencil(launch=(64, 32, 1))  # sanitizer: allow[LINT02] stress fixture
        def k(phi, grid):
            return phi
    """)
    findings, suppressed = lint_launches(
        _perturbed((64, 32, 1), origin=(str(p), 2)))
    assert findings == []
    assert [f.code for f in suppressed] == ["LINT02"]


def test_inline_suppression_covers_lint03_at_the_origin(tmp_path):
    """LINT03 anchors at the @stencil declaration (spec.origin) and is
    suppressed by an allow-comment on that line — the same
    origin_suppressed contract lint_stencils() emits through."""
    from repro.analysis.findings import origin_suppressed

    p = _write(tmp_path, "decl.py", """
        @stencil(reads=("phi",), writes=("out",), halo=1)  # sanitizer: allow[LINT03] probe noise
        def k(phi, grid):
            return phi
    """)
    assert origin_suppressed(str(p), 2, "LINT03")
    assert not origin_suppressed(str(p), 3, "LINT03")
    assert not origin_suppressed(str(p), 2, "LINT02")
