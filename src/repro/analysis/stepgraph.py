"""Whole-program step graph of the model time loop.

The ``@stencil`` registry declares what each kernel reads, writes, and
how far it reaches (:mod:`repro.stencil.spec`); the step loop decides
*when* each kernel runs and where the halo exchanges sit.  This module
joins the two: it walks the AST of the real step sequence — a driver's
``step`` (:meth:`repro.core.model.AsucaModel.step` or
:meth:`repro.dist.multigpu.MultiGpuAsuca.step`) and, inlined into it, the
one long-step body both drivers resume,
:meth:`repro.core.model.AsucaModel.long_step` (the RK3 stages of
:meth:`repro.core.rk3.Rk3Integrator.step_phases`, the acoustic substeps
and the physics) — resolving every kernel invocation against the
registry and every exchange point (a ``yield`` of the body, or an
``exchange``/``_exchange``/``exchange_all``/``fill_halos_state`` call,
with the per-axis coverage of
:meth:`repro.dist.halo.HaloExchanger.exchange`) into a linear sequence
of :class:`Node` records whose edges are field-level def/use chains.
The dataflow passes
(:mod:`repro.analysis.dataflow`: LINT04/05/06) run over this graph.

Scope and honesty
-----------------
The walker is deliberately a *declaration-trusting* abstract
interpreter, not a Python interpreter:

* values are tracked symbolically — the model state (bound by the
  ``state``/``st``/``base``/``cur``/``new`` parameter-name convention),
  sets of underlying prognostic fields, literal field-name lists, or
  unknown;
* known step-path helpers (``long_step``, ``step_phases``, ``substep``,
  ``finish``, ``slow_tendencies``, ``build_context`` and same-module
  functions) are inlined; branches are linearized (writes are
  *may*-writes, exchanges are taken optimistically); loops are unrolled
  once — the cyclic passes double the node sequence instead;
* anything it cannot resolve degrades *loudly*: a call that receives
  the state but is not declared becomes an ``opaque`` node (reads
  everything, writes nothing) and an entry in :attr:`StepGraph.notes`,
  and an exchange whose field list cannot be resolved statically is
  treated as a full exchange, also noted.

That makes the graph conservative for staleness (any visible interior
write taints halos) and optimistic for refresh — the combination that
keeps the clean repo at zero findings while still catching the bug
class the pipelined-halo roadmap item will make easy to introduce:
a declared-``halo>0`` kernel consuming a field written since the last
exchange on the relevant topology axis.
"""
from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field as dfield
from pathlib import Path
from typing import Any, Callable, Iterable

__all__ = [
    "Node", "StepGraph", "build_step_graph", "build_graph_for_function",
    "exchange_default_axes", "PROGNOSTIC_FIELDS", "MOISTURE_FIELDS",
    "STATE_PARAM_NAMES",
]

#: moisture species carried in ``State.q``
MOISTURE_FIELDS: tuple[str, ...] = ("qv", "qc", "qr", "qi", "qs")

#: every trackable state field (prognostics + the precip diagnostic)
PROGNOSTIC_FIELDS: frozenset[str] = frozenset(
    {"rho", "rhou", "rhov", "rhow", "rhotheta", *MOISTURE_FIELDS, "precip"})

#: parameter/attribute names that bind the model State by convention
STATE_PARAM_NAMES: frozenset[str] = frozenset(
    {"state", "st", "base", "cur", "new", "states", "new_states"})

#: call names that refresh halos (the exchange hook spellings across the
#: single-domain model, the distributed driver, and the periodic fill)
EXCHANGE_NAMES: frozenset[str] = frozenset(
    {"exchange", "_exchange", "exchange_all", "fill_halos_state"})

#: State methods whose field reads are known without walking them
KNOWN_STATE_METHODS: dict[str, tuple[str, ...]] = {
    "velocities": ("rho", "rhou", "rhov", "rhow"),
    "theta_m": ("rho", "rhotheta"),
    "total_mass": ("rho",),
    "validate": tuple(sorted(PROGNOSTIC_FIELDS - {"precip"})),
}

_INLINE_DEPTH_LIMIT = 10

#: builtins that pass data through without hiding state mutations —
#: they never become opaque nodes
_TRANSPARENT_CALLS = frozenset({
    "zip", "list", "tuple", "sorted", "enumerate", "reversed", "len",
    "range", "min", "max", "abs", "float", "int", "next", "print",
    "getattr", "iter", "dict", "set",
})


def exchange_default_axes() -> tuple[int, ...]:
    """The topology axes one :meth:`HaloExchanger.exchange` call covers
    by default, read from the real signature in :mod:`repro.dist.halo`
    (so the graph cannot drift from the exchanger)."""
    try:
        from ..dist.halo import HaloExchanger

        default = inspect.signature(
            HaloExchanger.exchange).parameters["axes"].default
        return tuple(int(a) for a in default)
    except Exception:
        return (0, 1)


# ---------------------------------------------------------------- values
@dataclass(frozen=True)
class Val:
    """Symbolic value: the state object, a set of underlying fields, a
    literal field-name list, or unknown (all attributes empty)."""

    fields: frozenset[str] = frozenset()
    token: str | None = None        #: scoped local-variable token
    is_state: bool = False
    names: tuple[str, ...] | None = None  #: literal list of field names
    #: True only for genuine views of state memory (``st.rho``,
    #: ``state.q[name]``) — a derived temporary carries the *fields* it
    #: was computed from, but writing into it does not write the state
    alias: bool = False


def _store_targets(base: Val) -> set[str]:
    """What a subscript store into ``base`` writes: the state fields
    only when ``base`` aliases state memory, else the local token."""
    if base.fields and (base.alias or not base.token):
        return set(base.fields)
    if base.token:
        return {base.token}
    return set()


_UNKNOWN = Val()
_STATE = Val(is_state=True, alias=True)


# ----------------------------------------------------------------- nodes
@dataclass
class Node:
    """One event of the step sequence."""

    idx: int
    kind: str           #: 'kernel' | 'exchange' | 'compute' | 'opaque'
    name: str           #: spec name, 'exchange', or a short description
    file: str
    line: int
    #: names read: state fields and/or scoped local tokens
    reads: frozenset[str] = frozenset()
    #: names written (interior writes for state fields)
    writes: frozenset[str] = frozenset()
    #: writes that fully overwrite their target (plain rebinding)
    kills: frozenset[str] = frozenset()
    #: underlying state fields of everything read (tokens resolved)
    fields: frozenset[str] = frozenset()
    halo: int = 0                       #: kernels: declared halo width
    #: exchanges: covered fields (None = every prognostic)
    exch_fields: tuple[str, ...] | None = None
    axes: tuple[int, ...] = (0, 1)      #: exchanges: axes refreshed
    branch: tuple[str, ...] = ()        #: enclosing if/else path


@dataclass
class StepGraph:
    """The linear step sequence plus its def/use structure."""

    entry: str
    nodes: list[Node] = dfield(default_factory=list)
    #: resolution gaps (opaque calls, unresolved exchange field lists)
    notes: list[str] = dfield(default_factory=list)
    #: local reads that precede any definition: (token, file, line)
    use_before_def: list[tuple[str, str, int]] = dfield(default_factory=list)

    def kernels(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "kernel"]

    def exchanges(self) -> list[Node]:
        return [n for n in self.nodes if n.kind == "exchange"]

# ---------------------------------------------------------------- builder
class _Module:
    """Parsed module: tree, per-function index, literal str-list globals."""

    def __init__(self, file: str, tree: ast.Module):
        self.file = file
        self.tree = tree
        self.functions: dict[str, ast.FunctionDef] = {}
        self.globals: dict[str, tuple[str, ...]] = {}
        for node in tree.body:
            self._index(node, prefix="")
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                tgt = node.targets[0]
                names = _literal_names(node.value)
                if isinstance(tgt, ast.Name) and names is not None:
                    self.globals[tgt.id] = names

    def _index(self, node: ast.AST, prefix: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.functions[prefix + node.name] = node
            # bare name too, so same-module calls resolve
            self.functions.setdefault(node.name, node)
        elif isinstance(node, ast.ClassDef):
            for child in node.body:
                self._index(child, prefix=prefix + node.name + ".")


def _literal_names(node: ast.AST) -> tuple[str, ...] | None:
    if isinstance(node, (ast.List, ast.Tuple)) and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str)
            for e in node.elts):
        return tuple(e.value for e in node.elts)
    return None


def _parse_module(file: str | Path) -> _Module:
    file = str(file)
    text = Path(file).read_text()
    return _Module(file, ast.parse(text, filename=file))


class _Builder:
    """Shared state of one graph construction."""

    def __init__(self, registry: dict[str, Any], entry: str):
        self.registry = registry
        self.entry = entry
        self.graph = StepGraph(entry=entry)
        self.default_axes = exchange_default_axes()
        self._scope_counter = 0
        #: (module_file, qualname) inline stack for cycle/depth guarding
        self.stack: list[tuple[str, str]] = []
        self.modules: dict[str, _Module] = {}
        #: attr/function name -> (module supplier, qualname) inline map
        self.inline_map: dict[str, tuple[Callable[[], _Module], str]] = {}

    def module(self, file: str | Path) -> _Module:
        file = str(file)
        if file not in self.modules:
            self.modules[file] = _parse_module(file)
        return self.modules[file]

    def new_scope(self, name: str) -> str:
        self._scope_counter += 1
        return f"{name}#{self._scope_counter}"

    def add_node(self, **kw) -> Node:
        node = Node(idx=len(self.graph.nodes), **kw)
        self.graph.nodes.append(node)
        return node

    def note(self, msg: str) -> None:
        if msg not in self.graph.notes:
            self.graph.notes.append(msg)

    # ------------------------------------------------------ spec lookup
    def spec_of(self, callee: str):
        entry = self.registry.get(callee)
        if entry is None:
            return None
        return getattr(entry, "spec", entry)  # StencilFunction or bare spec

    def reference_params(self, callee: str) -> list[str] | None:
        entry = self.registry.get(callee)
        ref = getattr(entry, "reference", None)
        if ref is None:
            return None
        try:
            return list(inspect.signature(ref).parameters)
        except (TypeError, ValueError):  # pragma: no cover
            return None


class _FunctionWalker:
    """Walks one function body, emitting nodes in execution order."""

    def __init__(self, builder: _Builder, module: _Module,
                 fn: ast.FunctionDef, env: dict[str, Val], scope: str):
        self.b = builder
        self.mod = module
        self.fn = fn
        self.env = env
        self.scope = scope
        self.branch: tuple[str, ...] = ()
        self.locals = {n.id for n in ast.walk(fn)
                       if isinstance(n, ast.Name)
                       and isinstance(n.ctx, ast.Store)}
        self.returns: list[Val] = []
        self._reported_ubd: set[str] = set()

    # --------------------------------------------------------- helpers
    def token(self, name: str) -> str:
        return f"{self.scope}:{name}"

    def bind(self, name: str, val: Val) -> None:
        self.env[name] = val

    def emit(self, *, kind: str, name: str, line: int,
             reads: set[str] = frozenset(), writes: set[str] = frozenset(),
             kills: set[str] = frozenset(), fields: set[str] = frozenset(),
             halo: int = 0, exch_fields=None, axes=None) -> Node:
        return self.b.add_node(
            kind=kind, name=name, file=self.mod.file, line=line,
            reads=frozenset(reads), writes=frozenset(writes),
            kills=frozenset(kills), fields=frozenset(fields), halo=halo,
            exch_fields=exch_fields,
            axes=tuple(axes) if axes is not None else self.b.default_axes,
            branch=self.branch)

    # ------------------------------------------------------------ walk
    def walk(self) -> Val:
        for stmt in self.fn.body:
            self._stmt(stmt)
        if not self.returns:
            return _UNKNOWN
        return _merge_vals(self.returns)

    def _body(self, stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _consume(self, expr: ast.expr, label: str) -> None:
        """Evaluate an expression whose reads would otherwise vanish
        (loop tests, conditions) and record them as a use."""
        _, reads = self._eval(expr)
        if reads and not isinstance(expr, ast.Call):
            self.emit(kind="compute", name=label, line=expr.lineno,
                      reads=reads)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._assign(stmt)
        elif isinstance(stmt, ast.AugAssign):
            self._augassign(stmt)
        elif isinstance(stmt, ast.Expr):
            val = stmt.value
            if isinstance(val, (ast.Yield, ast.YieldFrom)):
                self._yield(val)
            else:
                self._eval(val)
        elif isinstance(stmt, ast.Return):
            self._return(stmt)
        elif isinstance(stmt, ast.If):
            self._consume(stmt.test, "cond")
            marker = f"if@{stmt.lineno}"
            outer = self.branch
            self.branch = outer + (marker + ":then",)
            self._body(stmt.body)
            self.branch = outer + (marker + ":else",)
            self._body(stmt.orelse)
            self.branch = outer
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            itval, it_reads = self._eval(stmt.iter)
            if it_reads and not isinstance(stmt.iter, ast.Call):
                self.emit(kind="compute", name="iter",
                          line=stmt.iter.lineno, reads=it_reads)
            self._bind_target(stmt.target,
                              Val(fields=itval.fields), emit=False)
            outer = self.branch
            self.branch = outer + (f"loop@{stmt.lineno}",)
            self._body(stmt.body)
            self.branch = outer
            self._body(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._consume(stmt.test, "cond")
            outer = self.branch
            self.branch = outer + (f"loop@{stmt.lineno}",)
            self._body(stmt.body)
            self.branch = outer
            self._body(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, _UNKNOWN,
                                      emit=False)
            self._body(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._body(stmt.body)
            for handler in stmt.handlers:
                if handler.name:
                    self.bind(handler.name, _UNKNOWN)
                self._body(handler.body)
            self._body(stmt.orelse)
            self._body(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
        # Pass/Break/Continue/Import/def: no dataflow

    # ------------------------------------------------------ statements
    def _assign(self, stmt: ast.Assign | ast.AnnAssign) -> None:
        value = stmt.value
        if value is None:  # annotation only
            return
        targets = (stmt.targets if isinstance(stmt, ast.Assign)
                   else [stmt.target])
        # direct kernel-producing assignment: attach the write to the
        # kernel node itself so defs anchor at the invocation
        if isinstance(value, ast.Call):
            tokens = self._target_tokens(targets)
            val = self._eval_call(value, target_tokens=tokens)
            for tgt in targets:
                self._bind_target(tgt, val, emit=False)
            return
        val, reads = self._eval(value)
        for tgt in targets:
            self._bind_target(tgt, val, reads=reads)

    def _target_tokens(self, targets: list[ast.expr]) -> set[str]:
        toks: set[str] = set()
        for tgt in targets:
            elts = tgt.elts if isinstance(tgt, (ast.Tuple, ast.List)) else [tgt]
            for e in elts:
                if isinstance(e, ast.Name):
                    toks.add(self.token(e.id))
        return toks

    def _bind_target(self, tgt: ast.expr, val: Val,
                     reads: set[str] | None = None, *,
                     emit: bool = True) -> None:
        """Bind an assignment target; emit a compute node for the def."""
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for e in tgt.elts:
                self._bind_target(e, Val(fields=val.fields), reads=reads,
                                  emit=emit)
                reads = None  # record the reads once
            return
        if isinstance(tgt, ast.Name):
            tok = self.token(tgt.id)
            if (tgt.id in STATE_PARAM_NAMES and not val.is_state
                    and not val.fields and val.names is None):
                # loop targets like ``for rank, st in zip(...)`` lose the
                # state through the opaque iterator; the naming
                # convention recovers it
                val = _STATE
            self.bind(tgt.id, Val(fields=val.fields, token=tok,
                                  is_state=val.is_state, names=val.names,
                                  alias=val.alias))
            if emit and (reads or not val.is_state):
                self.emit(kind="compute", name=f"def {tgt.id}",
                          line=tgt.lineno, reads=set(reads or ()),
                          writes={tok}, kills={tok}, fields=val.fields)
            return
        if isinstance(tgt, ast.Subscript):
            base = self._eval_val(tgt.value)
            _, idx_reads = self._eval(tgt.slice)
            wr = _store_targets(base)
            if wr:
                held = {base.token} if base.token else set()
                self.emit(kind="compute", name="store",
                          line=tgt.lineno,
                          reads=set(reads or ()) | idx_reads | held,
                          writes=wr, fields=base.fields)
            return
        if isinstance(tgt, ast.Attribute):
            base = self._eval_val(tgt.value)
            if base.is_state and tgt.attr in PROGNOSTIC_FIELDS:
                # full-field rebinding: a kill (overwrites halos too)
                self.emit(kind="compute", name=f"store {tgt.attr}",
                          line=tgt.lineno, reads=set(reads or ()),
                          writes={tgt.attr}, kills={tgt.attr})
            elif reads:
                # storing into an object attribute is a use
                self.emit(kind="compute", name=f"store .{tgt.attr}",
                          line=tgt.lineno, reads=set(reads))
            return
        self._eval(tgt)

    def _augassign(self, stmt: ast.AugAssign) -> None:
        val, reads = self._eval(stmt.value)
        tgt = stmt.target
        if isinstance(tgt, ast.Name):
            cur = self.env.get(tgt.id)
            tok = self.token(tgt.id)
            merged_fields = val.fields | (cur.fields if cur else frozenset())
            # += on a known literal list extends it (the post-physics
            # exchange list); on arrays it is a read-modify-write
            names = None
            if (cur is not None and cur.names is not None
                    and val.names is not None):
                names = cur.names + val.names
            self.bind(tgt.id, Val(fields=merged_fields, token=tok,
                                  names=names))
            self.emit(kind="compute", name=f"update {tgt.id}",
                      line=stmt.lineno, reads=reads | {tok},
                      writes={tok}, fields=merged_fields)
            return
        if isinstance(tgt, ast.Subscript):
            base = self._eval_val(tgt.value)
            wr = _store_targets(base)
            if wr:
                held = {base.token} if base.token else set()
                self.emit(kind="compute", name="update",
                          line=stmt.lineno, reads=reads | wr | held,
                          writes=wr, fields=base.fields)
            return
        self._eval(tgt)

    def _return(self, stmt: ast.Return) -> None:
        if stmt.value is None:
            self.returns.append(_UNKNOWN)
            return
        val, reads = self._eval(stmt.value)
        self.returns.append(val)
        if reads:
            self.emit(kind="compute", name="return", line=stmt.lineno,
                      reads=reads, fields=val.fields)

    def _yield(self, node: ast.Yield | ast.YieldFrom) -> None:
        """A ``yield state, fields`` of the lockstep generator is a halo
        exchange performed by the driver before resuming."""
        value = getattr(node, "value", None)
        if not isinstance(value, ast.Tuple) or len(value.elts) != 2:
            if value is not None:
                self._eval(value)
            return
        self._eval(value.elts[0])
        self._exchange_node(value.elts[1], line=node.lineno,
                            axes=None, what="yield")

    # ------------------------------------------------------ expressions
    def _eval_val(self, node: ast.expr) -> Val:
        return self._eval(node)[0]

    def _eval(self, node: ast.expr) -> tuple[Val, set[str]]:
        """Evaluate an expression: (symbolic value, names read)."""
        if isinstance(node, ast.Constant):
            return _UNKNOWN, set()
        if isinstance(node, ast.Name):
            return self._eval_name(node)
        if isinstance(node, ast.Attribute):
            return self._eval_attr(node)
        if isinstance(node, ast.Subscript):
            val, reads = self._eval(node.value)
            _, idx_reads = self._eval(node.slice)
            # indexing a literal name list yields an element, not a list
            val = Val(fields=val.fields, token=val.token,
                      is_state=val.is_state, alias=val.alias)
            return val, reads | idx_reads
        if isinstance(node, ast.Call):
            val = self._eval_call(node)
            return val, set()
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            names = _literal_names(node)
            if names is not None:
                return Val(names=names), set()
            return self._eval_many(node.elts)
        if isinstance(node, ast.Dict):
            vals = [v for v in (*node.keys, *node.values) if v is not None]
            return self._eval_many(vals)
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare,
                             ast.UnaryOp)):
            children = [c for c in ast.iter_child_nodes(node)
                        if isinstance(c, ast.expr)]
            return self._eval_many(children)
        if isinstance(node, ast.IfExp):
            return self._eval_many([node.test, node.body, node.orelse])
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return self._eval_comp(node)
        if isinstance(node, ast.Starred):
            return self._eval(node.value)
        if isinstance(node, ast.Slice):
            parts = [p for p in (node.lower, node.upper, node.step) if p]
            return self._eval_many(parts)
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            self._yield(node)
            return _UNKNOWN, set()
        if isinstance(node, ast.JoinedStr):
            return _UNKNOWN, set()
        if isinstance(node, ast.Lambda):
            return _UNKNOWN, set()
        if isinstance(node, ast.NamedExpr):
            val, reads = self._eval(node.value)
            self._bind_target(node.target, val, reads=reads)
            return val, set()
        return _UNKNOWN, set()

    def _eval_many(self, nodes: Iterable[ast.expr]) -> tuple[Val, set[str]]:
        vals, reads = [], set()
        for n in nodes:
            v, r = self._eval(n)
            vals.append(v)
            reads |= r
        return _merge_vals(vals), reads

    def _eval_name(self, node: ast.Name) -> tuple[Val, set[str]]:
        name = node.id
        if name in self.env:
            v = self.env[name]
            reads = {v.token} if v.token else set(v.fields)
            return v, reads
        if name in self.mod.globals:
            return Val(names=self.mod.globals[name]), set()
        if name in self.locals:
            # a local read before any definition walked so far
            tok = self.token(name)
            if tok not in self._reported_ubd:
                self._reported_ubd.add(tok)
                self.b.graph.use_before_def.append(
                    (name, self.mod.file, node.lineno))
            return _UNKNOWN, set()
        if name in STATE_PARAM_NAMES:
            return _STATE, set()
        return _UNKNOWN, set()

    def _eval_attr(self, node: ast.Attribute) -> tuple[Val, set[str]]:
        base, reads = self._eval(node.value)
        attr = node.attr
        if attr in ("st", "base"):
            return _STATE, reads
        if base.is_state:
            if attr in PROGNOSTIC_FIELDS:
                return (Val(fields=frozenset({attr}), alias=True),
                        reads | {attr})
            if attr == "q":
                mf = frozenset(MOISTURE_FIELDS)
                return Val(fields=mf, alias=True), reads
            return _UNKNOWN, reads
        # dict-method plumbing on a field-carrying value (q.items(), ...)
        if base.fields and attr in ("items", "keys", "values", "get",
                                    "copy"):
            return (Val(fields=base.fields, token=base.token,
                        alias=base.alias), reads)
        return _UNKNOWN, reads

    def _eval_comp(self, node) -> tuple[Val, set[str]]:
        reads: set[str] = set()
        for gen in node.generators:
            itval, r = self._eval(gen.iter)
            reads |= r
            self._bind_target(gen.target, Val(fields=itval.fields),
                              emit=False)
            for cond in gen.ifs:
                _, r2 = self._eval(cond)
                reads |= r2
        if isinstance(node, ast.DictComp):
            kv, kr = self._eval(node.key)
            vv, vr = self._eval(node.value)
            return _merge_vals([kv, vv]), reads | kr | vr
        ev, er = self._eval(node.elt)
        return ev, reads | er

    # ------------------------------------------------------------ calls
    def _eval_call(self, node: ast.Call,
                   target_tokens: set[str] = frozenset()) -> Val:
        callee, recv_chain = _call_name(node)
        # an attribute call reads its receiver (helm.solve consumes the
        # helm binding), a call of a local binding reads that binding;
        # module receivers contribute nothing
        if isinstance(node.func, ast.Attribute):
            recv, recv_reads = self._eval(node.func.value)
        elif isinstance(node.func, ast.Name) and node.func.id in self.env:
            recv, recv_reads = _UNKNOWN, self._eval_name(node.func)[1]
        else:
            recv, recv_reads = _UNKNOWN, set()
        # 1. halo-exchange sites
        if callee in EXCHANGE_NAMES:
            axes = _literal_axes(node)
            fields_arg = _exchange_fields_arg(node)
            self._exchange_node(fields_arg, line=node.lineno, axes=axes,
                                what=callee)
            return _UNKNOWN
        # 1b. the lockstep driver refreshes at the yields of the bodies
        #     it is handed — exchange nodes already, once those are walked
        if callee == "run_lockstep" and node.args:
            return self._eval_val(node.args[0])
        # 2. registered stencil invocations
        if callee is not None and self.b.spec_of(callee) is not None:
            return self._kernel_node(callee, node, target_tokens,
                                     extra_reads=recv_reads)
        # 2b. the Helmholtz solve hides behind a solver object
        if (callee == "solve" and any("helm" in p for p in recv_chain)
                and self.b.spec_of("helmholtz_solve") is not None):
            return self._kernel_node("helmholtz_solve", node,
                                     target_tokens,
                                     extra_reads=recv_reads)
        # 3. known state methods
        if recv.is_state:
            if callee == "copy":
                return _STATE
            if callee in KNOWN_STATE_METHODS:
                flds = frozenset(KNOWN_STATE_METHODS[callee])
                self.emit(kind="compute", name=f"state.{callee}",
                          line=node.lineno, reads=set(flds) | recv_reads,
                          writes=set(target_tokens),
                          kills=set(target_tokens), fields=flds)
                for arg in node.args:
                    self._eval(arg)
                return Val(fields=flds)
        # 4. inlinable step-path helpers
        inlined = self._try_inline(callee, recv_chain, node, target_tokens,
                                   extra_reads=recv_reads)
        if inlined is not None:
            return inlined
        # 5. list()/tuple()/sorted() plumbing keeps literal name lists
        if callee in ("list", "tuple", "sorted") and len(node.args) == 1:
            v = self._eval_val(node.args[0])
            if v.names is not None:
                return Val(names=v.names)
            return Val(fields=v.fields)
        # 6. unknown call: union of arguments; receiving the state makes
        #    it opaque (assumed to read everything, write nothing)
        vals: list[Val] = []
        reads: set[str] = set()
        for a in [*node.args, *[kw.value for kw in node.keywords]]:
            v, r = self._eval(a)
            vals.append(v)
            reads |= r
        arg_vals = _merge_vals(vals)
        reads |= recv_reads
        takes_state = (any(v.is_state for v in vals)
                       and callee not in _TRANSPARENT_CALLS)
        if takes_state:
            label = callee or "<call>"
            every = PROGNOSTIC_FIELDS - {"precip"}
            self.emit(kind="opaque", name=label, line=node.lineno,
                      reads=set(every) | reads, fields=every)
            self.b.note(
                f"opaque state call '{label}' at "
                f"{Path(self.mod.file).name}:{node.lineno} — no @stencil "
                f"declaration; assumed to read all prognostics and "
                f"write none")
            return _UNKNOWN
        if reads or target_tokens:
            self.emit(kind="compute", name=callee or "<call>",
                      line=node.lineno, reads=reads,
                      writes=set(target_tokens), kills=set(target_tokens),
                      fields=arg_vals.fields)
        return Val(fields=arg_vals.fields)

    def _kernel_node(self, callee: str, node: ast.Call,
                     target_tokens: set[str], *,
                     extra_reads: set[str] = frozenset()) -> Val:
        spec = self.b.spec_of(callee)
        params = self.b.reference_params(callee) or []
        bound: dict[str, ast.expr] = {}
        for i, arg in enumerate(node.args):
            if i < len(params):
                bound[params[i]] = arg
        for kw in node.keywords:
            if kw.arg:
                bound[kw.arg] = kw.value
        # resolve declared read roles: a role naming a reference
        # parameter reads that argument; state-field roles (in-place
        # kernels like kessler) read the state directly; otherwise fall
        # back to every argument
        evaluated: dict[int, tuple[Val, set[str]]] = {}

        def ev(expr: ast.expr) -> tuple[Val, set[str]]:
            if id(expr) not in evaluated:
                evaluated[id(expr)] = self._eval(expr)
            return evaluated[id(expr)]

        reads: set[str] = set(extra_reads)
        fields: set[str] = set()
        resolved = False
        for role in spec.reads:
            if role in bound:
                v, r = ev(bound[role])
                reads |= r
                fields |= v.fields
                resolved = True
            elif role in PROGNOSTIC_FIELDS:
                reads.add(role)
                fields.add(role)
                resolved = True
        if not resolved:
            for arg in node.args:
                v, r = ev(arg)
                reads |= r
                fields |= v.fields
        # remaining arguments are consumed too, but only their *local*
        # bindings: the declared roles stay authoritative for fields
        for extra in [*node.args, *[kw.value for kw in node.keywords]]:
            _, r = ev(extra)
            reads |= {t for t in r if ":" in t}
        writes = set(target_tokens)
        state_writes = {w for w in spec.writes if w in PROGNOSTIC_FIELDS}
        writes |= state_writes
        self.emit(kind="kernel", name=spec.name, line=node.lineno,
                  reads=reads, writes=writes, kills=set(target_tokens),
                  fields=fields | state_writes, halo=spec.halo)
        return Val(fields=frozenset(fields))

    def _try_inline(self, callee: str | None, recv_chain: tuple[str, ...],
                    node: ast.Call, target_tokens: set[str], *,
                    extra_reads: set[str] = frozenset()) -> Val | None:
        if callee is None:
            return None
        target: tuple[_Module, ast.FunctionDef] | None = None
        if callee in self.b.inline_map:
            get_mod, qualname = self.b.inline_map[callee]
            mod = get_mod()
            fn = mod.functions.get(qualname)
            if fn is not None:
                target = (mod, fn)
        elif callee in self.mod.functions and not isinstance(
                node.func, ast.Attribute):
            target = (self.mod, self.mod.functions[callee])
        if target is None:
            return None
        mod, fn = target
        key = (mod.file, fn.name)
        if key in self.b.stack or len(self.b.stack) >= _INLINE_DEPTH_LIMIT:
            return None
        # bind callee params to evaluated arguments (self is unknown —
        # instance attrs resolve through the st/base convention)
        args = [a for a in node.args]
        params = [p.arg for p in fn.args.args]
        env: dict[str, Val] = {}
        arg_reads: set[str] = set(extra_reads)
        offset = 1 if params and params[0] == "self" else 0
        for i, arg in enumerate(args):
            if offset + i < len(params):
                v, r = self._eval(arg)
                env[params[offset + i]] = v
                arg_reads |= r
        for kw in node.keywords:
            if kw.arg and kw.arg in params:
                v, r = self._eval(kw.value)
                env[kw.arg] = v
                arg_reads |= r
        for p in params:
            v = env.get(p)
            if p in STATE_PARAM_NAMES and (v is None or not v.is_state):
                env[p] = _STATE
        self.b.stack.append(key)
        try:
            walker = _FunctionWalker(self.b, mod, fn, env,
                                     self.b.new_scope(fn.name))
            result = walker.walk()
        finally:
            self.b.stack.pop()
        if target_tokens or arg_reads:
            self.emit(kind="compute", name=f"{fn.name}()",
                      line=node.lineno, reads=arg_reads,
                      writes=set(target_tokens),
                      kills=set(target_tokens), fields=result.fields)
        return result

    # -------------------------------------------------------- exchanges
    def _exchange_node(self, fields_arg: ast.expr | None, *, line: int,
                       axes: tuple[int, ...] | None, what: str) -> None:
        exch_fields: tuple[str, ...] | None
        arg_reads: set[str] = set()
        if fields_arg is None or (isinstance(fields_arg, ast.Constant)
                                  and fields_arg.value is None):
            exch_fields = None  # every prognostic
        else:
            names = _literal_names(fields_arg)
            if names is None:
                v, arg_reads = self._eval(fields_arg)
                names = v.names
            if names is not None:
                exch_fields = tuple(names)
            else:
                exch_fields = None
                self.b.note(
                    f"exchange at {Path(self.mod.file).name}:{line} has a "
                    f"field list the walker cannot resolve — treated as a "
                    f"full exchange")
        self.emit(kind="exchange", name=what, line=line,
                  reads=arg_reads, exch_fields=exch_fields, axes=axes)


def _merge_vals(vals: list[Val]) -> Val:
    fields: frozenset[str] = frozenset()
    names: tuple[str, ...] | None = None
    known_names = True
    is_state = False
    for v in vals:
        fields |= v.fields
        is_state = is_state or v.is_state
        if v.names is None:
            known_names = False
        elif names is None:
            names = v.names
        else:
            names = tuple(dict.fromkeys(names + v.names))
    return Val(fields=fields, is_state=is_state,
               names=names if known_names and names is not None else None)


def _call_name(node: ast.Call) -> tuple[str | None, tuple[str, ...]]:
    """(callee name, receiver attribute chain) of a call."""
    func = node.func
    chain: list[str] = []
    if isinstance(func, ast.Name):
        return func.id, ()
    if isinstance(func, ast.Attribute):
        name = func.attr
        cur = func.value
        while isinstance(cur, ast.Attribute):
            chain.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            chain.append(cur.id)
        return name, tuple(chain)
    return None, ()


def _exchange_fields_arg(node: ast.Call) -> ast.expr | None:
    """The field-list argument of an exchange call: 2nd positional, or
    the ``names``/``fields`` keyword; None means 'all prognostics'."""
    for kw in node.keywords:
        if kw.arg in ("names", "fields"):
            return kw.value
    if len(node.args) >= 2:
        return node.args[1]
    return None


def _literal_axes(node: ast.Call) -> tuple[int, ...] | None:
    for kw in node.keywords:
        if kw.arg == "axes" and isinstance(kw.value, (ast.Tuple, ast.List)):
            if all(isinstance(e, ast.Constant) and isinstance(e.value, int)
                   for e in kw.value.elts):
                return tuple(e.value for e in kw.value.elts)
    return None


# ----------------------------------------------------------- public API
def _default_registry() -> dict[str, Any]:
    from ..stencil import load_dycore_specs  # noqa: F401 - loads modules
    from ..stencil.spec import REGISTRY

    load_dycore_specs()
    return dict(REGISTRY)


def _core_inline_map(b: _Builder) -> None:
    from ..core import acoustic, model, rk3, state
    from ..dist import multigpu

    def of(mod):
        return lambda: b.module(inspect.getsourcefile(mod))

    b.inline_map.update({
        "long_step": (of(model), "AsucaModel.long_step"),
        "step_phases": (of(rk3), "Rk3Integrator.step_phases"),
        "slow_tendencies": (of(rk3), "slow_tendencies"),
        "substep": (of(acoustic), "AcousticStepper._substep_impl"),
        "_substep_impl": (of(acoustic), "AcousticStepper._substep_impl"),
        # the declared semantics of a substep: the compiled body answers
        # to this chain, its oracle, and is opaque to an AST walk
        "_substep_numpy": (of(acoustic), "AcousticStepper._substep_numpy"),
        "finish": (of(acoustic), "AcousticStepper.finish"),
        "build_context": (of(acoustic), "build_context"),
        "_zero_bits": (of(state), "zero_bits"),
    })
    b.modules_entry = {"single": model, "multigpu": multigpu}


def build_step_graph(entry: str = "single", *,
                     registry: dict[str, Any] | None = None) -> StepGraph:
    """Build the step graph of a real driver.

    ``entry='single'`` walks :meth:`AsucaModel.step`, ``entry='multigpu'``
    :meth:`MultiGpuAsuca.step`.  Both resolve to the same inlined body,
    :meth:`AsucaModel.long_step`, whose yields are the exchange points;
    the graphs differ only in what the driver itself adds (the
    single-domain fill after relaxation; the decomposed driver's fault
    and telemetry bookkeeping).
    """
    if entry not in ("single", "multigpu"):
        raise ValueError(f"unknown entry {entry!r}: single|multigpu")
    b = _Builder(registry if registry is not None else _default_registry(),
                 entry)
    _core_inline_map(b)
    py_mod = b.modules_entry[entry]
    mod = b.module(inspect.getsourcefile(py_mod))
    qualname = ("AsucaModel.step" if entry == "single"
                else "MultiGpuAsuca.step")
    fn = mod.functions[qualname]
    env: dict[str, Val] = {"self": _UNKNOWN}
    for p in (a.arg for a in fn.args.args):
        if p in STATE_PARAM_NAMES:
            env[p] = _STATE
    walker = _FunctionWalker(b, mod, fn, env, b.new_scope(qualname))
    walker.walk()
    return b.graph


def build_graph_for_function(
    file: str | Path, qualname: str, *,
    registry: dict[str, Any] | None = None,
) -> StepGraph:
    """Build a step graph from one function in an arbitrary source file
    — the harness the seeded-bug fixtures (and any future alternate
    driver) run the dataflow passes through.  ``registry`` maps kernel
    names to :class:`~repro.stencil.spec.StencilSpec` (or
    ``StencilFunction``); it defaults to the real dycore registry.
    """
    b = _Builder(registry if registry is not None else _default_registry(),
                 f"{Path(file).name}:{qualname}")
    mod = b.module(file)
    fn = mod.functions.get(qualname)
    if fn is None:
        raise KeyError(f"no function {qualname!r} in {file}")
    env: dict[str, Val] = {}
    for p in (a.arg for a in fn.args.args):
        if p in STATE_PARAM_NAMES:
            env[p] = _STATE
    walker = _FunctionWalker(b, mod, fn, env, b.new_scope(qualname))
    walker.walk()
    return b.graph
