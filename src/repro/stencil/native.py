"""Compiled bodies of the run path's loops: built once per machine,
proved at load, never required.

``csrc/advect.c`` (the Koren sweep plus flux divergence, run by the slow
stage), ``csrc/loops.c`` (NumPy's own ``exp`` and ``power`` loops, taken
from the ufunc objects at load: the bodies' only ``exp`` / ``pow``),
``csrc/acoustic.c`` (the HE-VI substep as one call, an RK stage's slow
tendencies as one call, the EOS with the linearization, the operator
assembly and the velocities of a state), ``csrc/kessler.c`` (the
warm-rain step as one call), ``csrc/halo.c`` (the halo strip runner, the
state copy, the Davies relaxation and the state check) and
``csrc/program.c`` (the walker of a captured long step,
:mod:`repro.core.program`) become one shared object per *(translation
units, flags, NumPy and Python header directories, NumPy version,
compiler, machine)* hash in the user's cache directory, loaded through
:mod:`ctypes`; the compiler is identified by its resolved path,
``st_mtime_ns`` and ``st_size``, so a warm load runs no process.  It is
used only after every kernel in it has reproduced its oracle byte for
byte on a fixed battery (the ``native_check`` of
:mod:`repro.stencil.dycore`, :mod:`repro.core.acoustic` and
:mod:`repro.stencil.kessler`); every other outcome is one of four typed,
counted reasons and ends on the NumPy bodies — never on a different
field.  A compiled kernel has one NumPy text, its oracle, and that is
what runs without a library; whether a compiled body runs is this one
fact, :func:`kernels` (a ``reference`` executor holds it off with
:func:`using`).  A loaded library whose body cannot take one call's
operands is a per-call fact, not a fifth outcome: that call runs the
oracle and :func:`unbound` counts it, by reason.  What a compiled call
takes is declared once, in the C: every ``typedef struct`` of the
sources is read at load as that library's ctypes layout
(:func:`layouts`), and every call site fills its struct by field name.
docs/STENCILS.md "Compiled bodies".
"""
from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import hashlib
import math
import os
import platform
import re
import shutil
import stat
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..obs.trace import CAPTURE

__all__ = ["FLAGS", "CLONES", "STATES", "Native", "Unbound", "Recorded",
           "layouts", "load", "count_programs", "walk_speedup",
           "library", "kernels", "address", "pointers", "same", "unbound",
           "using"]

#: value-preserving only: no contraction, no reassociation, no -march (the
#: cache may be shared between hosts; the clones pick the ISA at load time)
FLAGS = ("-O3", "-fPIC", "-shared", "-pthread", "-ffp-contract=off",
         "-fno-trapping-math", "-fno-math-errno")
CLONES = ("avx512f", "avx2", "default")
SOURCES = ("advect.c", "loops.c", "acoustic.c", "kessler.c", "halo.c",
           "program.c")
STATES = ("loaded", "no-compiler", "build-failed", "cache-unwritable",
          "self-check-failed")
#: how every :func:`load` of this process ended, by state
COUNTS: Counter = Counter()
#: this process's NumPy calls of a body a loaded library could not take,
#: by ``(body, reason)`` (:func:`unbound`; per process like :data:`COUNTS`,
#: so that ``repro doctor``'s host line carries it too)
UNBOUND: Counter = Counter()
_UNBOUND_LOCK = threading.Lock()
#: this process's captured long steps (:mod:`repro.core.program`):
#: ``recorded`` programs, ``replayed`` windows and the ``rows`` they ran,
#: the windows a program's generator ran (recording it, or after an
#: aborted replay) with the compiled ``calls`` they made, the widest
#: ``team`` a replay walked on, and the traced team walks' row seconds
#: (``busy_s``, summed over the workers) and wall seconds (``wall_s``)
PROGRAMS: Counter = Counter()
#: this process's single-domain runs stepped as host tiles, by tiling
#: (``"2x1"``; :func:`repro.core.program.host_tiles`)
TILES: Counter = Counter()

_PTR, _LONG = ctypes.c_void_p, ctypes.c_long
_FROM_BUFFER, _ADDRESSOF = ctypes.c_char.from_buffer, ctypes.addressof


class _Unavailable(Exception):
    """``(state, detail)``: why there is no compiled body."""


@dataclass
class Native:
    """The outcome of one :func:`load`."""

    state: str
    detail: str = ""
    hash: str = ""
    clones: tuple = ()
    #: seconds spent compiling (0 on a cache hit) and loading + checking
    build_s: float = 0.0
    load_s: float = 0.0
    #: the float64 entries: the face sweep ``faces`` and one field's
    #: advection ``advect`` (bound to be checked alone), the one-call
    #: ``substep`` and ``slow_stage``, ``metric_flux``, ``context``,
    #: ``operator``, ``velocities``, ``kessler``, ``moisture`` (the stage's
    #: moisture finish), ``halo_strips`` and ``copy`` (byte copies: any
    #: dtype), ``relax`` (the Davies relaxation), ``validate`` (the state
    #: check) and ``run_program`` (a captured step's walker); the structs by their C
    #: names (``stage_args``, ...) and the integer ``#define`` constants
    #: (``STAGE_MAXQ``, ``THOMAS_BLOCK``, ...), read from the sources
    f64: SimpleNamespace | None = field(default=None, repr=False)

    def stats(self) -> dict:
        unbound: dict = {}
        for (body, why), n in sorted(UNBOUND.items()):
            unbound.setdefault(body, {})[why] = n
        out = {"state": self.state, "detail": self.detail,
               "hash": self.hash, "clones": list(self.clones),
               "build_s": round(self.build_s, 3), "unbound": unbound,
               "programs": {k: PROGRAMS[k] for k in (
                   "recorded", "replayed", "rows", "generator", "calls",
                   "team")}}
        if TILES:
            out["tiles"] = ",".join(sorted(TILES))
        return out

    def report(self) -> str:
        text = f"native[{self.state}]"
        if self.hash:
            text += (f": {self.hash} clones {','.join(self.clones) or '-'}"
                     f" build {self.build_s:.2f} s load "
                     f"{self.load_s * 1e3:.1f} ms")
        text += f" ({self.detail})" if self.detail else ""
        if PROGRAMS["generator"]:
            text += (f"; programs: {PROGRAMS['recorded']} recorded, "
                     f"{PROGRAMS['replayed']} replayed")
            if PROGRAMS["team"]:
                text += f", widest team {PROGRAMS['team']}"
            if TILES:
                text += f", tiles {','.join(sorted(TILES))}"
            if PROGRAMS["wall_s"]:
                text += (f", team walk {walk_speedup():.2f}x measured (rows'"
                         f" seconds over wall seconds)")
            text += ("; compiled crossings a dynamics window: "
                     f"{PROGRAMS['calls'] / PROGRAMS['generator']:.0f} "
                     f"recording, 1 replayed")
        return "; ".join([text] + [f"{n} {body} on NumPy ({why})" for
                                   (body, why), n in sorted(UNBOUND.items())])


@dataclass(frozen=True)
class Unbound:
    """Why a loaded library's body could not take one call's operands: the
    first one that is not a C-contiguous exact ndarray of the body's dtype
    and shape (``jac not C-contiguous``, ``rhou float32``)."""

    operand: str
    fact: str

    def __str__(self) -> str:
        return f"unbound: {self.operand} {self.fact}"


class Recorded:
    """A compiled entry a long step's dynamics call (a row of a captured
    step, :mod:`repro.core.program`): the ctypes function ``fn`` of C
    signature ``int entry(void *)`` at ``address``, called with one struct
    by reference; a call on a thread that is capturing a step
    (:data:`CAPTURE` set) is reported to that step's recorder before it
    runs."""

    __slots__ = ("name", "fn", "address")

    def __init__(self, name: str, fn):
        self.name, self.fn = name, fn
        self.address = ctypes.cast(fn, _PTR).value

    def __call__(self, ref):
        rec = CAPTURE.get()
        if rec is not None:
            rec.entry(self, ref._obj)
        return self.fn(ref)


def count_programs(team: int = 0, **counts) -> None:
    """Add ``counts`` to :data:`PROGRAMS` (stepping threads count too);
    ``team``: a replay's, kept where it is the widest yet."""
    with _UNBOUND_LOCK:
        for name, n in counts.items():
            PROGRAMS[name] += n
        if team > PROGRAMS["team"]:
            PROGRAMS["team"] = team


def walk_speedup() -> float | None:
    """The traced team walks' measured speedup: the seconds their rows ran,
    summed over the workers, over their wall seconds (None: no traced
    walk on a team)."""
    return (PROGRAMS["busy_s"] / PROGRAMS["wall_s"] if PROGRAMS["wall_s"]
            else None)


def unbound(body: str, why: Unbound) -> None:
    """Count one call of ``body`` (plural: ``"slow stages"``) that ran
    on NumPy although a library is loaded (stepping threads count too)."""
    with _UNBOUND_LOCK:
        UNBOUND[body, f"{why.operand} {why.fact}"] += 1
    rec = CAPTURE.get()
    if rec is not None:         # a NumPy body ran: nothing to replay
        rec.decline(why)


# ------------------------------------------------------------------ build
def _spawn(*argvs: list) -> tuple:
    """``(exit status, stdout + stderr)`` of the first of ``argvs`` (found
    on ``PATH``, run side by side) that fails, else of the last."""
    import subprocess       # 4 ms: only when something is built

    procs = []
    for argv in argvs:
        try:
            procs.append(subprocess.Popen(argv, stdout=subprocess.PIPE,
                                          stderr=subprocess.STDOUT))
        except OSError as exc:
            procs.append((127, str(exc)))
    done = []
    for p in procs:
        if not isinstance(p, tuple):
            out = p.communicate()[0].decode(errors="replace")
            p = (p.returncode, out)
        done.append(p)
    return next((d for d in done if d[0]), done[-1])


def _compiler() -> tuple:
    """``(argv prefix, identity)`` of ``$CC``, else ``cc`` / ``gcc``: the
    first whose program is an executable on ``PATH``, identified by its
    resolved path, ``st_mtime_ns`` and ``st_size`` (no process is run:
    ``cc --version`` cost 1.5 ms of every load, and ``subprocess`` 4)."""
    names = [os.environ["CC"]] if os.environ.get("CC") else ["cc", "gcc"]
    for argv in map(str.split, names):
        path = argv and shutil.which(argv[0])
        if path:
            st = os.stat(path)
            return argv, (f"{os.path.realpath(path)} {st.st_mtime_ns} "
                          f"{st.st_size}")
    raise _Unavailable("no-compiler",
                       f"{' / '.join(names)}: no working C compiler")


def read_sources() -> dict:
    """The shipped kernel sources, name -> text."""
    here = Path(__file__).resolve().parent / "csrc"
    return {name: (here / name).read_text("utf-8") for name in SOURCES}


def _units(sources: dict, clones: tuple) -> tuple:
    """Two translation units, compiled side by side: ``advect.c`` in
    float64 with every ``KERNEL`` cloned per ISA, and the other sources,
    ``loops.c`` first (its headers open the unit)."""
    targets = ",".join(f'"{c}"' for c in clones)
    kernel = f"__attribute__((target_clones({targets})))" if clones else ""
    return (f"#include <math.h>\n#define KERNEL {kernel}\n"
            f'const char *repro_clones(void) {{ return "'
            f'{",".join(clones) or "default"}"; }}\n'
            f"#define REAL double\n#define F(x) x##_f64\n#define ABS fabs\n"
            + sources["advect.c"], "".join(sources[n] for n in SOURCES[1:]))


def _includes() -> tuple:
    """The ``-I`` flags of NumPy's and Python's header directories, which
    ``loops.c`` includes (found without a process)."""
    import sysconfig        # 1 ms: only when a library is loaded

    return (f"-I{np.get_include()}",
            f"-I{sysconfig.get_config_var('INCLUDEPY')}")


def _trusted(path: str, kind=stat.S_ISREG) -> bool:
    """Ours alone: a real file (or directory), not a symlink to one, owned
    by the caller, not group- or world-writable."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    return (kind(st.st_mode) and st.st_uid == os.getuid()
            and not st.st_mode & 0o022)


def cache_dir() -> str | None:
    """``$XDG_CACHE_HOME`` (or ``~/.cache``) ``/repro-asuca``, else a per-uid
    directory under the temp dir; ``None`` when neither is a writable
    directory of the caller's alone."""
    def private(path):
        with contextlib.suppress(OSError):
            os.makedirs(path, mode=0o700, exist_ok=True)
        return (_trusted(path, stat.S_ISDIR)
                and os.access(path, os.W_OK | os.X_OK))

    path = os.path.join(os.environ.get("XDG_CACHE_HOME")
                        or os.path.expanduser("~/.cache"), "repro-asuca")
    if private(path):
        return path
    import tempfile

    path = os.path.join(tempfile.gettempdir(), f"repro-asuca-{os.getuid()}")
    return path if private(path) else None


def _build(cc: list, sources: dict, path: str) -> None:
    """Compile to temp names, then ``os.replace``: concurrent builders each
    publish a whole file.  No function multiversioning: one plain build."""
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}"
    names = [f"{tmp}.{k}" for k in range(2)]
    try:
        for clones in (CLONES, ()):
            for name, text in zip(names, _units(sources, clones)):
                Path(name + ".c").write_text(text, "utf-8")
            status, out = _spawn(*([*cc, *FLAGS, *_includes(), "-c",
                                    n + ".c", "-o", n + ".o"] for n in names))
            if status == 0:
                status, out = _spawn([*cc, *FLAGS, *(n + ".o" for n in names),
                                      "-o", tmp, "-lm"])
            if status == 0:
                os.chmod(tmp, 0o700)
                return os.replace(tmp, path)
        errors = "\n".join(ln for ln in out.splitlines() if "error" in ln)
        raise _Unavailable("build-failed", (errors or out).strip()[-500:]
                           or f"exit status {status}")
    except OSError as exc:
        raise _Unavailable("cache-unwritable", str(exc)) from None
    finally:
        for leftover in (tmp, *(n + e for n in names for e in (".c", ".o"))):
            with contextlib.suppress(OSError):
                os.unlink(leftover)


# ---------------------------------------------------------------- layouts
# (no leading anchor or word boundary: each scans 64 KB of C at load, and
# a literal first keeps it to a tenth of a millisecond)
_COMMENT = re.compile(r"/\*[^*]*\*+(?:[^/*][^*]*\*+)*/")
_DEFINE = re.compile(r"#define[ \t]+(\w+)[ \t]+(\d+)[ \t]*$", re.M)
_TYPEDEF = re.compile(r"typedef\s+struct\s*\{([^{}]*)\}\s*(\w+)\s*;")
#: ``[const] type`` and its declarators: stars (each maybe ``const``), a
#: name and at most one array length
_DECLARATION = re.compile(r"\s*(?:const\s+)?(\w+)\s+([^;]+)")
_DECLARATOR = re.compile(
    r"\s*((?:\*\s*(?:const\b\s*)?)*)(\w+)\s*(?:\[([^\]]*)\])?\s*")
_SCALARS = {"long": ctypes.c_long, "int": ctypes.c_int,
            "double": ctypes.c_double}


def layouts(sources: dict) -> tuple:
    """``(structs, defines)``: each ``typedef struct { ... } name;`` of
    ``sources`` as a ``ctypes.Structure``, and the integer ``#define``
    constants.  A field is a ``long``, ``int``, ``double``, pointer
    (``atomic_char *`` too) or array of pointers sized by a product of
    integers and constants; any other ends the load ``build-failed``,
    naming its struct.  A struct only C fills is declared with a tag
    instead."""
    text = _COMMENT.sub(" ", "\n".join(sources.values()))
    defines = {name: int(value) for name, value in _DEFINE.findall(text)}
    structs = {}
    for body, name in _TYPEDEF.findall(text):
        fields = []
        for decl in body.split(";")[:-1]:
            m = _DECLARATION.fullmatch(decl)
            for d in map(_DECLARATOR.fullmatch, m[2].split(",") if m
                         else [""]):
                kind = d and (_PTR if d[1] else _SCALARS.get(m[1]))
                if d and d[3] is not None:      # an array of pointers
                    n = 0
                    with contextlib.suppress(ValueError):
                        n = math.prod(int(defines.get(f.strip(), f))
                                      for f in d[3].split("*"))
                    kind = d[1] and n > 0 and _PTR * n
                if not kind:
                    raise _Unavailable("build-failed", f"struct {name}: cannot"
                                       f" read '{' '.join(decl.split())}'")
                fields.append((d[2], kind))
        structs[name] = type(name, (ctypes.Structure,), {"_fields_": fields})
    return structs, defines


# ------------------------------------------------------------------- load
def _bind(dll: ctypes.CDLL, structs: dict, defines: dict) -> dict:
    def fn(name, *argtypes, restype=None):
        f = getattr(dll, name)
        f.argtypes, f.restype = argtypes, restype
        return f

    def row(name):
        """An entry a captured step's window calls: every call there is
        one of its rows, ``int entry(void *)`` over one struct."""
        return Recorded(name, fn(name, _PTR, restype=ctypes.c_int))

    f64 = SimpleNamespace(**structs, **defines)
    f64.faces = fn("faces_f64", _PTR, _LONG, _PTR, _PTR, _LONG)
    f64.advect = fn("advect_f64", ctypes.c_int, *[_PTR] * 5, *[_LONG] * 6,
                    *[ctypes.c_double] * 2, _PTR, _PTR)
    (f64.substep, f64.slow_stage, f64.context, f64.operator,
     f64.halo_strips, f64.moisture, f64.kessler, f64.copy, f64.relax,
     f64.validate) = map(row, (
        "acoustic_substep", "slow_stage", "acoustic_context",
        "acoustic_operator", "halo_strips", "moisture_finish",
        "kessler_step", "state_copy", "boundary_relax", "state_validate"))
    f64.velocities = fn("state_velocities", *[_LONG] * 3, *[_PTR] * 7)
    f64.metric_flux = fn("acoustic_metric_flux", _PTR, ctypes.c_int,
                         *[_PTR] * 4)
    f64.run_program = fn("run_program", _PTR, _PTR, _PTR, restype=_LONG)
    dll.repro_clones.restype = ctypes.c_char_p
    ufuncs = (np.exp, np.power)
    dll.repro_loops((_PTR * 2)(*map(id, ufuncs)), (_LONG * 2)(*(
        u.types.index(t) for u, t in zip(ufuncs, ("d->d", "dd->d")))))
    return {"f64": f64,
            "clones": tuple(dll.repro_clones().decode().split(","))}


def _find_build_check(lib: Native, sources: dict) -> None:
    cc, identity = _compiler()
    # what is compiled, not what it is composed of: the units of both
    # builds, so that an edit to their composition is a new library; and
    # the NumPy whose headers and loops it takes
    lib.hash = hashlib.sha256("\0".join(
        [*_units(sources, CLONES), *_units(sources, ()), *FLAGS,
         *_includes(), np.__version__, identity,
         platform.machine()]).encode()).hexdigest()[:16]
    structs, defines = layouts(sources)
    directory = cache_dir()
    if directory is None:
        raise _Unavailable("cache-unwritable", "no private cache directory")
    path = os.path.join(directory, f"native-{lib.hash}.so")
    if not _trusted(path):
        t0 = time.perf_counter()
        try:
            if _spawn(cc + ["--version"])[0] != 0:
                lib.hash = ""           # no library has this name
                raise _Unavailable("no-compiler", f"{' '.join(cc)}: no "
                                   f"working C compiler")
            _build(cc, sources, path)
        finally:
            lib.build_s = time.perf_counter() - t0
    try:
        vars(lib).update(_bind(ctypes.CDLL(path), structs, defines))
    # ValueError: numpy.exp or numpy.power without an all-double loop
    except (OSError, AttributeError, ValueError) as exc:
        raise _Unavailable("build-failed", str(exc)) from None
    from ..core import acoustic
    from . import dycore, kessler

    with using(None):       # a check names the library it runs, always
        failed = (dycore.native_check(lib) or acoustic.native_check(lib)
                  or kessler.native_check(lib))
    if failed:
        raise _Unavailable("self-check-failed", failed)


def load(sources: dict | None = None) -> Native:
    """Find or build the library of ``sources`` (default: the shipped ones),
    load and self-check it.  Always returns; ``state`` says how it ended."""
    t0 = time.perf_counter()
    lib = Native("loaded")
    try:
        _find_build_check(lib, sources or read_sources())
    except _Unavailable as why:
        lib.state, lib.detail = why.args
        lib.f64 = None
    COUNTS[lib.state] += 1
    lib.load_s = time.perf_counter() - t0 - lib.build_s
    return lib


_UNSET = object()
_FORCED: contextvars.ContextVar = contextvars.ContextVar(
    "repro_native", default=_UNSET)


@functools.cache
def library() -> Native:
    """This process's one :func:`load`, paid in ``Experiment.prepare()``
    (two threads that both come first each load: builds publish whole)."""
    return load()


@contextlib.contextmanager
def using(lib: Native | None):
    """Inside the block :func:`kernels` answers from ``lib`` (``None``: the
    oracles): how the self-check and the tests run both side by side."""
    token = _FORCED.set(lib)
    try:
        yield lib
    finally:
        _FORCED.reset(token)


def kernels() -> SimpleNamespace | None:
    """The verified compiled kernels (float64), else ``None``: *the*
    question a body asks before it takes its compiled branch."""
    lib = _FORCED.get()
    lib = library() if lib is _UNSET else lib   # not loaded: f64 = None
    return lib and lib.f64


def wave(shape, k: float, mean: float = 0.0) -> np.ndarray:
    """A deterministic field for the load-time checks (no RNG import)."""
    return mean + np.sin(np.arange(math.prod(shape)) * k).reshape(shape)


def same(got, want) -> bool:
    """The load-time checks' equality: equal bytes, NaN payloads exempt
    (IEEE leaves them open)."""
    if got.tobytes() == want.tobytes():
        return True
    nan = np.isnan(want)
    return (np.array_equal(np.isnan(got), nan)
            and np.where(nan, 0, got).tobytes()
            == np.where(nan, 0, want).tobytes())


def pointers(dtype, arrays: dict, shapes: dict | None = None
             ) -> "list | Unbound":
    """Addresses of the named ``arrays`` (the caller keeps them alive), or
    the :class:`Unbound` of the first one that is not a C-contiguous exact
    ndarray of ``dtype`` (and of its shape in ``shapes``, where named)."""
    dtype, shapes = np.dtype(dtype), shapes or {}
    for name, a in arrays.items():
        if type(a) is not np.ndarray:
            return Unbound(name, f"a {type(a).__name__}")
        if a.dtype != dtype:
            return Unbound(name, a.dtype.name)
        if name in shapes and a.shape != shapes[name]:
            return Unbound(name, f"shape {a.shape}")
        if not a.flags.c_contiguous:
            return Unbound(name, "not C-contiguous")
    # address() inline: one Python call fewer per operand
    return [_ADDRESSOF(_FROM_BUFFER(a)) if a.flags.writeable and a.size
            else a.ctypes.data for a in arrays.values()]


def address(a: np.ndarray) -> int:
    """The data address of a C-contiguous array: through
    ``ctypes.c_char.from_buffer`` (≈ 0.7 µs) where it is writable and not
    empty, else ``a.ctypes.data`` (≈ 2.3 µs)."""
    if a.flags.writeable and a.size:
        return _ADDRESSOF(_FROM_BUFFER(a))
    return a.ctypes.data
