"""Compiled bodies of the run path's loops: built once per machine,
proved at load, never required.

``csrc/advect.c`` (the Koren sweep plus flux divergence, both float
widths), ``csrc/acoustic.c`` (the HE-VI substep as one call, the
linearization, the operator assembly and the velocities of a state),
``csrc/kessler.c`` (the C segments of the warm-rain body) and
``csrc/halo.c`` (the halo strip runner) become one shared object per
*(sources, flags, compiler, machine)* hash in the user's cache directory,
loaded through :mod:`ctypes`; the
compiler is identified by its resolved path, ``st_mtime_ns`` and
``st_size``, so a warm load runs no process.  It is used only after every
kernel in it has reproduced its oracle byte for byte on a fixed battery
(the ``native_check`` of :mod:`repro.stencil.dycore`,
:mod:`repro.core.acoustic` and :mod:`repro.stencil.kessler`); every other
outcome is one of four typed, counted reasons and ends on the NumPy
bodies — never on a different field.  A compiled kernel has one NumPy
text, its oracle, and that is what runs without a library; whether a
compiled body runs is this one fact, :func:`kernels` (a ``reference``
executor holds it off with :func:`using`).  A loaded library
whose body cannot take one call's operands is a per-call fact, not a
fifth outcome: that call runs the oracle and :func:`unbound` counts it,
by reason.  docs/STENCILS.md "Compiled bodies".
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
import shutil
import stat
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = ["FLAGS", "CLONES", "STATES", "Native", "Unbound", "load",
           "library", "kernels", "address", "pointers", "same", "unbound",
           "using"]

#: value-preserving only: no contraction, no reassociation, no -march (the
#: cache may be shared between hosts; the clones pick the ISA at load time)
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off",
         "-fno-trapping-math", "-fno-math-errno")
CLONES = ("avx512f", "avx2", "default")
SOURCES = ("advect.c", "acoustic.c", "kessler.c", "halo.c")
STATES = ("loaded", "no-compiler", "build-failed", "cache-unwritable",
          "self-check-failed")
#: how every :func:`load` of this process ended, by state
COUNTS: Counter = Counter()
#: this process's NumPy calls of a body a loaded library could not take,
#: by ``(body, reason)`` (:func:`unbound`; per process like :data:`COUNTS`,
#: so that ``repro doctor``'s host line carries it too)
UNBOUND: Counter = Counter()
_UNBOUND_LOCK = threading.Lock()

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
    #: ``faces`` / ``advect`` per width; f64 also has the one-call
    #: ``substep``, ``metric_flux``, ``context``, ``operator``,
    #: ``velocities``, ``kessler`` and ``halo_strips`` (byte copies: any
    #: dtype)
    f64: SimpleNamespace | None = field(default=None, repr=False)
    f32: SimpleNamespace | None = field(default=None, repr=False)

    def stats(self) -> dict:
        unbound: dict = {}
        for (body, why), n in sorted(UNBOUND.items()):
            unbound.setdefault(body, {})[why] = n
        return {"state": self.state, "detail": self.detail,
                "hash": self.hash, "clones": list(self.clones),
                "build_s": round(self.build_s, 3), "unbound": unbound}

    def report(self) -> str:
        text = f"native[{self.state}]"
        if self.hash:
            text += (f": {self.hash} clones {','.join(self.clones) or '-'}"
                     f" build {self.build_s:.2f} s load "
                     f"{self.load_s * 1e3:.1f} ms")
        text += f" ({self.detail})" if self.detail else ""
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


def unbound(body: str, why: Unbound) -> None:
    """Count one call of ``body`` (plural: ``"acoustic stages"``) that ran
    on NumPy although a library is loaded (stepping threads count too)."""
    with _UNBOUND_LOCK:
        UNBOUND[body, f"{why.operand} {why.fact}"] += 1


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
    """Two translation units, compiled side by side: ``advect.c`` once per
    float width with every ``KERNEL`` cloned per ISA, and the float64-only
    sources (0.63 and 0.77 s alone, 1.06 s as one unit)."""
    targets = ",".join(f'"{c}"' for c in clones)
    kernel = f"__attribute__((target_clones({targets})))" if clones else ""
    widths = "".join(
        f"#define REAL {real}\n#define F(x) x##_{tag}\n#define ABS {fabs}\n"
        f"{sources['advect.c']}\n#undef REAL\n#undef F\n#undef ABS\n"
        for real, tag, fabs in (("double", "f64", "fabs"),
                                ("float", "f32", "fabsf")))
    return (f"#include <math.h>\n#define KERNEL {kernel}\n"
            f'const char *repro_clones(void) {{ return "'
            f'{",".join(clones) or "default"}"; }}\n' + widths,
            "#include <math.h>\n#include <string.h>\n"
            + "".join(sources[n] for n in SOURCES[1:]))


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
            status, out = _spawn(*([*cc, *FLAGS, "-c", n + ".c", "-o",
                                    n + ".o"] for n in names))
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


# ------------------------------------------------------------------- load
def _bind(dll: ctypes.CDLL) -> dict:
    def fn(name, *argtypes, restype=None):
        f = getattr(dll, name)
        f.argtypes, f.restype = argtypes, restype
        return f

    out = {}
    for tag, real in (("f64", ctypes.c_double), ("f32", ctypes.c_float)):
        out[tag] = SimpleNamespace(
            faces=fn(f"faces_{tag}", _PTR, _LONG, _PTR, _PTR, _LONG),
            advect=fn(f"advect_{tag}", ctypes.c_int, *[_PTR] * 5,
                      *[_LONG] * 6, real, real, _PTR, _PTR))
    f64 = out["f64"]                                # acoustic.c: float64 only
    f64.substep = fn("acoustic_substep", _PTR)
    f64.velocities = fn("state_velocities", *[_LONG] * 3, *[_PTR] * 7)
    f64.metric_flux = fn("acoustic_metric_flux", _PTR, ctypes.c_int,
                         *[_PTR] * 4)
    f64.context = fn("acoustic_context", *[_LONG] * 3, *[ctypes.c_double] * 2,
                     *[_PTR] * 15)
    f64.operator = fn("acoustic_operator", _LONG, _LONG, ctypes.c_double,
                      *[_PTR] * 10, restype=ctypes.c_int)
    f64.kessler = fn("kessler", _PTR, ctypes.c_int, restype=ctypes.c_double)
    f64.pack = fn("kessler_pack", _PTR, _LONG, _PTR, restype=_LONG)
    f64.unpack = fn("kessler_unpack", _PTR, _LONG, _PTR, _LONG, _PTR)
    f64.halo_strips = fn("halo_strips", _LONG, _PTR, _PTR)
    dll.repro_clones.restype = ctypes.c_char_p
    out["clones"] = tuple(dll.repro_clones().decode().split(","))
    return out


def _find_build_check(lib: Native, sources: dict) -> None:
    cc, identity = _compiler()
    lib.hash = hashlib.sha256("\0".join(
        [*(sources[n] for n in SOURCES), *FLAGS, *CLONES, identity,
         platform.machine()]).encode()).hexdigest()[:16]
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
        vars(lib).update(_bind(ctypes.CDLL(path)))
    except (OSError, AttributeError) as exc:
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
        lib.f64 = lib.f32 = None
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


def kernels(dtype) -> SimpleNamespace | None:
    """The verified compiled kernels for ``dtype``, else ``None``: *the*
    question a body asks before it takes its compiled branch."""
    lib = _FORCED.get()
    lib = library() if lib is _UNSET else lib   # not loaded: f64 = f32 = None
    return lib and {"d": lib.f64, "f": lib.f32}.get(np.dtype(dtype).char)


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
