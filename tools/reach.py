#!/usr/bin/env python3
"""What the products reach: every top-level def of ``src/repro``, classed.

    python tools/reach.py        # from the repository root

Runs the product list (``tools/products.sh``: the CI smoke commands with
their assertions, the bench regression gate, the paper reports, the host
benchmark smoke, the examples, ``repro reproduce``) and then the tier-1
suite, every Python process under a ``sitecustomize`` hook that records
each ``src/repro`` code object it calls.  From the two runs it writes
``docs/REACH.md``: each module function and class method of ``src/repro``
is reached by the *products*, by the *tests only*, or by *nothing*.

A def that the products do not reach stays only for a reason, written in
its row of the map (:data:`REASONS`).  Regeneration carries each row's
reason over; the run fails if a product command or a test fails, or if a
def that no product reaches has no reason.

The hook installs both ``sys.settrace`` and ``sys.setprofile``: the host
benchmark's worker replaces the profile hook while it counts calls, and
calls made meanwhile are seen by the trace hook only.  Clearing either
hook reinstalls the recorder, so that pytest-benchmark's pause around a
timed call does not hide what the call reaches.
"""
from __future__ import annotations

import ast
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAP = ROOT / "docs" / "REACH.md"
PRODUCTS = ROOT / "tools" / "products.sh"

#: why a def that no product reaches may stay (the first word of its
#: reason cell; the rest of the cell says where)
REASONS = {
    "docs": "a README, docs, TUTORIAL or PAPER_MAP page promises it",
    "cli": "a CLI flag reaches it that no product command passes",
    "fault": "a fault, error or safety path",
    "oracle": "an oracle or reference that tests compare against",
    "measure": "a measuring helper of a behavioural test",
    "bench": "bench/ uses it",
    "abstract": "an abstract base method, overridden by every subclass",
}
CLASSES = ("products", "tests only", "nothing")

HOOK = '''\
"""Reach recorder: every code object a call enters, dumped at exit."""
import atexit, os, sys, threading

_seen = set()
_add = _seen.add
_cwd = os.getcwd()


def _trace(frame, event, arg):
    _add(frame.f_code)


def _profile(frame, event, arg):
    if event == "call":
        _add(frame.f_code)


def _dump():
    src = os.environ["REACH_SRC"] + os.sep
    rows = set()
    for code in list(_seen):
        path = os.path.realpath(os.path.join(_cwd, code.co_filename))
        if path.startswith(src):
            rows.add(path[len(src):] + "\\t" + code.co_qualname + "\\n")
    out = os.path.join(os.environ["REACH_RECORDS"], f"{os.getpid()}.txt")
    with open(out, "a") as f:
        f.writelines(sorted(rows))


def _keep(install, hook):
    """``install`` that never switches recording off: pytest-benchmark
    pauses both hooks around every timed call, bench/worker.py clears the
    profile hook after counting; clearing reinstalls ours instead."""
    def keeping(fn):
        install(hook if fn is None else fn)
    return keeping


atexit.register(_dump)
sys.settrace(_trace)
threading.settrace(_trace)
sys.setprofile(_profile)
threading.setprofile(_profile)
sys.settrace = _keep(sys.settrace, _trace)
sys.setprofile = _keep(sys.setprofile, _profile)
'''


# ------------------------------------------------------------------ defs

def _code_lines(lines: list[str], lo: int, hi: int) -> int:
    """Non-blank lines not starting with ``#`` (ROADMAP's size count)."""
    return sum(1 for s in lines[lo - 1:hi]
               if s.strip() and not s.lstrip().startswith("#"))


def top_level_defs(src: pathlib.Path = SRC) -> dict[str, int]:
    """``"repro/pkg/mod.py::Class.method"`` -> lines, for every module
    function and every method of a (possibly nested) module class."""
    out = {}
    for path in sorted((src / "repro").rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        lines = path.read_text().splitlines()

        def walk(body, prefix):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    lo = min([node.lineno]
                             + [d.lineno for d in node.decorator_list])
                    out[f"{rel}::{prefix}{node.name}"] = _code_lines(
                        lines, lo, node.end_lineno)
                elif isinstance(node, ast.ClassDef):
                    walk(node.body, f"{prefix}{node.name}.")

        walk(ast.parse("\n".join(lines)).body, "")
    return out


# ------------------------------------------------------------------- map

ROW = re.compile(r"^\| `([^`]+)` \| (\d+) \| ([a-z ]+) \| (.*) \|$")


def read_map(path: pathlib.Path = MAP) -> dict[str, tuple[int, str, str]]:
    """def -> (lines, class, reason) for every row of a map."""
    if not path.exists():
        return {}
    rows = {}
    for line in path.read_text().splitlines():
        m = ROW.match(line)
        if m:
            rows[m[1]] = (int(m[2]), m[3], m[4].strip())
    return rows


def reason_code(reason: str) -> str:
    return reason.split(":", 1)[0].strip()


def render(defs: dict[str, int], classes: dict[str, str],
           reasons: dict[str, str]) -> str:
    totals = {c: [0, 0] for c in CLASSES}
    for name, n in defs.items():
        totals[classes[name]][0] += 1
        totals[classes[name]][1] += n
    out = [
        "# What the products reach",
        "",
        "Generated by `python tools/reach.py`; CI's `products` job "
        "regenerates it and uploads it. Every top-level def of `src/repro` "
        "(module functions and class methods; lines counted like ROADMAP's "
        "size line) is reached by the *products* (a command of "
        "`tools/products.sh`), by the *tests only* (the tier-1 suite), or "
        "by *nothing*.",
        "",
        "A def the products do not reach stays only for one of these "
        "reasons, the first word of its reason cell:",
        "",
        "| reason | meaning |",
        "|---|---|",
        *(f"| `{k}` | {v} |" for k, v in REASONS.items()),
        "",
        "| class | defs | lines |",
        "|---|---|---|",
        *(f"| {c} | {totals[c][0]} | {totals[c][1]} |" for c in CLASSES),
        "",
        "## Not reached by the products",
        "",
        "| def | lines | class | reason |",
        "|---|---|---|---|",
    ]
    for name, n in defs.items():
        if classes[name] != "products":
            out.append(f"| `{name}` | {n} | {classes[name]} | "
                       f"{reasons.get(name, '')} |")
    out += ["", "## Reached by the products", "",
            "| def | lines | class | reason |", "|---|---|---|---|"]
    out += [f"| `{name}` | {n} | products |  |"
            for name, n in defs.items() if classes[name] == "products"]
    return "\n".join(out) + "\n"


# ------------------------------------------------------------------- run

def run_recorded(cmd: list[str], records: pathlib.Path, hook: pathlib.Path,
                 cache: pathlib.Path) -> int:
    records.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    env.update(REACH_SRC=str(SRC.resolve()), REACH_RECORDS=str(records),
               XDG_CACHE_HOME=str(cache))
    print(f"reach: {' '.join(cmd)}", file=sys.stderr, flush=True)
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


def reached(records: pathlib.Path) -> set[str]:
    """Recorded code objects -> the top-level defs they belong to (a
    nested function or comprehension counts for its enclosing def)."""
    out = set()
    for f in records.glob("*.txt"):
        for line in f.read_text().splitlines():
            rel, qual = line.split("\t")
            out.add(f"{rel}::{qual.split('.<locals>')[0]}")
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        tmp = pathlib.Path(tmp)
        hook = tmp / "hook"
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(HOOK)
        # a private, empty native cache: the products pay the cold build
        cache = tmp / "cache"
        rc_products = run_recorded(["bash", str(PRODUCTS)],
                                   tmp / "products", hook, cache)
        rc_tests = run_recorded([sys.executable, "-m", "pytest", "-q",
                                 "-p", "no:cacheprovider"],
                                tmp / "tests", hook, cache)
        by_products = reached(tmp / "products")
        by_tests = reached(tmp / "tests")

    defs = top_level_defs()
    classes = {name: ("products" if name in by_products else
                      "tests only" if name in by_tests else "nothing")
               for name in defs}
    reasons = {name: row[2] for name, row in read_map().items()
               if name in defs and classes[name] != "products" and row[2]}
    MAP.write_text(render(defs, classes, reasons))

    missing = [n for n in defs if classes[n] != "products"
               and reason_code(reasons.get(n, "")) not in REASONS]
    for name in missing:
        print(f"reach: no reason for {classes[name]} def {name}",
              file=sys.stderr)
    for c in CLASSES:
        picked = [n for n in defs if classes[n] == c]
        print(f"reach: {c}: {len(picked)} defs, "
              f"{sum(defs[n] for n in picked)} lines", file=sys.stderr)
    print(f"reach: wrote {MAP.relative_to(ROOT)}", file=sys.stderr)
    if rc_products or rc_tests:
        print(f"reach: products exit {rc_products}, tier-1 exit {rc_tests}",
              file=sys.stderr)
        return 1
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
