"""Which ``src`` functions does no entry point reach?

    python tools/reachability.py            # fail on an unreached function not in the list
    python tools/reachability.py --write    # rewrite the list, keeping its reasons
    python tools/reachability.py --runs 3   # unreached = unreached in any of 3 runs

Each run is one fresh interpreter, in which the entry points run in-process
under ``sys.setprofile`` and ``threading.setprofile``, so every thread they
start is seen: every ``examples/*.py``, the ``repro.cli`` subcommands on the
example missions, and the benchmark suite's five workloads at ``--smoke``
size, untraced and traced (``benchmarks/suite`` is imported, not changed).
What runs only under tests is therefore unreached. One run takes about
100 s on a 2-core host.

``tools/unreached.txt`` lists each unreached function with one reason:

- ``protocol``: a declaration that implementations fill in;
- ``reference``: what a test checks the system against or reads it
  through (a differential oracle, the schema lock, a manual clock, an
  accessor, a repr);
- ``ablation``: an arm or case that an experiment or a test switches on and
  no entry point does (egress shaping, the E5 TCP model, other scheduling
  policies, union types, the §4.1 initial value);
- ``tested-recovery``: a failure path a test drives (a task that raises, a
  full send buffer, a peer restart, a slow subscriber);
- ``timing-dependent``: reached in some runs and not in others.

A function that is unreached and not listed, or a listed function that no
longer exists, is an error; a listed function that was reached is noted.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import json
import os
import runpy
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LIST = ROOT / "tools" / "unreached.txt"
REASONS = ("protocol", "reference", "ablation", "tested-recovery", "timing-dependent")
HEADER = """\
# src functions that no entry point reaches, one per line with its reason.
# Checked and rewritten by tools/reachability.py; see its docstring.

"""
MISSION = "examples/missions/survey.json"
CLI_RUNS = (
    ["validate", MISSION],
    ["inventory"],
    ["fly", MISSION],
    ["fly", "examples/missions/perimeter.json"],
    ["trace", MISSION, "--json", "--flight"],
    ["metrics", MISSION, "--json"],
    ["verify", MISSION, "--trace", "--heal-bound", "5"],
    ["check"],
    ["check", "--format", "json"],
    *(["attack", MISSION, "--persona", p] for p in ("flooder", "nacker", "replayer", "garbler")),
    ["attack", MISSION, "--undefended"],
)


def src_functions():
    """``{(path, first line): "path::qualname"}`` for every def under src."""
    functions = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                functions[(path, first)] = f"{path}::{name}"
                visit(child, name + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(ROOT).as_posix()
        visit(ast.parse(file.read_text(encoding="utf-8")), "", path)
    return functions


def run_entry_points():
    """Run every entry point once; -> the code objects that ran."""
    seen = set()
    add = seen.add

    def hook(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    sys.path[:0] = [str(SRC), str(ROOT / "benchmarks" / "suite")]
    argv = sys.argv
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            for example in sorted((ROOT / "examples").glob("*.py")):
                sys.argv = [str(example)]
                try:
                    runpy.run_path(str(example), run_name="__main__")
                except SystemExit as exit_:
                    if exit_.code not in (None, 0):
                        raise RuntimeError(f"{example.name} exited with {exit_.code}") from None
            from repro import cli

            for args in CLI_RUNS:
                if cli.main(args) != 0:
                    raise RuntimeError(f"repro.cli {' '.join(args)} failed")
            import worker

            for traced in (False, True):
                for workload in sorted(worker.WORKLOADS):
                    if not worker.run(workload, 1, 18.0, traced, True)["correct"]:
                        raise RuntimeError(f"suite workload {workload} failed its checks")
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        sys.argv = argv
    return seen


def reached_keys(codes):
    keys = set()
    for code in codes:
        path = Path(code.co_filename)
        if path.is_absolute() and path.is_relative_to(SRC):
            keys.add((path.relative_to(ROOT).as_posix(), code.co_firstlineno))
    return keys


def read_list():
    listed = {}
    if LIST.exists():
        for line in LIST.read_text(encoding="utf-8").splitlines():
            if line.strip() and not line.startswith("#"):
                name, reason = line.split()
                listed[name] = reason
    return listed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--write", action="store_true", help="rewrite the list")
    parser.add_argument("--one", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    functions = src_functions()
    if args.one:  # one run: the unreached names as the last line
        reached = reached_keys(run_entry_points())
        print(json.dumps(sorted(name for key, name in functions.items() if key not in reached)))
        return 0
    per_run = []
    for _ in range(args.runs):
        one = subprocess.run([sys.executable, __file__, "--one"], stdout=subprocess.PIPE,
                             text=True, check=True)
        per_run.append(set(json.loads(one.stdout.splitlines()[-1])))
    unreached = set.union(*per_run)
    varying = unreached - set.intersection(*per_run)
    listed = read_list()
    print(f"{len(functions)} functions, {len(unreached)} unreached "
          f"({len(varying)} in some runs only), {len(listed)} listed")
    if args.write:
        lines = [f"{name} {'timing-dependent' if name in varying else listed.get(name, '?')}"
                 for name in sorted(unreached)]
        LIST.write_text(HEADER + "\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {LIST}; give every '?' a reason")
        return 0
    names = set(functions.values())
    problems = [f"unreached, not listed: {name}" for name in sorted(unreached - listed.keys())]
    problems += [f"listed, no such function: {name}" for name in sorted(listed.keys() - names)]
    problems += [f"unknown reason {reason!r}: {name}"
                 for name, reason in sorted(listed.items()) if reason not in REASONS]
    for name in sorted(listed.keys() & names - unreached):
        if listed[name] != "timing-dependent":
            print(f"note: listed but reached: {name}")
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
