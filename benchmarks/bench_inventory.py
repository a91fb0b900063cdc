"""Experiment E8 — §6: "The current minimalistic prototype is based on
Microsoft C# and has 36 classes and less than 1500 lines of code."

Reports what a deployment of this reproduction loads next to the
prototype. The deployment is ``tests/helpers.py``'s DEPLOYMENT_SCENARIO,
the one the import-boundary test pins: one ``AsyncRuntime`` container with
one bare service, run in a fresh interpreter. Every ``repro`` module it
loaded is counted by static analysis, per package. The whole source tree
(the simulator, flight model, applications and checkers too) is the second
total, for scale.
"""

import ast
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from exphelpers import print_table, run_benchmark
from helpers import SRC_ROOT, deployment_closure

PACKAGE_ROOT = SRC_ROOT / "repro"


def module_path(name: str) -> Path:
    rel = PACKAGE_ROOT.joinpath(*name.split(".")[1:])
    package = rel / "__init__.py"
    return package if package.is_file() else rel.with_suffix(".py")


def count_module(path: Path):
    """-> (classes, functions, lines, code lines); code lines are the
    non-blank lines that are not comments."""
    text = path.read_text(encoding="utf-8")
    tree = ast.parse(text)
    classes = sum(isinstance(node, ast.ClassDef) for node in ast.walk(tree))
    functions = sum(
        isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(tree)
    )
    lines = text.splitlines()
    code = sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))
    return classes, functions, len(lines), code


def tally(paths):
    """-> {package: [files, classes, functions, lines, code lines]}."""
    per_package = {}
    for path in paths:
        parts = path.relative_to(PACKAGE_ROOT).parts
        package = "(root)" if len(parts) == 1 else parts[0]
        entry = per_package.setdefault(package, [0, 0, 0, 0, 0])
        entry[0] += 1
        for i, value in enumerate(count_module(path), start=1):
            entry[i] += value
    return per_package


def total(per_package):
    return [sum(column) for column in zip(*per_package.values())]


def run_experiment():
    loaded = tally(sorted(module_path(name) for name in deployment_closure()))
    everything = tally(sorted(PACKAGE_ROOT.rglob("*.py")))
    rows = [[package, *counts] for package, counts in sorted(loaded.items())]
    closure, tree = total(loaded), total(everything)
    rows.append(["deployment closure", *closure])
    rows.append(["whole source tree", *tree])
    rows.append(["paper's C# prototype", "?", 36, "?", "<1500", "?"])
    print_table(
        "E8: what a deployment loads vs the paper's prototype",
        ["package", "modules", "classes", "functions", "lines", "code lines"],
        rows,
    )
    return {"closure": closure, "tree": tree}


def test_inventory(benchmark):
    result = run_benchmark(benchmark, run_experiment)
    # The closure is the middleware alone: at least the prototype's 36
    # classes, and a strict subset of the tree.
    assert result["closure"][1] >= 36
    assert result["closure"][0] < result["tree"][0]
    benchmark.extra_info.update(
        closure_modules=result["closure"][0],
        closure_classes=result["closure"][1],
        closure_lines=result["closure"][3],
    )


if __name__ == "__main__":
    run_experiment()
