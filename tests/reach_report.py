"""Which functions of dirhom the CLI reference gate never calls.

    python tests/reach_report.py

Runs every run of the CLI reference gate (`test_cli_reference.RUNS`) in
this one process under `sys.setprofile`, then prints, grouped by module,
each function and method defined under ``src/dirhom`` that no run called,
with its first line and its length in lines.  It is a report, not a check:
it exits 0 whatever it finds, and pytest does not collect it (its name does
not start with ``test_``).  A function defined inside another counts on its
own, so one that is never called lists its nested functions too.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
sys.path[:0] = [str(SRC), str(TESTS)]

import dirhom  # noqa: E402
from test_cli_reference import RUNS, run, write_inputs  # noqa: E402


def definitions(path: Path) -> list[tuple[int, str, int]]:
    """(first line, qualified name, length in lines) of each function and
    method in a source file; a decorated one starts at its first decorator,
    as its code object does."""
    out = []

    def walk(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out.append((first, name, child.end_lineno - first + 1))
                walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return sorted(out)


def called_in_gate() -> set[tuple[str, int]]:
    """(real file path, first line) of every Python function the gate's runs call."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        inputs = write_inputs(Path(tmp))
        sys.setprofile(profile)
        try:
            for run_id in RUNS:
                run(run_id, inputs)
        finally:
            sys.setprofile(None)
    return {(os.path.realpath(co.co_filename), co.co_firstlineno) for co in seen}


def main() -> None:
    called = called_in_gate()
    package = Path(dirhom.__file__).resolve().parent
    total = unreached = lines = 0
    for path in sorted(package.glob("*.py")):
        defs = definitions(path)
        missed = [d for d in defs if (os.path.realpath(path), d[0]) not in called]
        # a nested function's lines are counted once, with the one around it
        span = len(set().union(*(range(first, first + n) for first, _, n in missed)))
        total += len(defs)
        unreached += len(missed)
        lines += span
        print(f"dirhom.{path.stem}: {len(missed)} of {len(defs)} functions never called "
              f"({span} lines)")
        for first, name, n in missed:
            print(f"  line {first:4d}  {name} ({n} lines)")
    print(f"{unreached} of {total} functions, {lines} lines, never called "
          f"in the {len(RUNS)} runs of the CLI reference gate")


if __name__ == "__main__":
    main()
