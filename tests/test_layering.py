"""The storage of `exactla.Matrix` is private to `exactla`."""

import ast
from pathlib import Path

import dirhom

SOURCES = sorted(Path(dirhom.__file__).parent.glob("*.py"))
PRIVATE = {"_rows", "_cols"}


def test_only_exactla_reads_matrix_storage():
    assert any(path.name == "exactla.py" for path in SOURCES)
    reads = [f"{path.name}:{node.lineno}: .{node.attr}"
             for path in SOURCES if path.name != "exactla.py"
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in PRIVATE]
    assert not reads, "matrix storage read outside exactla:\n" + "\n".join(reads)


# The one name a module imports and never uses, with the reason it stays.
KEPT_UNUSED = {("homology", "kernel_basis"): "benchmark/tests/test_benchmark.py reads "
                                             "dirhom.homology.kernel_basis"}


def test_every_import_is_used():
    """Each name a module imports is read in it, outside the package's
    `__init__`, whose imports are its exports, and `KEPT_UNUSED`."""
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [(path.stem, name, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"
                   for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                   if name not in read]
    assert {(m, name) for m, name, _ in unused} == set(KEPT_UNUSED), unused
