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
