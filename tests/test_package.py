"""The program under ``src/`` is the system alone: no module of it imports
test code or a dependency only the tests have (DuckDB, pytest)."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
TEST_ONLY = {"duckdb", "pytest", "tests"}


def test_src_imports_no_test_code():
    """Every module is parsed, not imported, so none of its imports runs."""
    paths = sorted(SRC.rglob("*.py"))
    assert SRC / "repro" / "diffusion" / "reach.py" in paths
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += [f"{path.relative_to(SRC)}: {n}" for n in names
                    if n.split(".")[0] in TEST_ONLY]
    assert not bad
