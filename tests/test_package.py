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


def test_no_default_seed_or_world_count():
    """Every caller names its RNG seed and its number of possible worlds:
    no function under ``src/`` defaults ``seed`` or ``n_worlds``, so no two
    estimates can silently run on different seeds or world counts."""
    bad = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            bad += [f"{path.relative_to(SRC)}:{node.lineno} {arg.arg}" for arg in defaulted
                    if arg.arg in ("seed", "n_worlds")]
    assert not bad
