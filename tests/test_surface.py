import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_has_a_user():
    # each name the package exports is used by the package, the bench or the
    # README, not only by tests; its own def or class line does not count
    pkg = ROOT / "src" / "polymerlab"
    names = [a.asname or a.name for node in ast.parse((pkg / "__init__.py").read_text()).body
             if isinstance(node, ast.ImportFrom) for a in node.names]
    files = [*pkg.glob("*.py"), *(ROOT / "bench").glob("*.py"), ROOT / "README.md"]
    lines = [ln for f in files if f.name != "__init__.py" for ln in f.read_text().splitlines()]
    unused = [name for name in names if not any(
        re.search(rf"\b{name}\b", ln) and not re.match(rf"\s*(def|class) {name}\b", ln)
        for ln in lines)]
    assert names and unused == []
