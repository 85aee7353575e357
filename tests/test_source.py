"""Source-level rules for the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ktrees"
BROAD = {"Exception", "BaseException"}


def test_no_broad_except():
    """A broad handler can turn a bug into a verdict; catch KTreeError."""
    broad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or getattr(t, "id", None) in BROAD for t in types):
                broad.append(f"{path.name}:{node.lineno}")
    assert not broad, f"broad except clauses: {broad}"
