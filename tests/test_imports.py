"""Every module reads each name it imports."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# a package's __init__ imports names to re-export them, not to read them
MODULES = sorted(path for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")]
                 if path.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []
