"""The runtime is stdlib-only: every import in the package is package-relative
or names a module of the running Python's standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ariki_koike"


def foreign_imports(source: str) -> list[str]:
    """The top-level names of the absolute imports in `source` that are not in
    `sys.stdlib_module_names`."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_the_guard_flags_third_party_imports():
    source = "import numpy as np\nfrom sympy.core import Rational\nimport os.path\nfrom . import fields\nfrom .linalg import solve\n"
    assert foreign_imports(source) == ["numpy", "sympy.core"]


def test_the_package_imports_only_the_standard_library():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    foreign = {path.name: names for path in files if (names := foreign_imports(path.read_text()))}
    assert foreign == {}
