"""The library's runtime dependencies are the standard library only.

The test extra installs third-party packages (pytest, hypothesis,
mpmath), so an import of one of them from `src/btq` would still run
under the tests; this check reads the imports instead.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "btq"


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            for root in roots:
                assert root in sys.stdlib_module_names or root == "btq", (path.name, root)
