"""Repository-level checks on the package source."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "blinfty"


def test_package_imports_only_the_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s:%d %s" % (path.name, node.lineno, n)
                        for n in names
                        if n.split(".")[0] not in sys.stdlib_module_names]
    assert not outside, outside
