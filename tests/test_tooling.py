"""Repository-level checks on the package source."""

import ast
import importlib
import importlib.util
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


def test_bench_tracer_entry_points_exist():
    # the tracer wraps these by name; a missing one reads as zero calls
    path = SRC.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = [entry for entries in tracer.LAYERS.values() for entry in entries]
    wanted.append(("assembly", "_set_partitions"))
    missing = []
    for module, name in wanted:
        mod = importlib.import_module("blinfty." + module)
        if not callable(getattr(mod, name, None)):
            missing.append("%s.%s" % (module, name))
    assert not missing, missing
