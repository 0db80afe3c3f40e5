"""Repository-level checks on the package source."""

import ast
import importlib
import importlib.util
import io
import pickle
import random
import sys
import types
from fractions import Fraction
from pathlib import Path

from blinfty import assembly, cli, fixtures, linalg
from blinfty.errors import IncompleteTableError
from blinfty.invariants import default_schedule
from blinfty.structures import (BLAlgebra, BLMorphism, Bounds, OperationTable,
                                PointedMap, compose, zero_table)
from blinfty.words import EElement, enumerate_basis

from util import eword, random_table, space, table

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


def test_io_imports_no_search_module():
    # documents are read into structures; io sits below the searches
    imported = set()
    for node in ast.walk(ast.parse((SRC / "io.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.add(node.module)
    assert imported, "no package import found in io.py"
    assert not imported & {"ibl", "invariants", "cli"}, imported


def test_invariants_solves_and_ranks_only():
    # every search level is one sparse system through solve_linear, and
    # semi-dilation's nilpotence is two ranks: no kernel basis, no dense
    # matrix of the searches' own
    imported, names = set(), set()
    for node in ast.walk(ast.parse((SRC / "invariants.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.module == "linalg":
                imported |= {a.name for a in node.names}
            names |= {a.name for a in node.names}
    assert "linalg" not in names  # no module-wide access to it
    assert imported == {"rank", "solve_linear"}, imported


def test_only_io_builds_documents():
    # every document the program writes goes through io's writers
    builders = {"TableBlock", "ChainBlock", "Document"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                if name in builders:
                    calls.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not calls, calls


def test_one_rule_decides_at_most():
    # every search answer's kind is decided by invariants._search; only it
    # and TorsionAnswer.found name the kind "at-most"
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(path.stem, tree)]
        while scopes:
            name, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    scopes.append(("%s.%s" % (name, child.name), child))
                elif isinstance(child, ast.Constant) and \
                        child.value == "at-most":
                    sites.append(name)
                else:
                    scopes.append((name, child))
    assert sorted(sites) == ["invariants.TorsionAnswer.found",
                             "invariants._search"], sites


def test_one_level_builder():
    # every search builds its levels through invariants._level(window,
    # image); no module brings back a closed-complex builder beside it
    tree = ast.parse((SRC / "invariants.py").read_text())
    level = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_level")
    args = level.args
    assert [a.arg for a in args.posonlyargs + args.args] == \
        ["window", "image"]
    assert not (args.vararg or args.kwarg or args.kwonlyargs or args.defaults)
    retired = {"ChainComplex", "WindowLeakError", "_closed_complex"}
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [n for a in node.names for n in (a.name, a.asname)
                         if n]
            else:
                continue
            sites += ["%s:%d %s" % (path.name, node.lineno, n)
                      for n in names if n.split(".")[-1] in retired]
    assert not sites, sites


def test_one_loop_fails_every_check():
    # every check runs through structures._check_split_words, so only it
    # builds a VerifyStatus that is not verified
    sites = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [(path.stem, tree)]
        while scopes:
            name, node = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    scopes.append(("%s.%s" % (name, child.name), child))
                    continue
                if isinstance(child, ast.Call) and \
                        getattr(child.func, "id", None) == "VerifyStatus":
                    ok = child.args[0] if child.args else next(
                        kw.value for kw in child.keywords if kw.arg == "ok")
                    if not (isinstance(ok, ast.Constant) and ok.value is True):
                        sites.append(name)
                scopes.append((name, child))
    assert sites == ["structures._check_split_words"], sites


def test_one_rule_decides_the_support():
    # assembly.vanishes, the rule that a window word's images are zero, is
    # defined once and read only by the two window builders, so which
    # words a check or search evaluates is decided in one place
    defined, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.FunctionDef) and \
                        node.name == "vanishes":
                    defined.append("%s.%s" % (path.stem, top.name))
                if "vanishes" in (getattr(node, "id", None),
                                  getattr(node, "attr", None)):
                    read.add("%s.%s" % (path.stem,
                                        getattr(top, "name", "<module>")))
    assert defined == ["assembly.vanishes"], defined
    assert read == {"structures._split_words",
                    "invariants._outer_window"}, read


def test_operators_read_their_spaces_from_their_tables():
    # an assembled operator's spaces are its table's: no call passes a
    # target_space, and each assembly entry point takes its table (or its
    # list of tables) first and no space beside it
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and any(
                    kw.arg == "target_space" for kw in node.keywords):
                calls.append("%s:%d" % (path.name, node.lineno))
    assert not calls, calls
    params = {node.name: [a.arg for a in node.args.args
                          + node.args.kwonlyargs]
              for node in ast.parse((SRC / "assembly.py").read_text()).body
              if isinstance(node, ast.FunctionDef)}
    entry = {"apply_coderivation": "table", "apply_inner_coderivation": "table",
             "apply_multi_pointed": "tables", "apply_ibl": "table",
             "apply_morphism": "table"}
    assert {name: params[name][0] for name in entry} == entry
    assert not [name for name in entry
                if {"space", "target_space"} & set(params[name])]


def test_maps_name_their_algebra():
    # an augmentation or a pointed map names its algebra, so no entry point
    # that takes one takes an algebra beside it
    entry = {"structures": {"is_augmentation", "check_pointed", "linearize",
                            "linearize_pointed"},
             "invariants": {"order_O", "order_O_tilde", "order_multi",
                            "order_multi_tilde", "planarity", "sd_order"}}
    params = {}
    for module, names in entry.items():
        for node in ast.parse((SRC / ("%s.py" % module)).read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in names:
                params[node.name] = [a.arg for a in node.args.args
                                     + node.args.kwonlyargs]
    assert set(params) == set().union(*entry.values())
    assert not [name for name, args in params.items() if "alg" in args]


def _bench_tracer():
    path = SRC.parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_bench_tracer_entry_points_exist():
    # the tracer wraps these by name; a missing one reads as zero calls
    tracer = _bench_tracer()
    wanted = [entry for entries in tracer.LAYERS.values() for entry in entries]
    wanted.append(("assembly", "_set_partitions"))
    missing = []
    for module, name in wanted:
        mod = importlib.import_module("blinfty." + module)
        if not callable(getattr(mod, name, None)):
            missing.append("%s.%s" % (module, name))
    assert not missing, missing


def test_bench_tracer_counts_block_lists_reaching_the_gluing_step(
        monkeypatch):
    # the tracer wraps assembly._set_partitions as a one-argument generator
    # and counts what it yields; a changed signature must fail here, not in
    # a traced benchmark run
    tracer_mod = _bench_tracer()
    received = []
    glue = assembly._glue

    def counting_glue(space_, tgt, x, blocks_of, hbar_cap=None):
        def counted(owner, letters, n):
            for blocks in blocks_of(owner, letters, n):
                received.append(blocks)
                yield blocks
        return glue(space_, tgt, x, counted, hbar_cap)
    monkeypatch.setattr(assembly, "_glue", counting_glue)
    modules = {module for entries in tracer_mod.LAYERS.values()
               for module, _ in entries} | {"assembly"}
    lib = types.SimpleNamespace(**{
        m: importlib.import_module("blinfty." + m) for m in modules})
    sp = space(("a", 0), ("b", 1))
    mor = table(sp, 0, [(1, 1, ("a",), [(1, ("a",))]),
                        (1, 1, ("b",), [(1, ("b",))]),
                        (2, 1, ("a", "b"), [(2, ("b",))])])
    x = EElement({eword(sp, ("a",), ("b",)): 1, eword(sp, ("a", "b")): 1})
    tracer = tracer_mod.Tracer()
    tracer.install(lib)
    try:
        tracer.begin_op(0)
        out = lib.assembly.apply_morphism(mor, x)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert len(received) == 3
    assert tracer.counts["assembly.partitions.generated"] == len(received)
    assert tracer.counts["assembly.morphism.terms_out"] == len(out.terms)


def _searches(lib):
    """(search, levels it solved, whether it found) for torsion, both
    orders and the torsion grid, found and not found, through the module
    namespaces of lib."""
    inv = lib.invariants
    B3 = Bounds(3, word_bound=3)
    alg, pmap = fixtures.pointed_two()
    out = []
    for t_alg in (fixtures.planar_torsion_one(), fixtures.mixed_no_aug()):
        out.append((lambda t_alg=t_alg: inv.torsion(
            t_alg, default_schedule(3, B3)),
            lambda ans: ans.level + 1 if ans.found() else 3,
            lambda ans: ans.found()))
    for order in (inv.order_O, inv.order_O_tilde):
        for p in (pmap, PointedMap(alg, zero_table(alg.space, parity=0))):
            out.append((lambda order=order, p=p: order(
                fixtures.zero_aug(alg), p, B3),
                lambda ans: ans.level if ans.found() else B3.outer(),
                lambda ans: ans.found()))
    # the grid solves its one level: (0, 1) is found on the planar lift,
    # (0, 0) is not
    for n, m in ((0, 1), (0, 0)):
        out.append((lambda n=n, m=m: lib.ibl.torsion_grid(
            fixtures.planar_torsion_one(), n, m, 2, Bounds(2)),
            lambda ans: 1, lambda ans: ans[0]))
    return out


def test_bench_tracer_counts_one_solve_per_searched_level():
    # every level of a search is solved by linalg.solve_linear, which the
    # tracer wraps by name; a search that bypasses it would read as zero
    # linalg.solve calls in a traced benchmark run
    tracer_mod = _bench_tracer()
    modules = {module for entries in tracer_mod.LAYERS.values()
               for module, _ in entries}
    lib = types.SimpleNamespace(**{
        m: importlib.import_module("blinfty." + m) for m in modules})
    found = []
    for search, levels, was_found in _searches(lib):
        tracer = tracer_mod.Tracer()
        tracer.install(lib)
        try:
            tracer.begin_op(0)
            ans = search()
            tracer.end_op()
        finally:
            tracer.uninstall()
        assert tracer.missing == []
        assert tracer.span_times()["linalg.solve"][0] == levels(ans) > 0
        found.append(was_found(ans))
    assert found.count(True) >= 4 and found.count(False) >= 4


class _CounterStub:
    def __init__(self):
        self.counts = {}
        self.bits = 0

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


def test_bench_tracer_counts_linalg_results():
    # the tracer's counters unpack the arguments and results of the wrapped
    # linalg entry points; a changed shape must fail here, not in a traced
    # benchmark run
    counters = _bench_tracer().COUNTERS
    A = [[Fraction(0), Fraction(2), Fraction(4)],
         [Fraction(0), Fraction(1), Fraction(2)]]
    calls = [("solve_linear", (A, [Fraction(2), Fraction(1)])),
             ("rank", (A,)),
             ("kernel_basis", (A, 3))]
    for name, args in calls:
        stub = _CounterStub()
        counters[name](stub, args, getattr(linalg, name)(*args))
        assert stub.counts["linalg.solve.rows"] == 2
        assert stub.counts["linalg.solve.cols"] == 3
        assert stub.counts["linalg.solve.nnz"] == 4
        assert stub.bits == 3


def _attribute_chain(node):
    """['a', 'b', 'c'] for the expression a.b.c, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return names[::-1]


def test_bench_workload_names_exist():
    # the benchmark reaches the library as lib.<module>.<name>, and as
    # S.<name> after S = lib.structures; a renamed or deleted name breaks
    # its runs
    path = SRC.parent.parent / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(), str(path))
    chains = [_attribute_chain(node) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)]
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            chain = _attribute_chain(node.value)
            if chain and chain[-2:-1] == ["lib"]:
                aliases[node.targets[0].id] = chain[-1]
    wanted = set()
    for chain in filter(None, chains):
        if chain[0] == "self":
            chain = chain[1:]
        if chain[0] == "lib" and len(chain) >= 3:
            wanted.add((chain[1], chain[2]))
        elif chain[0] in aliases and len(chain) >= 2:
            wanted.add((aliases[chain[0]], chain[1]))
    assert ("structures", "compose") in wanted
    assert ("words", "EElement") in wanted
    missing = ["%s.%s" % (module, name) for module, name in sorted(wanted)
               if not hasattr(importlib.import_module("blinfty." + module),
                              name)]
    assert not missing, missing


def _bench_workloads(monkeypatch):
    """bench/workloads.py and the library namespace its workloads take."""
    bench = SRC.parent.parent / "bench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lib = types.SimpleNamespace(**{
        m: importlib.import_module("blinfty." + m) for m in workloads.MODULES})
    return workloads, lib


def test_cli_accepts_every_benchmark_invocation(tmp_path, monkeypatch):
    # the cli-corpus workload calls the CLI with these argv; a flag the
    # command table drops must fail here, not in a benchmark run
    workloads, lib = _bench_workloads(monkeypatch)
    corpus = workloads.CliCorpus(lib, 1, tmp_path, tiny=True)
    labels = [op.label for op in corpus.ops]
    assert {label for label, _ in workloads.EXPECTED} <= set(labels)
    assert sum("--certificate" in label for label in labels) >= 3
    parser = cli.build_parser()
    for label in labels:
        args = parser.parse_args(corpus.argv(label))
        assert args.command == label.split()[0]


def test_compose_coherence_workload_passes_its_checks(tmp_path, monkeypatch):
    # each compose-coherence op checks compose(psi, phi) against applying
    # phi, then psi, through the gluing step; a kernel change that breaks
    # that coherence must fail here, not only in a benchmark run.  One full
    # pass (24 ops, well under a second): the tiny one misses a dropped
    # Koszul sign of the consumed letters that the full pass catches
    workloads, lib = _bench_workloads(monkeypatch)
    work = workloads.ComposeCoherence(lib, 1, tmp_path)
    assert work.ops
    for op in work.ops:
        ok, answer = op.check(op.run(op.prepare()))
        assert ok, (op.label, answer)


def _state(obj):
    """Every attribute of obj, pickled: a cache or memo added to it, or
    filled in place, changes the bytes."""
    return pickle.dumps(vars(obj), protocol=pickle.HIGHEST_PROTOCOL)


def test_library_calls_leave_their_tables_as_read():
    # the same rule one level down: every gluing entry point and compose
    # leave each table they read byte-identical, so the index the gluing
    # step reads is built when a table is made, never filled by a call
    rng = random.Random(6262)
    calls = 0
    for _ in range(30):
        sp = space(*[("g%d" % i, 1 if i == 0 else rng.randrange(2))
                     for i in range(rng.randint(2, 3))])
        p = random_table(rng, sp, parity=1, n_entries=4, max_k=3, max_l=2)
        m = random_table(rng, sp, parity=0, n_entries=4, max_k=2, max_l=2)
        bullet = random_table(rng, sp, parity=1, n_entries=3, max_l=1)
        graded = OperationTable(sp, 1, [(k, l, rng.randrange(2), w, e) for
                                        (k, l, _, w, e) in p.sorted_entries()])
        partial = OperationTable(sp, 0, [(k, l, w, e) for (k, l, _, w, e)
                                         in m.sorted_entries() if k == 1],
                                 complete=False, max_k=1)
        alg = BLAlgebra(sp, zero_table(sp))
        phi, psi = BLMorphism(alg, alg, m), BLMorphism(alg, alg, random_table(
            rng, sp, parity=0, n_entries=3, max_k=2, max_l=2))
        x = EElement({ew: 1 for ew in rng.sample(
            enumerate_basis(sp, 3, outer_components=3), 4)})
        tables = [p, m, bullet, graded, partial, psi.table]
        before = [_state(t) for t in tables]
        assert all(bool(t._index) == bool(t.sorted_entries())
                   for t in tables)
        for call in (
                lambda: assembly.apply_morphism(m, x),
                lambda: assembly.apply_morphism(m, x, bullet, 1),
                lambda: assembly.apply_morphism(m, x, single_cluster=True),
                lambda: assembly.apply_morphism(partial, x, bullet, 1),
                lambda: assembly.apply_coderivation(p, x),
                lambda: assembly.apply_coderivation(p, x,
                                                    single_cluster=True),
                lambda: assembly.apply_multi_pointed([(p, 1), (bullet, 1)],
                                                     x),
                lambda: assembly.apply_ibl(graded, x, 2),
                lambda: assembly.apply_ibl(graded, x, 1, single_cluster=True),
                lambda: compose(psi, phi, Bounds(3))):
            try:
                call()
            except IncompleteTableError:
                pass
            calls += 1
        assert [_state(t) for t in tables] == before
    assert calls == 300


TABLE_STORES = {"_cells", "cells", "_index", "_one_letter_keys",
                "_longer_keys", "_input_sizes"}


def _stores(tree):
    """(class, function, stored expression) for every assignment, augmented
    assignment or deletion whose target is x.<name> or x.<name>[...] with
    name in TABLE_STORES."""
    found = []

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
                continue
            if isinstance(child, ast.FunctionDef):
                visit(child, cls, child.name)
                continue
            targets = (child.targets if isinstance(child, (ast.Assign,
                                                           ast.Delete))
                       else [child.target] if isinstance(
                           child, (ast.AugAssign, ast.AnnAssign)) else [])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Subscript):
                        sub = sub.value
                    if isinstance(sub, ast.Attribute) and \
                            sub.attr in TABLE_STORES:
                        found.append((cls, fn, ast.unparse(sub)))
            visit(child, cls, fn)
    visit(tree, None, None)
    return found


def test_only_the_table_constructor_writes_its_stores():
    # the no-cache rule as part of the type: an OperationTable's cells, its
    # index and the index keys assembly.vanishes reads are written in its
    # __init__ and nowhere else.  Two other
    # classes own an attribute of one of these names, each set in its own
    # constructor: GradedSpace._index (generator names) and
    # TableBlock._cells (the parser's duplicate check)
    writers = {}
    for path in sorted(SRC.glob("*.py")):
        for cls, fn, target in _stores(ast.parse(path.read_text(),
                                                 str(path))):
            writers.setdefault((path.name, cls, fn), set()).add(target)
    assert writers == {
        ("structures.py", "OperationTable", "__init__"): {
            "self._cells", "self.cells", "self._index",
            "self._one_letter_keys", "self._longer_keys",
            "self._input_sizes"},
        ("words.py", "GradedSpace", "__init__"): {"self._index"},
        ("io.py", "TableBlock", "__init__"): {"self._cells"}}


def test_cli_commands_leave_their_inputs_as_read(tmp_path, monkeypatch):
    # the north star's rule that no call relies on a cache filled by
    # another call: a command hands its values down, and the algebra, its
    # tables, the augmentations and the pointed maps it read are unchanged
    # when it ends
    for name, text in fixtures.document_corpus().items():
        (tmp_path / ("%s.blf" % name)).write_text(text, encoding="utf-8")
    read = []  # (object, its state when read)
    load_algebra, load_side = cli.bio.algebra_from_document, cli._load_side

    def record(*objs):
        for obj in objs:
            read.append((obj, _state(obj)))
            if hasattr(obj, "table"):
                read.append((obj.table, _state(obj.table)))

    def algebra_from_document(doc):
        alg = load_algebra(doc)
        record(alg)
        return alg

    def side(path, alg, kind):
        out = load_side(path, alg, kind)
        record(out[1] if kind == "pointed-map" else out)
        return out
    monkeypatch.setattr(cli.bio, "algebra_from_document",
                        algebra_from_document)
    monkeypatch.setattr(cli, "_load_side", side)

    def doc(name):
        return str(tmp_path / ("%s.blf" % name))
    kinds = set()
    for argv in (["hierarchy", doc("sd-example"), "--aug",
                  doc("sd-example.aug0"), "--pointed",
                  doc("sd-example.pointed"), "--umap", doc("sd-example.umap")],
                 ["hierarchy", doc("linearizable")]
                 + [arg for i in range(3)
                    for arg in ("--aug", doc("linearizable.aug%d" % i))],
                 ["torsion", doc("mixed-no-aug")]):
        del read[:]
        assert cli.main(argv, stream=io.StringIO()) in (0, 3)
        assert read and all(_state(obj) == state for obj, state in read), argv
        kinds |= {type(obj).__name__ for obj, _ in read}
    assert kinds == {"BLAlgebra", "OperationTable", "Augmentation",
                     "PointedMap", "UModule"}
