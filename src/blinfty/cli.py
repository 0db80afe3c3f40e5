"""Command-line interface: verification and invariant computation.

Reports are machine readable `key: value` lines.  Exit codes: 0 computed,
1 structural check failed, 2 parse error, 3 inconclusive within bounds.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import io as bio
from .errors import (InconclusiveError, IncompleteTableError,
                     InconsistentInputsError, NotNilpotentError, ParseError,
                     PlanarityNotOneError, PlanarityZeroError, StructureError)
from .hierarchy import HierarchyValue, hierarchy_classify, hierarchy_combine
from .ibl import (check_ibl, derive_flat_torsion, torsion_grid,
                  verify_grid_certificate)
from .invariants import (TorsionAnswer, default_schedule, order_O,
                         order_multi, planarity, sd_order, torsion,
                         verify_torsion_certificate)
from .structures import (Bounds, check_pointed, check_structure, ell_table,
                         is_augmentation, linearize)
from .words import EElement, EWord


class Report:
    def __init__(self, command):
        self.lines = [("command", command)]

    def add(self, key, value):
        self.lines.append((key, value))

    def emit(self, stream):
        for k, v in self.lines:
            stream.write("%s: %s\n" % (k, v))


def _bounds_from(args, doc):
    """The document's bounds block under the flags given; a flag the
    command does not take counts as not given."""
    base = doc.bounds
    max_letters = args.max_letters if args.max_letters is not None else \
        (base.max_letters if base else None)
    if max_letters is None:
        raise StructureError(
            "no bounds: give --max-letters or a bounds block")
    max_action = base.max_action if base else None
    if args.max_action:
        try:
            max_action = Fraction(args.max_action)
        except ZeroDivisionError:
            raise ValueError("zero denominator in --max-action %s"
                             % args.max_action) from None
    hbar_max = getattr(args, "hbar_max", None)
    if hbar_max is None and base:
        hbar_max = base.hbar_max
    return Bounds(max_letters, max_action=max_action,
                  word_bound=getattr(args, "word_bound", None),
                  hbar_max=hbar_max)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return bio.parse(fh.read())


# side document kind -> what it defines over an algebra; a pointed map
# comes with its document, whose table name order-multi reads
_SIDE_READERS = {
    "augmentation": bio.augmentation_from_document,
    "pointed-map": lambda doc, alg: (doc, bio.pointed_from_document(doc, alg)),
    "umodule": lambda doc, alg: bio.umodule_from_document(doc, alg.space)}


def _load_side(path, alg, kind):
    """The side document at path read over alg.  Its words are read by
    generator index, so it must declare alg's generators in order, or none."""
    doc = _load(path)
    if len(doc.space) and not bio.spaces_compatible(doc.space, alg.space):
        raise StructureError("%s space mismatch in %s" % (kind, path))
    return _SIDE_READERS[kind](doc, alg)


def _write_certificate(args, rep, doc):
    """Write doc to the --certificate path and name the file in the
    report."""
    with open(args.certificate, "w", encoding="utf-8") as fh:
        fh.write(bio.serialize(doc))
    rep.add("certificate", args.certificate)


def _report_answer(rep, key, ans):
    """Report a search answer as '<kind> <level>', or as not found within
    bounds; the exit code for it (0 found, 3 not found)."""
    if ans.found():
        rep.add(key, "%s %d" % (ans.kind, ans.level))
        return 0
    rep.add(key, "not-found-within-bounds")
    return 3


def _report_check(rep, key, ok):
    """Report a check as ok or failed; the exit code for it (0 or 1)."""
    rep.add(key, "ok" if ok else "failed")
    return 0 if ok else 1


def _inconclusive(rep, key, reason):
    """Report key as inconclusive for reason; the exit code for it (3)."""
    rep.add(key, "inconclusive")
    rep.add("reason", reason)
    return 3


def _hbar_cap(bounds):
    return bounds.hbar_max if bounds.hbar_max is not None else 2


def _witness(space, witness):
    """A check's witness: its cell's numbers, then the word."""
    *cell, w = witness
    return "(%s) %s" % (",".join(map(str, cell)),
                        bio._format_word(space, w))


def _chain_numbers(name, count):
    """The count numbers of a certificate chain name; a malformed name is a
    ValueError that names the chain and the two accepted forms."""
    fields = name.split("-")[1:]
    if len(fields) != count or not all(
            f.isascii() and f.isdigit() for f in fields):
        raise ValueError("chain %s: a certificate chain is named "
                         "torsion-<k> or grid-<n>-<m>-<t>" % name)
    return [int(f) for f in fields]


def cmd_verify(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    # the flat checks below read only the genus-0 part of an ibl table
    ibl = doc.table("ibl") is not None
    if ibl:
        alg = bio.ibl_from_document(doc)
        status = check_ibl(alg, _hbar_cap(bounds), bounds)
    else:
        alg = bio.algebra_from_document(doc)
        status = check_structure(alg, bounds)
    rep.add("verify", "ok" if status.ok else "failed")
    if not status.ok:
        rep.add("witness", _witness(alg.space, status.witness))
        return 1
    code = 0
    for ch in doc.chains:
        if ch.name.startswith("torsion-"):
            level, = _chain_numbers(ch.name, 1)
            ok = verify_torsion_certificate(
                alg, TorsionAnswer("exact", level, ch.element), status.images)
        elif ibl and ch.name.startswith("grid-"):
            n, m, trunc = _chain_numbers(ch.name, 3)
            ok = verify_grid_certificate(alg, ch.element, n, m, trunc)
        else:
            continue
        code |= _report_check(rep, "certificate-%s" % ch.name, ok)
    # each check below reads and adds to the split-word images of the last
    for path in args.aug:
        eps = _load_side(path, alg, "augmentation")
        status = is_augmentation(eps, bounds, status.images)
        code |= _report_check(rep, "augmentation", status.ok)
    for path in args.pointed:
        _, pmap = _load_side(path, alg, "pointed-map")
        status = check_pointed(pmap, bounds, status.images)
        code |= _report_check(rep, "pointed", status.ok)
    return code


def cmd_torsion(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    alg = bio.algebra_from_document(doc)
    try:
        # the search checks the structure at these bounds first; that
        # check is its only StructureError
        ans = torsion(alg, default_schedule(bounds.outer(), bounds))
    except StructureError:
        rep.add("torsion", "structure-failed")
        return 1
    code = _report_answer(rep, "torsion", ans)
    if ans.found() and args.certificate:
        _write_certificate(args, rep, bio.document_of_chain(
            alg.space, "torsion-%d" % ans.level, ans.certificate))
    return code


def cmd_linearize(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    alg = bio.algebra_from_document(doc)
    status = check_structure(alg, bounds)
    if not status.ok:
        rep.add("linearize", "structure-failed")
        return 1
    if not args.aug:
        return _inconclusive(rep, "linearize", "no augmentation supplied")
    eps = _load_side(args.aug[0], alg, "augmentation")
    status = is_augmentation(eps, bounds, status.images)
    if not status.ok:
        rep.add("linearize", "augmentation-failed")
        return 1
    lin = linearize(eps, bounds, status.images)
    rep.add("linearize", "ok")
    rep.add("cells", str(len(lin.cells)))
    ell = ell_table(lin)
    rep.add("ell-cells", str(len(ell.cells)))
    if args.certificate:
        _write_certificate(args, rep, bio.document_of_table(
            "structure", "p_eps", lin, bounds))
    return 0


class _InputFailed(Exception):
    """An input failed its check; main exits 1 with the report so far."""


def _checked_inputs(args, rep):
    """(bounds, algebra, augmentations, [(document, pointed map)], images),
    each input checked at the bounds; the first that fails is reported and
    raises _InputFailed.  images are the checks' split-word images
    (structures.SplitImages), which the command hands to every later
    step."""
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    alg = bio.algebra_from_document(doc)
    status = check_structure(alg, bounds)
    if not status.ok:
        rep.add("structure", "failed")
        raise _InputFailed
    augs = [_load_side(p, alg, "augmentation") for p in args.aug]
    for eps in augs:
        status = is_augmentation(eps, bounds, status.images)
        if not status.ok:
            rep.add("augmentation", "failed")
            raise _InputFailed
    pmaps = []
    for p in args.pointed:
        pdoc, pmap = _load_side(p, alg, "pointed-map")
        status = check_pointed(pmap, bounds, status.images)
        if not status.ok:
            rep.add("pointed", "failed")
            raise _InputFailed
        pmaps.append((pdoc, pmap))
    return bounds, alg, augs, pmaps, status.images


def cmd_order(args, rep):
    bounds, alg, augs, pmaps, images = _checked_inputs(args, rep)
    if not augs:
        return _inconclusive(rep, "order", "no augmentation supplied")
    if not pmaps:
        return _inconclusive(rep, "order", "no pointed map supplied")
    ans = order_O(augs[0], pmaps[0][1], bounds, images)
    code = _report_answer(rep, "order", ans)
    if ans.found() and args.certificate:
        chain = EElement({EWord((w,)): c
                          for w, c in ans.certificate.terms.items()})
        _write_certificate(args, rep, bio.document_of_chain(
            alg.space, "order-%d" % ans.level, chain))
    return code


def _subset_of_name(name):
    """The constraint subset a pointed table's name encodes: its digits,
    each a point from 1 to 9, named once."""
    digits = [ch for ch in name if "0" <= ch <= "9"]
    if not digits or "0" in digits or len(set(digits)) != len(digits):
        raise StructureError(
            "pointed table name %r does not encode a constraint subset"
            % name)
    return frozenset(int(d) for d in digits)


def cmd_order_multi(args, rep):
    bounds, _, augs, pmaps, images = _checked_inputs(args, rep)
    if not augs or not pmaps:
        return _inconclusive(rep, "order-multi",
                             "need an augmentation and pointed maps")
    family = {}
    m = args.points
    for pdoc, pmap in pmaps:
        subset = _subset_of_name(pdoc.table("pointed").name)
        if subset in family:
            raise StructureError("two pointed tables name the constraint "
                                 "subset %s" % sorted(subset))
        family[subset] = pmap.table
    if m is None:
        m = max(max(s) for s in family)
    code = _report_answer(rep, "order-multi",
                          order_multi(augs[0], family, m, bounds, images))
    rep.add("points", str(m))
    return code


def cmd_sd(args, rep):
    bounds, alg, augs, pmaps, images = _checked_inputs(args, rep)
    if not augs or not pmaps or not args.umap:
        return _inconclusive(rep, "sd", "need --aug, --pointed and --umap")
    umod = _load_side(args.umap, alg, "umodule")
    try:
        ans = sd_order(augs[0], pmaps[0][1], umod, bounds, images)
    except PlanarityNotOneError:
        return _inconclusive(rep, "sd", "no class with functional value 1")
    except NotNilpotentError as e:
        return _sd_failed(rep, e)
    return _report_answer(rep, "sd", ans)


def _sd_failed(rep, e):
    """A U that fails its check (NotNilpotentError): sd failed, exit 1."""
    rep.add("sd", "failed")
    rep.add("reason", str(e))
    return 1


def cmd_planarity(args, rep):
    bounds, _, augs, pmaps, images = _checked_inputs(args, rep)
    if not pmaps:
        return _inconclusive(rep, "planarity", "no pointed map supplied")
    try:
        ans = planarity(augs, pmaps[0][1], bounds, images=images)
    except InconclusiveError as e:
        return _inconclusive(rep, "planarity", str(e))
    code = _report_answer(rep, "planarity", ans)
    rep.add("augmentations", str(len(augs)))
    return code


def cmd_hierarchy(args, rep):
    bounds, alg, augs, pmaps, images = _checked_inputs(args, rep)
    t = torsion(alg, default_schedule(bounds.outer(), bounds), images)
    _report_answer(rep, "torsion", t)
    pl = sd = None
    if pmaps:
        try:
            pl = planarity(augs, pmaps[0][1], bounds, t, images)
        except InconclusiveError:
            pass
    if pl is not None and pl.found():
        _report_answer(rep, "planarity", pl)
        if pl.level == 1 and args.umap and augs:
            umod = _load_side(args.umap, alg, "umodule")
            try:
                sd = sd_order(augs[0], pmaps[0][1], umod, bounds, images)
                _report_answer(rep, "sd", sd)
            except PlanarityNotOneError:
                pass
            except NotNilpotentError as e:
                return _sd_failed(rep, e)
    try:
        value = hierarchy_classify(t, bool(augs), pl, sd)
    except (InconclusiveError, InconsistentInputsError) as e:
        return _inconclusive(rep, "hierarchy", str(e))
    rep.add("hierarchy", repr(value))
    return 0


def cmd_combine(args, rep):
    v1 = HierarchyValue.parse(args.value1)
    v2 = HierarchyValue.parse(args.value2)
    rep.add("combine", repr(hierarchy_combine(v1, v2)))
    return 0


def cmd_ibl_check(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    ialg = bio.ibl_from_document(doc)
    cap = _hbar_cap(bounds)
    status = check_ibl(ialg, cap, bounds)
    rep.add("ibl-check", "ok" if status.ok else "failed")
    rep.add("hbar-max", str(cap))
    if not status.ok:
        rep.add("witness", _witness(ialg.space, status.witness))
        return 1
    return 0


def cmd_ibl_torsion(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    ialg = bio.ibl_from_document(doc)
    cap = bounds.hbar_max if bounds.hbar_max is not None else max(2, args.n)
    try:
        found, cert = torsion_grid(ialg, args.n, args.m, cap, bounds)
    except StructureError:
        rep.add("ibl-torsion", "structure-failed")
        return 1
    if not found:
        rep.add("ibl-torsion", "not-found-within-bounds")
        return 3
    rep.add("ibl-torsion", "exact (%d,%d)_%d" % (args.n, args.m, cap))
    if cert is None:
        return 0
    _, ok = derive_flat_torsion(ialg, cert, args.n, args.m, cap)
    rep.add("flat-transport", "ok" if ok else "failed")
    if args.certificate:
        _write_certificate(args, rep, bio.document_of_chain(
            ialg.space, "grid-%d-%d-%d" % (args.n, args.m, cap), cert))
    return 0 if ok else 1


# Every argument a command may take, with its add_argument keywords.
_ARGUMENTS = {
    "file": {}, "n": {"type": int}, "m": {"type": int}, "value1": {},
    "value2": {}, "--max-letters": {"type": int}, "--max-action": {},
    "--word-bound": {"type": int}, "--hbar-max": {"type": int},
    "--aug": {"action": "append", "default": []},
    "--pointed": {"action": "append", "default": []},
    "--umap": {}, "--certificate": {}, "--points": {"type": int}}

_BOUNDS = ("--max-letters", "--max-action", "--word-bound")
# torsion_grid and check_ibl never read Bounds.outer(), so no --word-bound
_IBL_BOUNDS = ("--max-letters", "--max-action", "--hbar-max")
_SIDE = ("--aug", "--pointed")

# The input contract: each command's handler and the arguments it reads,
# positionals first.  A flag not listed for a command is a usage error.
COMMANDS = {
    "verify": (cmd_verify, ("file",) + _BOUNDS + ("--hbar-max",) + _SIDE),
    "torsion": (cmd_torsion, ("file",) + _BOUNDS + ("--certificate",)),
    "linearize": (cmd_linearize,
                  ("file",) + _BOUNDS + ("--aug", "--certificate")),
    "order": (cmd_order, ("file",) + _BOUNDS + _SIDE + ("--certificate",)),
    "sd": (cmd_sd, ("file",) + _BOUNDS + _SIDE + ("--umap",)),
    "planarity": (cmd_planarity, ("file",) + _BOUNDS + _SIDE),
    "hierarchy": (cmd_hierarchy, ("file",) + _BOUNDS + _SIDE + ("--umap",)),
    "ibl-check": (cmd_ibl_check, ("file",) + _IBL_BOUNDS),
    "order-multi": (cmd_order_multi,
                    ("file",) + _BOUNDS + _SIDE + ("--points",)),
    "ibl-torsion": (cmd_ibl_torsion,
                    ("file", "n", "m") + _IBL_BOUNDS + ("--certificate",)),
    "combine": (cmd_combine, ("value1", "value2")),
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="blinfty",
        description="exact verification and invariants for graded bi-Lie "
                    "structures")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, arguments) in COMMANDS.items():
        p = sub.add_parser(name)
        for arg in arguments:
            p.add_argument(arg, **_ARGUMENTS[arg])
        p.set_defaults(func=fn)
    return ap


# The parser depends on no input and parse_args never changes it (each call
# gets a fresh Namespace, and the append actions copy their [] default), so
# it is built on the first main() call and reused; not at import.
_parser = None


def main(argv=None, stream=None):
    global _parser
    stream = stream if stream is not None else sys.stdout
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    rep = Report(args.command)
    try:
        code = args.func(args, rep)
    except ParseError as e:
        rep.add("error", "parse: %s" % e)
        code = 2
    except _InputFailed:
        code = 1
    except OSError as e:
        rep.add("error", "io: %s" % e)
        code = 2
    except (StructureError, IncompleteTableError) as e:
        rep.add("error", "structure: %s" % e)
        code = 1
    except (InconclusiveError, PlanarityZeroError) as e:
        rep.add("error", "inconclusive: %s" % e)
        code = 3
    except ValueError as e:
        rep.add("error", "value: %s" % e)
        code = 2
    rep.emit(stream)
    return code


if __name__ == "__main__":
    sys.exit(main())
