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
                     PlanarityNotOneError, PlanarityZeroError, StructureError,
                     WindowLeakError)
from .hierarchy import HierarchyValue, hierarchy_classify, hierarchy_combine
from .ibl import check_ibl, derive_flat_torsion, torsion_grid, genus0
from .invariants import (TorsionAnswer, default_schedule, order_O,
                         order_multi, planarity, sd_order, torsion,
                         verify_torsion_certificate)
from .structures import (Bounds, check_pointed, check_structure, ell_table,
                         is_augmentation, linearize, linearize_pointed)
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
    base = doc.bounds if doc is not None else None
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
    return Bounds(
        max_letters,
        max_action=max_action,
        word_bound=args.word_bound,
        hbar_max=(args.hbar_max if args.hbar_max is not None
                  else (base.hbar_max if base else None)),
        action_drop=(base.action_drop if base else False))


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return bio.parse(fh.read())


def _load_aug(path, alg):
    doc = _load(path)
    if len(doc.space) and not bio.spaces_compatible(doc.space, alg.space):
        raise StructureError("augmentation space mismatch in %s" % path)
    return bio.augmentation_from_document(doc, alg)


def _load_pointed(path, alg):
    doc = _load(path)
    if len(doc.space) and not bio.spaces_compatible(doc.space, alg.space):
        raise StructureError("pointed-map space mismatch in %s" % path)
    return doc, bio.pointed_from_document(doc, alg)


def _write_certificate(path, space, name, element):
    doc = bio.Document(space, [], [bio.ChainBlock(name, element)], None)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(bio.serialize(doc))


def _report_answer(rep, key, ans):
    """Report a search answer as '<kind> <level>', or as not found within
    bounds; the exit code for it (0 found, 3 not found)."""
    if ans.found():
        rep.add(key, "%s %d" % (ans.kind, ans.level))
        return 0
    rep.add(key, "not-found-within-bounds")
    return 3


def _hbar_cap(bounds):
    return bounds.hbar_max if bounds.hbar_max is not None else 2


def _ibl_witness(space, witness):
    k, l, g, w = witness
    return "(%d,%d,%d) %s" % (k, l, g, bio._format_word(space, w))


def cmd_verify(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    code = 0
    if doc.table("ibl") is not None:
        ialg = bio.ibl_from_document(doc)
        status = check_ibl(ialg, _hbar_cap(bounds), bounds)
        rep.add("verify", "ok" if status.ok else "failed")
        if not status.ok:
            rep.add("witness", _ibl_witness(ialg.space, status.witness))
            return 1
        alg = genus0(ialg)
    else:
        alg = bio.algebra_from_document(doc)
        status = check_structure(alg, bounds)
        rep.add("verify", "ok" if status.ok else "failed")
        if not status.ok:
            k, l, w = status.witness
            rep.add("witness", "(%d,%d) %s" % (
                k, l, bio._format_word(alg.space, w)))
            return 1
    for ch in doc.chains:
        if ch.name.startswith("torsion-"):
            level = int(ch.name.split("-", 1)[1])
            ok = verify_torsion_certificate(
                alg, TorsionAnswer("exact", level, ch.element))
            rep.add("certificate-%s" % ch.name, "ok" if ok else "failed")
            if not ok:
                code = 1
    for path in (args.aug or []):
        eps = _load_aug(path, alg)
        ok = is_augmentation(eps, alg, bounds).ok
        rep.add("augmentation", "ok" if ok else "failed")
        if not ok:
            code = 1
    for path in (args.pointed or []):
        _, pmap = _load_pointed(path, alg)
        ok = check_pointed(pmap, alg, bounds).ok
        rep.add("pointed", "ok" if ok else "failed")
        if not ok:
            code = 1
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
        _write_certificate(args.certificate, alg.space,
                           "torsion-%d" % ans.level, ans.certificate)
        rep.add("certificate", args.certificate)
    return code


def cmd_linearize(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    alg = bio.algebra_from_document(doc)
    if not check_structure(alg, bounds).ok:
        rep.add("linearize", "structure-failed")
        return 1
    if not args.aug:
        rep.add("linearize", "inconclusive")
        rep.add("reason", "no augmentation supplied")
        return 3
    eps = _load_aug(args.aug[0], alg)
    if not is_augmentation(eps, alg, bounds).ok:
        rep.add("linearize", "augmentation-failed")
        return 1
    lin = linearize(alg, eps, bounds)
    rep.add("linearize", "ok")
    rep.add("cells", str(len(lin.cells)))
    ell = ell_table(lin)
    rep.add("ell-cells", str(len(ell.cells)))
    if args.certificate:
        block = bio.TableBlock("structure", "p_eps", 1, False,
                               lin.sorted_entries(), max_k=lin.max_k)
        out = bio.Document(alg.space, [block], (), bounds)
        with open(args.certificate, "w", encoding="utf-8") as fh:
            fh.write(bio.serialize(out))
        rep.add("certificate", args.certificate)
    return 0


def _prepare_order_inputs(args, rep):
    doc = _load(args.file)
    bounds = _bounds_from(args, doc)
    alg = bio.algebra_from_document(doc)
    if not check_structure(alg, bounds).ok:
        rep.add("structure", "failed")
        return None
    augs = [_load_aug(p, alg) for p in (args.aug or [])]
    for eps in augs:
        if not is_augmentation(eps, alg, bounds).ok:
            rep.add("augmentation", "failed")
            return None
    pmaps = []
    for p in (args.pointed or []):
        pdoc, pmap = _load_pointed(p, alg)
        if not check_pointed(pmap, alg, bounds).ok:
            rep.add("pointed", "failed")
            return None
        pmaps.append((pdoc, pmap))
    return doc, bounds, alg, augs, pmaps


def cmd_order(args, rep):
    got = _prepare_order_inputs(args, rep)
    if got is None:
        return 1
    doc, bounds, alg, augs, pmaps = got
    if not augs:
        rep.add("order", "inconclusive")
        rep.add("reason", "no augmentation supplied")
        return 3
    if not pmaps:
        rep.add("order", "inconclusive")
        rep.add("reason", "no pointed map supplied")
        return 3
    ans = order_O(alg, augs[0], pmaps[0][1], bounds)
    code = _report_answer(rep, "order", ans)
    if ans.found() and args.certificate:
        chain = EElement({EWord((w,)): c
                          for w, c in ans.certificate.terms.items()})
        _write_certificate(args.certificate, alg.space,
                           "order-%d" % ans.level, chain)
        rep.add("certificate", args.certificate)
    return code


def _subset_of_name(name):
    digits = [ch for ch in name if ch.isdigit()]
    if not digits:
        raise StructureError(
            "pointed table name %r does not encode a constraint subset"
            % name)
    return frozenset(int(d) for d in digits)


def cmd_order_multi(args, rep):
    got = _prepare_order_inputs(args, rep)
    if got is None:
        return 1
    doc, bounds, alg, augs, pmaps = got
    if not augs or not pmaps:
        rep.add("order-multi", "inconclusive")
        rep.add("reason", "need an augmentation and pointed maps")
        return 3
    family = {}
    m = args.points
    for pdoc, pmap in pmaps:
        block = pdoc.table("pointed")
        family[_subset_of_name(block.name)] = pmap.table
    if m is None:
        m = max(max(s) for s in family)
    code = _report_answer(rep, "order-multi",
                          order_multi(alg, augs[0], family, m, bounds))
    rep.add("points", str(m))
    return code


def _sd_level(args, bounds, alg, augs, pmaps):
    """The semi-dilation order of the first augmentation and pointed map
    under the --umap endomorphism."""
    eps, (_, pmap) = augs[0], pmaps[0]
    lin = linearize(alg, eps, bounds)
    lpt = linearize_pointed(pmap, alg, eps, bounds)
    umod = bio.umodule_from_document(_load(args.umap), alg.space)
    return sd_order(lin.sub_table(lambda k, l: (k, l) == (1, 1)), umod,
                    lpt.sub_table(lambda k, l: (k, l) == (1, 0)))


def cmd_sd(args, rep):
    got = _prepare_order_inputs(args, rep)
    if got is None:
        return 1
    doc, bounds, alg, augs, pmaps = got
    if not augs or not pmaps or not args.umap:
        rep.add("sd", "inconclusive")
        rep.add("reason", "need --aug, --pointed and --umap")
        return 3
    try:
        k = _sd_level(args, bounds, alg, augs, pmaps)
    except PlanarityNotOneError:
        rep.add("sd", "inconclusive")
        rep.add("reason", "no class with functional value 1")
        return 3
    except NotNilpotentError as e:
        rep.add("sd", "failed")
        rep.add("reason", str(e))
        return 1
    rep.add("sd", "exact %d" % k)
    return 0


def cmd_planarity(args, rep):
    got = _prepare_order_inputs(args, rep)
    if got is None:
        return 1
    doc, bounds, alg, augs, pmaps = got
    if not pmaps:
        rep.add("planarity", "inconclusive")
        rep.add("reason", "no pointed map supplied")
        return 3
    try:
        ans = planarity(alg, augs, pmaps[0][1], bounds)
    except InconclusiveError as e:
        rep.add("planarity", "inconclusive")
        rep.add("reason", str(e))
        return 3
    code = _report_answer(rep, "planarity", ans)
    rep.add("augmentations", str(len(augs)))
    return code


def cmd_hierarchy(args, rep):
    got = _prepare_order_inputs(args, rep)
    if got is None:
        return 1
    doc, bounds, alg, augs, pmaps = got
    t = torsion(alg, default_schedule(bounds.outer(), bounds))
    _report_answer(rep, "torsion", t)
    pl = None
    sd_level = None
    if pmaps and (augs or t.found() or alg.space.all_even()):
        try:
            pl = planarity(alg, augs, pmaps[0][1], bounds, t)
            if pl.found():
                rep.add("planarity", "%s %d" % (pl.kind, pl.level))
        except InconclusiveError:
            pl = None
    if pl is not None and pl.found() and pl.level == 1 and args.umap \
            and augs and pmaps:
        try:
            sd_level = _sd_level(args, bounds, alg, augs, pmaps)
            rep.add("sd", "exact %d" % sd_level)
        except (PlanarityNotOneError, NotNilpotentError):
            sd_level = None
    try:
        value = hierarchy_classify(t, bool(augs), pl, sd_level)
    except (InconclusiveError, InconsistentInputsError) as e:
        rep.add("hierarchy", "inconclusive")
        rep.add("reason", str(e))
        return 3
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
        rep.add("witness", _ibl_witness(ialg.space, status.witness))
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
    if cert is not None:
        moved, ok = derive_flat_torsion(ialg, cert, args.n, args.m, cap)
        rep.add("flat-transport", "ok" if ok else "failed")
        if args.certificate:
            _write_certificate(args.certificate, ialg.space,
                               "grid-%d-%d-%d" % (args.n, args.m, cap), cert)
            rep.add("certificate", args.certificate)
        if not ok:
            return 1
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="blinfty",
        description="exact verification and invariants for graded bi-Lie "
                    "structures")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_file=True):
        if with_file:
            p.add_argument("file")
        p.add_argument("--max-letters", type=int, default=None)
        p.add_argument("--max-action", default=None)
        p.add_argument("--word-bound", type=int, default=None)
        p.add_argument("--hbar-max", type=int, default=None)
        p.add_argument("--aug", action="append", default=[])
        p.add_argument("--pointed", action="append", default=[])
        p.add_argument("--umap", default=None)
        p.add_argument("--certificate", default=None)

    for name, fn in (("verify", cmd_verify), ("torsion", cmd_torsion),
                     ("linearize", cmd_linearize), ("order", cmd_order),
                     ("sd", cmd_sd), ("planarity", cmd_planarity),
                     ("hierarchy", cmd_hierarchy),
                     ("ibl-check", cmd_ibl_check)):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("order-multi")
    common(p)
    p.add_argument("--points", type=int, default=None)
    p.set_defaults(func=cmd_order_multi)

    p = sub.add_parser("ibl-torsion")
    p.add_argument("file")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    common(p, with_file=False)
    p.set_defaults(func=cmd_ibl_torsion)

    p = sub.add_parser("combine")
    p.add_argument("value1")
    p.add_argument("value2")
    p.set_defaults(func=cmd_combine)
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
    except (OSError,) as e:
        rep.add("error", "io: %s" % e)
        code = 2
    except (StructureError, WindowLeakError, IncompleteTableError) as e:
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
