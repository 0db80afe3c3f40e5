"""The benchmark's three closed-loop workloads.

A workload builds, from its seed, one list of ops (`self.ops`), which a
run repeats in passes.  An op is prepared (untimed: fresh objects, input
files), run (timed: the library or CLI call under test) and checked
(untimed: the answer is compared with the known one, certificates are
re-verified by evaluation).  The same seed gives the same ops.

The library is passed in as a namespace of freshly imported modules (see
`load_library`) so that set-up can be repeated and timed, and so that the
tracer can wrap the very functions the ops call.
"""

from __future__ import annotations

import contextlib
import importlib
import io as pyio
import random
import sys
import types
from fractions import Fraction

from cli_expected import COMBINE, EXPECTED

MODULES = ("words", "linalg", "assembly", "structures", "invariants", "ibl",
           "io", "cli", "fixtures")


def load_library():
    """Import blinfty from scratch and return its modules as a namespace."""
    for name in [m for m in sys.modules
                 if m == "blinfty" or m.startswith("blinfty.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module("blinfty." + m) for m in MODULES})


class Op:
    """One closed-loop operation: prepare() -> run(prepared) -> check(result).

    check returns (ok, answer): answer is the op's kind and level (for a
    CLI op, its label and main report value) with its exit code, the
    triple that goes into the run's digest.
    """

    __slots__ = ("label", "prepare", "run", "check")

    def __init__(self, label, prepare, run, check):
        self.label = label
        self.prepare = prepare
        self.run = run
        self.check = check


def _nonzero_rational(rng, top):
    return Fraction(rng.choice([n for n in range(-top, top + 1) if n]),
                    rng.randint(1, top))


# ---------------------------------------------------------------------------
# torsion-exhaust

class TorsionExhaust:
    """torsion() on the mixed_no_aug family: d b = a plus c*(a.b) -> 1.

    No level ever solves, so every level of the schedule is enumerated,
    assembled and eliminated: the worst case of the torsion search.  The
    ops are one structure without and one with an odd spectator generator
    (L=6 and L=5, about equally expensive), each with its own seeded c.
    """

    name = "torsion-exhaust"

    def __init__(self, lib, seed, workdir, tiny=False):
        self.lib = lib
        self.levels = {False: 3, True: 2} if tiny else {False: 6, True: 5}
        rng = random.Random("%s:%d" % (self.name, seed))
        order = [False, True]
        rng.shuffle(order)
        self.ops = [self._op(_nonzero_rational(rng, 9), s) for s in order]

    def _document(self, c, spectator):
        lines = ["format blinfty 1", "gen a parity 0", "gen b parity 1"]
        if spectator:
            lines.append("gen s parity 1")
        lines += ["table structure p parity 1",
                  "op 1 1 : b -> 1 a",
                  "op 2 0 : a·b -> %s 1" % c]
        return "\n".join(lines) + "\n"

    def _op(self, c, spectator, L=None):
        lib = self.lib
        L = L or self.levels[spectator]
        text = self._document(c, spectator)

        def prepare():
            return lib.io.algebra_from_document(lib.io.parse(text))

        def run(alg):
            schedule = lib.invariants.default_schedule(
                L, lib.structures.Bounds(L))
            return lib.invariants.torsion(alg, schedule)

        def check(ans):
            answer = (ans.kind, ans.level, 0 if ans.found() else 3)
            return ans.kind == "not-found" and ans.level is None, answer

        return Op("torsion c=%s spectator=%d L=%d" % (c, spectator, L),
                  prepare, run, check)

    def warm_up(self):
        op = self._op(Fraction(1), False, L=3)
        op.check(op.run(op.prepare()))


# ---------------------------------------------------------------------------
# compose-coherence

def random_table_rows(rng, parities, max_k=2, max_l=2, n_entries=3,
                      parity=0):
    """The support of a random table, drawn as tests/util.random_table does.

    Returns {(k, l, input letters): {output letters: coefficient}} with
    letters as sorted generator indices.
    """
    n = len(parities)

    def vanishes(letters):
        return any(a == b and parities[a]
                   for a, b in zip(letters, letters[1:]))

    def par(letters):
        return sum(parities[i] for i in letters) % 2

    rows = {}
    tries = 0
    while len(rows) < n_entries and tries < 60:
        tries += 1
        k = rng.randint(1, max_k)
        letters = tuple(sorted(rng.randrange(n) for _ in range(k)))
        if vanishes(letters):
            continue
        l = rng.randint(0, max_l)
        outs = {}
        for _ in range(rng.randint(1, 2)):
            out = tuple(sorted(rng.randrange(n) for _ in range(l)))
            if vanishes(out) or par(out) != (par(letters) + parity) % 2:
                continue
            outs[out] = rng.randint(-3, 3)
        outs = {w: c for w, c in outs.items() if c}
        if not outs or (k, l, letters) in rows:
            continue
        rows[(k, l, letters)] = outs
    return rows


class ComposeCoherence:
    """compose(psi, phi) checked against apply(psi, apply(phi, .)).

    The ops use a fixed pool of table supports (2-3 generators, 3 entries,
    k, l <= 2) drawn once as tests/util.random_table draws them; the seed
    draws every coefficient and the op order.  The per-op cost is
    heavy-tailed (milliseconds to seconds); fixing the supports gives every
    seed the same heavy-tail mix.
    """

    name = "compose-coherence"
    POOL = 24

    def __init__(self, lib, seed, workdir, tiny=False):
        self.lib = lib
        self.compose_letters, self.check_letters = (2, 2) if tiny else (4, 3)
        rng = random.Random("%s:%d" % (self.name, seed))
        self.ops = [self._op(i, self._document(self._shape(i), rng))
                    for i in range(3 if tiny else self.POOL)]
        rng.shuffle(self.ops)

    @staticmethod
    def _shape(i):
        rng = random.Random("compose-shape:%d" % i)
        parities = [rng.randrange(2) for _ in range(rng.choice([2, 3]))]
        return (parities, random_table_rows(rng, parities),
                random_table_rows(rng, parities))

    @staticmethod
    def _document(shape, rng):
        parities, phi, psi = shape
        names = ["g%d" % i for i in range(len(parities))]

        def word(letters):
            return "·".join(names[i] for i in letters) or "1"

        lines = ["format blinfty 1"]
        lines += ["gen %s parity %d" % (g, p) for g, p in zip(names, parities)]
        lines.append("table structure p parity 1")
        for tname, rows in (("phi", phi), ("psi", psi)):
            lines.append("table morphism %s parity 0" % tname)
            for (k, l, letters), outs in sorted(rows.items()):
                terms = " + ".join(
                    "%d %s" % (rng.choice((-3, -2, -1, 1, 2, 3)), word(out))
                    for out in sorted(outs))
                lines.append("op %d %d : %s -> %s" % (k, l, word(letters),
                                                      terms))
        return "\n".join(lines) + "\n"

    def _op(self, index, text):
        lib = self.lib
        S = lib.structures

        def prepare():
            doc = lib.io.parse(text)
            alg = lib.io.algebra_from_document(doc)
            phi, psi = (S.BLMorphism(alg, alg, lib.io.table_from_block(
                doc.space, doc.table("morphism", t))) for t in ("phi", "psi"))
            return doc.space, phi, psi

        def run(prepared):
            space, phi, psi = prepared
            comp = S.compose(psi, phi, S.Bounds(self.compose_letters))
            words = lib.words.enumerate_basis(space, self.check_letters,
                                              outer_components=2)
            bad = 0
            for ew in words:
                x = lib.words.EElement.monomial(ew)
                if S.apply_hat_phi(comp, x) != \
                        S.apply_hat_phi(psi, S.apply_hat_phi(phi, x)):
                    bad += 1
            return bad, len(comp.table.sorted_entries())

        def check(result):
            bad, entries = result
            kind = "coherent" if bad == 0 else "incoherent"
            return bad == 0, (kind, entries, 0 if bad == 0 else 1)

        return Op("compose shape=%d" % index, prepare, run, check)

    def warm_up(self):
        shape = ([1, 1], {(1, 1, (0,)): {(1,): 1}}, {(1, 1, (1,)): {(0,): 1}})
        op = self._op(-1, self._document(shape, random.Random(0)))
        op.check(op.run(op.prepare()))


# ---------------------------------------------------------------------------
# cli-corpus

def report_values(text):
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        out.setdefault(key.strip(), value.strip())
    return out


class CliCorpus:
    """Every subcommand, in process, on the dumped fixture corpus.

    The ops are the corpus invocations whose answers are in
    cli_expected.EXPECTED, the COMBINE pairs and seeded random
    non-structures whose `verify` must exit 1 with a witness, in seeded
    order, then certificate writes whose output is merged with its
    structure and fed back to `verify`.
    """

    name = "cli-corpus"
    NON_STRUCTURES = 4

    def __init__(self, lib, seed, workdir, tiny=False):
        self.lib = lib
        self.dir = workdir / "corpus"
        self.out = workdir / "out"
        self.out.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(pyio.StringIO()):
            code = lib.fixtures.main([str(self.dir)])
        if code != 0:
            raise RuntimeError("fixture dump failed")
        self._write_multi_point_family()
        rng = random.Random("%s:%d" % (self.name, seed))
        self.ops = [self._expect_op(label, want) for label, want in EXPECTED]
        self.ops += [self._expect_op("combine %s %s" % (a, b),
                                     (0, {"combine": c}))
                     for a, b, c in COMBINE]
        self.ops += [self._non_structure(rng, i)
                     for i in range(self.NON_STRUCTURES)]
        rng.shuffle(self.ops)
        # a certificate is written and then read back by the next op
        self.ops += self._certificate_ops()

    def path(self, name):
        return str(self.dir / (name + ".blf"))

    def _write_multi_point_family(self):
        """S1 = S2 = the fixture's pointed map and S12 = 0, as in the
        order-multi acceptance case."""
        for name in ("pointed-one", "pointed-two"):
            text = (self.dir / (name + ".pointed.blf")).read_text("utf-8")
            head = text.split("table pointed", 1)[0]
            (self.dir / (name + ".S2.blf")).write_text(
                text.replace("table pointed S1", "table pointed S2"), "utf-8")
            (self.dir / (name + ".S12.blf")).write_text(
                head + "table pointed S12 parity 0\n", "utf-8")

    def argv(self, label):
        """Expand a symbolic label from cli_expected into a CLI argv."""
        argv = []
        for tok in label.split():
            if tok.startswith("@"):
                argv.append(self.path(tok[1:]))
            elif tok.startswith(">"):
                argv.append(str(self.out / tok[1:]))
            else:
                argv.append(tok)
        return argv

    def _call(self, argv):
        buf = pyio.StringIO()
        code = self.lib.cli.main(argv, stream=buf)
        return code, buf.getvalue()

    def _expect_op(self, label, expected, extra_check=None, prepare=None):
        code_want, values_want = expected

        def check(result):
            code, text = result
            got = report_values(text)
            ok = code == code_want and all(
                got.get(k) == v for k, v in values_want.items())
            if ok and extra_check is not None:
                ok = extra_check()
            first = next(iter(values_want), "")
            return ok, (label, got.get(first), code)

        argv = self.argv(label)
        return Op(label, prepare or (lambda: None),
                  lambda _: self._call(argv), check)

    # certificate round trips ------------------------------------------------

    def _merge_certificate(self, structure, cert_name, merged_name):
        """Append the certificate's chain lines to its structure document."""
        chains = [line for line in
                  (self.out / cert_name).read_text("utf-8").splitlines()
                  if line.startswith("chain ")]
        text = (self.dir / (structure + ".blf")).read_text("utf-8")
        (self.out / merged_name).write_text(
            text + "\n".join(chains) + "\n", "utf-8")

    def _parsed(self, structure, cert_name):
        """The structure document and the certificate's chain element."""
        parse = self.lib.io.parse
        doc = parse((self.dir / (structure + ".blf")).read_text("utf-8"))
        cert = parse((self.out / cert_name).read_text("utf-8"))
        return doc, cert.chains[0].element

    def _reverify_torsion(self, structure, cert_name, level):
        lib = self.lib
        doc, chain = self._parsed(structure, cert_name)
        return lib.invariants.verify_torsion_certificate(
            lib.io.algebra_from_document(doc),
            lib.invariants.TorsionAnswer("exact", level, chain))

    def _reverify_grid(self, structure, cert_name, n, m, trunc):
        lib = self.lib
        doc, chain = self._parsed(structure, cert_name)
        return lib.ibl.verify_grid_certificate(
            lib.io.ibl_from_document(doc), chain, n, m, trunc)

    def _certificate_ops(self):
        ops = []
        for structure, level in (("planar-torsion-one", 1),
                                 ("torsion-zero", 0)):
            cert = "%s.cert.blf" % structure
            merged = "%s.merged.blf" % structure
            label = "torsion @%s --certificate >%s" % (structure, cert)
            ops.append(self._expect_op(
                label, (0, {"torsion": "exact %d" % level}),
                extra_check=lambda s=structure, c=cert, lv=level:
                    self._reverify_torsion(s, c, lv)))
            ops.append(self._expect_op(
                "verify >%s" % merged,
                (0, {"verify": "ok",
                     "certificate-torsion-%d" % level: "ok"}),
                prepare=lambda s=structure, c=cert, m=merged:
                    self._merge_certificate(s, c, m)))
        cert = "ibl-planar.cert.blf"
        ops.append(self._expect_op(
            "ibl-torsion @ibl-planar 0 1 --certificate >%s" % cert,
            (0, {"ibl-torsion": "exact (0,1)_2", "flat-transport": "ok"}),
            extra_check=lambda: self._reverify_grid("ibl-planar", cert,
                                                    0, 1, 2)))
        ops.append(self._expect_op(
            "verify >ibl-planar.merged.blf", (0, {"verify": "ok"}),
            prepare=lambda: self._merge_certificate(
                "ibl-planar", cert, "ibl-planar.merged.blf")))
        lin = "linearizable.lin.blf"
        ops.append(self._expect_op(
            "linearize @linearizable --aug @linearizable.aug1 "
            "--certificate >%s" % lin,
            (0, {"linearize": "ok", "cells": "2", "ell-cells": "1"})))
        ops.append(self._expect_op("verify >%s" % lin, (0, {"verify": "ok"})))
        return ops

    # seeded non-structures --------------------------------------------------

    def _non_structure(self, rng, index):
        """d x = c1 y, d y = c2 z, so d^2 x = c1 c2 z != 0: verify fails and
        the first witness is the one-letter word x."""
        p = rng.randrange(2)
        names = rng.sample(["u%d" % i for i in range(10)], 4)
        x, y, z, s = names
        gens = [(x, p), (y, 1 - p), (z, p)]
        if rng.randrange(2):
            gens.append((s, rng.randrange(2)))
        rng.shuffle(gens)
        lines = ["format blinfty 1"]
        lines += ["gen %s parity %d" % g for g in gens]
        lines += ["table structure p parity 1",
                  "op 1 1 : %s -> %s %s" % (x, _nonzero_rational(rng, 5), y),
                  "op 1 1 : %s -> %s %s" % (y, _nonzero_rational(rng, 5), z),
                  "bounds max_letters %d" % rng.randint(2, 3)]
        name = "nonstructure-%d.blf" % index
        path = self.out / name
        text = "\n".join(lines) + "\n"
        return self._expect_op(
            "verify >%s" % name,
            (1, {"verify": "failed", "witness": "(1,1) %s" % x}),
            prepare=lambda: path.write_text(text, "utf-8"))

    def warm_up(self):
        for label, want in EXPECTED[:2]:
            op = self._expect_op(label, want)
            op.check(op.run(op.prepare()))


WORKLOADS = {w.name: w for w in (TorsionExhaust, ComposeCoherence, CliCorpus)}
