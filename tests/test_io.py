import random
from fractions import Fraction

import pytest

from blinfty import assembly, fixtures
from blinfty import io as bio
from blinfty.cli import COMMANDS, main as cli_main
from blinfty.errors import IncompleteTableError, ParseError, StructureError
from blinfty.invariants import TorsionAnswer, order_O, verify
from blinfty.structures import BLAlgebra, Bounds, OperationTable
from blinfty.words import (EElement, Element, EWord, Generator, GradedSpace,
                           UNIT_WORD, Word, enumerate_basis, normalize_word)

import io as pyio
from pathlib import Path

from util import random_table


def run_cli(tmp_path, *argv):
    buf = pyio.StringIO()
    code = cli_main(list(argv), stream=buf)
    return code, buf.getvalue()


def report_value(text, key):
    for line in text.splitlines():
        if line.startswith(key + ":"):
            return line.split(":", 1)[1].strip()
    return None


PLANAR_DOC = """\
# the simplest finite-torsion structure
format blinfty 1
gen q1 parity 1 action 1
gen q2 parity 0 action 1
table structure p parity 1
op 2 0 : q1·q2 -> 1 1
bounds max_letters 2 max_action 2 action_drop
"""


def test_parse_planar_document():
    doc = bio.parse(PLANAR_DOC)
    assert [g.name for g in doc.space.generators] == ["q1", "q2"]
    alg = bio.algebra_from_document(doc)
    assert alg.table.query(2, Word((0, 1))) == Element.monomial(UNIT_WORD)
    assert doc.bounds.max_letters == 2
    assert doc.action_drop


def test_round_trip_byte_identity_on_corpus():
    for name, text in fixtures.document_corpus().items():
        doc = bio.parse(text)
        assert bio.serialize(doc) == text, name


def test_parse_serialize_is_canonicalization():
    doc = bio.parse(PLANAR_DOC)
    canon = bio.serialize(doc)
    assert bio.serialize(bio.parse(canon)) == canon
    assert "# the simplest" not in canon


def test_parse_errors_name_the_line():
    bad = PLANAR_DOC.replace("op 2 0 : q1·q2 -> 1 1",
                             "op 2 0 : q1·qX -> 1 1")
    with pytest.raises(ParseError) as exc:
        bio.parse(bad)
    assert exc.value.line_no == 6


def test_parity_violation_rejected():
    bad = PLANAR_DOC.replace("op 2 0 : q1·q2 -> 1 1",
                             "op 1 0 : q2 -> 1 1")
    with pytest.raises(ParseError):
        bio.parse(bad)


def test_duplicate_cell_rejected():
    bad = PLANAR_DOC.replace(
        "op 2 0 : q1·q2 -> 1 1",
        "op 2 0 : q1·q2 -> 1 1\nop 2 0 : q1·q2 -> 2 1")
    with pytest.raises(ParseError, match="^line 7: duplicate op cell "
                       r"\(2,0\) 'q1·q2'$"):
        bio.parse(bad)
    # a duplicate forty ops after its first occurrence
    ops = ["op %d 1 : %s -> 1 b" % (k, "·".join("a" * k))
           for k in range(1, 41)]
    text = "format blinfty 1\ngen a parity 0\ngen b parity 1\n" \
        "table structure p parity 1\n%s\nop 1 1 : a -> 2 b\n" % "\n".join(ops)
    with pytest.raises(ParseError, match=r"^line 45: duplicate op cell "
                       r"\(1,1\) 'a'$"):
        bio.parse(text)
    assert len(bio.parse(text.rsplit("op", 1)[0]).tables[0].ops) == 40
    # one (k, l, input) at two genera of an ibl table is two cells
    ibl = "format blinfty 1\ngen q parity 1\ntable ibl p parity 1 hbar\n" \
        "op 1 0 : q -> 1 1\nop 1 0 genus 1 : q -> 1 1\n"
    assert len(bio.parse(ibl).tables[0].ops) == 2
    with pytest.raises(ParseError, match=r"^line 6: duplicate op cell"):
        bio.parse(ibl + "op 1 0 genus 1 : q -> 2 1\n")


def test_hbar_outside_ibl_table_rejected():
    # a structure table has no genus axis to read hbar ops into
    bad = PLANAR_DOC.replace("parity 1\n", "parity 1 hbar\n", 1)
    assert bad != PLANAR_DOC
    with pytest.raises(ParseError):
        bio.parse(bad)


def test_structure_writer_refuses_genera():
    # the writer refuses what the parser refuses: a genus outside an hbar
    # table.  Written as a structure table, ibl_genus_one's genus-1 op
    # would read back as q -> 1 at genus 0, a structure of torsion exact 0
    alg = fixtures.ibl_genus_one()
    with pytest.raises(ValueError, match="document_of_ibl"):
        bio.document_of_algebra(alg)
    text = bio.serialize(bio.document_of_ibl(alg))
    assert "op 1 0 genus 1 : q -> 1 1" in text
    assert bio.ibl_from_document(bio.parse(text)).table == alg.table


def test_malformed_rational_rejected():
    bad = PLANAR_DOC.replace("-> 1 1", "-> 1/0 1")
    with pytest.raises(ParseError):
        bio.parse(bad)


def test_noncanonical_word_rejected():
    bad = PLANAR_DOC.replace("q1·q2", "q2·q1")
    with pytest.raises(ParseError):
        bio.parse(bad)


def test_partial_table_round_trip_keeps_completeness():
    # a partial table's max_k goes on its table line and comes back; a
    # complete table's line is unchanged
    doc = bio.parse(PLANAR_DOC)
    alg = bio.algebra_from_document(doc)
    partial = BLAlgebra(alg.space, OperationTable(
        alg.space, 1, alg.table.sorted_entries(), complete=False, max_k=3))
    text = bio.serialize(bio.document_of_algebra(partial, doc.bounds))
    assert "\ntable structure p parity 1 max_k 3\n" in text
    assert bio.serialize(bio.parse(text)) == text
    again = bio.algebra_from_document(bio.parse(text))
    assert (again.table.complete, again.table.max_k) == (False, 3)
    assert again.table == partial.table != alg.table
    assert bio.serialize(bio.document_of_algebra(alg, doc.bounds)) == \
        PLANAR_DOC.split("\n", 1)[1]
    ialg = BLAlgebra(alg.space, partial.table)
    text = bio.serialize(bio.document_of_ibl(ialg))
    assert "\ntable ibl p parity 1 hbar max_k 3\n" in text
    assert bio.ibl_from_document(bio.parse(text)).table == partial.table


@pytest.mark.parametrize("head", ["max_k -1", "max_k", "max_k 2 junk",
                                  "max_k 2 max_k 3"])
def test_bad_table_max_k_rejected(head):
    bad = PLANAR_DOC.replace("table structure p parity 1",
                             "table structure p parity 1 " + head)
    with pytest.raises(ParseError):
        bio.parse(bad)


@pytest.mark.parametrize("old, new, line_no, key", [
    ("q2 parity 0 action 1", "q2 parity 0 action 1 action 2", 4, "action"),
    ("q2 parity 0", "q2 parity 0 zdeg 0 zdeg 2", 4, "zdeg"),
    ("p parity 1", "p parity 1 max_k 2 max_k 3", 5, "max_k"),
    ("structure p parity 1", "ibl p parity 1 hbar hbar", 5, "hbar"),
    ("max_letters 2", "max_letters 2 hbar_max 2 hbar_max -1", 7, "hbar_max"),
    ("max_letters 2", "max_letters 2 max_letters 3", 7, "max_letters"),
    ("action_drop", "action_drop action_drop", 7, "action_drop"),
])
def test_repeated_option_rejected(old, new, line_no, key):
    # a key or flag given twice on one line is refused with its line and
    # name, not read as its last value (a gen line takes keys only)
    assert PLANAR_DOC.count(old) == 1
    with pytest.raises(ParseError, match="^line %d: repeated option '%s'$"
                       % (line_no, key)):
        bio.parse(PLANAR_DOC.replace(old, new))


@pytest.mark.parametrize("kind, read", [
    ("structure", lambda doc, alg: bio.algebra_from_document(doc)),
    ("ibl", lambda doc, alg: bio.ibl_from_document(doc)),
    ("augmentation", bio.augmentation_from_document),
    ("pointed", bio.pointed_from_document),
    ("umodule", lambda doc, alg: bio.umodule_from_document(doc, alg.space)),
])
def test_reader_without_its_table_names_the_kind(kind, read):
    doc = bio.parse(PLANAR_DOC)
    alg = bio.algebra_from_document(doc)
    others = bio.Document(doc.space, [t for t in doc.tables if t.kind != kind],
                          (), doc.bounds)
    with pytest.raises(StructureError) as err:
        read(others, alg)
    assert str(err.value) == "document has no %s table" % kind


def random_document(rng):
    n = rng.randint(1, 4)
    gens = []
    for i in range(n):
        kw = {}
        if rng.random() < 0.4:
            par = rng.randrange(2)
            kw["zgrade"] = 2 * rng.randint(-2, 2) + par
            gens.append(Generator("g%d" % i, par, **kw))
        else:
            gens.append(Generator("g%d" % i, rng.randrange(2),
                                  action=(Fraction(rng.randint(1, 5),
                                                   rng.randint(1, 3))
                                          if rng.random() < 0.5 else None)))
    sp = GradedSpace(gens)
    is_hbar = rng.random() < 0.3
    kind = "ibl" if is_hbar else rng.choice(
        ["structure", "morphism", "augmentation", "pointed", "umodule"])
    parity = 1 if kind in ("structure", "ibl") else 0
    ops = []
    seen = set()
    for _ in range(rng.randint(0, 6)):
        k = rng.randint(1, 3)
        letters = tuple(sorted(rng.randrange(n) for _ in range(k)))
        w_in, sgn = normalize_word(sp, letters)
        if sgn != 1:
            continue
        if kind == "augmentation":
            l = 0
        elif kind == "umodule":
            if k != 1:
                continue
            l = 1
        else:
            l = rng.randint(0, 3)
        g = rng.randint(0, 2) if is_hbar else 0
        if (k, l, g, w_in) in seen:
            continue
        in_par = sp.word_parity(w_in.letters)
        elem = Element()
        for _ in range(rng.randint(1, 2)):
            out = tuple(sorted(rng.randrange(n) for _ in range(l)))
            w_out, osgn = normalize_word(sp, out)
            if osgn != 1:
                continue
            if sp.word_parity(w_out.letters) != (in_par + parity) % 2:
                continue
            elem = elem + Element.monomial(
                w_out, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        if not elem:
            continue
        seen.add((k, l, g, w_in))
        ops.append((k, l, g, w_in, elem))
    blocks = [bio.TableBlock(kind, "t0", parity, ops)]
    chains = []
    if rng.random() < 0.3 and n >= 1:
        ew = EWord((Word((0,)),), hbar=rng.randrange(2) if is_hbar else 0)
        from blinfty.words import EElement
        chains.append(bio.ChainBlock(
            "c0", EElement.monomial(ew, Fraction(rng.randint(1, 4)))))
    bounds = None
    if rng.random() < 0.6:
        bounds = Bounds(rng.randint(1, 5),
                        hbar_max=rng.randint(0, 3) if is_hbar else None)
    return bio.Document(sp, blocks, chains, bounds)


def test_random_documents_round_trip():
    rng = random.Random(2024)
    for _ in range(300):
        doc = random_document(rng)
        text = bio.serialize(doc)
        again = bio.serialize(bio.parse(text))
        assert again == text


def _with_shuffled_outputs(rng, tab, genus):
    """tab's entries, each output word's letters listed in a random order
    with its coefficient kept, at a random genus when genus is true."""
    entries = []
    for k, l, g, w, elem in tab.sorted_entries():
        terms = {}
        for out, c in elem.terms.items():
            letters = list(out.letters)
            rng.shuffle(letters)
            terms[Word(tuple(letters))] = c
        entries.append((k, l, rng.randrange(3) if genus else g, w,
                        Element(terms)))
    return entries


def _glued(tab, x, hbar):
    try:
        if hbar:
            return assembly.apply_ibl(tab, x, 2)
        if tab.parity:
            return assembly.apply_coderivation(tab, x)
        return assembly.apply_morphism(tab, x)
    except IncompleteTableError as e:
        return ("IncompleteTableError", str(e))


def test_tables_listing_unsorted_outputs_round_trip():
    # a table may list an output word's letters in any order; it keeps the
    # word in normal form, so its document parses back to an equal table
    # that glues the same
    rng = random.Random(3131)
    moved = 0
    for _ in range(80):
        sp = GradedSpace([Generator("g%d" % i, rng.randrange(2))
                          for i in range(rng.randint(2, 4))])
        parity = rng.randrange(2)
        hbar = parity == 1 and rng.random() < 0.5
        entries = _with_shuffled_outputs(rng, random_table(
            rng, sp, max_k=3, max_l=3, n_entries=5, parity=parity), hbar)
        max_k = rng.choice([None, 1, 2])
        tab = OperationTable(sp, parity, entries, complete=max_k is None,
                             max_k=max_k)
        listed = {(w_in, out) for _, _, _, w_in, elem in entries
                  for out in elem.terms}
        moved += sum((w_in, out) not in listed
                     for _, _, _, w_in, elem in tab.sorted_entries()
                     for out in elem.terms)
        assert all(normalize_word(sp, out.letters) == (out, 1)
                   for *_, elem in tab.sorted_entries() for out in elem.terms)
        kind = "ibl" if hbar else ("structure" if parity else "morphism")
        text = bio.serialize(bio.document_of_table(kind, "t", tab))
        back = bio.table_from_block(sp, bio.parse(text).table(kind))
        assert back == tab
        assert bio.serialize(bio.document_of_table(kind, "t", back)) == text
        for ew in rng.sample(enumerate_basis(sp, 4, outer_components=2), 3):
            x = EElement.monomial(ew)
            assert _glued(back, x, hbar) == _glued(tab, x, hbar)
    assert moved >= 20


# ---- CLI ---------------------------------------------------------------------

@pytest.fixture()
def corpus_dir(tmp_path):
    for name, text in fixtures.document_corpus().items():
        (tmp_path / ("%s.blf" % name)).write_text(text, encoding="utf-8")
    return tmp_path


def test_cli_verify_ok(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "verify",
                        str(corpus_dir / "planar-torsion-one.blf"))
    assert code == 0
    assert report_value(out, "verify") == "ok"


def test_cli_verify_failure_exit_one(tmp_path):
    bad = """\
format blinfty 1
gen x parity 0
gen y parity 1
gen z parity 0
table structure p parity 1
op 1 1 : x -> 1 y
op 1 1 : y -> 1 z
bounds max_letters 2
"""
    f = tmp_path / "bad.blf"
    f.write_text(bad, encoding="utf-8")
    code, out = run_cli(tmp_path, "verify", str(f))
    assert code == 1
    assert report_value(out, "verify") == "failed"
    assert report_value(out, "witness") == "(1,1) x"


def test_cli_parse_error_exit_two(tmp_path):
    f = tmp_path / "broken.blf"
    f.write_text("format blinfty 1\ngen q parity 7\n", encoding="utf-8")
    code, out = run_cli(tmp_path, "verify", str(f))
    assert code == 2
    assert "error" in out


def test_cli_short_op_header_exit_two(tmp_path):
    f = tmp_path / "short.blf"
    f.write_text("format blinfty 1\ngen a parity 1\n"
                 "table structure p parity 1\nop 1 : a -> 1 1\n",
                 encoding="utf-8")
    code, out = run_cli(tmp_path, "verify", str(f), "--max-letters", "1")
    assert code == 2
    assert report_value(out, "error") == "parse: line 4: bad op header"


@pytest.mark.parametrize("command, table, op, error", [
    ("verify", "structure p parity 1", "op 0 1 : 1 -> 1 q",
     "parse: line 4: op arity k must be >= 1"),
    ("ibl-check", "ibl p parity 1 hbar", "op 1 0 genus -1 : q -> 1 1",
     "parse: line 4: genus must be >= 0"),
])
def test_cli_bad_op_cell_exit_two(tmp_path, command, table, op, error):
    f = tmp_path / "cell.blf"
    f.write_text("format blinfty 1\ngen q parity 1\ntable %s\n%s\n"
                 % (table, op), encoding="utf-8")
    code, out = run_cli(tmp_path, command, str(f), "--max-letters", "1")
    assert code == 2
    assert report_value(out, "error") == error


@pytest.mark.parametrize("value", ["1/0", "abc"])
def test_cli_bad_max_action_exit_two(corpus_dir, tmp_path, value):
    code, out = run_cli(tmp_path, "verify",
                        str(corpus_dir / "planar-torsion-one.blf"),
                        "--max-action", value)
    assert code == 2
    assert report_value(out, "error").startswith("value: ")


def test_cli_torsion_planar(corpus_dir, tmp_path):
    cert = tmp_path / "cert.blf"
    code, out = run_cli(tmp_path, "torsion",
                        str(corpus_dir / "planar-torsion-one.blf"),
                        "--word-bound", "2", "--max-letters", "2",
                        "--certificate", str(cert))
    assert code == 0
    assert report_value(out, "torsion") == "exact 1"
    # round-trip re-verification of the emitted certificate
    merged = (corpus_dir / "planar-torsion-one.blf").read_text() \
        .replace("bounds", cert.read_text().splitlines()[-1] + "\nbounds", 1)
    f2 = tmp_path / "with-cert.blf"
    f2.write_text(merged, encoding="utf-8")
    code2, out2 = run_cli(tmp_path, "verify", str(f2))
    assert code2 == 0
    assert report_value(out2, "certificate-torsion-1") == "ok"


def test_cli_torsion_not_found(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "torsion", str(corpus_dir / "zero-mixed.blf"))
    assert code == 3
    assert report_value(out, "torsion") == "not-found-within-bounds"


def _assert_order_certificate(cert, structure, aug, pointed, level):
    """The order-<level> chain written to cert is one chain of one-cluster
    words at exponent 0, and flattened to inner words it re-verifies by
    evaluation through the library's verify at the document's bounds, as
    an answer of order_O's problem on the augmentation and pointed map.
    Appended to the structure, verify re-checks it after the pointed line
    when given the augmentation and the pointed map, skips it without
    them, and fails it, exit 1, with one coefficient flipped."""
    doc = bio.parse(Path(structure).read_text(encoding="utf-8"))
    alg = bio.algebra_from_document(doc)
    eps = bio.augmentation_from_document(
        bio.parse(Path(aug).read_text(encoding="utf-8")), alg)
    pmap = bio.pointed_from_document(
        bio.parse(Path(pointed).read_text(encoding="utf-8")), alg)
    (chain,) = bio.parse(cert.read_text(encoding="utf-8")).chains
    assert chain.name == "order-%d" % level
    assert all(len(ew.clusters) == 1 and not ew.hbar
               for ew in chain.element.terms)
    c = Element({ew.clusters[0]: x for ew, x in chain.element.terms.items()})
    problem = order_O(eps, pmap, doc.bounds).problem
    assert verify(TorsionAnswer("exact", level, c, doc.bounds, problem))
    first = next(iter(chain.element.terms))
    flipped = Element({**chain.element.terms,
                       first: -chain.element.terms[first]})
    merged = cert.parent / "with-order.blf"
    key = "certificate-order-%d" % level
    for element, code, status in ((chain.element, 0, "ok"),
                                  (flipped, 1, "failed")):
        line = bio.serialize(bio.document_of_chain(
            alg.space, chain.name, element)).splitlines()[-1]
        merged.write_text(Path(structure).read_text(encoding="utf-8")
                          + line + "\n", encoding="utf-8")
        got, out = run_cli(cert.parent, "verify", str(merged))
        assert (got, report_value(out, key)) == (0, None)
        got, out = run_cli(cert.parent, "verify", str(merged),
                           "--aug", aug, "--pointed", pointed)
        assert got == code
        assert out.splitlines()[-2:] == ["pointed: ok", "%s: %s"
                                         % (key, status)]


def test_cli_order(corpus_dir, tmp_path):
    cert = tmp_path / "order.blf"
    inputs = [str(corpus_dir / ("pointed-two%s.blf" % suffix))
              for suffix in ("", ".aug0", ".pointed")]
    code, out = run_cli(tmp_path, "order", inputs[0], "--aug", inputs[1],
                        "--pointed", inputs[2], "--certificate", str(cert))
    assert code == 0
    assert report_value(out, "order") == "exact 2"
    assert report_value(out, "certificate") == str(cert)
    _assert_order_certificate(cert, *inputs, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cli_order_ladder(tmp_path, n):
    alg, pmap = fixtures.order_ladder(n)
    docs = {
        "rung": bio.document_of_algebra(alg, bounds=Bounds(n)),
        "aug": bio.Document(alg.space, [bio.TableBlock(
            "augmentation", "eps0", 0, [])], (), None),
        "pointed": bio.Document(alg.space, [bio.TableBlock(
            "pointed", "S1", 0, pmap.table.sorted_entries())], (),
            None)}
    for name, doc in docs.items():
        (tmp_path / (name + ".blf")).write_text(bio.serialize(doc),
                                                encoding="utf-8")
    cert = tmp_path / "order.blf"
    inputs = [str(tmp_path / (name + ".blf"))
              for name in ("rung", "aug", "pointed")]
    code, out = run_cli(tmp_path, "order", inputs[0], "--aug", inputs[1],
                        "--pointed", inputs[2], "--certificate", str(cert))
    assert code == 0
    assert report_value(out, "order") == "exact %d" % n
    _assert_order_certificate(cert, *inputs, n)


def test_cli_verify_fails_an_order_chain_off_one_cluster(corpus_dir, tmp_path):
    # order --certificate writes one cluster per term at exponent 0; a
    # term of two clusters, or at exponent 1, is no order certificate
    inputs = [str(corpus_dir / ("pointed-two%s.blf" % suffix))
              for suffix in ("", ".aug0", ".pointed")]
    merged = tmp_path / "merged.blf"
    for term in ("1 a⊙b", "1 h1 a·b"):
        merged.write_text(Path(inputs[0]).read_text(encoding="utf-8")
                          + "chain order-2 : %s\n" % term, encoding="utf-8")
        code, out = run_cli(tmp_path, "verify", str(merged),
                            "--aug", inputs[1], "--pointed", inputs[2])
        assert code == 1
        assert report_value(out, "certificate-order-2") == "failed"


def test_cli_linearize_certificate_keeps_partial_table(corpus_dir, tmp_path):
    # the linearized table is computed on split words of at most
    # max_letters letters, so the certificate says where it stops
    cert = tmp_path / "lin.blf"
    code, out = run_cli(tmp_path, "linearize",
                        str(corpus_dir / "linearizable.blf"),
                        "--aug", str(corpus_dir / "linearizable.aug1.blf"),
                        "--certificate", str(cert))
    assert code == 0
    text = cert.read_text(encoding="utf-8")
    assert "\ntable structure p_eps parity 1 max_k 3\n" in text
    table = bio.algebra_from_document(bio.parse(text)).table
    assert (table.complete, table.max_k) == (False, 3)
    code, out = run_cli(tmp_path, "verify", str(cert))
    assert (code, report_value(out, "verify")) == (0, "ok")


def _order_multi_family(corpus_dir, tmp_path, doc):
    """order-multi's arguments after the command for doc, with the family
    S1, S2, S12: two copies of doc's one-point functional and an empty pair
    table."""
    base = (corpus_dir / ("%s.pointed.blf" % doc)).read_text()
    s2 = base.replace("table pointed S1", "table pointed S2")
    (tmp_path / "s2.blf").write_text(s2, encoding="utf-8")
    s12 = "\n".join(line for line in base.splitlines()
                    if not line.startswith("op")) \
        .replace("table pointed S1", "table pointed S12") + "\n"
    (tmp_path / "s12.blf").write_text(s12, encoding="utf-8")
    return (str(corpus_dir / ("%s.blf" % doc)),
            "--aug", str(corpus_dir / ("%s.aug0.blf" % doc)),
            "--pointed", str(corpus_dir / ("%s.pointed.blf" % doc)),
            "--pointed", str(tmp_path / "s2.blf"),
            "--pointed", str(tmp_path / "s12.blf"))


def test_cli_order_multi(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "order-multi", *_order_multi_family(
        corpus_dir, tmp_path, "pointed-one"), "--points", "2")
    assert code == 0
    assert report_value(out, "order-multi") == "exact 1"


@pytest.mark.parametrize("second", [None, "S11", "S10"])
def test_cli_order_multi_refuses_a_malformed_family_exit_one(
        corpus_dir, tmp_path, second):
    # beside S1, a second S1 (the same file), S11 (point 1 named twice) or
    # S10 (a point 0) would each drop a supplied table without a word
    pointed = corpus_dir / "pointed-two.pointed.blf"
    if second is not None:
        text = pointed.read_text().replace("table pointed S1",
                                           "table pointed " + second)
        pointed = tmp_path / "second.blf"
        pointed.write_text(text, encoding="utf-8")
    code, out = run_cli(tmp_path, "order-multi",
                        str(corpus_dir / "pointed-two.blf"),
                        "--aug", str(corpus_dir / "pointed-two.aug0.blf"),
                        "--pointed", str(corpus_dir / "pointed-two.pointed.blf"),
                        "--pointed", str(pointed))
    assert code == 1
    error = report_value(out, "error")
    assert error.startswith("structure: ") and "constraint subset" in error
    assert report_value(out, "order-multi") is None


@pytest.mark.parametrize("doc", ["pointed-one", "pointed-two"])
def test_cli_order_multi_family_must_cover_the_points_exit_two(
        corpus_dir, tmp_path, doc):
    # no set partition of {1, 2, 3} has all its blocks among S1, S2, S12,
    # so the functional would vanish on every level
    code, out = run_cli(tmp_path, "order-multi", *_order_multi_family(
        corpus_dir, tmp_path, doc), "--points", "3")
    assert code == 2
    assert report_value(out, "error") == (
        "value: no set partition of the points 1..3 has all its blocks in "
        "the family")
    assert report_value(out, "order-multi") is None


def test_cli_sd(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "sd", str(corpus_dir / "sd-example.blf"),
                        "--aug", str(corpus_dir / "sd-example.aug0.blf"),
                        "--pointed", str(corpus_dir / "sd-example.pointed.blf"),
                        "--umap", str(corpus_dir / "sd-example.umap.blf"))
    assert code == 0
    assert report_value(out, "sd") == "exact 1"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("command, key, value", [
    ("sd", "sd", "exact %d"), ("hierarchy", "hierarchy", "%d^SD")])
def test_cli_sd_ladder(tmp_path, n, command, key, value):
    alg, utab, pmap = fixtures.sd_ladder(n)
    docs = {
        "rung": bio.document_of_algebra(alg, bounds=Bounds(2, word_bound=2)),
        "aug": bio.Document(alg.space, [bio.TableBlock(
            "augmentation", "eps0", 0, [])]),
        "pointed": bio.Document(alg.space, [bio.TableBlock(
            "pointed", "S1", 0, pmap.table.sorted_entries())]),
        "umap": bio.Document(alg.space, [bio.TableBlock(
            "umodule", "U", 0, utab.sorted_entries())])}
    for name, doc in docs.items():
        (tmp_path / (name + ".blf")).write_text(bio.serialize(doc),
                                                encoding="utf-8")
    argv = [command, str(tmp_path / "rung.blf")]
    for name in ("aug", "pointed", "umap"):
        argv += ["--" + name, str(tmp_path / (name + ".blf"))]
    code, out = run_cli(tmp_path, *argv)
    assert code == 0
    assert report_value(out, key) == value % (n - 1)


SD_SPACE_SWAPPED = "format blinfty 1\ngen y parity 0\ngen x parity 0\n"
SD_SPACE_FOREIGN = "format blinfty 1\ngen p parity 0\ngen r parity 0\n"


@pytest.mark.parametrize("command", ["sd", "hierarchy"])
@pytest.mark.parametrize("flag, kind, text", [
    ("--aug", "augmentation",
     SD_SPACE_SWAPPED + "table augmentation eps0 parity 0\n"),
    ("--pointed", "pointed-map",
     SD_SPACE_SWAPPED + "table pointed S1 parity 0\nop 1 0 : x -> 1 1\n"),
    # read by generator index, this U would be x -> y, as in sd-example
    ("--umap", "umodule",
     SD_SPACE_SWAPPED + "table umodule U parity 0\nop 1 1 : y -> 1 x\n"),
    ("--umap", "umodule",
     SD_SPACE_FOREIGN + "table umodule U parity 0\nop 1 1 : p -> 1 r\n"),
], ids=["aug", "pointed", "umap-swapped", "umap-foreign"])
def test_cli_side_document_space_mismatch_exit_one(
        corpus_dir, tmp_path, command, flag, kind, text):
    side = tmp_path / "side.blf"
    side.write_text(text, encoding="utf-8")
    inputs = {"--aug": "sd-example.aug0", "--pointed": "sd-example.pointed",
              "--umap": "sd-example.umap"}
    argv = [command, str(corpus_dir / "sd-example.blf")]
    for f, name in inputs.items():
        argv += [f, str(side) if f == flag else
                 str(corpus_dir / (name + ".blf"))]
    code, out = run_cli(tmp_path, *argv)
    assert code == 1
    assert report_value(out, "error") == \
        "structure: %s space mismatch in %s" % (kind, side)


@pytest.mark.parametrize("argv", [
    ["planarity", "@pointed-two", "--certificate", "out.blf"],
    ["order-multi", "@pointed-two", "--certificate", "out.blf"],
    ["torsion", "@planar-torsion-one", "--aug", "@pointed-two.aug0"],
    ["ibl-torsion", "@ibl-planar", "0", "1", "--word-bound", "2"],
    ["ibl-check", "@ibl-planar", "--pointed", "@pointed-two.pointed"],
], ids=lambda argv: "%s%s" % (argv[0], argv[-2]))
def test_cli_flag_the_command_does_not_read_exit_two(corpus_dir, tmp_path,
                                                    capsys, argv):
    argv = [str(corpus_dir / (a[1:] + ".blf")) if a.startswith("@") else a
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        run_cli(tmp_path, *argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("coefficient, code, status", [
    ("1", 0, "ok"), ("7", 1, "failed")])
def test_cli_verify_rechecks_grid_certificates(corpus_dir, tmp_path,
                                               coefficient, code, status):
    # the (0,1)_2 certificate of the planar lift, its coefficient kept or
    # changed, appended to its structure
    cert = tmp_path / "grid.blf"
    got, _ = run_cli(tmp_path, "ibl-torsion",
                     str(corpus_dir / "ibl-planar.blf"), "0", "1",
                     "--certificate", str(cert))
    assert got == 0
    chains = [line for line in cert.read_text("utf-8").splitlines()
              if line.startswith("chain ")]
    assert chains == ["chain grid-0-1-2 : 1 q1⊙q2"]
    merged = tmp_path / "merged.blf"
    merged.write_text(
        (corpus_dir / "ibl-planar.blf").read_text("utf-8")
        + "chain grid-0-1-2 : %s q1⊙q2\n" % coefficient, encoding="utf-8")
    got, out = run_cli(tmp_path, "verify", str(merged))
    assert got == code
    assert report_value(out, "verify") == "ok"
    assert report_value(out, "certificate-grid-0-1-2") == status


@pytest.mark.parametrize("name", ["grid-0-1", "grid-a-1-2", "torsion-x"])
def test_cli_verify_names_a_malformed_chain(corpus_dir, tmp_path, name):
    merged = tmp_path / "merged.blf"
    merged.write_text(
        (corpus_dir / "ibl-planar.blf").read_text("utf-8")
        + "chain %s : 1 q1⊙q2\n" % name, encoding="utf-8")
    got, out = run_cli(tmp_path, "verify", str(merged))
    assert got == 2
    assert report_value(out, "error") == (
        "value: chain %s: a certificate chain is named torsion-<k>, "
        "order-<k> or grid-<n>-<m>-<t>" % name)


def test_cli_planarity(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "planarity",
                        str(corpus_dir / "pointed-two.blf"),
                        "--aug", str(corpus_dir / "pointed-two.aug0.blf"),
                        "--pointed", str(corpus_dir / "pointed-two.pointed.blf"))
    assert code == 0
    assert report_value(out, "planarity") == "exact 2"


LEAK_DOC = """\
format blinfty 1
gen x parity 0 action 1
gen q parity 1 action 3
table structure p parity 1
op 1 1 : x -> 1 q
bounds max_letters 2 max_action 2
"""


def test_cli_leaking_window_answers_from_the_search(tmp_path):
    # d x = q leaves the action-bounded window; the orders answer from the
    # search, as torsion does, rather than fail as a structure error
    head = LEAK_DOC.split("table", 1)[0]
    for name, text in (("leak", LEAK_DOC),
                       ("aug", head + "table augmentation eps0 parity 0\n"),
                       ("pointed", head + "table pointed S1 parity 0\n"
                        "op 1 0 : x -> 1 1\n")):
        (tmp_path / (name + ".blf")).write_text(text, encoding="utf-8")
    doc = str(tmp_path / "leak.blf")
    side = ("--aug", str(tmp_path / "aug.blf"),
            "--pointed", str(tmp_path / "pointed.blf"))
    for command, argv in (("torsion", ()), ("order", side),
                          ("planarity", side)):
        code, out = run_cli(tmp_path, command, doc, *argv)
        assert (code, report_value(out, command)) == (
            3, "not-found-within-bounds"), (command, out)
    code, out = run_cli(tmp_path, "hierarchy", doc, *side)
    assert (code, report_value(out, "hierarchy")) == (3, "inconclusive"), out


def test_cli_hierarchy_pt(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "hierarchy",
                        str(corpus_dir / "planar-torsion-one.blf"))
    assert code == 0
    assert report_value(out, "hierarchy") == "1^PT"


def test_cli_combine():
    code, out = run_cli(None, "combine", "2^SD", "3^SD")
    assert code == 0
    assert report_value(out, "combine") == "3^SD"
    code, out = run_cli(None, "combine", "1^PT", "3^SD")
    assert report_value(out, "combine") == "1^PT"


def test_cli_ibl_check(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "ibl-check",
                        str(corpus_dir / "ibl-planar.blf"))
    assert code == 0
    assert report_value(out, "ibl-check") == "ok"


def test_cli_ibl_torsion(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "ibl-torsion",
                        str(corpus_dir / "ibl-planar.blf"), "0", "1")
    assert code == 0
    assert report_value(out, "ibl-torsion") == "exact (0,1)_2"
    assert report_value(out, "flat-transport") == "ok"


def test_cli_ibl_torsion_structure_failed(tmp_path):
    sp = GradedSpace([Generator("x", 0), Generator("y", 1), Generator("z", 0)])
    x, y, z = (Word((i,)) for i in range(3))
    ialg = BLAlgebra(sp, OperationTable(sp, 1, [
        (1, 1, 0, x, Element.monomial(y)), (1, 1, 0, y, Element.monomial(z))]))
    path = tmp_path / "bad.blf"
    path.write_text(bio.serialize(bio.document_of_ibl(ialg)))
    code, out = run_cli(tmp_path, "ibl-torsion", str(path), "0", "1",
                        "--max-letters", "3")
    assert code == 1
    assert report_value(out, "ibl-torsion") == "structure-failed"


def _with_pointed(doc):
    # an augmentation and a pointed map for doc, in argv form
    return ("--aug", "@%s.aug0" % doc, "--pointed", "@%s.pointed" % doc)


@pytest.mark.parametrize("argv", [
    ("torsion", "planar-torsion-one", "--word-bound", "0"),
    ("torsion", "planar-torsion-one", "--max-letters", "0"),
    ("hierarchy", "planar-torsion-one", "--word-bound", "0"),
    # the order searches have no level at word bound 0 either
    ("order", "pointed-one", "--word-bound", "0") + _with_pointed(
        "pointed-one"),
    ("order-multi", "pointed-two", "--word-bound", "0") + _with_pointed(
        "pointed-two"),
    ("planarity", "pointed-one", "--word-bound", "0") + _with_pointed(
        "pointed-one"),
])
def test_cli_empty_torsion_schedule_exit_two(corpus_dir, tmp_path, argv):
    args = [str(corpus_dir / (a[1:] + ".blf")) if a.startswith("@") else a
            for a in argv[2:]]
    code, out = run_cli(tmp_path, argv[0],
                        str(corpus_dir / (argv[1] + ".blf")), *args)
    assert code == 2
    assert report_value(out, "error").startswith("value: ")


@pytest.mark.parametrize("argv", [
    ("ibl-torsion", "ibl-planar", "0", "1", "--hbar-max", "-1"),
    ("verify", "ibl-planar", "--hbar-max", "-1"),
    ("ibl-check", "ibl-planar", "--hbar-max", "-1"),
    ("verify", "planar-torsion-one", "--max-action", "-1"),
])
def test_cli_negative_cap_flag_exit_two(corpus_dir, tmp_path, argv):
    # a cap below zero would drop every term and report a vacuous answer
    code, out = run_cli(tmp_path, argv[0],
                        str(corpus_dir / (argv[1] + ".blf")), *argv[2:])
    assert code == 2
    assert report_value(out, "error").startswith("value: ")
    assert report_value(out, argv[0]) is None


@pytest.mark.parametrize("argv, field", [
    (("torsion", "planar-torsion-one", "--max-letters", "-1"), "max_letters"),
    (("order", "pointed-one", "--word-bound", "-1")
     + _with_pointed("pointed-one"), "word_bound"),
])
def test_cli_negative_bound_flag_names_the_field(corpus_dir, tmp_path, argv,
                                                 field):
    # a negative letter count or word bound is refused for its value, not
    # reported as an empty search
    args = [str(corpus_dir / (a[1:] + ".blf")) if a.startswith("@") else a
            for a in argv[2:]]
    code, out = run_cli(tmp_path, argv[0],
                        str(corpus_dir / (argv[1] + ".blf")), *args)
    assert code == 2
    assert report_value(out, "error") == \
        "value: %s must be >= 0, got -1" % field
    assert report_value(out, argv[0]) is None


@pytest.mark.parametrize("doc, key, command", [
    ("ibl-planar", "hbar_max", "verify"),
    ("ibl-planar", "hbar_max", "ibl-check"),
    ("planar-torsion-one", "max_action", "verify"),
])
def test_cli_negative_cap_in_bounds_line_exit_two(corpus_dir, tmp_path, doc,
                                                  key, command):
    text = (corpus_dir / (doc + ".blf")).read_text("utf-8")
    line = next(l for l in text.splitlines() if l.startswith("bounds "))
    toks = line.split()
    if key in toks:
        toks[toks.index(key) + 1] = "-1"
    else:
        toks += [key, "-1"]
    path = tmp_path / "negative.blf"
    path.write_text(text.replace(line, " ".join(toks)), encoding="utf-8")
    code, out = run_cli(tmp_path, command, str(path))
    assert code == 2
    assert report_value(out, "error") == "value: %s must be >= 0, got -1" % key
    assert report_value(out, command) is None


@pytest.mark.parametrize("points", ["0", "-2"])
def test_cli_order_multi_needs_a_point_exit_two(corpus_dir, tmp_path,
                                                points):
    code, out = run_cli(tmp_path, "order-multi",
                        str(corpus_dir / "pointed-one.blf"),
                        "--aug", str(corpus_dir / "pointed-one.aug0.blf"),
                        "--pointed", str(corpus_dir / "pointed-one.pointed.blf"),
                        "--points", points)
    assert code == 2
    assert report_value(out, "error") == (
        "value: a multi-point order needs m >= 1 points, got %s" % points)
    assert report_value(out, "order-multi") is None


@pytest.mark.parametrize("command", ["verify", "ibl-check", "ibl-torsion"])
def test_cli_ibl_table_of_parity_zero_exit_one(tmp_path, command):
    # the declared parity is read, with and without an op, and refused
    head = "format blinfty 1\ngen q parity 1\ntable ibl p parity 0 hbar\n"
    extra = ("0", "0") if command == "ibl-torsion" else ()
    for name, text in (("empty", head),
                       ("one-op", head + "op 1 1 genus 0 : q -> 1 q\n")):
        f = tmp_path / (name + ".blf")
        f.write_text(text, encoding="utf-8")
        code, out = run_cli(tmp_path, command, str(f), *extra,
                            "--max-letters", "2")
        assert code == 1, name
        assert report_value(out, "error") == (
            "structure: ibl table must have parity 1"), name


@pytest.mark.parametrize("n, m", [("0", "-1"), ("-1", "1")])
def test_cli_ibl_torsion_negative_exit_two(corpus_dir, tmp_path, n, m):
    code, out = run_cli(tmp_path, "ibl-torsion",
                        str(corpus_dir / "ibl-planar.blf"), n, m)
    assert code == 2
    assert report_value(out, "error").startswith("value: ")


def test_cli_subprocess_smoke(corpus_dir, tmp_path):
    import subprocess
    import sys
    import os
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(corpus_dir.parent), "src"] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-m", "blinfty", "torsion",
         str(corpus_dir / "planar-torsion-one.blf"),
         "--word-bound", "2", "--max-letters", "2"],
        capture_output=True, text=True, env=env,
        cwd=str(Path(__file__).resolve().parent.parent))
    assert proc.returncode == 0
    assert "torsion: exact 1" in proc.stdout



def _fresh_process_cli(argv):
    """(exit code, stdout) of one CLI call in a new interpreter."""
    import os
    import subprocess
    import sys
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-m", "blinfty", *argv],
                          capture_output=True, text=True, env=env,
                          cwd=str(root))
    return proc.returncode, proc.stdout


def test_cli_builds_parser_once_and_reuses_it(corpus_dir, tmp_path,
                                              monkeypatch):
    from blinfty import cli
    builds = []
    build = cli.build_parser

    def counted():
        builds.append(1)
        return build()
    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    two_augs = ["hierarchy", str(corpus_dir / "linearizable.blf"),
                "--aug", str(corpus_dir / "linearizable.aug0.blf"),
                "--aug", str(corpus_dir / "linearizable.aug1.blf")]
    no_aug = ["hierarchy", str(corpus_dir / "pointed-two.blf"),
              "--pointed", str(corpus_dir / "pointed-two.pointed.blf")]
    calls = [two_augs, no_aug, two_augs, ["combine", "1^PT", "2^Pl"]]
    reports = [run_cli(tmp_path, *argv) for argv in calls]
    assert len(builds) == 1
    assert reports[0] == reports[2]
    for argv, report in zip(calls[:2], reports[:2]):
        assert report == _fresh_process_cli(argv)
    # the append actions' [] defaults are shared by every call without the
    # flag, so no command that takes --aug or --pointed may have appended
    # to them
    appending = 0
    for command, (_, arguments) in cli.COMMANDS.items():
        flags = [f for f in ("--aug", "--pointed") if f in arguments]
        if flags:
            args = cli._parser.parse_args([command, "x"])
            assert all(getattr(args, f[2:]) == [] for f in flags)
            appending += 1
    assert appending == 7
    assert len(builds) == 1


def test_cli_hierarchy_sd_zero(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "hierarchy",
                        str(corpus_dir / "pointed-one.blf"),
                        "--aug", str(corpus_dir / "pointed-one.aug0.blf"),
                        "--pointed", str(corpus_dir / "pointed-one.pointed.blf"),
                        "--umap", str(corpus_dir / "pointed-one.umap.blf"))
    assert code == 0
    assert report_value(out, "hierarchy") == "0^SD"


@pytest.mark.parametrize("command", ["sd", "hierarchy"])
def test_cli_failed_u_check_exits_one_in_sd_and_hierarchy(tmp_path, command):
    # U(x) = x on a one-generator zero structure is not nilpotent on
    # homology: both commands report the failed check, neither an open
    # question
    head = "format blinfty 1\ngen x parity 0\n"
    docs = {"alg": head + "table structure p parity 1\nbounds max_letters 2\n",
            "aug": head + "table augmentation eps0 parity 0\n",
            "pointed": head + "table pointed S1 parity 0\nop 1 0 : x -> 1 1\n",
            "umap": head + "table umodule U parity 0\nop 1 1 : x -> 1 x\n"}
    for name, text in docs.items():
        (tmp_path / (name + ".blf")).write_text(text, encoding="utf-8")
    argv = [command, str(tmp_path / "alg.blf")]
    for name in ("aug", "pointed", "umap"):
        argv += ["--" + name, str(tmp_path / (name + ".blf"))]
    code, out = run_cli(tmp_path, *argv)
    assert code == 1
    assert report_value(out, "sd") == "failed"
    assert report_value(out, "reason") == "U^1 is nonzero on homology"
    assert report_value(out, "hierarchy") is None


def test_cli_hierarchy_planarity_two(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "hierarchy",
                        str(corpus_dir / "pointed-two.blf"),
                        "--aug", str(corpus_dir / "pointed-two.aug0.blf"),
                        "--pointed", str(corpus_dir / "pointed-two.pointed.blf"))
    assert code == 0
    assert report_value(out, "hierarchy") == "2^Pl"


def test_cli_hierarchy_inconclusive_exit_three(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "hierarchy",
                        str(corpus_dir / "mixed-no-aug.blf"))
    assert code == 3
    assert report_value(out, "hierarchy") == "inconclusive"


def test_cli_hierarchy_pointed_without_aug_exit_three(corpus_dir, tmp_path):
    # no augmentation and no finite torsion: planarity is inconclusive, so
    # the report carries no planarity line and the hierarchy is undecided
    pointed = tmp_path / "zero.pointed.blf"
    pointed.write_text("format blinfty 1\ntable pointed S1 parity 0\n",
                       encoding="utf-8")
    code, out = run_cli(tmp_path, "hierarchy",
                        str(corpus_dir / "mixed-no-aug.blf"),
                        "--pointed", str(pointed))
    assert code == 3
    assert out == (
        "command: hierarchy\n"
        "torsion: not-found-within-bounds\n"
        "hierarchy: inconclusive\n"
        "reason: torsion not found within bounds and no augmentation known\n")


def test_cli_verify_aug_and_pointed(corpus_dir, tmp_path):
    code, out = run_cli(tmp_path, "verify",
                        str(corpus_dir / "pointed-two.blf"),
                        "--aug", str(corpus_dir / "pointed-two.aug0.blf"),
                        "--pointed", str(corpus_dir / "pointed-two.pointed.blf"))
    assert code == 0
    assert report_value(out, "augmentation") == "ok"
    assert report_value(out, "pointed") == "ok"


def test_cli_verify_bad_augmentation(corpus_dir, tmp_path):
    # the zero functional family fails on the finite-torsion structure
    zero_aug_doc = """\
format blinfty 1
gen q1 parity 1 action 1
gen q2 parity 0 action 1
table augmentation eps parity 0
"""
    f = tmp_path / "zero-aug.blf"
    f.write_text(zero_aug_doc, encoding="utf-8")
    code, out = run_cli(tmp_path, "verify",
                        str(corpus_dir / "planar-torsion-one.blf"),
                        "--aug", str(f))
    assert code == 1
    assert report_value(out, "augmentation") == "failed"


# an augmentation maps into the empty space, so no output has a letter
LETTERED_AUG = """\
format blinfty 1
gen a parity 0
gen b parity 1
table augmentation A parity 0
op 1 1 : a -> 1 a
"""


def test_cli_lettered_augmentation_output_exit_one(corpus_dir, tmp_path):
    aug = tmp_path / "A.blf"
    aug.write_text(LETTERED_AUG, encoding="utf-8")
    code, out = run_cli(tmp_path, "verify", str(corpus_dir / "acyclic-pair.blf"),
                        "--aug", str(aug))
    assert code == 1
    assert out.splitlines()[:2] == ["command: verify", "verify: ok"]
    assert report_value(out, "error").startswith("structure: entry (1,1)")
    assert report_value(out, "error").endswith("outside the target")


def test_cli_sweep_no_exception_escapes_main(corpus_dir):
    # every command on every corpus structure, its side slots filled from
    # the corpus and the lettered augmentation (three times in four from
    # the structure's own documents): each run returns 0-3 and emits a
    # report
    (corpus_dir / "lettered-aug.blf").write_text(LETTERED_AUG,
                                                 encoding="utf-8")
    docs = sorted(p.stem for p in corpus_dir.glob("*.blf"))
    rng = random.Random(2525)
    runs = 0
    for name in (d for d in docs if "." not in d and d != "lettered-aug"):
        own = [d for d in docs if d.startswith(name + ".")] + ["lettered-aug"]
        for command, (_, arguments) in COMMANDS.items():
            if command == "combine":
                continue
            for _ in range(3):
                argv = [command, str(corpus_dir / (name + ".blf"))]
                if command == "ibl-torsion":
                    argv += [str(rng.randint(0, 1)), str(rng.randint(0, 1))]
                for flag in ("--aug", "--pointed", "--umap"):
                    if flag in arguments and rng.random() < 0.7:
                        side = rng.choice(own if rng.random() < 0.75 else docs)
                        argv += [flag, str(corpus_dir / (side + ".blf"))]
                code, out = run_cli(corpus_dir, *argv)
                lines = out.splitlines()
                assert code in (0, 1, 2, 3), argv
                assert lines[0] == "command: " + command, argv
                assert len(lines) >= 2, argv
                runs += 1
    assert runs >= 300


NON_STRUCTURE_DOC = """\
format blinfty 1
gen x parity 0
gen y parity 1
gen z parity 0
table structure p parity 1
op 1 1 : x -> 1 y
op 1 1 : y -> 1 z
bounds max_letters 2
"""

PLANAR_SPACE_HEAD = """\
format blinfty 1
gen q1 parity 1 action 1
gen q2 parity 0 action 1
"""


@pytest.mark.parametrize("command, inputs, key, value", [
    ("torsion", "non-structure", "torsion", "structure-failed"),
    ("linearize", "non-structure", "linearize", "structure-failed"),
    ("order", "non-structure", "structure", "failed"),
    ("sd", "non-structure", "structure", "failed"),
    ("planarity", "non-structure", "structure", "failed"),
    ("hierarchy", "non-structure", "structure", "failed"),
    ("linearize", "bad-aug", "linearize", "augmentation-failed"),
    ("order", "bad-aug", "augmentation", "failed"),
    ("sd", "bad-aug", "augmentation", "failed"),
    ("planarity", "bad-aug", "augmentation", "failed"),
    ("hierarchy", "bad-aug", "augmentation", "failed"),
    ("order", "bad-pointed", "pointed", "failed"),
    ("sd", "bad-pointed", "pointed", "failed"),
    ("planarity", "bad-pointed", "pointed", "failed"),
    ("hierarchy", "bad-pointed", "pointed", "failed"),
])
def test_cli_failed_check_lines_exit_one(corpus_dir, tmp_path, command,
                                         inputs, key, value):
    if inputs == "non-structure":
        path = tmp_path / "bad.blf"
        path.write_text(NON_STRUCTURE_DOC, encoding="utf-8")
        argv = [str(path)]
    else:
        # the zero functional family is no augmentation of p(q1 q2) = 1,
        # and P(q1) = q1 does not commute with it
        path = tmp_path / "extra.blf"
        path.write_text(PLANAR_SPACE_HEAD + (
            "table augmentation eps parity 0\n" if inputs == "bad-aug" else
            "table pointed S1 parity 0\nop 1 1 : q1 -> 1 q1\n"),
            encoding="utf-8")
        flag = "--aug" if inputs == "bad-aug" else "--pointed"
        argv = [str(corpus_dir / "planar-torsion-one.blf"), flag, str(path)]
    code, out = run_cli(tmp_path, command, *argv)
    assert code == 1
    assert out.splitlines() == ["command: %s" % command,
                                "%s: %s" % (key, value)]


def test_cli_hierarchy_pointed_without_aug_searches_torsion_once(
        corpus_dir, tmp_path, monkeypatch):
    from blinfty import cli, invariants
    calls = []
    search = invariants.torsion

    def counted(*args):
        calls.append(args)
        return search(*args)
    monkeypatch.setattr(invariants, "torsion", counted)
    monkeypatch.setattr(cli, "torsion", counted)
    pointed = tmp_path / "zero.pointed.blf"
    pointed.write_text(PLANAR_SPACE_HEAD + "table pointed S1 parity 0\n",
                       encoding="utf-8")
    code, out = run_cli(tmp_path, "hierarchy",
                        str(corpus_dir / "planar-torsion-one.blf"),
                        "--pointed", str(pointed))
    assert code == 0
    assert len(calls) == 1
    assert report_value(out, "torsion") == "exact 1"
    assert report_value(out, "planarity") == "exact 0"
    assert report_value(out, "hierarchy") == "1^PT"
