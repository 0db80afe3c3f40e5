"""Bit-exact text serialization for spaces, tables, chains and bounds.

Grammar (line oriented, '#' comments):

    format blinfty 1
    gen <name> parity <0|1> [zdeg <int>] [action <p>/<q>]
    table <kind> <name> parity <0|1> [hbar] [max_k <n>]
    op <k> <l> [genus <g>] : <word> -> <coef> <word> [+ <coef> <word> ...]
    chain <name> : <coef> [h<n>] <eword> [+ ...]
    bounds max_letters <n> [max_action <p>/<q>] [hbar_max <n>] [action_drop]

Words are middle-dot-joined generator names or 1; outer words join clusters
with a circled dot.  Canonical serialization sorts ops by (k, l, g, input)
and round-trips byte-identically.  A table line with max_k declares a
partial table: its absent cells are zero up to arity max_k only.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, StructureError
from .structures import (Augmentation, BLAlgebra, Bounds, OperationTable,
                         PointedMap, UModule)
from .words import (EElement, Element, EWord, Generator, GradedSpace,
                    UNIT_WORD, normalize_clusters, normalize_word)

FORMAT_LINE = "format blinfty 1"
KINDS = ("structure", "morphism", "augmentation", "pointed", "umodule", "ibl")
INNER_SEP = "·"   # middle dot between letters
OUTER_SEP = "⊙"   # circled dot between clusters

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_\-]*$")


class TableBlock:
    def __init__(self, kind, name, parity, ops, max_k=None):
        self.kind = kind  # an "ibl" table declares hbar and genera
        self.name = name
        self.parity = parity
        self.ops = ops  # list of (k, l, g, input Word, Element)
        self.max_k = max_k  # None for a complete table
        self._cells = {op[:4] for op in ops}  # the (k, l, g, input)s in ops


class ChainBlock:
    def __init__(self, name, element):
        self.name = name
        self.element = element  # Element of outer words


class Document:
    def __init__(self, space, tables=(), chains=(), bounds=None,
                 action_drop=False):
        self.space = space
        self.tables = list(tables)
        self.chains = list(chains)
        self.bounds = bounds
        self.action_drop = action_drop  # the bounds line's flag

    def table(self, kind=None, name=None):
        for t in self.tables:
            if (kind is None or t.kind == kind) and \
                    (name is None or t.name == name):
                return t
        return None


def _format_rational(x):
    return str(Fraction(x))


def _parse_rational(tok, line_no):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line_no, "malformed rational %r" % tok)


def _format_word(space, word):
    if len(word) == 0:
        return "1"
    return INNER_SEP.join(space.generators[i].name for i in word.letters)


def _parse_word(space, text, line_no):
    if text == "1":
        return UNIT_WORD
    names = text.split(INNER_SEP)
    try:
        w, sign = normalize_word(space, names)
    except KeyError:
        raise ParseError(line_no, "unknown generator in %r" % text) from None
    if sign == 0:
        raise ParseError(line_no, "word %r vanishes (repeated odd letter)" % text)
    canonical = [space.generators[i].name for i in w.letters]
    if sign != 1 or names != canonical:
        raise ParseError(line_no, "word %r is not in canonical order" % text)
    return w


def _format_eword(space, ew):
    body = OUTER_SEP.join(_format_word(space, c) for c in ew.clusters)
    return body


def _parse_eword(space, text, line_no):
    clusters = tuple(_parse_word(space, part, line_no)
                     for part in text.split(OUTER_SEP))
    ew, sign = normalize_clusters(space, clusters)
    if sign == 0:
        raise ParseError(line_no, "outer word %r vanishes" % text)
    if sign != 1 or ew.clusters != clusters:
        raise ParseError(line_no, "outer word %r not in canonical order" % text)
    return ew


def serialize(doc):
    """Canonical text: gens in order, ops sorted by (k, l, g, input)."""
    sp = doc.space
    lines = [FORMAT_LINE]
    for g in sp.generators:
        bits = ["gen", g.name, "parity", str(g.parity)]
        if g.zgrade is not None:
            bits += ["zdeg", str(g.zgrade)]
        if g.action is not None:
            bits += ["action", _format_rational(g.action)]
        lines.append(" ".join(bits))
    for t in doc.tables:
        head = ["table", t.kind, t.name, "parity", str(t.parity)]
        if t.kind == "ibl":
            head.append("hbar")
        if t.max_k is not None:
            head += ["max_k", str(t.max_k)]
        lines.append(" ".join(head))
        for (k, l, g, w_in, elem) in sorted(
                t.ops, key=lambda op: (op[0], op[1], op[2], op[3].key())):
            head = ["op", str(k), str(l)]
            if t.kind == "ibl":
                head += ["genus", str(g)]
            terms = []
            for w_out, c in sorted(elem.terms.items(),
                                   key=lambda kv: kv[0].key()):
                terms.append("%s %s" % (_format_rational(c),
                                        _format_word(sp, w_out)))
            lines.append("%s : %s -> %s" % (" ".join(head),
                                            _format_word(sp, w_in),
                                            " + ".join(terms)))
    for ch in doc.chains:
        terms = []
        for ew, c in sorted(ch.element.terms.items(),
                            key=lambda kv: kv[0].key()):
            bit = _format_rational(c)
            if ew.hbar:
                bit += " h%d" % ew.hbar
            terms.append("%s %s" % (bit, _format_eword(sp, ew)))
        lines.append("chain %s : %s" % (ch.name, " + ".join(terms)))
    if doc.bounds is not None:
        b = doc.bounds
        bits = ["bounds", "max_letters", str(b.max_letters)]
        if b.max_action is not None:
            bits += ["max_action", _format_rational(b.max_action)]
        if b.hbar_max is not None:
            bits += ["hbar_max", str(b.hbar_max)]
        if doc.action_drop:
            bits.append("action_drop")
        lines.append(" ".join(bits))
    return "\n".join(lines) + "\n"


def parse(text):
    """Parse a document; errors carry the offending line number."""
    gens = []
    tables = []
    chains_raw = []
    bounds = None
    action_drop = False
    current = None
    saw_format = False
    space = None

    def close_space(line_no):
        nonlocal space
        if space is None:
            try:
                space = GradedSpace(gens)
            except ValueError as e:
                raise ParseError(line_no, str(e)) from None
        return space

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        head = toks[0]
        if head == "format":
            if line != FORMAT_LINE:
                raise ParseError(line_no, "unsupported format line %r" % line)
            saw_format = True
        elif head == "gen":
            if space is not None:
                raise ParseError(line_no, "gen after tables began")
            if len(toks) < 4 or toks[2] != "parity":
                raise ParseError(line_no, "expected: gen NAME parity P ...")
            name = toks[1]
            if not _NAME_RE.match(name):
                raise ParseError(line_no, "bad generator name %r" % name)
            parity = _parse_int(toks[3], line_no)
            opts = _keyed(toks[4:], line_no, {"zdeg", "action"}, flags=set())
            try:
                gens.append(Generator(
                    name, parity,
                    zgrade=(_parse_int(opts["zdeg"], line_no)
                            if "zdeg" in opts else None),
                    action=(_parse_rational(opts["action"], line_no)
                            if "action" in opts else None)))
            except ValueError as e:
                raise ParseError(line_no, str(e)) from None
        elif head == "table":
            sp = close_space(line_no)
            if len(toks) < 5 or toks[3] != "parity":
                raise ParseError(line_no, "expected: table KIND NAME parity P"
                                 " [hbar] [max_k N]")
            kind, name = toks[1], toks[2]
            if kind not in KINDS:
                raise ParseError(line_no, "unknown table kind %r" % kind)
            parity = _parse_int(toks[4], line_no)
            opts = _keyed(toks[5:], line_no, {"max_k"}, flags={"hbar"})
            max_k = None
            if "max_k" in opts:
                max_k = _parse_int(opts["max_k"], line_no)
                if max_k < 0:
                    raise ParseError(line_no, "max_k must be >= 0")
            if kind == "ibl" and "hbar" not in opts:
                raise ParseError(line_no, "ibl tables must declare hbar")
            if "hbar" in opts and kind != "ibl":
                raise ParseError(line_no, "only ibl tables declare hbar")
            current = TableBlock(kind, name, parity, [], max_k)
            tables.append(current)
        elif head == "op":
            if current is None:
                raise ParseError(line_no, "op outside a table block")
            sp = close_space(line_no)
            _parse_op(sp, current, line, line_no)
        elif head == "chain":
            sp = close_space(line_no)
            if ":" not in toks:
                raise ParseError(line_no, "chain needs a ':'")
            name = toks[1]
            body = line.split(":", 1)[1].strip()
            chains_raw.append((name, body, line_no))
            current = None
        elif head == "bounds":
            close_space(line_no)
            opts = _keyed(toks[1:], line_no,
                          {"max_letters", "max_action", "hbar_max"},
                          flags={"action_drop"})
            if "max_letters" not in opts:
                raise ParseError(line_no, "bounds requires max_letters")
            bounds = Bounds(
                _parse_int(opts["max_letters"], line_no),
                max_action=(_parse_rational(opts["max_action"], line_no)
                            if "max_action" in opts else None),
                hbar_max=(_parse_int(opts["hbar_max"], line_no)
                          if "hbar_max" in opts else None))
            action_drop = "action_drop" in opts
            current = None
        else:
            raise ParseError(line_no, "unknown directive %r" % head)
    if not saw_format:
        raise ParseError(1, "missing format line")
    sp = close_space(1)
    chains = [ChainBlock(name, _parse_chain_body(sp, body, line_no))
              for (name, body, line_no) in chains_raw]
    return Document(sp, tables, chains, bounds, action_drop)


def _parse_int(tok, line_no):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line_no, "expected integer, got %r" % tok) from None


def _keyed(toks, line_no, keys, flags):
    """{key: value token, flag: True} of a line's options; a key or flag
    given twice is refused, not read as its last value."""
    out = {}
    i = 0
    while i < len(toks):
        t = toks[i]
        if t in out:
            raise ParseError(line_no, "repeated option %r" % t)
        if t in flags:
            out[t] = True
            i += 1
        elif t in keys:
            if i + 1 >= len(toks):
                raise ParseError(line_no, "%s needs a value" % t)
            out[t] = toks[i + 1]
            i += 2
        else:
            raise ParseError(line_no, "unexpected token %r" % t)
    return out


def _parse_op(sp, block, line, line_no):
    if ":" not in line or "->" not in line:
        raise ParseError(line_no, "expected: op K L [genus G] : IN -> TERMS")
    head, rest = line.split(":", 1)
    htoks = head.split()
    if len(htoks) not in (3, 5):
        raise ParseError(line_no, "bad op header")
    k = _parse_int(htoks[1], line_no)
    l = _parse_int(htoks[2], line_no)
    if k < 1:
        raise ParseError(line_no, "op arity k must be >= 1")
    g = 0
    if len(htoks) == 5 and htoks[3] == "genus":
        g = _parse_int(htoks[4], line_no)
        if block.kind != "ibl":
            raise ParseError(line_no, "genus outside an hbar table")
        if g < 0:
            raise ParseError(line_no, "genus must be >= 0")
    elif len(htoks) != 3:
        raise ParseError(line_no, "bad op header")
    in_text, out_text = rest.split("->", 1)
    w_in = _parse_word(sp, in_text.strip(), line_no)
    if len(w_in) != k:
        raise ParseError(line_no, "input %r has %d letters, expected %d"
                         % (in_text.strip(), len(w_in), k))
    pairs = []
    for term in out_text.strip().split(" + "):
        bits = term.strip().split()
        if len(bits) != 2:
            raise ParseError(line_no, "bad term %r" % term)
        coeff = _parse_rational(bits[0], line_no)
        w_out = _parse_word(sp, bits[1], line_no)
        if len(w_out) != l:
            raise ParseError(line_no, "output %r has %d letters, expected %d"
                             % (bits[1], len(w_out), l))
        pairs.append((w_out, coeff))
    elem = Element(pairs)
    if (k, l, g, w_in) in block._cells:
        raise ParseError(line_no, "duplicate op cell (%d,%d) %r"
                         % (k, l, in_text.strip()))
    in_par = sp.word_parity(w_in.letters)
    for w_out in elem.terms:
        if sp.word_parity(w_out.letters) != (in_par + block.parity) % 2:
            raise ParseError(line_no, "entry violates the declared parity")
    block.ops.append((k, l, g, w_in, elem))
    block._cells.add((k, l, g, w_in))


def _parse_chain_body(sp, body, line_no):
    pairs = []
    for term in body.split(" + "):
        bits = term.strip().split()
        if len(bits) == 2:
            coeff_tok, ew_tok = bits
            hbar = 0
        elif len(bits) == 3 and re.match(r"^h\d+$", bits[1]):
            coeff_tok, ew_tok = bits[0], bits[2]
            hbar = int(bits[1][1:])
        else:
            raise ParseError(line_no, "bad chain term %r" % term)
        coeff = _parse_rational(coeff_tok, line_no)
        ew = _parse_eword(sp, ew_tok, line_no)
        pairs.append((EWord(ew.clusters, hbar=hbar), coeff))
    return EElement(pairs)


# ---------------------------------------------------------------------------
# documents <-> typed objects

def document_of_table(kind, name, table, bounds=None):
    """A document of one table block of the given kind over the table's
    space, declaring max_k exactly when the table is partial.  Only an ibl
    table holds genera, so a positive genus in another kind raises
    ValueError: written here it would read back as another table
    (document_of_ibl writes it).  The bounds line declares action_drop
    exactly for a structure table that drops action, which without bounds
    raises ValueError."""
    entries = table.sorted_entries()
    if kind != "ibl" and any(g for _, _, g, _, _ in entries):
        raise ValueError("the table carries genera, which a %s table "
                         "cannot hold; write it with document_of_ibl" % kind)
    drop = kind == "structure" and table.action_drop
    if drop and bounds is None:
        raise ValueError("a structure table that drops action needs bounds")
    block = TableBlock(kind, name, table.parity, entries,
                       None if table.complete else table.max_k)
    return Document(table.space, [block], (), bounds, drop)


def document_of_chain(space, name, element):
    """A document of one chain: a certificate."""
    return Document(space, chains=[ChainBlock(name, element)])


def document_of_algebra(alg, bounds=None):
    """The algebra as a structure-table document."""
    return document_of_table("structure", "p", alg.table, bounds)


def document_of_ibl(alg, bounds=None):
    """The algebra as an ibl-table document, genera included."""
    return document_of_table("ibl", "p", alg.table, bounds)


def table_from_block(space, block, action_drop=False, target=None):
    return OperationTable(space, block.parity, block.ops,
                          complete=block.max_k is None, max_k=block.max_k,
                          target=target, action_drop=action_drop)


def _block(doc, kind):
    """The document's first table of the given kind; raises when it has none."""
    block = doc.table(kind)
    if block is None:
        raise StructureError("document has no %s table" % kind)
    return block


def algebra_from_document(doc):
    block = _block(doc, "structure")
    return BLAlgebra(doc.space, table_from_block(doc.space, block,
                                                 action_drop=doc.action_drop))


def ibl_from_document(doc):
    """The algebra of the document's ibl table, genera included."""
    block = _block(doc, "ibl")
    if block.parity != 1:
        raise StructureError("ibl table must have parity 1")
    return BLAlgebra(doc.space, table_from_block(doc.space, block))


def augmentation_from_document(doc, alg):
    block = _block(doc, "augmentation")
    return Augmentation(alg, table_from_block(alg.space, block,
                                              target=GradedSpace(())))


def pointed_from_document(doc, alg):
    block = _block(doc, "pointed")
    return PointedMap(alg, table_from_block(alg.space, block))


def umodule_from_document(doc, space):
    block = _block(doc, "umodule")
    return UModule(space, table_from_block(space, block))


def spaces_compatible(a, b):
    return (len(a) == len(b) and
            all(x.name == y.name and x.parity == y.parity
                for x, y in zip(a.generators, b.generators)))
