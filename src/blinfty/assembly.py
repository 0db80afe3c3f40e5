"""Evaluation of assembled operators on the double symmetric algebra.

Every operator here is one gluing step.  Operations sit in blocks of
letters of an outer word; the glued graph joins each block to the clusters
its letters come from, and each connected component holding a block
becomes one output cluster: its block outputs followed by its leftover
letters.  Untouched clusters (units included) pass through.  Each cycle of
the glued graph and each unit of an operation's genus costs one power of
hbar.  Without an hbar cap only forests of genus zero survive (the
BL-infinity gluing); with a cap, terms above it are dropped (the hard
quotient by hbar^(cap+1)).

Each operator reads its input words in table.space and normalizes its
outputs in table.target: no entry point takes a space beside its table,
and the structures over a table refuse one over another space.

Two enumerations feed the step, and they alone decide whether a partial
table (complete=False, entries up to max_k) determines the operator.
Coderivation type: one block per listed operation, each taking one of its
arities from the letters still free, at most one letter per cluster unless
there is a cap.  Only entered arities are enumerated, so a listed table
that does not cover the number of letters a block could reach (the
clusters among them, or with a cap the letters) raises
IncompleteTableError.  Morphism type: the set partitions of all letters,
optionally with one marked (bullet) block, built block by block so that
only block lists that can contribute are made: each block joins letters of
distinct components of the blocks before it (no cap, so a cycle kills the
term).  Both keep a block only where its table has a nonzero entry on its
letters (_entry, read from the index each table builds when it is made).
A block of a size its table does not cover skips that entry test, and so
do the blocks after it; the step looks these up itself, the one lookup it
makes, and raises IncompleteTableError there, wherever the sum over all
set partitions would.

So a block list reaches the step with what its enumeration proved: each
block's signed entry terms, each cluster's component label and the cycle
count of the glued graph.  The step adds the signs and builds the outputs.

The same index says, before any gluing, where a coderivation-type image is
known to be zero: vanishes(table, letters) holds when the table covers the
word's letter count and no input word of an entry fits inside its letters.
The window builders (structures._split_words, invariants._outer_window)
drop the words on which every table of a given support vanishes, so no
check or search evaluates them: a zero first stage makes a zero defect,
and a zero column is never a pivot, so no witness, answer or certificate
moves.

A caller that keeps only the single-cluster part (pi_1) passes
single_cluster=True to apply_coderivation, apply_ibl or apply_morphism,
and the enumerations then make only block lists whose glued graph is
connected: the one block that touches every lettered cluster, or the
forests of exactly letters - clusters + 1 blocks.  No operation touches a
unit cluster, so a term with a unit cluster beside lettered ones (units
sort first) has no single-cluster output.  It gets no block list wherever
skipping it skips no raise: in the coderivations after the coverage check
on the reach, in the morphism when every table covers the term's letter
count.  Elsewhere it still passes through, so the caller's projection
stays.  The block lists are a subset of the full ones, so a partial table
raises on a subset of the inputs where the full evaluation raises.
Without a bullet table the two sets are equal: both evaluations raise
exactly when the lettered clusters (letters, with a cap) outnumber the
covered arities (the coverage check on the reach, or the connected block
that takes one letter of every cluster).  With a bullet table, the full
evaluation may raise where the single-cluster one does not.

Signs are handled in the step only.  The consumed letters are moved to the
front block by block (Koszul crossings of odd letters), an operation of
odd parity passes the letters of the blocks before it, and the outputs and
leftover letters are regrouped by component and normalized back into
canonical order; a component of one block and no leftover letters is that
block's output word, which its table stores normalized.  Each count runs
only where it can move a sign: a term without odd letters makes neither
letter crossing (each block's output then has its table's parity), a list
of one component and no untouched letter keeps its order, and no
inversions are counted among fewer than two odd items.  A list of one
block takes its terms one by one, without a product.

Coefficients are exact rationals throughout.  Inside the step, integral
ones (table terms and input coefficients) are multiplied as ints, each
term's product formed only once its sign is known to be nonzero, and the
signs enter by negation.  Every output coefficient is a Fraction, or a
SymPoly (the generic-augmentation probe's indeterminates) passed through
unchanged.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .errors import IncompleteTableError
from .words import (EElement, Element, EWord, Word, _inversion_sign,
                    _normalize_indices, normalize_clusters, word_to_singletons)


def apply_coderivation(table, x, *, single_cluster=False):
    """Apply the coderivation assembled from a (k,l) operation table: one
    letter from each of k distinct clusters, those clusters merging into
    (output letters) * (leftovers).  With single_cluster, only the arity
    that merges every lettered cluster is glued."""
    return _glue(table.space, table.target, x, _operation_blocks(
        [(table, table.parity)], single_cluster=single_cluster))


def apply_inner_coderivation(table, element):
    """The bar differential of an operation family on inner words: the
    coderivation on split words, each image term flattened into one word."""
    return _flatten(table.target, apply_coderivation(table, _split(element)))


def apply_multi_pointed(tables, x):
    """Glue one operation from each listed (table, parity) simultaneously
    and acyclically, each taking at most one letter per cluster.  This is
    the middle level of the multiple-point-constraint assembly; the sum
    over set partitions of the constraint set is taken by the caller."""
    table = tables[0][0]
    return _glue(table.space, table.target, x, _operation_blocks(tables))


def apply_ibl(table, x, hbar_cap, *, single_cluster=False):
    """The cycle-permitting hbar-graded coderivation: one operation of
    genus g takes any letters, raising the exponent by g plus the cycles
    it closes.  Terms beyond hbar_cap are discarded.  With single_cluster,
    only the blocks that touch every lettered cluster are glued."""
    return _glue(table.space, table.target, x, _operation_blocks(
        [(table, table.parity)], one_per_cluster=False,
        single_cluster=single_cluster), hbar_cap)


def apply_morphism(table, x, bullet_table=None, bullet_parity=0, *,
                   single_cluster=False):
    """Apply the assembled morphism of a (k,l) table to an outer element.

    Every letter is consumed by exactly one block and the glued graph must
    be a forest.  When bullet_table is given, exactly one block is
    evaluated in it instead (the pointed-morphism assembly), with the
    block's declared parity passing the letters that precede it.

    Only admissible block lists are enumerated (_set_partitions): a block
    takes letters from distinct components of the blocks before it, and
    its table has a nonzero entry on its normalized word.  A block whose
    size its table does not cover is admitted untested, and so is every
    block after it, so the gluing step raises IncompleteTableError exactly
    where the sum over all set partitions would.  With single_cluster,
    only the block lists whose glued graph is connected are made, and
    none for a term with a unit cluster beside lettered ones when every
    table covers its letter count.
    """
    tables = [(table, 0)]
    if bullet_table is not None:
        tables.append((bullet_table, bullet_parity))

    def blocks_of(owner, letters, n):
        # a unit cluster (units sort first) stays apart; no block can raise
        if single_cluster and owner and owner[0] and all(
                tab.covers(len(owner)) for tab, _ in tables):
            return ()
        return _set_partitions((owner, letters, n, tables, single_cluster))
    return _glue(table.space, table.target, x, blocks_of)


def vanishes(table, letters):
    """Whether table's coderivation-type operators are zero, and raise
    nothing, on every outer word whose letters, over all its clusters, are
    letters (a tuple; unit clusters carry none): table covers len(letters)
    and no key of its index is a sub-multiset of letters.

    Every block list of apply_coderivation (with or without
    single_cluster), of apply_inner_coderivation and of apply_ibl at any
    cap has a block whose sorted letters, taken from the word's letters,
    are looked up as an index key (_entry); with no such key, no block
    list is made and the image is zero.  A block reaches at most
    len(letters) letters, so neither the coverage check of
    _operation_blocks nor _entry can raise on such a word.  Every arity is
    >= 1 (OperationTable refuses k < 1), so a word without letters always
    vanishes.  The rule does not hold for the morphism type
    (apply_morphism), where every letter must be consumed and a word
    without letters keeps its unit, and it is not stated for
    apply_multi_pointed, which glues several tables at once."""
    if not table.covers(len(letters)) or \
            not table._one_letter_keys.isdisjoint(letters):
        return False
    for distinct, key in table._longer_keys:
        if distinct.issubset(letters) and all(
                letters.count(l) >= key.count(l) for l in distinct):
            return False
    return True


def _set_partitions(search):
    """The admissible block lists of one outer word for apply_morphism, as
    the gluing step takes them (see _glue).

    search is (owner, letters, n, tables, single_cluster): owner[p] and
    letters[p] are the cluster and generator of letter p, n the number of
    clusters; tables lists the (table, parity) a block may use, a second
    one being the bullet, which exactly one block uses.  The entry test is
    a nonempty _entry of the block's table on its letters, and the block
    carries those terms; a block admitted untested carries None.  comp
    labels each cluster by its component, a joined set taking its least
    label, and the final comp goes with the list (a forest: no cycle).
    Blocks come in ascending order of their first letter.  A forest over
    the lettered clusters is connected exactly when it has letters -
    clusters + 1 blocks, so single_cluster fixes the number of blocks
    still needed (need; None when free).  The lists are made in full
    before the first is returned; making them raises nothing, since the
    entry test queries covered sizes only.

    Each table's coverage and entered sizes are read once per call, into
    the options of each block size.  A one-letter block joins nothing, so
    it takes no combinations and no label set; a longer one's label set
    starts from its first letter's.  The recursion stays a closure: the
    reference cycle each call leaves is what sets off the collections that
    free the benchmark's re-imported library copies, and without it the
    compose-coherence peak_rss_mb rose about 28% (BENCH_26.json,
    left_out).
    """
    owner, letters, n, tables, single_cluster = search
    # each table's coverage and entered sizes, read once per call: per
    # block size k, the (table index, table, parity, admitted without the
    # entry test) a block may take, past a table's coverage untested, at a
    # covered size only where it has entries; once a block is admitted
    # untested, every block after it is too.  offers[bullet left][untested]
    most = len(owner)
    tested = [[] for _ in range(most + 1)]
    for t, (tab, parity) in enumerate(tables):
        covered = most if tab.covers(most) else tab.max_k
        for k in tab.input_sizes():
            if k <= covered:
                tested[k].append((t, tab, parity, False))
        for k in range(covered + 1, most + 1):
            tested[k].append((t, tab, parity, True))
    offers = [(tested, [[(0, *tables[0], True)]] * (most + 1))]
    if len(tables) == 2:
        offers = [([[o for o in opts if not o[0]] for opts in tested],
                   offers[0][1]),
                  (tested, [[(0, *tables[0], True), (1, *tables[1], True)]]
                   * (most + 1))]
    found = []

    def extend(free, comp, chosen, bullet_left, untested, need):
        if not free:
            if not bullet_left:
                found.append((chosen, comp, 0))
            return
        first, rest = free[0], free[1:]
        offer = offers[bullet_left][untested]
        # the blocks after this one take at least one letter each, and the
        # last one takes every letter left
        top = len(free) if need is None else len(free) - need + 1
        for k in range(top if need == 1 else 1, top + 1):
            options = offer[k]
            if not options:
                continue
            if k == 1:  # a one-letter block joins nothing
                picks = [((first,), (letters[first],), None)]
            else:  # (block, its word, the component labels of its letters)
                picks, label = [], comp[owner[first]]
                for others in itertools.combinations(rest, k - 1):
                    labels = {label}
                    for p in others:
                        labels.add(comp[owner[p]])
                    if len(labels) == k:  # else two are joined already
                        block = (first,) + others
                        picks.append((
                            block, tuple([letters[p] for p in block]), labels))
            for block, word, labels in picks:
                admitted = []  # (table index, table, parity, its terms)
                for t, tab, parity, skip in options:
                    terms = None if skip else _entry(tab, word)
                    if skip or terms:  # untested: terms None
                        admitted.append((t, tab, parity, terms))
                if not admitted:
                    continue
                if labels is None:
                    merged, remaining = comp, rest
                else:
                    least = min(labels)
                    merged = [least if c in labels else c for c in comp]
                    remaining = tuple([p for p in rest if p not in block])
                for t, tab, parity, terms in admitted:
                    extend(remaining, merged,
                           chosen + [(block, tab, parity, terms)],
                           bullet_left and not t, terms is None,
                           None if need is None else need - 1)

    need = None
    if single_cluster and owner:
        need = len(owner) - len(set(owner)) + 1
    extend(tuple(range(len(owner))), list(range(n)), [], len(tables) == 2,
           False, need)
    return iter(found)


def _operation_blocks(tables, one_per_cluster=True, single_cluster=False):
    """Coderivation-type block lists, as the gluing step takes them (see
    _glue): one block per (table, parity) in order, each taking one of the
    table's input sizes from the letters the blocks before it left free,
    and each carrying its nonempty entry terms (a pick without an entry
    makes no block list).

    A block can reach as many letters as there are clusters among them
    (letters, when not one per cluster); a listed table that does not
    cover that many raises IncompleteTableError, since only its entered
    input sizes are enumerated.  With single_cluster (one table), only the
    picks that touch every lettered cluster are made, and none when a unit
    cluster is beside the lettered ones."""
    def blocks_of(owner, letters, n):
        lettered = len(set(owner))
        reach = lettered if one_per_cluster else len(owner)
        for table, _ in tables:
            if not table.covers(reach):
                raise IncompleteTableError(reach)
        if single_cluster and owner and owner[0]:
            return []  # a unit cluster (units sort first) stays apart
        partial = [([], list(range(len(owner))))]
        for table, parity in tables:
            grown = []
            for chosen, free in partial:
                for k in table.input_sizes():
                    if single_cluster and k < lettered:
                        continue
                    for pick in _picks(free, owner, k, one_per_cluster):
                        if single_cluster and not one_per_cluster and len(
                                {owner[p] for p in pick}) < lettered:
                            continue
                        terms = _entry(table,
                                       tuple([letters[p] for p in pick]))
                        if terms:
                            grown.append((
                                chosen + [(pick, table, parity, terms)],
                                [p for p in free if p not in pick]))
            partial = grown
        return [(chosen, *_components(chosen, owner, n))
                for chosen, _ in partial]
    return blocks_of


def _picks(free, owner, k, one_per_cluster):
    """Ascending k-tuples of free letter positions."""
    if not one_per_cluster:
        return itertools.combinations(free, k)
    pools = {}
    for p in free:
        pools.setdefault(owner[p], []).append(p)
    return (pick for sel in itertools.combinations(pools.values(), k)
            for pick in itertools.product(*sel))


def _components(blocks, owner, n):
    """The component label of each of the n clusters in the graph the
    blocks glue, and its cycle count.  One block closes a cycle with each
    further letter of a cluster it touches; several go through union-find
    over the clusters (nodes 0..n-1) and blocks (n onwards)."""
    if len(blocks) == 1:
        positions = blocks[0][0]
        touched = {owner[p] for p in positions}
        return ([n if c in touched else c for c in range(n)],
                len(positions) - len(touched))
    parent = list(range(n + len(blocks)))
    cycles = 0
    for b, (positions, *_) in enumerate(blocks, n):
        for p in positions:
            r, s = _root(parent, owner[p]), _root(parent, b)
            if r == s:
                cycles += 1
            else:
                parent[r] = s
    return [_root(parent, c) for c in range(n)], cycles


def _root(parent, a):
    while parent[a] != a:
        a = parent[a]
    return a


def _exact(c):
    """An integral Fraction as an int, any other coefficient unchanged."""
    return c.numerator if type(c) is Fraction and c.denominator == 1 else c


def _entry(table, letters):
    """The signed output terms (genus, coefficient, output Word) of a table
    on a block's letters: the table's index at the sorted letters (its
    cells' normal-form terms, see OperationTable), negated for an odd
    Koszul sign; () when the sign is 0 or there is no entry.  A one-letter
    block is its own sorted key, with sign +1; a longer one counts
    inversions only among two or more odd letters.  Past the table's
    coverage it raises IncompleteTableError(k, Word) on the sorted
    letters, as the table's queries do."""
    sign = 1
    if len(letters) == 1:
        key = letters
    else:
        par = table.space.parities
        odd = [l for l in letters if par[l]]
        if len(odd) > 1:
            sign = _inversion_sign(odd)
            if not sign:
                return ()
        key = tuple(sorted(letters))
    if not table.covers(len(key)):
        raise IncompleteTableError(len(key), Word(key))
    terms = table._index.get(key, ())
    return terms if sign > 0 else [(g, -c, w) for g, c, w in terms]


def _glue(space, tgt, x, blocks_of, hbar_cap=None):
    """The gluing step on every term of x and every block list that
    blocks_of(owner, letters, n) yields; owner[p] is the cluster of letter
    p, letters[p] its generator and n the number of clusters.  A block
    list is (blocks, comp, cycles): each block is (ascending letter
    positions, table, parity, its signed entry terms from _entry), comp
    labels each cluster by its component and cycles counts the cycles of
    the glued graph; a block's component is that of its letters' clusters.
    A block admitted untested carries None and is looked up here, where a
    partial table raises IncompleteTableError.  The step adds the signs
    and builds the outputs, normalized in tgt; it counts inversions only
    where they can move a sign (see the module docstring), and a list of
    one block iterates that block's terms directly."""
    if not x.terms:
        return EElement()
    acc = {}
    for eword, coeff in x.terms.items():
        coeff = _exact(coeff)
        clusters = eword.clusters
        letters = [l for c in clusters for l in c.letters]
        owner = [ci for ci, c in enumerate(clusters) for _ in c.letters]
        pars = [space.parities[l] for l in letters]
        odd_term = 1 in pars
        top = eword.hbar if hbar_cap is None else hbar_cap
        for blocks, comp, cycles in blocks_of(owner, letters, len(clusters)):
            hbar = eword.hbar + cycles
            if hbar > top:
                continue
            terms_of = []
            for positions, table, _, terms in blocks:
                if terms is None:  # admitted untested: may raise
                    terms = _entry(table,
                                   tuple([letters[p] for p in positions]))
                    if not terms:
                        break
                terms_of.append(terms)
            m = len(blocks)
            if len(terms_of) < m:
                continue
            # one pass over the blocks: the consumed letters, each block's
            # output parity (its table's when no letter is odd), each odd
            # operation passing the odd letters of the blocks before it, and
            # the blocks of each component
            sign, odd_prefix, consumed, item_pars, comps = 1, 0, [], [], {}
            for bi, (positions, table, parity, _) in enumerate(blocks):
                consumed += positions
                if odd_term:
                    odd = sum([pars[p] for p in positions])
                    if parity % 2 and odd_prefix:
                        sign = -sign
                    odd_prefix ^= odd & 1
                    item_pars.append((odd + table.parity) % 2)
                else:
                    item_pars.append(table.parity)
                label = comp[owner[positions[0]]]
                if label in comps:
                    comps[label][0].append(bi)
                else:
                    comps[label] = ([bi], [])
            free = []
            if len(consumed) < len(letters):
                taken = set(consumed)
                free = [p for p in range(len(letters)) if p not in taken]
            if odd_term:  # the consumed letters to the front, block by block
                odd = [p for p in consumed + free if pars[p]]
                if len(odd) > 1:
                    sign *= _inversion_sign(odd)
            # items are the block outputs, then the free letters; regroup
            # them per component, untouched clusters last.  One component
            # and no untouched letter leave the order as it is
            untouched = []
            for i, p in enumerate(free, m):
                item_pars.append(pars[p])
                group = comps.get(comp[owner[p]])
                (untouched if group is None else group[1]).append(i)
            if (len(comps) > 1 or untouched) and 1 in item_pars:
                order = [i for bis, lefts in comps.values()
                         for i in bis + lefts] + untouched
                sign *= _inversion_sign([i for i in order if item_pars[i]])
            merges = [(bis, [letters[free[i - m]] for i in lefts])
                      for bis, lefts in comps.values()]
            rest = tuple([c for c, label in zip(clusters, comp)
                          if label not in comps])
            whole = len(merges) == 1 and not rest
            if m == 1:  # one block: its terms, each its own combination
                lefts = merges[0][1]
                for g, c, w in terms_of[0]:
                    h, s = hbar + g, sign
                    if h > top:
                        continue
                    if lefts:
                        w, w_sign = _normalize_indices(
                            tgt, list(w.letters) + lefts)
                        if not w_sign:
                            continue
                        s *= w_sign
                    if whole:
                        ew, ew_sign = EWord((w,), h), 1
                    else:
                        ew, ew_sign = normalize_clusters(tgt, (w,) + rest,
                                                         hbar=h)
                    if ew_sign:
                        val = coeff * c
                        acc[ew] = acc.get(ew, 0) + (
                            val if s * ew_sign > 0 else -val)
                continue
            # genera come in ascending order: the last term has the largest
            graded = any(terms[-1][0] for terms in terms_of)
            for combo in itertools.product(*terms_of):
                h = hbar
                if graded:
                    h += sum(g for g, _, _ in combo)
                    if h > top:
                        continue
                words, s = [], sign
                for bis, lefts in merges:
                    if lefts or len(bis) > 1:
                        w, w_sign = _normalize_indices(tgt, [
                            l for bi in bis for l in combo[bi][2].letters]
                            + lefts)
                        if not w_sign:
                            break
                        s *= w_sign
                    else:  # one block's output, normalized in its table
                        w = combo[bis[0]][2]
                    words.append(w)
                else:
                    if whole:
                        ew, ew_sign = EWord(words, h), 1
                    else:
                        ew, ew_sign = normalize_clusters(
                            tgt, tuple(words) + rest, hbar=h)
                    if ew_sign:
                        val = coeff
                        for _, c, _ in combo:
                            val *= c
                        acc[ew] = acc.get(ew, 0) + (
                            val if s * ew_sign > 0 else -val)
    out = EElement()
    out.terms = {ew: Fraction(c) if type(c) is int else c
                 for ew, c in acc.items() if c}
    return out


def _split(element):
    """Inner words as outer words with one letter per cluster."""
    return EElement({word_to_singletons(w): c
                     for w, c in element.terms.items()})


def _flatten(space, x):
    """Each outer term's clusters concatenated into one normalized word."""
    acc = {}
    for ew, c in x.terms.items():
        w, sign = _normalize_indices(
            space, [l for cluster in ew.clusters for l in cluster.letters])
        if sign:
            acc[w] = acc.get(w, 0) + c * sign
    return Element(acc)
