"""Shared builders and independent oracles for the test suite.

The sign oracles recompute assembled operators through flat letter
arrangements with bubble-sort Koszul signs, a code path disjoint from the
package's selection-sign engine.  The linear-algebra oracle is a dense
Gauss-Jordan elimination, disjoint from the package's sparse one.  The
check oracles test the identities of augmentations, pointed maps,
morphisms and compatible pointed maps in full on every basis outer word of
the window, where the package tests their connected part on split words.
The hierarchy oracle spells out the componentwise combination rule that
the package applies as a min/max shortcut on the total order.  The
closed-complex oracle asserts that a window is a complex under its
differential (closed, parity-odd, d*d = 0), a check no search runs.
"""

import itertools
import random
from fractions import Fraction

from blinfty.errors import (NotNilpotentError, PlanarityNotOneError,
                            StructureError)
from blinfty.words import (Generator, GradedSpace, Word, EWord, Element,
                           EElement, UNIT_EWORD, UNIT_WORD, enumerate_basis,
                           normalize_word, normalize_clusters)
from blinfty.hierarchy import HierarchyValue
from blinfty.invariants import order_O
from blinfty.structures import (OperationTable, BLAlgebra, Bounds,
                                apply_hat_p, apply_hat_phi,
                                apply_hat_phi_bullet, apply_hat_pointed)
from blinfty import assembly


def space(*spec):
    gens = []
    for s in spec:
        if len(s) == 2:
            gens.append(Generator(s[0], s[1]))
        else:
            gens.append(Generator(s[0], s[1], action=s[2]))
    return GradedSpace(gens)


def word(sp, *names):
    w, sign = normalize_word(sp, names)
    assert sign == 1, "test word must be normalized and nonzero"
    return w


def eword(sp, *cluster_names, hbar=0):
    clusters = tuple(word(sp, *names) for names in cluster_names)
    ew, sign = normalize_clusters(sp, clusters, hbar=hbar)
    assert sign == 1
    return ew


def eword_action(sp, ew):
    """The total action of an outer word's letters."""
    return sum((sp.word_action(c.letters) for c in ew.clusters), Fraction(0))


def table(sp, parity, entries, complete=True, target=None, **kw):
    """entries: list of (k, l, input names, [(coeff, output names), ...])."""
    rows = []
    for (k, l, in_names, outs) in entries:
        w_in = word(sp, *in_names)
        tsp = target if target is not None else sp
        elem = Element()
        for coeff, out_names in outs:
            w_out, sgn = normalize_word(tsp, out_names)
            assert sgn != 0
            elem = elem + Element.monomial(w_out, Fraction(coeff) * sgn)
        rows.append((k, l, w_in, elem))
    return OperationTable(sp, parity, rows, complete=complete, target=target,
                          **kw)


def algebra(sp, entries, **kw):
    return BLAlgebra(sp, table(sp, 1, entries, **kw))


def one_letter_structure():
    """A table whose two-level cells vanish on one-letter words only: it
    passes check_structure at Bounds(1) and fails at Bounds(3) on q*r."""
    sp = space(("q", 1), ("r", 1), ("x", 0))
    return algebra(sp, [(1, 2, ("q",), [(3, ("x", "x"))]),
                        (2, 0, ("q", "x"), [(1, ())]),
                        (1, 1, ("r",), [(2, ("x",))])])


# ---------------------------------------------------------------------------
# Arrangement calculus: ordered letter lists with brute-force Koszul signs.

def inversion_sign(parities, perm):
    """Sign of rearranging items into perm order, counting odd-odd inversions."""
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and parities[perm[a]] and parities[perm[b]]:
                sign = -sign
    return sign


def bubble_normalize(sp, letters):
    """(sorted letters, sign) via literal adjacent swaps; sign 0 on vanishing."""
    seq = list(letters)
    pars = [sp.parities[i] for i in seq]
    for i, j in itertools.combinations(range(len(seq)), 2):
        if seq[i] == seq[j] and pars[i] and pars[j]:
            return None, 0
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if seq[i] > seq[i + 1]:
                if pars[i] and pars[i + 1]:
                    sign = -sign
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                pars[i], pars[i + 1] = pars[i + 1], pars[i]
                changed = True
    return seq, sign


def cluster_sort_sign(sp, clusters):
    """Sort clusters by (length, letters); bubble signs on cluster parities."""
    seq = list(clusters)
    pars = [sum(sp.parities[i] for i in c) % 2 for c in seq]
    keys = [(len(c), tuple(c)) for c in seq]
    for i, j in itertools.combinations(range(len(seq)), 2):
        if keys[i] == keys[j] and pars[i] and pars[j]:
            return None, 0
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(seq) - 1):
            if keys[i] > keys[i + 1]:
                if pars[i] and pars[i + 1]:
                    sign = -sign
                seq[i], seq[i + 1] = seq[i + 1], seq[i]
                pars[i], pars[i + 1] = pars[i + 1], pars[i]
                keys[i], keys[i + 1] = keys[i + 1], keys[i]
                changed = True
    return seq, sign


def add_term(acc, sp, clusters, coeff, hbar=0):
    """Normalize a list of letter-lists into an EWord and accumulate."""
    done = []
    for letters in clusters:
        srt, sgn = bubble_normalize(sp, letters)
        if sgn == 0:
            return
        coeff = coeff * sgn
        done.append(tuple(srt))
    srt_clusters, sgn = cluster_sort_sign(sp, done)
    if sgn == 0:
        return
    coeff = coeff * sgn
    ew = EWord(tuple(Word(c) for c in srt_clusters), hbar=hbar)
    acc[ew] = acc.get(ew, 0) + coeff


def oracle_hat_p(sp, optable, ew):
    """Exhaustive gluing oracle for the coderivation on one outer word.

    Enumerates (cluster subset, one letter per cluster) gluings; every sign
    comes from one global permutation of the flattened letters.
    """
    clusters = ew.clusters
    n = len(clusters)
    flat = []
    owner = []
    for ci, c in enumerate(clusters):
        for l in c.letters:
            flat.append(l)
            owner.append(ci)
    pars = [sp.parities[i] for i in flat]
    acc = {}
    for k in range(1, n + 1):
        for subset in itertools.combinations(range(n), k):
            if any(len(clusters[i]) == 0 for i in subset):
                continue
            pools = [[p for p in range(len(flat)) if owner[p] == i]
                     for i in subset]
            for choice in itertools.product(*pools):
                selected = list(choice)
                leftovers_sel = [p for p in range(len(flat))
                                 if owner[p] in subset and p not in selected]
                untouched = [p for p in range(len(flat))
                             if owner[p] not in subset]
                perm = selected + leftovers_sel + untouched
                sign = inversion_sign(pars, perm)
                picked, n_sign = bubble_normalize(sp, [flat[p] for p in selected])
                if n_sign == 0:
                    continue
                entry = optable.query(k, Word(tuple(picked)))
                for w_out, c_out in entry.terms.items():
                    merged = list(w_out.letters) + [flat[p] for p in leftovers_sel]
                    rest = [list(clusters[i].letters) for i in range(n)
                            if i not in subset]
                    add_term(acc, sp, [merged] + rest,
                             Fraction(1) * sign * n_sign * c_out, hbar=ew.hbar)
    return EElement(acc)


def oracle_ibl(sp, tab, ew, cap):
    """Brute force: all multisets of letters per cluster, global permutation
    signs, exponent by the graph formula edges - vertices + components."""
    clusters = ew.clusters
    n = len(clusters)
    flat, owner = [], []
    for ci, c in enumerate(clusters):
        for l in c.letters:
            flat.append(l)
            owner.append(ci)
    pars = [sp.parities[i] for i in flat]
    acc = {}
    for selected in _all_subsets(range(len(flat))):
        if not selected:
            continue
        rs = sorted({owner[p] for p in selected})
        j_total = len(selected)
        leftover_touched = [p for p in range(len(flat))
                            if p not in selected and owner[p] in rs]
        untouched = [p for p in range(len(flat)) if owner[p] not in rs]
        perm = list(selected) + leftover_touched + untouched
        sign = inversion_sign(pars, perm)
        srt, s1 = bubble_normalize(sp, [flat[p] for p in selected])
        if s1 == 0:
            continue
        w_in = Word(tuple(srt))
        gain = j_total - len(rs)  # edges - vertices + one component
        for g, elem in tab.query_by_genus(j_total, w_in):
            new_h = ew.hbar + g + gain
            if new_h > cap:
                continue
            leftover = [flat[p] for p in range(len(flat)) if p not in selected
                        and owner[p] in rs]
            rest = [list(clusters[i].letters) for i in range(n) if i not in rs]
            for w_out, c_out in elem.terms.items():
                add_term(acc, sp, [list(w_out.letters) + leftover] + rest,
                         Fraction(1) * sign * s1 * c_out, hbar=new_h)
    return EElement(acc)


def oracle_check_ibl(sp, tab, cap, bounds):
    """(ok, witness) of the hbar-graded structure check from oracle_ibl:
    failed at the first nonempty word of the window, in word order, whose
    letters taken one per cluster have a nonzero single-cluster part of
    oracle p-hat squared, truncated above cap; the witness is (k, l, g,
    word) at the least (length, exponent) of that part."""
    for w in oracle_words(sp, bounds.max_letters, bounds.max_action):
        if not len(w):
            continue
        twice = {}
        once = oracle_ibl(sp, tab, EWord(tuple(Word((i,)) for i in w.letters)),
                          cap)
        for ew1, c1 in once.terms.items():
            for ew2, c2 in oracle_ibl(sp, tab, ew1, cap).terms.items():
                twice[ew2] = twice.get(ew2, 0) + c1 * c2
        cells = [(len(ew.clusters[0]), ew.hbar) for ew, c in twice.items()
                 if c and len(ew.clusters) == 1]
        if cells:
            return False, (len(w), *min(cells), w)
    return True, None


def _all_subsets(it):
    items = list(it)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


def oracle_inner(sp, optable, w):
    """Inner bar differential oracle: every subset of letter positions
    feeds the operation, whose output multiplies into the leftovers; the
    sign is one global inversion count of (selected, leftovers)."""
    letters = list(w.letters)
    pars = [sp.parities[i] for i in letters]
    acc = {}
    for selected in _all_subsets(range(len(letters))):
        if not selected:
            continue
        rest = [p for p in range(len(letters)) if p not in selected]
        sign = inversion_sign(pars, list(selected) + rest)
        srt, s1 = bubble_normalize(sp, [letters[p] for p in selected])
        if s1 == 0:
            continue
        entry = optable.query(len(selected), Word(tuple(srt)))
        for w_out, c_out in entry.terms.items():
            final, s2 = bubble_normalize(
                sp, list(w_out.letters) + [letters[p] for p in rest])
            if s2 == 0:
                continue
            key = Word(tuple(final))
            acc[key] = acc.get(key, 0) + Fraction(1) * sign * s1 * s2 * c_out
    return Element(acc)


def oracle_two_level(sp, optable, w_in):
    """Two-vertex gluing oracle: ordered entry pairs sharing one edge."""
    letters = list(w_in.letters)
    pars = [sp.parities[i] for i in letters]
    k = len(letters)
    acc = {}
    for j in range(1, k + 1):
        for S in itertools.combinations(range(k), j):
            sign1 = inversion_sign(pars, list(S) + [p for p in range(k)
                                                    if p not in S])
            first, s1 = bubble_normalize(sp, [letters[p] for p in S])
            if s1 == 0:
                continue
            rest = [letters[p] for p in range(k) if p not in S]
            for w_mid, c1 in optable.query(j, Word(tuple(first))).terms.items():
                mid = list(w_mid.letters)
                if not mid:
                    continue  # no output letters: nothing to feed the 2nd vertex
                arr = mid + rest  # current arrangement after the first vertex
                arr_pars = [sp.parities[i] for i in arr]
                for u in range(len(mid)):
                    sel = [u] + list(range(len(mid), len(arr)))
                    perm = sel + [p for p in range(len(arr)) if p not in sel]
                    sign2 = inversion_sign(arr_pars, perm)
                    second, s2 = bubble_normalize(sp, [arr[p] for p in sel])
                    if s2 == 0:
                        continue
                    q2 = optable.query(len(sel), Word(tuple(second)))
                    leftover_mid = [mid[p] for p in range(len(mid)) if p != u]
                    for w_out, c2 in q2.terms.items():
                        final, s3 = bubble_normalize(
                            sp, list(w_out.letters) + leftover_mid)
                        if s3 == 0:
                            continue
                        val = Fraction(1) * sign1 * s1 * c1 * sign2 * s2 * c2 * s3
                        wkey = Word(tuple(final))
                        acc[wkey] = acc.get(wkey, 0) + val
    return Element(acc)


def oracle_hat_phi(sp, tsp, table_, ew, bullet_table=None, bullet_parity=0):
    """Morphism oracle: set partitions of letters, spanning-forest check by
    explicit edge counting, all signs from flat arrangements."""
    clusters = ew.clusters
    n = len(clusters)
    flat, owner = [], []
    for ci, c in enumerate(clusters):
        for l in c.letters:
            flat.append(l)
            owner.append(ci)
    pars = [sp.parities[i] for i in flat]
    acc = {}
    for part in set_partitions_list(list(range(len(flat)))):
        blocks = sorted([sorted(b) for b in part], key=lambda b: b[0])
        edges = [(owner[p], bi) for bi, b in enumerate(blocks) for p in b]
        if not forest_check(n, len(blocks), edges):
            continue
        comp = components(n, len(blocks), edges)
        slots = range(len(blocks)) if bullet_table is not None else [None]
        for bullet_at in slots:
            perm = [p for b in blocks for p in b]
            sign = inversion_sign(pars, perm)
            if bullet_at is not None:
                npass = sum(pars[p] for b in blocks[:bullet_at] for p in b)
                if bullet_parity % 2 and npass % 2:
                    sign = -sign
            factors = []
            ok = True
            for bi, b in enumerate(blocks):
                srt, s = bubble_normalize(sp, [flat[p] for p in b])
                if s == 0:
                    ok = False
                    break
                tab = bullet_table if bi == bullet_at else table_
                ent = tab.query(len(b), Word(tuple(srt)))
                factors.append((s, ent))
            if not ok:
                continue
            for combo in itertools.product(
                    *[list(e.terms.items()) for _, e in factors]):
                coeff = Fraction(1) * sign
                for (s, _), (_, c_out) in zip(factors, combo):
                    coeff = coeff * s * c_out
                if not coeff:
                    continue
                outs = [w for (w, _) in combo]
                out_pars = [sum(tsp.parities[i] for i in w.letters) % 2
                            for w in outs]
                comp_of_block = {bi: comp[("b", bi)] for bi in range(len(blocks))}
                order = sorted(range(len(blocks)),
                               key=lambda bi: (comp_of_block[bi], bi))
                coeff = coeff * inversion_sign(out_pars, order)
                groups = {}
                for bi in order:
                    groups.setdefault(comp_of_block[bi], []).extend(
                        outs[bi].letters)
                out_clusters = [groups[g] for g in sorted(groups)]
                for ci in range(n):
                    if comp[("c", ci)] not in groups and len(clusters[ci]) == 0:
                        out_clusters.append([])
                if not out_clusters:
                    continue
                add_term_t(acc, tsp, out_clusters, coeff, hbar=ew.hbar)
    return EElement(acc)


def add_term_t(acc, tsp, clusters, coeff, hbar=0):
    add_term(acc, tsp, clusters, coeff, hbar=hbar)


def set_partitions_list(items):
    if not items:
        return [[]]
    out = []
    first, rest = items[0], items[1:]
    for part in set_partitions_list(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1:])
        out.append([[first]] + part)
    return out


def unpruned_morphism_blocks(table_, bullet_table=None, bullet_parity=0):
    """The morphism enumeration before pruning, as a block source for
    assembly._glue: every set partition of the letters, blocks sorted, and
    with a bullet table each block in turn evaluated in it.  No block
    carries entry terms (each is looked up in the step); each list carries
    its clusters' component labels and cycle count, counted by DFS."""
    def blocks_of(owner, letters, n):
        for part in set_partitions_list(list(range(len(owner)))):
            blocks = sorted(part)
            edges = [(owner[p], bi) for bi, b in enumerate(blocks) for p in b]
            comp = components(n, len(blocks), edges)
            labels = [comp[("c", ci)] for ci in range(n)]
            cycles = len(edges) - n - len(blocks) + len(set(comp.values()))
            if bullet_table is None:
                yield [(b, table_, 0, None) for b in blocks], labels, cycles
                continue
            for at in range(len(blocks)):
                yield ([(b, bullet_table, bullet_parity, None) if i == at
                        else (b, table_, 0, None)
                        for i, b in enumerate(blocks)], labels, cycles)
    return blocks_of


def forest_check(n_clusters, n_blocks, edges):
    """Acyclic iff every component satisfies V = E + 1 (counted by DFS)."""
    adj = {}
    for (c, b) in edges:
        adj.setdefault(("c", c), []).append(("b", b))
        adj.setdefault(("b", b), []).append(("c", c))
    nodes = ([("c", i) for i in range(n_clusters)] +
             [("b", i) for i in range(n_blocks)])
    seen = set()
    for start in nodes:
        if start in seen:
            continue
        stack, comp_nodes = [start], set()
        while stack:
            v = stack.pop()
            if v in comp_nodes:
                continue
            comp_nodes.add(v)
            stack.extend(adj.get(v, []))
        seen |= comp_nodes
        comp_edges = sum(1 for (c, b) in edges if ("c", c) in comp_nodes)
        if comp_edges != len(comp_nodes) - 1:
            return False
    return True


def components(n_clusters, n_blocks, edges):
    """Map each node to a component id (the smallest node in DFS order)."""
    adj = {}
    for (c, b) in edges:
        adj.setdefault(("c", c), []).append(("b", b))
        adj.setdefault(("b", b), []).append(("c", c))
    nodes = ([("c", i) for i in range(n_clusters)] +
             [("b", i) for i in range(n_blocks)])
    comp = {}
    cid = 0
    for start in nodes:
        if start in comp:
            continue
        stack = [start]
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp[v] = cid
            stack.extend(adj.get(v, []))
        cid += 1
    return comp


def random_table(rng, sp, max_k=3, max_l=3, n_entries=4, parity=1,
                 max_letters=4, denominators=None):
    """A sparse random operation table respecting parity (not a valid
    structure in general; used for two-path agreement tests).  Coefficients
    are integers in [-3, 3]; with denominators, each is divided by one
    drawn from it, e.g. (2, 3, 7) for mostly non-integral coefficients."""
    rows = {}
    tries = 0
    while len(rows) < n_entries and tries < 60:
        tries += 1
        k = rng.randint(1, max_k)
        letters = tuple(sorted(rng.randrange(len(sp)) for _ in range(k)))
        w_in, sgn = normalize_word(sp, letters)
        if sgn == 0:
            continue
        in_par = sp.word_parity(w_in.letters)
        l = rng.randint(0, max_l)
        out_terms = {}
        for _ in range(rng.randint(1, 2)):
            out = tuple(sorted(rng.randrange(len(sp)) for _ in range(l)))
            w_out, osgn = normalize_word(sp, out)
            if osgn == 0:
                continue
            if sp.word_parity(w_out.letters) != (in_par + parity) % 2:
                continue
            num = rng.randint(-3, 3)
            out_terms[w_out] = Fraction(
                num, rng.choice(denominators) if denominators else 1)
        elem = Element(out_terms)
        if not elem:
            continue
        if (k, l, w_in) in rows:
            continue
        rows[(k, l, w_in)] = elem
    entries = [(k, l, w, e) for (k, l, w), e in rows.items()]
    return OperationTable(sp, parity, entries, complete=True)


def whole_windows(monkeypatch):
    """Force support=None in both window builders, in every module that
    reads them, so that every check and search runs its whole window: the
    arm the support-filtered windows are held equal to."""
    from blinfty import ibl, invariants, structures
    split, outer = structures._split_words, invariants._outer_window

    def split_whole(space, bounds, max_letters=None, support=None):
        return split(space, bounds, max_letters)

    def outer_whole(sp, units, cap=None, support=None):
        return outer(sp, units, cap)
    for module in (structures, invariants):
        monkeypatch.setattr(module, "_split_words", split_whole)
    for module in (invariants, ibl):
        monkeypatch.setattr(module, "_outer_window", outer_whole)


def random_space(rng, n=None):
    n = n if n is not None else rng.randint(1, 4)
    return GradedSpace([Generator("g%d" % i, rng.randrange(2))
                        for i in range(n)])


def oracle_multi(sp, tables, ew):
    """Independent multi-operation oracle: one global permutation into
    per-component arrangement, entries applied in op order with passing
    signs, a second regroup permutation for the outputs."""
    clusters = ew.clusters
    n = len(clusters)
    flat, owner = [], []
    for ci, c in enumerate(clusters):
        for l in c.letters:
            flat.append(l)
            owner.append(ci)
    pars = [sp.parities[i] for i in flat]
    acc = {}

    def assign(op_idx, used, chosen):
        if op_idx == len(tables):
            emit(used, chosen)
            return
        table_, _ = tables[op_idx]
        ks = sorted({k for (k, l) in table_.cells})
        for k in ks:
            for sel in itertools.combinations(
                    [p for p in range(len(flat)) if p not in used], k):
                owners = [owner[p] for p in sel]
                if len(set(owners)) != len(owners):
                    continue
                assign(op_idx + 1, used | set(sel), chosen + [sel])

    def emit(used, chosen):
        edges = [(owner[p], oi) for oi, sel in enumerate(chosen) for p in sel]
        if not forest_check(n, len(chosen), edges):
            return
        comp = components(n, len(chosen), edges)
        comp_order = sorted({comp[("c", ci)] for ci in range(n)})
        leftovers_by_comp = {cid: [] for cid in comp_order}
        for p in range(len(flat)):
            if p not in used:
                leftovers_by_comp[comp[("c", owner[p])]].append(p)
        perm = [p for sel in chosen for p in sel]
        for cid in comp_order:
            perm += leftovers_by_comp[cid]
        sign = inversion_sign(pars, perm)
        if sign == 0:
            return
        prefix_par = 0
        factors = []
        for oi, sel in enumerate(chosen):
            table_, parity = tables[oi]
            srt, s = bubble_normalize(sp, [flat[p] for p in sel])
            if s == 0:
                return
            if parity % 2 and prefix_par % 2:
                sign_local = -1
            else:
                sign_local = 1
            prefix_par += sum(pars[p] for p in sel)
            ent = table_.query(len(sel), Word(tuple(srt)))
            if not ent:
                return
            factors.append((s * sign_local, ent))
        for combo in itertools.product(
                *[list(e.terms.items()) for _, e in factors]):
            coeff = Fraction(1) * sign
            for (s, _), (_, c_out) in zip(factors, combo):
                coeff = coeff * s * c_out
            outs = [w for (w, _) in combo]
            out_pars = [sum(sp.parities[i] for i in w.letters) % 2
                        for w in outs]
            # regroup outputs in front of their component's leftovers
            items_pars = out_pars + [pars[p] for cid in comp_order
                                     for p in leftovers_by_comp[cid]]
            target = []
            pos_left = {}
            base = len(chosen)
            for cid in comp_order:
                pos_left[cid] = []
                for p in leftovers_by_comp[cid]:
                    pos_left[cid].append(base)
                    base += 1
            out_clusters = []
            for cid in comp_order:
                ops_here = [oi for oi in range(len(chosen))
                            if comp[("b", oi)] == cid]
                letters_here = []
                for oi in ops_here:
                    target.append(oi)
                    letters_here.extend(outs[oi].letters)
                for idx, p in zip(pos_left[cid], leftovers_by_comp[cid]):
                    target.append(idx)
                    letters_here.append(flat[p])
                if ops_here:
                    out_clusters.append(letters_here)
                else:
                    # untouched clusters pass through one by one
                    by_cluster = {}
                    for p in leftovers_by_comp[cid]:
                        by_cluster.setdefault(owner[p], []).append(flat[p])
                    for ci in sorted(by_cluster):
                        out_clusters.append(by_cluster[ci])
                    # unit clusters in this component
                    for ci in range(n):
                        if comp[("c", ci)] == cid and len(clusters[ci]) == 0:
                            out_clusters.append([])
            # unit clusters in op components were consumed into the merge
            for ci in range(n):
                cid = comp[("c", ci)]
                if len(clusters[ci]) == 0 and any(
                        comp[("b", oi)] == cid for oi in range(len(chosen))):
                    raise AssertionError("operations cannot touch units")
            coeff = coeff * inversion_sign(items_pars, target)
            if not coeff:
                continue
            add_term(acc, sp, out_clusters, coeff, hbar=ew.hbar)

    assign(0, frozenset(), [])
    return EElement(acc)


# ---------------------------------------------------------------------------
# full-window checks: the oracles for is_augmentation, check_pointed,
# check_morphism and check_compatibility

def full_window_failure(space, bounds, defect):
    """The first basis outer word of the window (at most bounds.outer()
    clusters) on which defect is nonzero, or None."""
    for ew in enumerate_basis(space, bounds.max_letters, bounds.max_action,
                              outer_components=bounds.outer()):
        if defect(EElement.monomial(ew)):
            return ew
    return None


def oracle_is_augmentation(eps, alg, bounds):
    """eps-hat o p-hat vanishes on every outer word of the window."""
    return full_window_failure(alg.space, bounds, lambda x: (
        assembly.apply_morphism(eps.table, apply_hat_p(alg, x)))) is None


def oracle_check_pointed(pmap, alg, bounds):
    """P-hat o p-hat = +-p-hat o P-hat on every outer word of the window;
    the structure itself is not checked."""
    sgn = -1 if pmap.parity % 2 else 1
    return full_window_failure(alg.space, bounds, lambda x: (
        apply_hat_pointed(pmap, apply_hat_p(alg, x))
        != sgn * apply_hat_p(alg, apply_hat_pointed(pmap, x)))) is None


def oracle_check_morphism(mor, bounds):
    """phi-hat o p-hat = p'-hat o phi-hat on every outer word of the
    window; the two structures are not checked."""
    return full_window_failure(mor.source.space, bounds, lambda x: (
        apply_hat_phi(mor, apply_hat_p(mor.source, x))
        != apply_hat_p(mor.target, apply_hat_phi(mor, x)))) is None


def oracle_check_compatibility(phi, p_bullet, q_bullet, phi_bullet_table,
                               bounds):
    """q-hat o phi-hat - s phi-hat o p-hat = p'-hat o phi-bullet-hat
    - s' phi-bullet-hat o p-hat on every outer word of the window; the two
    structures and phi are not checked."""
    d = p_bullet.parity
    if q_bullet.parity != d:
        raise StructureError("pointed maps must share parity")
    bp = (d + 1) % 2
    sq = -1 if d % 2 else 1
    sphi = -1 if bp % 2 else 1
    src, tgt = phi.source, phi.target

    def defect(x):
        phix = apply_hat_phi(phi, x)
        lhs = (apply_hat_pointed(q_bullet, phix)
               - sq * apply_hat_phi(phi, apply_hat_pointed(p_bullet, x)))
        bx = apply_hat_phi_bullet(phi, phi_bullet_table, x, bp)
        bpx = apply_hat_phi_bullet(phi, phi_bullet_table,
                                   apply_hat_p(src, x), bp)
        return lhs != apply_hat_p(tgt, bx) - sphi * bpx
    return full_window_failure(src.space, bounds, defect) is None


# ---------------------------------------------------------------------------
# dense exact linear algebra: the oracle for blinfty.linalg

def dense_rref(rows):
    """Reduced row echelon form with lexicographically earliest pivots.

    Mutates nothing; returns (new_rows, pivot_columns).
    """
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        pv = m[r][c]
        if pv != 1:
            m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def dense_rank(rows):
    return len(dense_rref(rows)[1])


def dense_kernel_basis(rows, ncols):
    """A basis of {x : A x = 0}, one vector per free column."""
    red, pivots = dense_rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def dense_solve_linear(A, b):
    """Solve A x = b by Gauss-Jordan elimination: (solution with free
    variables zero, or None when inconsistent; null-space basis)."""
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if nrows != len(b):
        raise ValueError("dimension mismatch")
    aug = [list(A[i]) + [b[i]] for i in range(nrows)]
    red, pivots = dense_rref(aug)
    solution = None
    if ncols not in pivots:
        solution = [Fraction(0)] * ncols
        for r, pc in enumerate(pivots):
            solution[pc] = red[r][-1]
    kern = dense_kernel_basis([row[:ncols] for row in red], ncols)
    return solution, kern


def whole_level_solve(basis, columns, target, solve):
    """A search level's system over every column with a nonzero entry, not
    only the target row's component, solved by solve(A, b) as one dense
    matrix: {basis element: coeff} with free variables zero, or None.  The
    reference for invariants._solve, whose columns are {row: coeff} and
    whose target row must read 1 and every other row 0."""
    live = [j for j, col in enumerate(columns) if any(col.values())]
    rows = {target: 0}
    for j in live:
        for key in columns[j]:
            rows.setdefault(key, len(rows))
    A = [[Fraction(0)] * len(live) for _ in rows]
    for i, j in enumerate(live):
        for key, c in columns[j].items():
            A[rows[key]][i] = Fraction(c)
    b = [Fraction(0)] * len(rows)
    b[0] = Fraction(1)
    sol, _ = solve(A, b)
    if sol is None:
        return None
    return {basis[j]: x for j, x in zip(live, sol) if x}


# ---------------------------------------------------------------------------
# closed complexes: a window its differential keeps

def eword_parity(space, eword):
    """The parity of an outer word: the sum of its clusters' parities."""
    return sum(space.word_parity(c.letters) for c in eword.clusters) % 2


def closed_complex(basis, image, parity):
    """The columns {row index: coeff} of image(b), one per basis element b,
    asserting that the window is a complex: every image term is a basis
    element, the differential is parity-odd and d*d = 0.  A failure is an
    AssertionError naming the term or column."""
    index = {b: i for i, b in enumerate(basis)}
    columns = []
    for b in basis:
        terms = {key: c for key, c in image(b).terms.items() if c}
        for key in terms:
            assert key in index, "image %r of %r outside the window" % (key, b)
        columns.append({index[key]: c for key, c in terms.items()})
    for j, col in enumerate(columns):
        for i in col:
            assert parity(basis[i]) != parity(basis[j]), \
                "differential is not parity-odd at column %d" % j
        acc = {}
        for i, c in col.items():
            for i2, c2 in columns[i].items():
                acc[i2] = acc.get(i2, 0) + c * c2
        assert not any(acc.values()), "d*d != 0 at column %d" % j
    return columns


# ---------------------------------------------------------------------------
# level searches: the oracles for invariants.torsion, order_O and sd_order

def oracle_words(sp, max_letters, max_action, max_cluster_letters=None):
    """Every nonzero word of at most max_letters (and max_cluster_letters)
    letters within the action bound, the empty word included, sorted; the
    zero test is bubble_normalize's."""
    top = max_letters if max_cluster_letters is None \
        else min(max_letters, max_cluster_letters)
    words = [Word(combo) for k in range(top + 1)
             for combo in itertools.combinations_with_replacement(
                 range(len(sp)), k)
             if bubble_normalize(sp, combo)[1]
             and (max_action is None or sp.word_action(combo) <= max_action)]
    return sorted(words, key=lambda w: w.key())


def oracle_window(sp, max_letters, max_action, outer_components,
                  allow_units=True, max_cluster_letters=None):
    """Every nonzero multiset of 1..outer_components words within the
    letter, action and cluster-size bounds, normalized and sorted."""
    words = oracle_words(sp, max_letters, max_action, max_cluster_letters)
    if not allow_units:
        words = [w for w in words if len(w)]
    out = set()
    for r in range(1, outer_components + 1):
        for combo in itertools.combinations_with_replacement(words, r):
            if sum(len(w) for w in combo) > max_letters:
                continue
            if max_action is not None and sum(
                    sp.word_action(w.letters) for w in combo) > max_action:
                continue
            ew, sign = normalize_clusters(sp, combo)
            if sign:
                out.add(ew)
    return sorted(out, key=lambda e: e.key())


def oracle_torsion(alg, schedule):
    """The torsion search from its definition, as (kind, level,
    certificate, bounds).

    Level k, with bounds b, solves when p-hat x = 1 has a solution x on
    every outer word of at most k clusters within b, units allowed: images
    by oracle_hat_p, dense elimination, free variables zero.  The first
    scheduled level k that solves gives level k - 1.  A level j < k is
    certified unsolvable when no constant cell (i, 0) has i <= j, or when
    j was searched, with bounds b_j (its last schedule entry), and all of
    these hold: the table drops action, b_j has an action bound A, every
    generator has an action and the least one, delta, is positive, A is
    at least the action of every constant cell's input, and
    b_j.max_letters >= A / delta.  The answer is exact when every j in
    1..k-1 is certified, at-most otherwise; not-found carries the bounds
    of the last entry.
    """
    sp, tab = alg.space, alg.table
    constants = [(i, w) for (i, l), cell in tab.cells.items() if l == 0
                 for w in cell]
    actions = [g.action for g in sp.generators]

    def action_closed(b):
        if not tab.action_drop or b.max_action is None or None in actions \
                or min(actions) <= 0:
            return False
        if any(sp.word_action(w.letters) > b.max_action
               for _, w in constants):
            return False
        return b.max_letters >= b.max_action / min(actions)

    searched = {}
    for k, b in schedule:
        window = oracle_window(sp, b.max_letters, b.max_action, k)
        images = [oracle_hat_p(sp, tab, ew) for ew in window]
        rows = sorted({UNIT_EWORD} | {key for im in images for key in im.terms},
                      key=repr)
        A = [[im.terms.get(r, Fraction(0)) for im in images] for r in rows]
        sol, _ = dense_solve_linear(
            A, [Fraction(int(r == UNIT_EWORD)) for r in rows])
        if sol is not None:
            exact = all(
                not any(i <= j for i, _ in constants)
                or (j in searched and action_closed(searched[j]))
                for j in range(1, k))
            return ("exact" if exact else "at-most", k - 1,
                    EElement({ew: c for ew, c in zip(window, sol) if c}), b)
        searched[k] = b
    return ("not-found", None, None, schedule[-1][1])


def oracle_order_O(ell, lin_pointed, bounds):
    """order_O from its definition, as (kind, level, certificate, bounds).

    Level k solves when some combination x of the nonempty words of at
    most k letters within bounds is a cycle of the inner bar differential
    (images by oracle_inner: every term vanishes, whether in the window or
    not) on which the functional, the unit coefficient of lin_pointed on
    each word, is 1: dense elimination, free variables zero.  Levels run
    from 1 to min(bounds.outer(), max_letters), at least 1; the first that
    solves is the answer, its kind oracle_order_kind's.  None solves:
    not-found at bounds.
    """
    sp = ell.space
    for k in range(1, min(bounds.outer(), max(1, bounds.max_letters)) + 1):
        window = [w for w in oracle_words(sp, min(bounds.max_letters, k),
                                          bounds.max_action) if len(w)]
        images = [oracle_inner(sp, ell, w) for w in window]
        rows = sorted({key for im in images for key in im.terms}, key=repr)
        A = [[lin_pointed.query(len(w), w).terms.get(UNIT_WORD, Fraction(0))
              for w in window]]
        A += [[im.terms.get(r, Fraction(0)) for im in images] for r in rows]
        sol, _ = dense_solve_linear(
            A, [Fraction(1)] + [Fraction(0)] * len(rows))
        if sol is not None:
            return (oracle_order_kind(order_O, lin_pointed, bounds, k), k,
                    Element({w: c for w, c in zip(window, sol) if c}),
                    bounds)
    return ("not-found", None, None, bounds)


def oracle_order_kind(order, lin_pointed, bounds, level):
    """The kind of an order found at level, from the answer semantics.

    A level j below the found one is certified to hold no cycle of
    functional value 1 when one of these holds:
    - order_O and order_O_tilde: the linearized pointed table lin_pointed
      has no constant cell (i, 0) with a nonzero entry and i <= j, so the
      functional vanishes on every word of at most j letters or clusters;
    - order_O only: bounds has no action bound and max_letters >= j, so the
      finite inner bar complex of words of length <= j was searched whole.
    The multi-point orders certify no level (lin_pointed is not read).  The
    answer is exact when every j in 1..level-1 is certified, at-most
    otherwise.
    """
    name = order.__name__
    assert name in ("order_O", "order_O_tilde", "order_multi",
                    "order_multi_tilde"), name

    def certified(j):
        if name in ("order_multi", "order_multi_tilde"):
            return False
        if not any(i <= j for (i, l), cell in lin_pointed.cells.items()
                   if l == 0 and any(cell.values())):
            return True
        return (name == "order_O" and bounds.max_action is None
                and bounds.max_letters >= j)

    return "exact" if all(map(certified, range(1, level))) else "at-most"


def dense_sd_matrices(ell1, umod, ell_point):
    """The dense D and U (entry [output letter][input letter]) and the
    vector f of an sd search's (1,1) differential, endomorphism and (1,0)
    functional cells."""
    n = len(umod.space)

    def matrix(cell):
        m = [[Fraction(0)] * n for _ in range(n)]
        for w_in, elem in cell.items():
            for w_out, c in elem.terms.items():
                m[w_out.letters[0]][w_in.letters[0]] = c
        return m
    f = [Fraction(0)] * n
    for w_in, elem in ell_point.cells.get((1, 0), {}).items():
        f[w_in.letters[0]] = elem.terms.get(UNIT_WORD, Fraction(0))
    return (matrix(ell1.cells.get((1, 1), {})),
            matrix(umod.table.cells.get((1, 1), {})), f)


def oracle_sd_certificate(ell1, umod, ell_point, level, certificate):
    """Whether certificate is a pair (z, y) of chains over the generators
    with D z = 0, f(z) = 1 and U^(level+1) z = D y, by dense evaluation."""
    D, U, f = dense_sd_matrices(ell1, umod, ell_point)
    n = len(f)
    gens = [Word((j,)) for j in range(n)]
    z, y = certificate
    if not set(z.terms) | set(y.terms) <= set(gens):
        return False
    z, y = ([chain.terms.get(w, Fraction(0)) for w in gens] for chain in (z, y))

    def mat_vec(A, v):
        return [sum(A[i][j] * v[j] for j in range(n)) for i in range(n)]
    return (not any(mat_vec(D, z)) and sum(a * b for a, b in zip(f, z)) == 1
            and mat_vec(_mat_power(U, level + 1), z) == mat_vec(D, y))


def oracle_sd_order(ell1, umod, ell_point):
    """sd_order with one dense system per power of U, each solved by the
    dense elimination."""
    if any(kl != (1, 1) for kl in ell1.cells):
        raise StructureError("ell1 must be a linear differential")
    if any(kl != (1, 0) for kl in ell_point.cells):
        raise StructureError("ell_point must be a linear functional")
    D, U, f = dense_sd_matrices(ell1, umod, ell_point)
    n = len(f)
    if _mat_mul(U, D) != _mat_mul(D, U):
        raise StructureError("U does not commute with the differential")
    if any(sum(f[i] * D[i][j] for i in range(n)) != 0 for j in range(n)):
        raise StructureError("the functional is not a chain map")
    cycles = dense_kernel_basis(D, n)
    # nilpotence of the induced map within dim H steps
    power_bound = max(1, len(cycles) - dense_rank(D))
    Upow = _mat_power(U, power_bound)
    for z in cycles:
        v = [sum(Upow[i][j] * z[j] for j in range(n)) for i in range(n)]
        sol, _ = dense_solve_linear(D, v)
        if sol is None:
            raise NotNilpotentError(
                "U^%d is nonzero on homology" % power_bound)
    # feasibility only grows with the power (U commutes with D), so the
    # last step decides whether any class has functional value 1
    for k in range(0, power_bound):
        if _sd_feasible(D, U, f, cycles, k + 1, n) is not None:
            return k
    raise PlanarityNotOneError("no class with functional value 1")


def _sd_feasible(D, U, f, cycles, upower, n):
    """Exists z in span(cycles), y with f(z) = 1 and U^upower z = D y."""
    ncols = len(cycles) + n
    Upow = _mat_power(U, upower)
    rows = []
    rhs = []
    for i in range(n):
        row = [sum(Upow[i][t] * cycles[j][t] for t in range(n))
               for j in range(len(cycles))]
        row += [-D[i][j] for j in range(n)]
        rows.append(row)
        rhs.append(Fraction(0))
    rows.append([sum(f[t] * cycles[j][t] for t in range(n))
                 for j in range(len(cycles))] + [Fraction(0)] * n)
    rhs.append(Fraction(1))
    sol, _ = dense_solve_linear(rows, rhs)
    return sol


def _mat_mul(A, B):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def _mat_power(A, p):
    n = len(A)
    out = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
           for i in range(n)]
    for _ in range(p):
        out = _mat_mul(out, A)
    return out


# ---------------------------------------------------------------------------
# the hierarchy: the componentwise combination rule

def combine_components_oracle(h1, h2):
    """The componentwise rule, spelled out zone by zone, for cross-checks."""
    t1, p1, s1 = h1.components()
    t2, p2, s2 = h2.components()
    t = min(t1, t2)
    p = 0 if (p1 == 0 or p2 == 0) else max(p1, p2)
    if p == 0:
        return HierarchyValue("PT", t)
    if p == 1:
        s = max(s1 if s1 is not None else 0, s2 if s2 is not None else 0)
        return HierarchyValue("SD", s)
    return HierarchyValue("Pl", p)
