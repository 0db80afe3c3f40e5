"""Evaluation of assembled operators on the double symmetric algebra.

Four assembly rules share one sign discipline.  A coderivation-type
operator glues a single operation into a row of clusters, taking one
letter from each of the selected clusters and merging those clusters into
one; the acyclicity of the glued graph is exactly this "one letter per
selected cluster" constraint.  Morphism-type operators consume every
letter, with components of the glued bipartite graph becoming output
clusters.  Multi-point operators glue several operations at once, and the
hbar-graded variant lets one operation take several letters from a
cluster, each extra letter contributing a cycle.

Signs: clusters or letters are first reordered so that the consumed block
sits in front (Koszul crossings of odd items), the operation is applied to
the leading block, and the result is normalized back into canonical order.
An operation of odd parity applied past a graded prefix contributes the
usual passing sign; with the conventions here that only happens for the
marked component of a pointed morphism.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .words import (EElement, Element, UNIT_WORD, koszul_pass_sign,
                    normalize_clusters, normalize_word, selection_sign)


def _letter_parities(space, letters):
    return [space.parities[i] for i in letters]


def _one_letter_choices(clusters):
    """All ways to pick one letter position from each cluster in the list."""
    return itertools.product(*[range(len(c)) for c in clusters])


def apply_coderivation(space, table, x, hbar_shift=0):
    """Apply the coderivation assembled from a (k,l) operation table.

    Sum over sub-multisets of clusters of every size k the table knows,
    one letter extracted per selected cluster, the selected clusters
    merging into the single cluster (output letters) * (leftovers).
    """
    out = EElement()
    for eword, coeff in x.terms.items():
        out = out + _coderivation_on_eword(space, table, eword, coeff, hbar_shift)
    return out


def _coderivation_on_eword(space, table, eword, coeff, hbar_shift):
    clusters = eword.clusters
    n = len(clusters)
    cluster_pars = [space.word_parity(c.letters) for c in clusters]
    acc = {}
    for k in table.input_sizes():
        if k > n:
            continue
        for subset in itertools.combinations(range(n), k):
            sel = [clusters[i] for i in subset]
            if any(len(c) == 0 for c in sel):
                continue
            shuffle_sign = selection_sign(cluster_pars, subset)
            rest = tuple(clusters[i] for i in range(n) if i not in subset)
            flat = [l for c in sel for l in c.letters]
            flat_pars = _letter_parities(space, flat)
            offsets = []
            pos = 0
            for c in sel:
                offsets.append(pos)
                pos += len(c)
            for choice in _one_letter_choices(sel):
                positions = [offsets[j] + choice[j] for j in range(k)]
                sel_sign = selection_sign(flat_pars, positions)
                picked = [flat[p] for p in positions]
                w_in, norm_sign = normalize_word(space, picked)
                if norm_sign == 0:
                    continue
                entry = table.query(len(picked), w_in)
                if not entry:
                    continue
                leftovers = [flat[p] for p in range(len(flat))
                             if p not in set(positions)]
                base = coeff * shuffle_sign * sel_sign * norm_sign
                for w_out, c_out in entry.terms.items():
                    merged, m_sign = normalize_word(
                        space, tuple(w_out.letters) + tuple(leftovers))
                    if m_sign == 0:
                        continue
                    new_ew, c_sign = normalize_clusters(
                        space, (merged,) + rest,
                        hbar=eword.hbar + hbar_shift)
                    if c_sign == 0:
                        continue
                    val = base * c_out * m_sign * c_sign
                    if val:
                        acc[new_ew] = acc.get(new_ew, 0) + val
    return EElement(acc)


def apply_inner_coderivation(space, table, element):
    """The bar differential of an operation family on inner words only.

    Used for the linearized L-infinity structure: select a sub-multiset of
    letters, apply the operation, multiply the output into the leftovers.
    """
    acc = {}
    for word, coeff in element.terms.items():
        letters = word.letters
        pars = _letter_parities(space, letters)
        npos = len(letters)
        for k in table.input_sizes():
            if k > npos:
                continue
            for positions in itertools.combinations(range(npos), k):
                sign = selection_sign(pars, positions)
                picked = [letters[p] for p in positions]
                w_in, n_sign = normalize_word(space, picked)
                if n_sign == 0:
                    continue
                entry = table.query(k, w_in)
                if not entry:
                    continue
                leftovers = [letters[p] for p in range(npos)
                             if p not in set(positions)]
                for w_out, c_out in entry.terms.items():
                    merged, m_sign = normalize_word(
                        space, tuple(w_out.letters) + tuple(leftovers))
                    if m_sign == 0:
                        continue
                    val = coeff * sign * n_sign * m_sign * c_out
                    if val:
                        acc[merged] = acc.get(merged, 0) + val
    return Element(acc)


def _set_partitions(items):
    """All partitions of a list into unordered nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def _acyclic_components(n_clusters, blocks_clusters):
    """Union-find check that the cluster/block incidence graph is a forest.

    blocks_clusters lists, per operation block, the multiset of cluster
    indices its letters come from.  Returns the partition of cluster
    indices into connected components (with block ids attached), or None
    when the graph has a cycle.
    """
    parent = list(range(n_clusters))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for cl_list in blocks_clusters:
        if len(set(cl_list)) != len(cl_list):
            return None  # one block taking two letters of a cluster: cycle
        roots = [find(c) for c in cl_list]
        if len(set(roots)) != len(roots):
            return None  # block closes a loop between clusters
        for r in roots[1:]:
            parent[r] = roots[0]
    comps = {}
    for c in range(n_clusters):
        comps.setdefault(find(c), []).append(c)
    return comps


def apply_morphism(space, table, x, bullet_table=None, bullet_parity=0,
                   target_space=None):
    """Apply the assembled morphism of a (k,l) table to an outer element.

    Every letter is consumed by exactly one operation block, the glued
    bipartite graph must be acyclic, and its connected components become
    the output clusters; unit clusters pass through unchanged.  When
    bullet_table is given, exactly one block is evaluated in it instead
    (the pointed-morphism assembly), with the block's declared parity
    passing the letters that precede it.
    """
    tgt = target_space if target_space is not None else space
    acc = {}
    for eword, coeff in x.terms.items():
        res = _morphism_on_eword(space, tgt, table, eword, bullet_table,
                                 bullet_parity)
        for ew, c in res.items():
            acc[ew] = acc.get(ew, 0) + coeff * c
    return EElement(acc)


def _morphism_on_eword(space, tgt, table, eword, bullet_table, bullet_parity):
    clusters = eword.clusters
    n = len(clusters)
    letters = []
    owner = []
    for ci, c in enumerate(clusters):
        for l in c.letters:
            letters.append(l)
            owner.append(ci)
    pars = _letter_parities(space, letters)
    npos = len(letters)
    acc = {}
    positions = list(range(npos))
    for part in _set_partitions(positions):
        blocks = [sorted(b) for b in part]
        blocks.sort(key=lambda b: b[0])
        comps = _acyclic_components(n, [[owner[p] for p in b] for b in blocks])
        if comps is None:
            continue
        bullet_slots = range(len(blocks)) if bullet_table is not None else (None,)
        for bullet_at in bullet_slots:
            term = _evaluate_blocks(space, tgt, table, eword, blocks, comps,
                                    letters, pars, owner, bullet_table,
                                    bullet_at, bullet_parity)
            for ew, c in term.items():
                acc[ew] = acc.get(ew, 0) + c
    return acc


def _evaluate_blocks(space, tgt, table, eword, blocks, comps, letters, pars,
                     owner, bullet_table, bullet_at, bullet_parity):
    flat_order = [p for b in blocks for p in b]
    sel_sign = _permutation_sign(pars, flat_order)
    if sel_sign == 0:
        return {}
    if bullet_at is not None:
        before = [pars[p] for b in blocks[:bullet_at] for p in b]
        sel_sign *= koszul_pass_sign(bullet_parity, before)
    factors = []
    for bi, b in enumerate(blocks):
        picked = [letters[p] for p in b]
        w_in, n_sign = normalize_word(space, picked)
        if n_sign == 0:
            return {}
        tab = bullet_table if bi == bullet_at else table
        entry = tab.query(len(picked), w_in)
        if not entry:
            return {}
        factors.append((n_sign, entry))
    # expand the product of block outputs, then regroup by component
    comp_of_block = {}
    for root, cl_list in comps.items():
        for bi, b in enumerate(blocks):
            if owner[b[0]] in cl_list:
                comp_of_block[bi] = root
    unit_comps = [root for root, cl_list in comps.items()
                  if not any(owner[p] in cl_list for b in blocks for p in b)]
    acc = {}
    for combo in itertools.product(*[list(e.terms.items()) for _, e in factors]):
        coeff = Fraction(1)
        for (n_sign, _), (_, c_out) in zip(factors, combo):
            coeff = coeff * n_sign * c_out
        coeff *= sel_sign
        out_words = [w for (w, _) in combo]
        out_pars = [tgt.word_parity(w.letters) for w in out_words]
        order = sorted(range(len(blocks)),
                       key=lambda bi: (comp_of_block[bi], bi))
        regroup_sign = _permutation_sign(out_pars, order)
        if regroup_sign == 0:
            continue
        comp_words = {}
        ok = True
        for bi in order:
            comp_words.setdefault(comp_of_block[bi], []).extend(
                out_words[bi].letters)
        out_clusters = []
        for root in sorted(comp_words):
            merged, m_sign = normalize_word(tgt, comp_words[root])
            if m_sign == 0:
                ok = False
                break
            coeff = coeff * m_sign
            out_clusters.append(merged)
        if not ok:
            continue
        out_clusters.extend(UNIT_WORD for _ in unit_comps)
        if not out_clusters:
            continue
        new_ew, c_sign = normalize_clusters(tgt, tuple(out_clusters),
                                            hbar=eword.hbar)
        if c_sign == 0:
            continue
        val = coeff * regroup_sign * c_sign
        if val:
            acc[new_ew] = acc.get(new_ew, 0) + val
    return acc


def _permutation_sign(parities, order):
    """Koszul sign of reordering graded items into the given position order."""
    sign = 1
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b] and parities[order[a]] and parities[order[b]]:
                sign = -sign
    return sign


def apply_multi_pointed(space, tables, x):
    """Glue one operation from each listed table simultaneously (acyclically).

    tables is an ordered list of (table, parity) pairs; every operation
    must consume at least one letter, at most one per cluster, leftovers
    stay put, and connected components of the glued graph merge.  This is
    the middle level of the multiple-point-constraint assembly; the sum
    over set partitions of the constraint set is taken by the caller.
    """
    out = EElement()
    for eword, coeff in x.terms.items():
        res = _multi_on_eword(space, tables, eword)
        out = out + coeff * res
    return out


def _multi_on_eword(space, tables, eword):
    clusters = eword.clusters
    n = len(clusters)
    letters = []
    owner = []
    for ci, c in enumerate(clusters):
        for l in c.letters:
            letters.append(l)
            owner.append(ci)
    pars = _letter_parities(space, letters)
    npos = len(letters)
    acc = {}

    def assign(op_idx, used, chosen):
        if op_idx == len(tables):
            _multi_emit(space, tables, eword, clusters, letters, pars, owner,
                        chosen, acc)
            return
        table, _ = tables[op_idx]
        for k in table.input_sizes():
            for positions in itertools.combinations(
                    [p for p in range(npos) if p not in used], k):
                owners = [owner[p] for p in positions]
                if len(set(owners)) != len(owners):
                    continue  # one operation may take one letter per cluster
                assign(op_idx + 1, used | set(positions), chosen + [positions])

    assign(0, frozenset(), [])
    return EElement(acc)


def _multi_emit(space, tables, eword, clusters, letters, pars, owner, chosen,
                acc):
    blocks_clusters = [[owner[p] for p in positions] for positions in chosen]
    comps = _acyclic_components(len(clusters), blocks_clusters)
    if comps is None:
        return
    # move the consumed letters to the front, grouped by operation
    used_set = {p for positions in chosen for p in positions}
    flat_order = [p for positions in chosen for p in positions]
    rest_order = [p for p in range(len(letters)) if p not in used_set]
    sign = _permutation_sign(pars, flat_order + rest_order)
    if sign == 0:
        return
    prefix = []
    factors = []
    for op_idx, positions in enumerate(chosen):
        table, parity = tables[op_idx]
        picked = [letters[p] for p in positions]
        w_in, n_sign = normalize_word(space, picked)
        if n_sign == 0:
            return
        sign *= koszul_pass_sign(parity, prefix)
        prefix.extend(pars[p] for p in positions)
        entry = table.query(len(picked), w_in)
        if not entry:
            return
        factors.append((n_sign, entry))
    comp_of_op = {}
    for root, cl_list in comps.items():
        for op_idx, positions in enumerate(chosen):
            if owner[positions[0]] in cl_list:
                comp_of_op[op_idx] = root
    leftovers = rest_order
    n_ops = len(chosen)
    for combo in itertools.product(*[list(e.terms.items()) for _, e in factors]):
        coeff = Fraction(1) * sign
        for (n_sign, _), (_, c_out) in zip(factors, combo):
            coeff = coeff * n_sign * c_out
        if not coeff:
            continue
        out_words = [w for (w, _) in combo]
        # current order: one item per operation output, then the leftover
        # letters in original order; regroup everything by component
        item_pars = ([space.word_parity(w.letters) for w in out_words] +
                     [pars[p] for p in leftovers])
        target = []
        out_clusters = []
        ok = True
        for root, cl_list in sorted(comps.items()):
            if any(comp_of_op[oi] == root for oi in range(n_ops)):
                cluster_letters = []
                for oi in range(n_ops):
                    if comp_of_op[oi] == root:
                        target.append(oi)
                        cluster_letters.extend(out_words[oi].letters)
                for li, p in enumerate(leftovers):
                    if owner[p] in cl_list:
                        target.append(n_ops + li)
                        cluster_letters.append(letters[p])
                merged, m_sign = normalize_word(space, cluster_letters)
                if m_sign == 0:
                    ok = False
                    break
                coeff = coeff * m_sign
                out_clusters.append(merged)
            else:
                for ci in cl_list:
                    for li, p in enumerate(leftovers):
                        if owner[p] == ci:
                            target.append(n_ops + li)
                    out_clusters.append(clusters[ci])
        if not ok:
            continue
        coeff = coeff * _permutation_sign(item_pars, target)
        if not coeff:
            continue
        new_ew, c_sign = normalize_clusters(space, tuple(out_clusters),
                                            hbar=eword.hbar)
        if c_sign == 0:
            continue
        val = coeff * c_sign
        if val:
            acc[new_ew] = acc.get(new_ew, 0) + val


def apply_ibl(space, table, x, hbar_cap):
    """Apply the cycle-permitting hbar-graded coderivation.

    One operation of genus g may take several letters from each of r
    distinct clusters; taking j letters in total raises the output hbar
    exponent by g + j - r.  Terms beyond hbar_cap are discarded (the hard
    quotient by hbar^(cap+1)).
    """
    acc = {}
    for eword, coeff in x.terms.items():
        if eword.hbar > hbar_cap:
            continue
        clusters = eword.clusters
        n = len(clusters)
        cluster_pars = [space.word_parity(c.letters) for c in clusters]
        for subset in _nonempty_subsets(n):
            sel = [clusters[i] for i in subset]
            if any(len(c) == 0 for c in sel):
                continue
            shuffle_sign = selection_sign(cluster_pars, subset)
            rest = tuple(clusters[i] for i in range(n) if i not in set(subset))
            flat = [l for c in sel for l in c.letters]
            flat_pars = _letter_parities(space, flat)
            bounds_per = []
            pos = 0
            for c in sel:
                bounds_per.append((pos, pos + len(c)))
                pos += len(c)
            r = len(subset)
            for counts in _positive_counts(sel):
                j_total = sum(counts)
                for positions in _multi_letter_choices(bounds_per, counts):
                    sel_sign = selection_sign(flat_pars, positions)
                    picked = [flat[p] for p in positions]
                    w_in, n_sign = normalize_word(space, picked)
                    if n_sign == 0:
                        continue
                    for g, entry in table.query_by_genus(j_total, w_in):
                        new_h = eword.hbar + g + j_total - r
                        if new_h > hbar_cap:
                            continue
                        leftovers = [flat[p] for p in range(len(flat))
                                     if p not in set(positions)]
                        base = coeff * shuffle_sign * sel_sign * n_sign
                        for w_out, c_out in entry.terms.items():
                            merged, m_sign = normalize_word(
                                space, tuple(w_out.letters) + tuple(leftovers))
                            if m_sign == 0:
                                continue
                            new_ew, c_sign = normalize_clusters(
                                space, (merged,) + rest, hbar=new_h)
                            if c_sign == 0:
                                continue
                            val = base * c_out * m_sign * c_sign
                            if val:
                                acc[new_ew] = acc.get(new_ew, 0) + val
    return EElement(acc)


def _nonempty_subsets(n):
    for k in range(1, n + 1):
        yield from itertools.combinations(range(n), k)


def _positive_counts(sel):
    """All tuples (j_1..j_r) with 1 <= j_i <= len(cluster i)."""
    return itertools.product(*[range(1, len(c) + 1) for c in sel])


def _multi_letter_choices(bounds_per, counts):
    """Choose counts[i] letter positions inside each cluster's range."""
    pools = [itertools.combinations(range(lo, hi), cnt)
             for (lo, hi), cnt in zip(bounds_per, counts)]
    for combo in itertools.product(*pools):
        yield [p for block in combo for p in block]
