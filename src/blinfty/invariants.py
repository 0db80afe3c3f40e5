"""Hierarchy invariants: bar complexes, torsion, planarity orders, widths,
multi-point orders, and semi-dilation from a supplied endomorphism."""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import assembly
from .errors import (InconclusiveError, NotNilpotentError,
                     PlanarityNotOneError, PlanarityZeroError, StructureError,
                     WindowLeakError)
from .linalg import ChainComplex, kernel_basis, rank, solve_linear
from .structures import (Augmentation, OperationTable, PointedMap,
                         _split_word_table, apply_hat_p, apply_hat_phi,
                         check_structure, compose, ell_table, f_eps,
                         is_augmentation, linearize, linearize_pointed)
from .symbolic import SymPoly
from .words import (EElement, Element, GradedSpace, UNIT_EWORD, UNIT_WORD,
                    enumerate_basis, eword_parity)


class TorsionAnswer:
    """The answer of a torsion or order search.

    value kind: 'exact' | 'at-most' | 'not-found'; level when found.
    """

    def __init__(self, kind, level=None, certificate=None, bounds=None):
        self.kind = kind
        self.level = level
        self.certificate = certificate
        self.bounds = bounds

    def found(self):
        return self.kind in ("exact", "at-most")

    def __repr__(self):
        if self.found():
            return "TorsionAnswer(%s %d)" % (self.kind, self.level)
        return "TorsionAnswer(not-found-within %r)" % (self.bounds,)


class UModule:
    """A parity-0 endomorphism of the generator space, nilpotent on the
    linearized homology; grade -2 when integer grades are present."""

    def __init__(self, space, table):
        if table.parity != 0:
            raise StructureError("U must have parity 0")
        for (k, l) in table.cells:
            if (k, l) != (1, 1):
                raise StructureError("U must be a linear endomorphism")
        if all(g.zgrade is not None for g in space.generators):
            for (_, _), cell in table.cells.items():
                for w_in, elem in cell.items():
                    zin = space.generators[w_in.letters[0]].zgrade
                    for w_out in elem.terms:
                        zout = space.generators[w_out.letters[0]].zgrade
                        if zout != zin - 2:
                            raise StructureError(
                                "U entry %r does not have degree -2" % (w_in,))
        self.space = space
        self.table = table

    def matrix(self):
        n = len(self.space)
        m = [[Fraction(0)] * n for _ in range(n)]
        for (k, l), cell in self.table.cells.items():
            for w_in, elem in cell.items():
                j = w_in.letters[0]
                for w_out, c in elem.terms.items():
                    m[w_out.letters[0]][j] = c
        return m


# ---------------------------------------------------------------------------
# bounded solves: sparse columns over a basis window, one exact solve

def _columns(basis, image, window=None):
    """The sparse column {row: coeff} of image(b) for each basis element b,
    rows keyed by output term.  Given a closed window (term -> row index),
    a term outside it raises WindowLeakError."""
    columns = []
    for b in basis:
        terms = image(b).terms
        if window is not None:
            for key in terms:
                if key not in window:
                    raise WindowLeakError(
                        "image %r of %r outside the basis window" % (key, b))
            terms = {window[key]: c for key, c in terms.items()}
        columns.append(terms)
    return columns


def _once(image):
    """image, evaluated at most once per basis element.

    The memo is local to one search: it lives as long as the returned
    function, which one torsion or order search makes and drops.  Columns
    built from it may share the memoized Element.terms dicts, so no column
    is ever mutated: _solve copies them into a dense matrix and
    _order_search copies them with {**col, ...}.
    """
    memo = {}

    def image_once(b):
        out = memo.get(b)
        if out is None:
            out = memo[b] = image(b)
        return out
    return image_once


def _solve(basis, columns, target):
    """Solve sum_j x_j columns[j] = target over the basis span.

    Returns {basis element: coeff} with free variables zero, or None.
    """
    rows = {target: 0}
    for col in columns:
        for key in col:
            rows.setdefault(key, len(rows))
    A = [[Fraction(0)] * len(basis) for _ in range(len(rows))]
    for j, col in enumerate(columns):
        for key, c in col.items():
            A[rows[key]][j] = c
    b = [Fraction(0)] * len(rows)
    b[0] = Fraction(1)
    sol, _ = solve_linear(A, b)
    if sol is None:
        return None
    return {basis[j]: sol[j] for j in range(len(basis)) if sol[j]}


def _closed_complex(basis, image, parity):
    """The ChainComplex of image on a window that must contain it."""
    window = {b: i for i, b in enumerate(basis)}
    columns = _columns(basis, image, window)
    return ChainComplex(basis, dict(enumerate(columns)),
                        [parity(b) for b in basis])


# ---------------------------------------------------------------------------
# bar complexes and the torsion search

def _EkV_basis(alg, k, bounds):
    return enumerate_basis(alg.space, bounds.max_letters, bounds.max_action,
                           outer_components=k, allow_units=True)


def _hat_p_image(alg):
    return lambda ew: apply_hat_p(alg, EElement.monomial(ew))


def build_EkV(alg, k, bounds):
    """The outer bar complex with at most k clusters (units allowed).

    Raises WindowLeakError when the differential leaves the enumerated
    window; enlarge max_letters or supply an action bound with action_drop.
    """
    return _closed_complex(_EkV_basis(alg, k, bounds), _hat_p_image(alg),
                           lambda ew: eword_parity(alg.space, ew))


def _level_structurally_closed(table, level):
    """No constant cell with few enough inputs: the unit coefficient of the
    assembled operator vanishes identically on words of <= level clusters."""
    return not any(l == 0 and k <= level for (k, l) in table.cells)


def _level_action_closed(alg, level, bounds):
    """The action-filtration closure of the spec's certified-answer rule:
    within the searched action range the level search was exhaustive."""
    if not (alg.table.action_drop and bounds.max_action is not None):
        return False
    delta = alg.space.min_action()
    if delta is None or delta <= 0:
        return False
    constants = [alg.space.word_action(w.letters)
                 for (k, l), cell in alg.table.cells.items() if l == 0
                 for w in cell]
    if constants and bounds.max_action < max(constants):
        return False
    return bounds.max_letters >= bounds.max_action / delta


def torsion(alg, schedule):
    """Search p-hat(x) = 1 through a schedule of (cluster bound, Bounds).

    The first solvable level k yields value k-1; the answer is 'exact' when
    every smaller level is certified unsolvable, either structurally (no
    constant cells reach it) or by the action-filtration argument, and
    'at-most' otherwise.  An empty schedule raises ValueError.
    """
    if not schedule:
        raise ValueError("empty torsion schedule: no cluster bound >= 1")
    status = check_structure(alg, schedule[-1][1])
    if not status.ok:
        raise StructureError("structure fails: witness %r" % (status.witness,))
    certified = {}
    # the levels' bases are nested: each word's image is computed once
    image = _once(_hat_p_image(alg))
    for (k, bounds) in schedule:
        basis = _EkV_basis(alg, k, bounds)
        sol = _solve(basis, _columns(basis, image), UNIT_EWORD)
        if sol is not None:
            exact = all(certified.get(j, _level_structurally_closed(
                alg.table, j)) for j in range(1, k))
            return TorsionAnswer("exact" if exact else "at-most",
                                 k - 1, EElement(sol), bounds)
        certified[k] = (_level_structurally_closed(alg.table, k)
                        or _level_action_closed(alg, k, bounds))
    return TorsionAnswer("not-found", bounds=schedule[-1][1])


def default_schedule(max_level, bounds):
    return [(k, bounds) for k in range(1, max_level + 1)]


def verify_torsion_certificate(alg, answer):
    if not answer.found():
        return True
    out = apply_hat_p(alg, answer.certificate)
    if out != EElement.monomial(UNIT_EWORD):
        return False
    return all(len(ew.clusters) <= answer.level + 1
               for ew in answer.certificate.terms)


def torsion_monotone_check(phi, src_answer, bounds):
    """Push a source torsion certificate through the morphism and confirm
    it certifies the target at the same or smaller level."""
    if not src_answer.found():
        raise ValueError("no certificate to transport")
    image = apply_hat_phi(phi, src_answer.certificate)
    ok = apply_hat_p(phi.target, image) == EElement.monomial(UNIT_EWORD)
    tgt_level = max(len(ew.clusters) for ew in image.terms) - 1 if image else 0
    return {
        "transported": ok,
        "source_level": src_answer.level,
        "target_level_bound": tgt_level,
        "monotone": ok and tgt_level <= src_answer.level,
        "certificate": image,
    }


# ---------------------------------------------------------------------------
# planarity orders

def bar_B_k(ell, k, bounds):
    """The inner bar complex on words of length 1..k with the linearized
    bar differential."""
    basis = [w for w in enumerate_basis(ell.space, min(k, bounds.max_letters),
                                        bounds.max_action) if len(w) >= 1]
    return _closed_complex(
        basis,
        lambda w: assembly.apply_inner_coderivation(ell.space, ell,
                                                    Element.monomial(w)),
        lambda w: ell.space.word_parity(w.letters))


def _functional_from_constants(lin_pointed, word):
    elem = lin_pointed.query(len(word), word)
    return elem.terms.get(UNIT_WORD, Fraction(0))


# the row of the functional in an order search's linear system
_FUNCTIONAL = object()


def _order_search(bounds, level, functional, kind, wrap):
    """The least level k <= bounds.outer() with a cycle of functional
    value 1: level(k) gives the basis and differential columns,
    functional(b) the value on a basis element, kind(k) the answer kind,
    and wrap turns the solution into a certificate."""
    functional = _once(functional)
    for k in range(1, bounds.outer() + 1):
        basis, columns = level(k)
        columns = [{**col, _FUNCTIONAL: functional(b)}
                   for b, col in zip(basis, columns)]
        sol = _solve(basis, columns, _FUNCTIONAL)
        if sol is not None:
            return TorsionAnswer(kind(k), k, wrap(sol), bounds)
    return TorsionAnswer("not-found", bounds=bounds)


def _outer_level(sp, lin, bounds, cap=None):
    """Outer words of at most k nonempty clusters, each of at most cap
    letters, under the linearized coderivation projected to that cap.  The
    levels' bases are nested, so d is computed once per word per search."""
    @_once
    def d(ew):
        out = assembly.apply_coderivation(sp, lin, EElement.monomial(ew))
        return out if cap is None else project_width(out, cap)

    def level(k):
        basis = enumerate_basis(sp, bounds.max_letters, bounds.max_action,
                                outer_components=k, allow_units=False,
                                max_cluster_letters=cap)
        return basis, _columns(basis, d)
    return level


def _order_kind(lin_pointed, found_k):
    """'exact' when every level below the found one is structurally closed:
    constant cells with at most that many inputs all vanish."""
    if found_k == 1:
        return "exact"
    if _level_structurally_closed(lin_pointed, found_k - 1):
        return "exact"
    return "at-most"


def _linearized(alg, eps, bounds):
    if eps is None:
        raise PlanarityZeroError("order requires an augmentation")
    return linearize(alg, eps, bounds)


def order_O(alg, eps, pmap, bounds):
    """Least word length whose linearized bar homology hits the constant
    functional value 1."""
    ell = ell_table(_linearized(alg, eps, bounds))
    lpt = linearize_pointed(pmap, alg, eps, bounds)

    def level(k):
        cx = bar_B_k(ell, k, bounds)
        return cx.basis, cx.columns

    def kind(k):
        # the length-j complexes are finite, so an unrestricted
        # enumeration makes the failed smaller levels conclusive
        if bounds.max_action is None and bounds.max_letters >= k:
            return "exact"
        return _order_kind(lpt, k)

    return _order_search(bounds, level,
                         lambda w: _functional_from_constants(lpt, w),
                         kind, Element)


def order_O_tilde(alg, eps, pmap, bounds):
    """The unreduced variant: outer words of nonempty clusters, with the
    unit-coefficient functional of the linearized pointed operator."""
    lin = _linearized(alg, eps, bounds)
    lpt = linearize_pointed(pmap, alg, eps, bounds)
    sp = alg.space
    return _order_search(
        bounds, _outer_level(sp, lin, bounds),
        lambda ew: assembly.apply_coderivation(
            sp, lpt, EElement.monomial(ew)).unit_coefficient(),
        lambda k: _order_kind(lpt, k), EElement)


def width(eword):
    """Largest m with every cluster cap exceeded: max cluster length - 1."""
    return max(len(c) for c in eword.clusters) - 1


def project_width(x, m):
    """Kill outer words containing a cluster longer than m."""
    return EElement({ew: c for ew, c in x.terms.items()
                     if all(len(cl) <= m for cl in ew.clusters)})


def _multi_linearized(family, alg, eps, bounds):
    """Linearize each constraint-subset table separately."""
    return {frozenset(S): linearize_pointed(PointedMap(alg, tab), alg, eps,
                                            bounds)
            for S, tab in family.items()}


def apply_multi_pointed_linearized(space, lin_family, m, x):
    """Sum over set partitions of the constraint labels, gluing the
    partition's linearized operators simultaneously."""
    acc = {}
    for keys in _label_partitions(tuple(range(1, m + 1)), lin_family):
        tables = [(lin_family[key], lin_family[key].parity) for key in keys]
        for ew, c in assembly.apply_multi_pointed(space, tables, x).terms.items():
            acc[ew] = acc.get(ew, 0) + c
    return EElement(acc)


def _label_partitions(labels, family):
    """The set partitions of labels whose blocks are all keys of family,
    blocks in ascending order of their smallest label."""
    if not labels:
        yield []
        return
    first, rest = labels[0], labels[1:]
    for r in range(len(rest) + 1):
        for others in itertools.combinations(rest, r):
            key = frozenset((first,) + others)
            if key in family:
                for tail in _label_partitions(
                        tuple(l for l in rest if l not in others), family):
                    yield [key] + tail


def _order_multi(alg, eps, family, m, bounds, cap):
    lin = _linearized(alg, eps, bounds)
    lin_family = _multi_linearized(family, alg, eps, bounds)
    sp = alg.space
    return _order_search(
        bounds, _outer_level(sp, lin, bounds, cap),
        lambda ew: apply_multi_pointed_linearized(
            sp, lin_family, m, EElement.monomial(ew)).unit_coefficient(),
        lambda k: "exact" if k == 1 else "at-most", EElement)


def order_multi(alg, eps, family, m, bounds):
    """Multi-point order on the width-truncated double bar complex.

    family maps each nonempty subset of {1..m} to its operation table; the
    complex caps every cluster at m letters, and the functional is the unit
    coefficient of the multi-point operator.
    """
    return _order_multi(alg, eps, family, m, bounds, cap=m)


def order_multi_tilde(alg, eps, family, m, bounds):
    """The untruncated multi-point variant on outer words."""
    return _order_multi(alg, eps, family, m, bounds, cap=None)


def order_functoriality_check(phi, p_bullet, q_bullet, eps_target, bounds):
    """Transport a source order certificate through the linearized morphism
    and confirm it certifies the target order at the same level.

    eps_target is an augmentation of phi.target; the source augmentation is
    its pullback along phi.
    """
    eps_src_mor = compose(eps_target, phi, bounds)
    eps_src = Augmentation(phi.source, eps_src_mor.table)
    if not is_augmentation(eps_src, phi.source, bounds).ok:
        raise StructureError("pulled-back augmentation fails to verify")
    src_answer = order_O(phi.source, eps_src, p_bullet, bounds)
    if not src_answer.found():
        return {"source": src_answer, "transported": None, "holds": True}
    # phi_eps^{k,l} = pi_{1,l} o F_eps o phi-hat o F_{-eps o phi}
    f_minus_src = f_eps(eps_src, -1)
    f_plus_tgt = f_eps(eps_target, +1)
    sp_src, sp_tgt = phi.source.space, phi.target.space
    phi_eps = _split_word_table(
        sp_src, lambda x: assembly.apply_morphism(
            f_plus_tgt.source.space, f_plus_tgt.table,
            apply_hat_phi(phi, apply_hat_phi(f_minus_src, x)),
            single_cluster=True),
        0, bounds, target=sp_tgt, constants=False)
    transported = _apply_inner_morphism(sp_src, sp_tgt, ell_table(phi_eps),
                                        src_answer.certificate)
    lin_tgt = linearize(phi.target, eps_target, bounds)
    lpt_tgt = linearize_pointed(q_bullet, phi.target, eps_target, bounds)
    ell_tgt = ell_table(lin_tgt)
    closed = not assembly.apply_inner_coderivation(sp_tgt, ell_tgt, transported)
    f_val = sum((_functional_from_constants(lpt_tgt, w) * c
                 for w, c in transported.terms.items()), Fraction(0))
    tgt_level = max((len(w) for w in transported.terms), default=0)
    holds = closed and f_val == 1 and tgt_level <= src_answer.level
    return {
        "source": src_answer,
        "transported": transported,
        "closed": closed,
        "functional_value": f_val,
        "target_level_bound": tgt_level,
        "holds": holds,
    }


def _apply_inner_morphism(src, tgt, table_k1, element):
    """The bar-complex morphism assembled from single-output components:
    the assembled morphism on split words, each image term flattened into
    one normalized word."""
    return assembly._flatten(tgt, assembly.apply_morphism(
        src, table_k1, assembly._split(element), target_space=tgt))


# ---------------------------------------------------------------------------
# semi-dilation

def sd_order(ell1, umod, ell_point):
    """Least k with a linearized homology class of functional value 1
    annihilated by U^(k+1).

    ell1: the (1,1) linear differential table on the generator space;
    ell_point: the (1,0) functional table.  U must commute with the
    differential exactly and be nilpotent on homology.
    """
    sp = umod.space
    n = len(sp)
    D = [[Fraction(0)] * n for _ in range(n)]
    for (k, l), cell in ell1.cells.items():
        if (k, l) != (1, 1):
            raise StructureError("ell1 must be a linear differential")
        for w_in, elem in cell.items():
            for w_out, c in elem.terms.items():
                D[w_out.letters[0]][w_in.letters[0]] = c
    U = umod.matrix()
    f = [Fraction(0)] * n
    for (k, l), cell in ell_point.cells.items():
        if (k, l) != (1, 0):
            raise StructureError("ell_point must be a linear functional")
        for w_in, elem in cell.items():
            f[w_in.letters[0]] = elem.terms.get(UNIT_WORD, Fraction(0))
    if _mat_mul(U, D) != _mat_mul(D, U):
        raise StructureError("U does not commute with the differential")
    if any(x != 0 for x in _vec_mat(f, D)):
        raise StructureError("the functional is not a chain map")
    cycles = kernel_basis(D, n)
    # nilpotence of the induced map within dim H steps
    power_bound = max(1, len(cycles) - rank(D))
    Upow = _mat_power(U, power_bound)
    for z in cycles:
        v = _mat_vec(Upow, z)
        sol, _ = solve_linear(D, v)
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
    sol, _ = solve_linear(rows, rhs)
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


def _mat_vec(A, v):
    return [sum(A[i][j] * v[j] for j in range(len(v))) for i in range(len(A))]


def _vec_mat(v, A):
    return [sum(v[i] * A[i][j] for i in range(len(A))) for j in range(len(A))]


# ---------------------------------------------------------------------------
# planarity over a supplied augmentation set

def planarity(alg, augmentations, pmap, bounds, torsion_answer=None):
    """Max of the order over the supplied augmentations.

    An empty augmentation set is only conclusive when finite torsion
    certifies that no augmentation exists (the empty maximum is zero), or
    when the space is all-even and the symbolic generic-augmentation probe
    shows the order does not depend on the augmentation at all.  A caller
    that holds torsion(alg, default_schedule(bounds.outer(), bounds))
    passes it as torsion_answer; otherwise the search runs here.
    """
    for eps in augmentations:
        if not is_augmentation(eps, alg, bounds).ok:
            raise StructureError("supplied augmentation fails to verify")
    if not augmentations:
        t = torsion_answer
        if t is None:
            t = torsion(alg, default_schedule(bounds.outer(), bounds))
        if t.found():
            return TorsionAnswer("exact", 0, None, bounds)
        if alg.space.all_even():
            return _planarity_generic_even(alg, pmap, bounds)
        raise InconclusiveError(
            "no augmentations supplied and torsion not certified finite")
    best = None
    for eps in augmentations:
        ans = order_O(alg, eps, pmap, bounds)
        if not ans.found():
            return TorsionAnswer("not-found", bounds=bounds)
        if best is None or ans.level > best.level:
            best = ans
    return best


def _symbolic_generic_aug(alg, bounds):
    entries = []
    counter = [0]
    for w in enumerate_basis(alg.space, bounds.max_letters, bounds.max_action):
        if len(w) < 1 or alg.space.word_parity(w.letters) != 0:
            continue
        var = SymPoly.var("e%d" % counter[0])
        counter[0] += 1
        entries.append((len(w), 0, w,
                        Element.monomial(UNIT_WORD, var)))
    tab = OperationTable(alg.space, 0, entries, complete=False,
                         max_k=bounds.max_letters, target=GradedSpace(()))
    return Augmentation(alg, tab)


def _planarity_generic_even(alg, pmap, bounds):
    """All-even shortcut: every functional family is an augmentation, so
    probe with symbolic values; if no assembled coefficient depends on
    them, the zero-augmentation answer is the answer for all of them."""
    from .errors import IncompleteTableError
    eps_sym = _symbolic_generic_aug(alg, bounds)
    try:
        lin = linearize(alg, eps_sym, bounds)
        lpt = linearize_pointed(pmap, alg, eps_sym, bounds)
    except IncompleteTableError as e:
        raise InconclusiveError(
            "generic-augmentation probe exceeded the symbolic window: %s"
            % e) from None
    for tab in (lin, lpt):
        for (k, l), cell in tab.cells.items():
            for w, elem in cell.items():
                for c in elem.terms.values():
                    if isinstance(c, SymPoly) and not c.is_constant():
                        raise InconclusiveError(
                            "order depends on the augmentation at cell "
                            "(%d,%d) %r" % (k, l, w))
    eps0 = Augmentation(alg, OperationTable(alg.space, 0, (),
                                            target=GradedSpace(())))
    return order_O(alg, eps0, pmap, bounds)
