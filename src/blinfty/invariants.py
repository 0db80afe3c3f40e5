"""Hierarchy invariants: torsion, planarity orders, widths, multi-point
orders, and semi-dilation from a supplied endomorphism.  The least solvable
level of each, and ibl.torsion_grid's one level, is found by one loop,
_search, fed by one level builder, _level; _search alone decides each
answer's kind, and a search states only its reasons for certifying a
smaller level unsolvable.  Every level is one sparse system, of which
_solve hands only the target row's connected component to
linalg.solve_linear, once per level; semi-dilation's unknowns are a pair
(z, y) of chains, its certificate, and its nilpotence check is two ranks.

The windows hold only the support: torsion, the torsion grid and the two
single-point orders pass their tables to the window builders
(_outer_window, structures._split_words), which drop every word on which
each of them vanishes (assembly.vanishes).  Such a word's column and
functional value are zero, so it is never a pivot and no answer or
certificate moves.  The multi-point orders keep their whole windows.
Every answer is built once and names its problem, what its search read
after the case of verify(answer) that re-checks it by evaluation: those of
torsion, order_O, sd_order, the torsion grid and the transports do."""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import assembly
from .errors import (IncompleteTableError, InconclusiveError,
                     NotNilpotentError, PlanarityNotOneError,
                     PlanarityZeroError, StructureError)
from .linalg import rank, solve_linear
from .structures import (Augmentation, OperationTable, PointedMap,
                         _images_for, _require, _split_word_table,
                         _split_words, apply_hat_phi, check_structure,
                         ell_table, f_eps, is_augmentation, linearize,
                         linearize_pointed)
from .symbolic import SymPoly
from .words import (EElement, Element, EWord, GradedSpace, UNIT_EWORD,
                    UNIT_WORD, Word, enumerate_basis)


class TorsionAnswer:
    """The answer of a search: torsion, an order or semi-dilation.

    value kind: 'exact' | 'at-most' | 'not-found'; level when found;
    problem: (verify's case, *what the search read), or None."""

    def __init__(self, kind, level=None, certificate=None, bounds=None,
                 problem=None):
        self.kind = kind
        self.level = level
        self.certificate = certificate
        self.bounds = bounds
        self.problem = problem

    def found(self):
        return self.kind in ("exact", "at-most")

    def __repr__(self):
        if self.found():
            return "TorsionAnswer(%s %d)" % (self.kind, self.level)
        return "TorsionAnswer(not-found-within %r)" % (self.bounds,)


# ---------------------------------------------------------------------------
# the bounded search: one level builder, one level loop

def _once(image):
    """image, evaluated at most once per basis element, with a memo that
    lives as long as one search: _level evaluates each image once per
    lettered part.  Columns may share the memoized terms dicts, so no
    column is mutated: _search and _solve copy them."""
    memo = {}

    def image_once(b):
        out = memo.get(b)
        if out is None:
            out = memo[b] = image(b)
        return out
    return image_once


def _solve(basis, columns, target):
    """Solve sum_j x_j columns[j] = target over the basis span.

    Returns {basis element: coeff} with free variables zero, or None.  Only
    the target row's connected component reaches the elimination: the
    columns and rows joined to the target row through nonzero entries,
    found by a breadth-first search over rows and columns.  Permuted by
    component, the system is block diagonal, and only the target's block
    has a nonzero right-hand side.  A column is a pivot (one of the
    leftmost independent columns) exactly when it is one inside its own
    block, since blocks share no row; so every other block's pivot
    variables solve to 0, its free ones are 0 anyway, and the whole system
    solves exactly when the target's block does.  The component's columns
    keep their order, so the solution, and so the certificate, is the
    unrestricted one term for term and in the same order.  A target row
    that meets no column is a 1 x 0 system, still one solve.
    """
    by_row = {}
    for j, col in enumerate(columns):
        for key, c in col.items():
            if c:
                by_row.setdefault(key, []).append(j)
    rows, live = {target: 0}, set()
    queue = [target]
    for key in queue:  # grows as the search reaches new rows
        for j in by_row.get(key, ()):
            if j not in live:
                live.add(j)
                for other, c in columns[j].items():
                    if c and other not in rows:
                        rows[other] = len(rows)
                        queue.append(other)
    live = sorted(live)
    # int zeros: the elimination's sparse pass tests each empty cell
    # without a Python-level Fraction.__bool__
    A = [[0] * len(live) for _ in range(len(rows))]
    for i, j in enumerate(live):
        for key, c in columns[j].items():
            if c:
                A[rows[key]][i] = c
    b = [0] * len(rows)
    b[0] = Fraction(1)
    sol, _ = solve_linear(A, b)
    if sol is None:
        return None
    return {basis[j]: x for j, x in zip(live, sol) if x}


def _level(window, image):
    """A search's level function: at (k, bounds), the basis window(k,
    bounds) and the sparse column {row: coeff} of image(b) for each basis
    element b, rows keyed by output term.  A term outside the window is
    one more row of the linear system, so a window the image leaves still
    gives a sound search.

    The image is evaluated once per lettered part per search.  The gluing
    operators leave unit clusters untouched (every operation takes a
    letter), so an outer word of n unit clusters beside lettered ones has
    the image of its lettered part with the n units put in front of each
    term: units are even and sort first, so no sign, sort or zero test
    changes.  Columns are equal term by term, and so are the answers."""
    image = _once(image)

    def column(b):
        if isinstance(b, EWord):  # an inner word has no unit clusters
            clusters, n = b.clusters, 0
            while n < len(clusters) and not clusters[n].letters:
                n += 1
            if 0 < n < len(clusters):
                units = clusters[:n]
                return {EWord(units + ew.clusters, ew.hbar): c for ew, c in
                        image(EWord(clusters[n:], b.hbar)).terms.items()}
        return image(b).terms

    def level(k, bounds):
        basis = window(k, bounds)
        return basis, [column(b) for b in basis]
    return level


# the row of the functional in an order search's linear system
_FUNCTIONAL = object()


def _search(levels, level, closed, target=_FUNCTIONAL, functional=None,
            problem=None, shift=0, certificate=Element):
    """The first (k, bounds) of levels, in order, at which some combination
    of the columns of level(k, bounds) is 1 in the target row and 0 in every
    other; functional, if given, fills the target row.

    Every answer is decided and built here, naming problem.  The first
    solvable level k gives one at level k - shift, certificate(solution) as
    certificate: 'exact' when closed(j, b) certifies every level j < k
    unsolvable, b being the bounds j was last searched at or None if the
    levels skipped j, and 'at-most' otherwise.  No level solves:
    'not-found' at the last bounds.  No levels: ValueError."""
    if not levels:
        raise ValueError("empty search: no level >= 1 within the bounds")
    if functional is not None:
        functional = _once(functional)
    searched = {}
    for k, bounds in levels:
        basis, columns = level(k, bounds)
        if functional is not None:
            columns = [{**col, target: functional(b)}
                       for b, col in zip(basis, columns)]
        sol = _solve(basis, columns, target)
        if sol is not None:
            exact = all(closed(j, searched.get(j)) for j in range(1, k))
            return TorsionAnswer("exact" if exact else "at-most", k - shift,
                                 certificate(sol), bounds, problem)
        searched[k] = bounds
    return TorsionAnswer("not-found", bounds=levels[-1][1], problem=problem)


def _outer_window(sp, units, cap=None, support=None):
    """(k, bounds) -> the outer words of at most k clusters within bounds,
    unit clusters only when units, each of at most cap letters.

    With a support (a tuple of tables), a word on whose letters every
    table vanishes (assembly.vanishes; unit clusters carry no letters) is
    dropped: every column and functional the search reads from those
    tables' coderivations is zero there, and nothing raises.  A zero
    column is never a pivot, so the answer and its certificate do not
    move.  None keeps the whole window.  Dropping words keeps key order,
    and the window of k clusters stays a prefix of that of k + 1."""
    def window(k, bounds):
        words = enumerate_basis(
            sp, bounds.max_letters, bounds.max_action, outer_components=k,
            allow_units=units, max_cluster_letters=cap)
        if support is None:
            return words
        kept = []
        for ew in words:
            letters = tuple([l for c in ew.clusters for l in c.letters])
            for table in support:
                if not assembly.vanishes(table, letters):
                    kept.append(ew)
                    break
        return kept
    return window


# ---------------------------------------------------------------------------
# the torsion search

def _level_structurally_closed(table, level):
    """No constant cell with few enough inputs: the unit coefficient of the
    assembled operator vanishes identically on words of <= level clusters."""
    return not any(l == 0 and k <= level for (k, l) in table.cells)


def _level_action_closed(alg, bounds):
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


def torsion(alg, schedule, images=None):
    """Search p-hat(x) = 1 through a schedule of (cluster bound, Bounds).

    The first solvable level k yields value k-1.  A smaller level is
    certified unsolvable structurally (no constant cells reach it) or, at
    the bounds it was searched at, by the action-filtration argument; see
    _search for the kind.  An empty schedule raises ValueError.  The
    structure check at the last bounds reads p-hat from images (see
    SplitImages), and the search starts from the check's images.  Both
    skip the words where p-hat vanishes (assembly.vanishes).
    """
    if schedule:  # an empty one is _search's ValueError
        status = check_structure(alg, schedule[-1][1], images)
        _require(status, "structure")
        images = status.images
    return _search(
        schedule, _level(_outer_window(alg.space, True, support=(alg.table,)),
                         lambda ew: images.image(alg.table,
                                                 EElement.monomial(ew))),
        lambda j, b: _level_structurally_closed(alg.table, j) or (
            b is not None and _level_action_closed(alg, b)),
        UNIT_EWORD, problem=(verify_torsion_certificate, alg), shift=1)


def default_schedule(max_level, bounds):
    return [(k, bounds) for k in range(1, max_level + 1)]


def verify(answer, images=None):
    """Re-check a found answer by evaluation at answer.bounds through its
    problem's case, reading images where held; ValueError if it names none."""
    if not answer.found():
        return True
    if answer.problem is None:
        raise ValueError("%r names no problem to verify" % (answer,))
    return answer.problem[0](*answer.problem[1:], answer, images)


def verify_torsion_certificate(alg, answer, images=None):
    """verify's torsion case: p-hat of the certificate (read from images
    where held) is the unit, and no word has more than level + 1 clusters."""
    out = _images_for(alg, images).image(alg.table, answer.certificate)
    if out != EElement.monomial(UNIT_EWORD):
        return False
    return all(len(ew.clusters) <= answer.level + 1
               for ew in answer.certificate.terms)


def transport_torsion(phi, answer):
    """A found torsion answer of phi's source pushed through phi-hat: an
    'at-most' answer of phi's target at the same level and bounds, which
    verify re-checks (phi-hat o p-hat = p'-hat o phi-hat, and phi-hat keeps
    the unit).  An answer that found nothing raises ValueError."""
    if not answer.found():
        raise ValueError("no certificate to transport")
    return TorsionAnswer("at-most", answer.level,
                         apply_hat_phi(phi, answer.certificate), answer.bounds,
                         (verify_torsion_certificate, phi.target))


# ---------------------------------------------------------------------------
# planarity orders

def _functional_from_constants(lin_pointed, word):
    elem = lin_pointed.query(len(word), word)
    return elem.terms.get(UNIT_WORD, Fraction(0))


def _order(bounds, level, functional, closed, problem=None):
    """An order: the least level k <= bounds.outer() with a cycle of
    functional value 1, its solution as certificate; a smaller level j is
    certified unsolvable when closed(j, bounds).  No level above
    max_letters is searched: every cluster takes a letter, so no window
    grows there."""
    top = min(bounds.outer(), max(1, bounds.max_letters))
    return _search(default_schedule(top, bounds), level, closed,
                   functional=functional, problem=problem)


def _linearized(eps, bounds, images):
    if eps is None:
        raise PlanarityZeroError("order requires an augmentation")
    return linearize(eps, bounds, images)


def order_O(eps, pmap, bounds, images=None):
    """Least word length whose linearized bar homology hits the constant
    functional value 1.  p-hat and P-hat are read from images, their
    algebra's (see SplitImages).  A word where both the linearized
    differential and the linearized pointed table vanish
    (assembly.vanishes) is a zero column with functional value 0, and is
    left out of every level."""
    ell = ell_table(_linearized(eps, bounds, images))
    lpt = linearize_pointed(pmap, eps, bounds, images)
    # the inner bar complex: words of length 1..k within bounds under the
    # linearized bar differential.  The length-j complexes are finite, so
    # an unrestricted enumeration makes a failed level j conclusive; the
    # functional reads lpt's constant cells, so the support is (ell, lpt)
    return _order(
        bounds, _level(lambda k, b: _split_words(ell.space, b, k,
                                                 support=(ell, lpt)),
                       lambda w: assembly.apply_inner_coderivation(
                           ell, Element.monomial(w))),
        lambda w: _functional_from_constants(lpt, w),
        lambda j, b: (b.max_action is None and b.max_letters >= j)
        or _level_structurally_closed(lpt, j), (_verify_order, eps, pmap))


def order_O_tilde(eps, pmap, bounds):
    """The unreduced variant: outer words of nonempty clusters, with the
    unit-coefficient functional of the linearized pointed operator.  The
    words where both linearized tables vanish are left out, as in
    order_O."""
    lin = _linearized(eps, bounds, None)
    lpt = linearize_pointed(pmap, eps, bounds)
    return _order(
        bounds, _level(_outer_window(eps.source.space, False,
                                     support=(lin, lpt)),
                       lambda ew: assembly.apply_coderivation(
                           lin, EElement.monomial(ew))),
        lambda ew: assembly.apply_coderivation(
            lpt, EElement.monomial(ew)).unit_coefficient(),
        lambda j, b: _level_structurally_closed(lpt, j))


def _verify_order(eps, pmap, answer, images):
    """verify's order_O case, at the bounds the answer names: its
    certificate c is a chain of inner words of at most level letters, the
    linearized bar differential d_ell(c) = 0, and the functional of pmap
    linearized at eps (its constant cells) is 1 on c."""
    c = answer.certificate
    if not all(isinstance(w, Word) and len(w) <= answer.level
               for w in c.terms):
        return False
    ell = ell_table(_linearized(eps, answer.bounds, images))
    lpt = linearize_pointed(pmap, eps, answer.bounds, images)
    return (not assembly.apply_inner_coderivation(ell, c)
            and sum((x * _functional_from_constants(lpt, w)
                     for w, x in c.terms.items()), Fraction(0)) == 1)


def width(eword):
    """Largest m with every cluster cap exceeded: max cluster length - 1."""
    return max(len(c) for c in eword.clusters) - 1


def project_width(x, m):
    """Kill outer words containing a cluster longer than m."""
    return EElement({ew: c for ew, c in x.terms.items()
                     if all(len(cl) <= m for cl in ew.clusters)})


def _multi_linearized(family, eps, bounds, images):
    """Linearize each constraint-subset table separately."""
    return {frozenset(S): linearize_pointed(PointedMap(eps.source, tab), eps,
                                            bounds, images)
            for S, tab in family.items()}


def apply_multi_pointed_linearized(lin_family, m, x):
    """Sum over set partitions of the constraint labels, gluing the
    partition's linearized operators simultaneously."""
    acc = {}
    for keys in _label_partitions(tuple(range(1, m + 1)), lin_family):
        tables = [(lin_family[key], lin_family[key].parity) for key in keys]
        for ew, c in assembly.apply_multi_pointed(tables, x).terms.items():
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


def _order_multi(eps, family, m, bounds, cap, images):
    if m < 1:
        raise ValueError("a multi-point order needs m >= 1 points, got %d"
                         % m)
    if next(_label_partitions(tuple(range(1, m + 1)),
                              set(map(frozenset, family))), None) is None:
        raise ValueError("no set partition of the points 1..%d has all its "
                         "blocks in the family" % m)
    lin = _linearized(eps, bounds, images)
    lin_family = _multi_linearized(family, eps, bounds, images)

    def d(ew):
        out = assembly.apply_coderivation(lin, EElement.monomial(ew))
        return out if cap is None else project_width(out, cap)

    return _order(
        bounds, _level(_outer_window(eps.source.space, False, cap), d),
        lambda ew: apply_multi_pointed_linearized(
            lin_family, m, EElement.monomial(ew)).unit_coefficient(),
        lambda j, b: False)


def order_multi(eps, family, m, bounds, images=None):
    """Multi-point order on the width-truncated double bar complex.

    family maps each nonempty subset of {1..m} to its operation table; the
    complex caps every cluster at m letters, and the functional is the unit
    coefficient of the multi-point operator.  A family with no set
    partition of {1..m} into its subsets raises ValueError, as does m < 1.
    p-hat and each table's P-hat are read from images, eps's algebra's (see
    SplitImages).  Each level's window is searched whole: the multi-point
    functional glues several tables at once, which assembly.vanishes does
    not speak of.
    """
    return _order_multi(eps, family, m, bounds, m, images)


def order_multi_tilde(eps, family, m, bounds):
    """The untruncated multi-point variant on outer words, each window
    searched whole as in order_multi."""
    return _order_multi(eps, family, m, bounds, None, None)


def transport_order(phi, eps, pmap, answer):
    """A found order_O answer at eps' = eps o phi (the augmentation it
    names) pushed through the linearized morphism pi_1 o F_eps-hat o
    phi-hat o F_{-eps'}-hat, a chain map of the inner bar complexes, as in
    transport_torsion: an order_O answer at eps and pmap, a pointed map of
    phi's target compatible with the source's."""
    if not answer.found():
        raise ValueError("no certificate to transport")
    _, source_eps, _ = answer.problem
    bounds = answer.bounds
    f_minus_src = f_eps(source_eps, -1)
    f_plus_tgt = f_eps(eps, +1)
    phi_eps = _split_word_table(
        phi.source.space, lambda x: assembly.apply_morphism(
            f_plus_tgt.table,
            apply_hat_phi(phi, apply_hat_phi(f_minus_src, x)),
            single_cluster=True),
        0, bounds, target=phi.target.space, constants=False)
    return TorsionAnswer("at-most", answer.level, _apply_inner_morphism(
        ell_table(phi_eps), answer.certificate), bounds,
        (_verify_order, eps, pmap))


def _apply_inner_morphism(table, element):
    """The bar-complex morphism assembled from single-output components:
    the assembled morphism on split words, each image term flattened into
    one normalized word."""
    return assembly._flatten(table.target, assembly.apply_morphism(
        table, assembly._split(element)))


# ---------------------------------------------------------------------------
# semi-dilation

def sd_order(eps, pmap, umod, bounds, images=None):
    """_sd_search on eps's linearized structure and pmap linearized at eps,
    p-hat and P-hat read from images (see SplitImages); the answer names
    the bounds it was linearized at.  A U over another space than eps's
    raises StructureError."""
    lin = _linearized(eps, bounds, images)
    if umod.space is not eps.source.space:
        raise StructureError("U over another space than eps's algebra")
    return _sd_search(lin, umod, linearize_pointed(pmap, eps, bounds, images),
                      bounds, (_verify_sd, eps, pmap, umod))


def _linear(cell):
    """The linear map of a (1, l) cell {one-letter Word: image} on chains,
    Elements over one-letter Words."""
    return lambda chain: sum((c * cell.get(w, Element())
                              for w, c in chain.terms.items()), Element())


def _sd_maps(lin, umod, lpt):
    """D, U and f of the semi-dilation system as linear maps on chains: the
    (1,1) cells of lin and of U's table and the (1,0) cell of lpt."""
    return (_linear(t.cells.get(kl, {})) for t, kl in (
        (lin, (1, 1)), (umod.table, (1, 1)), (lpt, (1, 0))))


def _verify_sd(eps, pmap, umod, answer, images):
    """verify's sd_order case, at the bounds the answer names: its pair
    (z, y) are chains over one-letter words, D z = 0, f(z) = 1 and
    U^(level+1) z = D y, with D, U and f read as _sd_search reads them from
    eps's linearized structure and pmap linearized at eps."""
    bounds = answer.bounds
    D, U, f = _sd_maps(_linearized(eps, bounds, images), umod,
                       linearize_pointed(pmap, eps, bounds, images))
    gens = {Word((j,)) for j in range(len(umod.space))}
    z, y = answer.certificate
    if not set(z.terms) | set(y.terms) <= gens:
        return False
    power = z
    for _ in range(answer.level + 1):
        power = U(power)
    return (not D(z) and f(z) == Element.monomial(UNIT_WORD)
            and power == D(y))


def _sd_search(lin, umod, lpt, bounds=None, problem=None):
    """Least k with a homology class of functional value 1 annihilated by
    U^(k+1), as _search's answer at bounds naming problem; its certificate
    is a pair (z, y) of chains with D z = 0, f(z) = 1 and U^(k+1) z = D y.

    D is the (1,1) cell of lin, the linearized differential, and f the
    (1,0) cell of lpt, the linearized functional.  U must commute with D
    and be nilpotent on homology; no class of functional value 1 raises
    PlanarityNotOneError.
    """
    D, U, f = _sd_maps(lin, umod, lpt)
    gens = [Word((j,)) for j in range(len(umod.space))]
    e = [Element.monomial(w) for w in gens]
    if any(U(D(g)) != D(U(g)) for g in e):
        raise StructureError("U does not commute with the differential")
    if any(f(D(g)) for g in e):
        raise StructureError("the functional is not a chain map")

    def rows(family, chain):  # the chain's entries in one row family
        return {(family, w): c for w, c in chain.terms.items()}

    # unknowns z_j, then y_j, in generator order; rows D z = 0, U^p z -
    # D y = 0 and the functional f(z) = 1, in the families d, u and f
    fixed = [{**rows("d", D(g)), **rows("f", f(g))} for g in e]
    y_cols = [rows("u", -1 * D(g)) for g in e]

    def columns(power):  # power: U^p e_j for each j
        return [{**c, **rows("u", u)} for c, u in zip(fixed, power)] + y_cols

    def rank_of(cols):
        return rank([[c.get((t, w), 0) for t in "du" for w in gens]
                     for c in cols])

    rank_D = rank_of(y_cols)  # -D on the u rows
    # nilpotence of the induced map within dim H steps
    power_bound = max(1, len(gens) - 2 * rank_D)
    powers = [e]  # powers[p]: U^p e_j for each j
    for _ in range(power_bound):
        powers.append([U(v) for v in powers[-1]])
    # the kernel of M = [[D, 0], [U^N, -D]] (these columns, d and u rows)
    # projects onto the cycles, so every U^N z is a boundary, iff rank M =
    # 2 rank D; M is block-triangular, so rank M is never less
    if rank_of(columns(powers[-1])) != 2 * rank_D:
        raise NotNilpotentError("U^%d is nonzero on homology" % power_bound)
    # feasibility grows with the power (U commutes with D), so the last
    # level decides whether a class has functional value 1.  No level has
    # a window (each spans all of homology), so a failed level is certified
    basis = [(t, w) for t in "zy" for w in gens]
    ans = _search([(k, bounds) for k in range(power_bound)],
                  lambda k, _: (basis, columns(powers[k + 1])),
                  lambda j, b: True, ("f", UNIT_WORD), problem=problem,
                  certificate=lambda sol: tuple(
                      Element({w: c for (t, w), c in sol.items() if t == part})
                      for part in "zy"))
    if not ans.found():
        raise PlanarityNotOneError("no class with functional value 1")
    return ans


# ---------------------------------------------------------------------------
# planarity over a supplied augmentation set

def planarity(augmentations, pmap, bounds, torsion_answer=None,
              images=None):
    """Max of the order over the supplied augmentations of pmap's algebra
    alg; an augmentation of another algebra raises StructureError.

    An empty augmentation set is only conclusive when finite torsion
    certifies that no augmentation exists (the empty maximum is zero), or
    when the space is all-even and the symbolic generic-augmentation probe
    shows the order does not depend on the augmentation at all.  A caller
    that holds torsion(alg, default_schedule(bounds.outer(), bounds))
    passes it as torsion_answer; otherwise the search runs here.  The
    augmentation checks and the orders share images, alg's (see
    SplitImages).
    """
    alg = pmap.algebra
    for eps in augmentations:
        if eps.source is not alg:
            raise StructureError("augmentation of another algebra")
        status = is_augmentation(eps, bounds, images)
        if not status.ok:
            raise StructureError("supplied augmentation fails to verify")
        images = status.images
    if not augmentations:
        t = torsion_answer
        if t is None:
            t = torsion(alg, default_schedule(bounds.outer(), bounds), images)
        if t.found():
            return TorsionAnswer("exact", 0, None, bounds)
        if alg.space.all_even():
            return _planarity_generic_even(pmap, bounds, images)
        raise InconclusiveError(
            "no augmentations supplied and torsion not certified finite")
    best = None
    for eps in augmentations:
        ans = order_O(eps, pmap, bounds, images)
        if not ans.found():
            return TorsionAnswer("not-found", bounds=bounds)
        if best is None or ans.level > best.level:
            best = ans
    return best


def _symbolic_generic_aug(alg, bounds):
    """An augmentation with one indeterminate value on each even split word
    within bounds.  Its entries are the words themselves, not images, so
    the whole window is kept."""
    even = [w for w in _split_words(alg.space, bounds)
            if alg.space.word_parity(w.letters) == 0]
    entries = [(len(w), 0, w,
                Element.monomial(UNIT_WORD, SymPoly.var("e%d" % i)))
               for i, w in enumerate(even)]
    tab = OperationTable(alg.space, 0, entries, complete=False,
                         max_k=bounds.max_letters, target=GradedSpace(()))
    return Augmentation(alg, tab)


def _planarity_generic_even(pmap, bounds, images):
    """All-even shortcut: every functional family is an augmentation, so
    probe with symbolic values; if no assembled coefficient depends on
    them, the zero-augmentation answer is the answer for all of them."""
    alg = pmap.algebra
    eps_sym = _symbolic_generic_aug(alg, bounds)
    try:
        lin = linearize(eps_sym, bounds, images)
        lpt = linearize_pointed(pmap, eps_sym, bounds, images)
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
    return order_O(eps0, pmap, bounds, images)
