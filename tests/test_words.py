import itertools
import random
from fractions import Fraction

import pytest

from blinfty.fixtures import torsion_ladder
from blinfty.words import (Generator, GradedSpace, Word, EWord, Element,
                           EElement, UNIT_WORD, UNIT_EWORD, normalize_word,
                           normalize_clusters, enumerate_basis,
                           _normalize_indices)

from util import bubble_normalize, oracle_window, oracle_words, random_space


def space(*spec):
    """spec: ('name', parity) or ('name', parity, action)."""
    gens = []
    for s in spec:
        if len(s) == 2:
            gens.append(Generator(s[0], s[1]))
        else:
            gens.append(Generator(s[0], s[1], action=s[2]))
    return GradedSpace(gens)


def bubble_sign_oracle(space_, letters):
    """Brute-force bubble sort counting odd-odd swaps; None when it vanishes."""
    seq = list(letters)
    pars = [space_.parities[i] for i in seq]
    for i, j in itertools.combinations(range(len(seq)), 2):
        if seq[i] == seq[j] and pars[i] and pars[j]:
            return None
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
    return sign


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("g", 2)
    with pytest.raises(ValueError):
        Generator("g", 0, zgrade=3)
    with pytest.raises(ValueError):
        Generator("g", 1, action=0)
    Generator("g", 1, zgrade=-1, action=Fraction(1, 2))


def test_space_rejects_duplicates():
    with pytest.raises(ValueError):
        space(("a", 0), ("a", 1))


def test_normalize_even_letters_trivial():
    sp = space(("a", 0), ("b", 0))
    w, sign = normalize_word(sp, ["a", "b"])
    assert w == Word((0, 1)) and sign == 1


def test_normalize_odd_transposition():
    sp = space(("a", 1), ("b", 1))
    w, sign = normalize_word(sp, ["b", "a"])
    assert w == Word((0, 1)) and sign == -1


def test_normalize_repeated_odd_vanishes():
    sp = space(("q", 1),)
    _, sign = normalize_word(sp, ["q", "q"])
    assert sign == 0


def test_normalize_unknown_generator():
    sp = space(("a", 0),)
    with pytest.raises(KeyError):
        normalize_word(sp, ["zz"])


def test_normalize_sign_matches_bubble_oracle():
    rng = random.Random(7)
    sp = space(("a", 1), ("b", 0), ("c", 1), ("d", 0), ("e", 1), ("f", 1))
    for _ in range(300):
        seq = [rng.randrange(6) for _ in range(6)]
        oracle = bubble_sign_oracle(sp, seq)
        w, sign = normalize_word(sp, seq)
        if oracle is None:
            assert sign == 0
        else:
            assert sign == oracle
            assert w.letters == tuple(sorted(seq))


def test_normalize_idempotent():
    rng = random.Random(11)
    sp = space(("a", 1), ("b", 0), ("c", 1))
    for _ in range(100):
        seq = [rng.randrange(3) for _ in range(5)]
        w, sign = normalize_word(sp, seq)
        if sign == 0:
            continue
        w2, sign2 = normalize_word(sp, w.letters)
        assert sign2 == 1 and w2 == w


def test_sign_coherence_under_permutation():
    # sign(sigma applied) * sign(sort of sigma applied) == sign(sort of original)
    rng = random.Random(13)
    sp = space(("a", 1), ("b", 1), ("c", 0), ("d", 1))
    for _ in range(200):
        seq = rng.sample([0, 1, 2, 3] * 2, 5)
        _, s_orig = normalize_word(sp, seq)
        perm = list(range(5))
        rng.shuffle(perm)
        applied = [seq[p] for p in perm]
        pars = [sp.parities[i] for i in seq]
        s_perm = 1
        for i, j in itertools.combinations(range(5), 2):
            if perm[i] > perm[j] and pars[perm[i]] and pars[perm[j]]:
                s_perm = -s_perm
        _, s_applied = normalize_word(sp, applied)
        if s_orig == 0:
            assert s_applied == 0
        else:
            assert s_perm * s_applied == s_orig


def test_ewords_normalize_and_vanish():
    sp = space(("q", 1),)
    qw = Word((0,))
    ew, sign = normalize_clusters(sp, (qw, qw))
    assert sign == 0
    sp2 = space(("g", 0),)
    gw = Word((0,))
    ew, sign = normalize_clusters(sp2, (gw, gw))
    assert sign == 1 and ew.clusters == (gw, gw)


def test_equal_words_built_apart_hash_equal():
    # Word and EWord store their hash at construction, so equal words built
    # separately (from a list, a tuple, a normalization) must still agree;
    # an hbar exponent alone tells outer words apart
    sp = space(("q", 1), ("x", 0))
    w, sign = normalize_word(sp, ["x", "q"])
    assert sign == 1
    for other in (Word([0, 1]), Word((0, 1)), Word(iter([0, 1]))):
        assert other == w and hash(other) == hash(w)
    assert Word((1, 0)) != w
    ew, _ = normalize_clusters(sp, (Word((1,)), w))
    twin = EWord([Word([1]), Word([0, 1])])
    assert twin == ew and hash(twin) == hash(ew)
    assert {ew: 1}[twin] == 1
    lifted = EWord(ew.clusters, hbar=1)
    assert lifted != ew and lifted == EWord(list(ew.clusters), 1)
    assert hash(lifted) == hash(EWord(list(ew.clusters), 1))
    assert ew not in {lifted: 1}


def multiset_count_oracle(n_gens, parities, max_letters, outer):
    """Brute-force enumeration of outer words by raw multiset counting."""
    words = set()
    for k in range(max_letters + 1):
        for combo in itertools.combinations_with_replacement(range(n_gens), k):
            if any(parities[g] and combo.count(g) > 1 for g in combo):
                continue
            words.add(combo)
    ewords = set()
    wlist = sorted(words, key=lambda w: (len(w), w))
    for r in range(1, outer + 1):
        for clusters in itertools.combinations_with_replacement(wlist, r):
            if sum(len(c) for c in clusters) > max_letters:
                continue
            odd = [c for c in clusters
                   if sum(parities[g] for g in c) % 2 == 1]
            if any(odd.count(c) > 1 for c in odd):
                continue
            ewords.add(tuple(sorted(clusters, key=lambda c: (len(c), c))))
    return len(ewords)


def test_enumerate_words_basic():
    sp = space(("a", 0), ("b", 0))
    basis = enumerate_basis(sp, 1)
    assert basis == [UNIT_WORD, Word((0,)), Word((1,))]


def test_enumerate_ewords_contents_and_count():
    sp = space(("a", 0), ("b", 0))
    basis = enumerate_basis(sp, 2, outer_components=2)
    aw, bw = Word((0,)), Word((1,))
    expected_members = [
        EWord((aw, bw)), EWord((Word((0, 1)),)), EWord((UNIT_WORD, aw)),
        EWord((UNIT_WORD, UNIT_WORD)), EWord((Word((0, 0)),)),
        EWord((Word((1, 1)),)),
    ]
    for m in expected_members:
        assert m in basis
    # frozen via the multiset oracle below: 15 outer words
    assert len(basis) == 15
    assert len(basis) == multiset_count_oracle(2, [0, 0], 2, 2)


def test_enumerate_ewords_random_counts_match_oracle():
    rng = random.Random(5)
    for _ in range(6):
        n = rng.randrange(1, 4)
        pars = [rng.randrange(2) for _ in range(n)]
        sp = GradedSpace([Generator("g%d" % i, pars[i]) for i in range(n)])
        ml = rng.randrange(0, 4)
        oc = rng.randrange(1, 4)
        got = len(enumerate_basis(sp, ml, outer_components=oc))
        assert got == multiset_count_oracle(n, pars, ml, oc)


def test_enumerate_action_bound():
    sp = space(("a", 0, 1), ("b", 0, 3))
    basis = enumerate_basis(sp, 3, max_action=2)
    # only words over a of length <= 2, plus the unit
    assert basis == [UNIT_WORD, Word((0,)), Word((0, 0))]


def test_enumerate_action_missing_errors():
    sp = space(("a", 0, 1), ("b", 0))
    with pytest.raises(ValueError):
        enumerate_basis(sp, 2, max_action=1)


@pytest.mark.parametrize("units", [False, True])
def test_enumerate_refuses_fewer_than_one_cluster(units):
    # no outer word has fewer than one cluster
    sp = space(("a", 0), ("b", 1))
    for oc in (0, -1):
        with pytest.raises(ValueError):
            enumerate_basis(sp, 2, outer_components=oc, allow_units=units)


def test_enumerate_monotone_in_max_letters():
    sp = space(("a", 1), ("b", 0))
    prev = set()
    for ml in range(4):
        cur = set(enumerate_basis(sp, ml, outer_components=2))
        assert prev <= cur
        prev = cur


def test_element_arithmetic_drops_zeros():
    a = Element.monomial(UNIT_WORD, Fraction(1, 2))
    b = Element.monomial(UNIT_WORD, Fraction(-1, 2))
    assert not (a + b)
    assert (2 * a).terms[UNIT_WORD] == 1
    x = EElement.monomial(UNIT_EWORD, Fraction(3))
    assert (x - x) == EElement()


def test_normalizers_match_bubble_oracle_seeded():
    # the engine's two sort-and-sign normalizers against literal adjacent
    # swaps, sign-0 forms included: a vanishing word or outer word still
    # comes back sorted
    rng = random.Random(4242)
    signs, shapes = [], {"unit": 0, "equal even": 0, "one cluster": 0}
    for _ in range(1500):
        sp = random_space(rng, n=rng.randint(1, 4))
        # plain letters, repeats of odd and even generators included
        idx = [rng.randrange(len(sp)) for _ in range(rng.randint(0, 7))]
        word, sign = _normalize_indices(sp, list(idx))
        want = bubble_normalize(sp, idx)
        assert sign == want[1]
        assert word == Word(want[0] if want[1] else sorted(idx))
        signs.append(want[1])
        # the oracle sorts the clusters' ranks in a space of one generator
        # per cluster, of the cluster's parity
        clusters = [Word(tuple(sorted(rng.randrange(len(sp))
                                      for _ in range(rng.randint(0, 3)))))
                    for _ in range(rng.randint(0, 5))]
        if not clusters:
            with pytest.raises(ValueError):
                normalize_clusters(sp, clusters)
            continue
        distinct = sorted(set(clusters), key=lambda c: c.key())
        csp = GradedSpace([Generator("c%d" % r, sp.word_parity(c.letters))
                           for r, c in enumerate(distinct)])
        ranks = [distinct.index(c) for c in clusters]
        ew, sign = normalize_clusters(sp, tuple(clusters), hbar=len(idx))
        want = bubble_normalize(csp, ranks)
        assert sign == want[1]
        assert ew == EWord([distinct[r] for r in want[0]] if want[1] else
                           sorted(clusters, key=lambda c: c.key()), len(idx))
        signs.append(want[1])
        shapes["unit"] += UNIT_WORD in clusters
        shapes["equal even"] += any(
            ranks.count(r) > 1 and not csp.parities[r] for r in ranks)
        shapes["one cluster"] += len(clusters) == 1
    assert min(signs.count(s) for s in (-1, 0, 1)) >= 100
    assert min(shapes.values()) >= 100, shapes


def test_enumerate_ewords_matches_brute_force_seeded():
    # the outer-word enumeration stops at the first word longer than the
    # letters left; the output must be every admissible multiset, in order,
    # and each smaller cluster bound's window a prefix of it
    rng = random.Random(3131)
    for trial in range(80):
        n = rng.randint(1, 3)
        with_action = trial % 2 == 0
        sp = space(*[("g%d" % i, rng.randrange(2))
                     + ((rng.randint(1, 3),) if with_action else ())
                     for i in range(n)])
        ml = rng.randint(0, 4) if trial < 8 else rng.randint(2, 4)
        ma = Fraction(rng.randint(2, 8), rng.choice((1, 2))) \
            if with_action else None
        oc = rng.randint(1, 3)
        units = rng.random() < 0.7
        mcl = rng.choice((None, 1, 2))
        got = enumerate_basis(sp, ml, ma, outer_components=oc,
                              allow_units=units, max_cluster_letters=mcl)
        assert got == oracle_window(sp, ml, ma, oc, units, mcl), (
            sp.parities, ml, ma, oc, units, mcl)
        # the window of k clusters is a prefix of the window of oc
        for k in range(1, oc):
            smaller = enumerate_basis(sp, ml, ma, outer_components=k,
                                      allow_units=units,
                                      max_cluster_letters=mcl)
            assert got[:len(smaller)] == smaller, (
                sp.parities, ml, ma, k, oc, units, mcl)


def test_enumerate_words_matches_brute_force_seeded():
    # inner words are generated in normal form; the output must be every
    # nonzero multiset within the bounds, in key order
    rng = random.Random(1717)
    for trial in range(120):
        n = rng.randint(1, 4)
        with_action = trial % 2 == 0
        sp = space(*[("g%d" % i, rng.randrange(2))
                     + ((rng.randint(1, 3),) if with_action else ())
                     for i in range(n)])
        ml = rng.randint(0, 5)
        ma = Fraction(rng.randint(0, 8), rng.choice((1, 2))) \
            if with_action else None
        mcl = rng.choice((None, 0, 1, 2, 3))
        got = enumerate_basis(sp, ml, ma, max_cluster_letters=mcl)
        assert got == oracle_words(sp, ml, ma, mcl), (
            sp.parities, ml, ma, mcl)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_torsion_ladder_windows_strictly_increasing(n):
    # no outer word is generated twice, so the windows need no de-duplication
    sp = torsion_ladder(n).space
    for k in range(1, 7):
        keys = [ew.key() for ew in enumerate_basis(sp, 6, outer_components=k)]
        assert all(a < b for a, b in zip(keys, keys[1:])), (n, k)
