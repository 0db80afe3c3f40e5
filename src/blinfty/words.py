"""Graded generators, symmetric words and Koszul sign bookkeeping.

Everything downstream works over a fixed finite list of generators with a
Z/2 parity.  Inner words (elements of the symmetric algebra on the space)
are stored as sorted tuples of generator indices; outer words are sorted
tuples of inner words together with an hbar exponent.  All normalization
signs follow the Koszul-Quillen convention: transposing two odd items
costs a sign, and a repeated odd item kills the monomial.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


class Generator:
    """A named generator with Z/2 parity, optional integer grade and action."""

    __slots__ = ("name", "parity", "zgrade", "action")

    def __init__(self, name, parity, zgrade=None, action=None):
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1, got %r" % (parity,))
        if zgrade is not None and zgrade % 2 != parity:
            raise ValueError("generator %s: zgrade %d does not match parity %d"
                             % (name, zgrade, parity))
        if action is not None:
            action = Fraction(action)
            if action <= 0:
                raise ValueError("generator %s: action must be positive" % name)
        self.name = str(name)
        self.parity = parity
        self.zgrade = zgrade
        self.action = action

    def __repr__(self):
        return "Generator(%r, parity=%d)" % (self.name, self.parity)


class GradedSpace:
    """An ordered list of generators; declaration order is the canonical order."""

    def __init__(self, generators):
        gens = tuple(generators)
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        self.generators = gens
        self._index = {g.name: i for i, g in enumerate(gens)}
        self.parities = tuple(g.parity for g in gens)

    def __len__(self):
        return len(self.generators)

    def index(self, name):
        try:
            return self._index[name]
        except KeyError:
            raise KeyError("unknown generator %r" % (name,)) from None

    def word_parity(self, letters):
        return sum(self.parities[i] for i in letters) % 2

    def word_action(self, letters):
        total = Fraction(0)
        for i in letters:
            a = self.generators[i].action
            if a is None:
                raise ValueError("generator %s has no action" % self.generators[i].name)
            total += a
        return total

    def all_even(self):
        return all(p == 0 for p in self.parities)

    def min_action(self):
        acts = [g.action for g in self.generators]
        if any(a is None for a in acts) or not acts:
            return None
        return min(acts)


class Word:
    """An inner symmetric word: a sorted tuple of generator indices.  The
    hash is stored at construction; nothing reassigns letters."""

    __slots__ = ("letters", "_hash")

    def __init__(self, letters):
        self.letters = tuple(letters)
        self._hash = hash(("W", self.letters))

    def key(self):
        return (len(self.letters), self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return "Word%r" % (self.letters,)


UNIT_WORD = Word(())


class EWord:
    """An outer word: a sorted tuple of clusters (Words) and an hbar
    exponent, its hash stored as Word's is."""

    __slots__ = ("clusters", "hbar", "_hash")

    def __init__(self, clusters, hbar=0):
        if not clusters:
            raise ValueError("EWord needs at least one cluster")
        if hbar < 0:
            raise ValueError("negative hbar exponent")
        self.clusters = tuple(clusters)
        self.hbar = hbar
        self._hash = hash(("E", self.clusters, hbar))

    def key(self):
        return (self.hbar, len(self.clusters),
                tuple(c.key() for c in self.clusters))

    def __eq__(self, other):
        return (isinstance(other, EWord) and self.clusters == other.clusters
                and self.hbar == other.hbar)

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key() < other.key()

    def __repr__(self):
        return "EWord(%r, hbar=%d)" % (self.clusters, self.hbar)


UNIT_EWORD = EWord((UNIT_WORD,))


def _inversion_sign(odd):
    """The Koszul sign of sorting graded items by key, from the keys of
    the odd items in their order (only odd items carry a sign): (-1) to
    the number of inversions among them, or 0 when two are equal."""
    sign = 1
    for i in range(len(odd) - 1):
        a = odd[i]
        for b in odd[i + 1:]:
            if a > b:
                sign = -sign
            elif a == b:
                return 0
    return sign


def normalize_word(space, letters):
    """Sort a letter sequence into a Word, with the Koszul sign.

    Letters may be generator names or indices.  Returns (word, sign) where
    sign is 0 when a repeated odd generator makes the monomial vanish.
    """
    idx = [space.index(l) if isinstance(l, str) else int(l) for l in letters]
    for i in idx:
        if not 0 <= i < len(space):
            raise KeyError("generator index %d out of range" % i)
    return _normalize_indices(space, idx)


def _normalize_indices(space, idx):
    """normalize_word on a list of generator indices known to be in range,
    the form every letter takes inside the engine."""
    if len(idx) < 2:
        return Word(idx), 1
    par = space.parities
    return Word(sorted(idx)), _inversion_sign([i for i in idx if par[i]])


def normalize_clusters(space, clusters, hbar=0):
    """Sort clusters into an EWord, with the Koszul sign (0 if it vanishes)."""
    if len(clusters) == 1:
        return EWord(clusters, hbar), 1
    keys = [c.key() for c in clusters]
    odd = [k for k, c in zip(keys, clusters) if space.word_parity(c.letters)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return EWord([clusters[t] for t in order], hbar), _inversion_sign(odd)


class Element:
    """A finite Q-linear combination of Words, or of EWords; zero
    coefficients are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        for w, c in (terms.items() if isinstance(terms, dict) else terms):
            if c:
                data[w] = data.get(w, 0) + c
                if not data[w]:
                    del data[w]
        self.terms = data

    @classmethod
    def monomial(cls, word, coeff=Fraction(1)):
        e = cls()
        if coeff:
            e.terms[word] = coeff
        return e

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
            if not out[w]:
                del out[w]
        return Element(out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        if not scalar:
            return Element()
        return Element({w: scalar * c for w, c in self.terms.items()})

    def __iter__(self):
        return iter(sorted(self.terms.items(), key=lambda t: t[0].key()))

    def unit_coefficient(self):
        """The coefficient of the unit outer word."""
        return self.terms.get(UNIT_EWORD, Fraction(0))

    def __repr__(self):
        return "Element(%r)" % (self.terms,)


EElement = Element  # the name used where the terms are outer words


def enumerate_basis(space, max_letters, max_action=None, outer_components=None,
                    allow_units=True, max_cluster_letters=None):
    """All nonzero Words, or EWords when outer_components is given, in key
    order.

    Words: every multiset of generators with at most max_letters letters and
    total action at most max_action (the empty word included).  EWords: at
    most outer_components (>= 1) clusters, unit clusters permitted unless
    allow_units is false, optionally capping each cluster's letter count.
    Zero monomials (repeated odd letters or repeated odd clusters) are
    skipped.  The order is part of the contract: the solve pivots on the
    leftmost independent columns, so certificates depend on it.

    Every word is generated in normal form with sign +1, in key order:
    letters come from combinations_with_replacement in Word.key order; the
    non-unit cluster multisets of c + 1 clusters extend those of c, in
    order, by a key-sorted non-unit word at a non-decreasing position, an
    odd letter or cluster never taken twice.  EWord.key puts the cluster
    count first and the unit cluster least, so c clusters are listed with
    the most unit clusters first, and the window of k clusters is a prefix
    of the window of k + 1.
    """
    if max_letters < 0:
        raise ValueError("max_letters must be nonnegative")
    if outer_components is not None and outer_components < 1:
        raise ValueError("outer_components must be at least 1")
    if max_action is not None:
        max_action = Fraction(max_action)
        for g in space.generators:
            if g.action is None:
                raise ValueError("max_action given but generator %s has no action"
                                 % g.name)
    limit = max_letters if max_cluster_letters is None \
        else min(max_letters, max_cluster_letters)
    par = space.parities
    words = [UNIT_WORD]
    for k in range(1, limit + 1):
        for combo in itertools.combinations_with_replacement(range(len(space)), k):
            if any(a == b and par[a] for a, b in zip(combo, combo[1:])):
                continue
            if max_action is not None and space.word_action(combo) > max_action:
                continue
            words.append(Word(combo))
    if outer_components is None:
        return words

    # (word, parity, action) per non-unit word; action 0 with no action bound
    nonunit = [(w, space.word_parity(w.letters),
                space.word_action(w.letters) if max_action is not None else 0)
               for w in words[1:]]
    # by_count[c]: (multiset, next position, letters left, action left) for
    # each non-unit multiset of c clusters, in key order
    by_count = [[((), 0, max_letters, max_action or 0)]]
    for _ in range(outer_components):
        grown = []
        for ms, start, letters_left, action_left in by_count[-1]:
            for i in range(start, len(nonunit)):
                w, odd, act = nonunit[i]
                if len(w) > letters_left:
                    break  # nonunit comes in ascending length
                if act <= action_left:
                    grown.append((ms + (w,), i + odd, letters_left - len(w),
                                  action_left - act))
        by_count.append(grown)
    units = [(UNIT_WORD,) * n for n in range(outer_components + 1)]
    return [EWord(units[n] + ms)
            for c in range(1, outer_components + 1)
            for n in range(c if allow_units else 0, -1, -1)
            for ms, _, _, _ in by_count[c - n]]


def word_to_singletons(word):
    """The inclusion S^kV -> odot^k V: one letter per cluster; the empty
    word goes to the unit."""
    return EWord(tuple(Word((i,)) for i in word.letters) or (UNIT_WORD,))

