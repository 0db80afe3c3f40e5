"""Tiny exact multivariate polynomials over Q.

Used only to probe whether an order computation depends on the choice of
augmentation: generic augmentation values become indeterminates, the
assembled matrices are inspected for residual variables, and no division
ever happens.
"""

from __future__ import annotations

from fractions import Fraction


class SymPoly:
    """A polynomial as {sorted variable-name tuple: Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data = {}
        for mono, c in (terms or {}).items():
            c = Fraction(c) if not isinstance(c, Fraction) else c
            if c:
                data[tuple(mono)] = data.get(tuple(mono), Fraction(0)) + c
                if not data[tuple(mono)]:
                    del data[tuple(mono)]
        self.terms = data

    @classmethod
    def var(cls, name):
        return cls({(name,): Fraction(1)})

    @classmethod
    def const(cls, value):
        return cls({(): Fraction(value)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, SymPoly):
            return self.terms == other.terms
        if not self.terms:
            return Fraction(other) == 0
        return self.terms == {(): Fraction(other)}

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
            if not out[m]:
                del out[m]
        return SymPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return SymPoly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return SymPoly(out)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, SymPoly):
            return other
        return SymPoly.const(other)

    def is_constant(self):
        return all(m == () for m in self.terms)

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            bits.append("%s*%s" % (c, "*".join(m)) if m else str(c))
        return "SymPoly(%s)" % " + ".join(bits)
