"""The totally ordered hierarchy set and its monoidal combination.

Zones in ascending order: torsion levels, then semi-dilation levels, then
planarity levels from two up.  Planarity 0 and 1 are represented by the
torsion zone and the semi-dilation zone respectively, so a Pl-zone value
always carries level >= 2.
"""

from __future__ import annotations

import math

from .errors import InconclusiveError, InconsistentInputsError

INF = math.inf

_ZONES = ("PT", "SD", "Pl")


class HierarchyValue:
    """A point of the ordered set {0^PT<..<inf^PT<0^SD<..<inf^SD<2^Pl<..}."""

    __slots__ = ("zone", "level")

    def __init__(self, zone, level):
        if zone not in _ZONES:
            raise ValueError("unknown zone %r" % (zone,))
        if level != INF:
            level = int(level)
            if level < 0:
                raise ValueError("negative level")
        if zone == "Pl" and level != INF and level < 2:
            raise ValueError(
                "planarity-zone levels below 2 are torsion / semi-dilation "
                "values in canonical form")
        self.zone = zone
        self.level = level

    def key(self):
        return (_ZONES.index(self.zone), self.level)

    def __eq__(self, other):
        return (isinstance(other, HierarchyValue)
                and self.key() == other.key())

    def __hash__(self):
        return hash(self.key())

    def __lt__(self, other):
        return self.key() < other.key()

    def __le__(self, other):
        return self.key() <= other.key()

    def components(self):
        """The underlying (torsion, planarity, semi-dilation) triple, with
        None for a semi-dilation level that is undefined in this zone."""
        if self.zone == "PT":
            return (self.level, 0, None)
        if self.zone == "SD":
            return (INF, 1, self.level)
        return (INF, self.level, None)

    def __repr__(self):
        lvl = "inf" if self.level == INF else str(self.level)
        return "%s^%s" % (lvl, self.zone)

    @classmethod
    def parse(cls, text):
        raw = text.strip()
        if "^" not in raw:
            raise ValueError("expected <level>^<zone>, got %r" % (text,))
        lvl, zone = raw.split("^", 1)
        level = INF if lvl in ("inf", "∞", "oo") else int(lvl)
        return cls(zone, level)


def hierarchy_classify(pt, has_aug, pl=None, sd=None):
    """Place computed invariants into the ordered set.

    pt, pl and sd: the TorsionAnswers of torsion, planarity (required when
    has_aug, whether a verified augmentation exists) and semi-dilation
    (required when planarity is 1); a not-found pl or sd is inconclusive.
    """
    if pt.found():
        if has_aug:
            raise InconsistentInputsError(
                "finite torsion together with a verified augmentation")
        return HierarchyValue("PT", pt.level)
    if not has_aug:
        raise InconclusiveError(
            "torsion not found within bounds and no augmentation known")
    if pl is None or not pl.found():
        raise InconclusiveError("planarity not determined within bounds")
    if pl.level == 0:
        raise InconsistentInputsError(
            "planarity 0 contradicts the verified augmentation")
    if pl.level == 1:
        if sd is None or not sd.found():
            raise InconclusiveError("semi-dilation required when planarity is 1")
        return HierarchyValue("SD", sd.level)
    return HierarchyValue("Pl", pl.level)


def hierarchy_compare(h1, h2):
    """-1, 0, or 1 in the total order."""
    if h1.key() < h2.key():
        return -1
    if h1.key() > h2.key():
        return 1
    return 0


def hierarchy_combine(h1, h2):
    """The value of a disjoint union from its components.

    Componentwise: torsion combines by min, planarity by 0 x a = 0 and max
    otherwise, semi-dilation by max; the total-order shortcut is: min when
    either operand sits in the torsion zone, max otherwise.
    """
    if h1.zone == "PT" or h2.zone == "PT":
        pt1 = h1.level if h1.zone == "PT" else INF
        pt2 = h2.level if h2.zone == "PT" else INF
        return HierarchyValue("PT", min(pt1, pt2))
    return max(h1, h2)

