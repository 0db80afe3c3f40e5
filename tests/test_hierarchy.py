import io as pyio
import itertools
import math

import pytest

from blinfty import cli, fixtures
from blinfty import io as bio
from blinfty.errors import InconclusiveError, InconsistentInputsError
from blinfty.hierarchy import (HierarchyValue, hierarchy_classify,
                               hierarchy_combine, hierarchy_compare)
from blinfty.invariants import TorsionAnswer
from blinfty.structures import Bounds

from util import combine_components_oracle

INF = math.inf

LEVELS = [0, 1, 2, 3, 4, 5, INF]


def grid():
    vals = [HierarchyValue("PT", l) for l in LEVELS]
    vals += [HierarchyValue("SD", l) for l in LEVELS]
    vals += [HierarchyValue("Pl", l) for l in LEVELS if l == INF or l >= 2]
    return vals


def test_canonical_form_rejects_low_pl():
    with pytest.raises(ValueError):
        HierarchyValue("Pl", 1)
    with pytest.raises(ValueError):
        HierarchyValue("Pl", 0)


def test_zone_ordering():
    assert HierarchyValue("PT", INF) < HierarchyValue("SD", 0)
    assert HierarchyValue("SD", INF) < HierarchyValue("Pl", 2)
    assert HierarchyValue("PT", 0) < HierarchyValue("PT", 1)


def test_parse_round_trip():
    for v in grid():
        assert HierarchyValue.parse(repr(v)) == v
    assert HierarchyValue.parse("3^SD") == HierarchyValue("SD", 3)
    assert HierarchyValue.parse("∞^Pl") == HierarchyValue("Pl", INF)


def test_compare_total_order():
    vals = grid()
    for a, b in itertools.product(vals, vals):
        c = hierarchy_compare(a, b)
        assert c in (-1, 0, 1)
        assert (c == 0) == (a == b)
        assert c == -hierarchy_compare(b, a)
    for a, b, c in itertools.product(vals, vals, vals):
        if hierarchy_compare(a, b) <= 0 and hierarchy_compare(b, c) <= 0:
            assert hierarchy_compare(a, c) <= 0


def test_combine_commutative_associative_and_matches_oracle():
    vals = grid()
    for a, b in itertools.product(vals, vals):
        ab = hierarchy_combine(a, b)
        assert ab == hierarchy_combine(b, a)
        assert ab == combine_components_oracle(a, b)
    for a, b, c in itertools.product(vals[:8], vals[:8], vals[:8]):
        assert hierarchy_combine(hierarchy_combine(a, b), c) == \
            hierarchy_combine(a, hierarchy_combine(b, c))


def test_combine_spec_values():
    assert hierarchy_combine(HierarchyValue("SD", 2),
                             HierarchyValue("SD", 3)) == HierarchyValue("SD", 3)
    assert hierarchy_combine(HierarchyValue("PT", 1),
                             HierarchyValue("SD", 3)) == HierarchyValue("PT", 1)
    assert hierarchy_combine(HierarchyValue("Pl", 2),
                             HierarchyValue("SD", 4)) == HierarchyValue("Pl", 2)


def test_classify_pt():
    ans = TorsionAnswer("exact", 0)
    assert hierarchy_classify(ans, False) == HierarchyValue("PT", 0)


def test_classify_consistency_checks():
    with pytest.raises(InconsistentInputsError):
        hierarchy_classify(TorsionAnswer("exact", 1), True)
    with pytest.raises(InconclusiveError):
        hierarchy_classify(TorsionAnswer("not-found"), False)


def test_classify_sd_and_pl():
    nf = TorsionAnswer("not-found")
    sd = TorsionAnswer("exact", 2)
    assert hierarchy_classify(nf, True, TorsionAnswer("exact", 1), sd) == \
        HierarchyValue("SD", 2)
    assert hierarchy_classify(nf, True, TorsionAnswer("exact", 3)) == \
        HierarchyValue("Pl", 3)
    with pytest.raises(InconclusiveError):
        hierarchy_classify(nf, True, TorsionAnswer("exact", 1))
    with pytest.raises(InconclusiveError):
        hierarchy_classify(nf, True, TorsionAnswer("exact", 1), nf)
    with pytest.raises(InconclusiveError):
        hierarchy_classify(nf, True, TorsionAnswer("not-found"))


def _cli_value(argv):
    buf = pyio.StringIO()
    assert cli.main(argv, stream=buf) == 0, buf.getvalue()
    key, value = buf.getvalue().splitlines()[-1].split(": ")
    assert key in ("hierarchy", "combine")
    return value


# corpus algebras by name, with their torsion; inf where it is not found
_CORPUS_TORSION = {"planar-torsion-one": 1, "torsion-zero": 0,
                   "mixed-no-aug": INF}


def _component(key):
    """(algebra, torsion, max_letters) of a ladder rung, by its number, or
    of a corpus algebra, by its name."""
    if isinstance(key, int):
        return fixtures.torsion_ladder(key), key - 1, key
    return fixtures.corpus()[key][0], _CORPUS_TORSION[key], 3


def _cli_hierarchy(path, torsion):
    """The CLI's hierarchy of the document at path.  With torsion not
    found and no augmentation the CLI is inconclusive (exit 3); its
    torsion then enters a combination as infinity, inf^PT."""
    if torsion != INF:
        return _cli_value(["hierarchy", str(path)])
    buf = pyio.StringIO()
    assert cli.main(["hierarchy", str(path)], stream=buf) == 3, \
        buf.getvalue()
    assert "torsion not found" in buf.getvalue()
    return repr(HierarchyValue("PT", INF))


@pytest.mark.parametrize("i, j", [
    (1, 2), (2, 2), (2, 3), (1, 3), (3, 3),
    ("planar-torsion-one", "planar-torsion-one"),
    ("planar-torsion-one", "torsion-zero"),
    ("torsion-zero", "torsion-zero"),
    ("planar-torsion-one", "mixed-no-aug")])
def test_cli_hierarchy_of_a_disjoint_union_combines_its_components(
        tmp_path, i, j):
    # the hierarchy functor takes a disjoint union to the combination of
    # its components' values (torsion by min): the CLI's hierarchy of the
    # serialized union of two ladder rungs or corpus algebras equals
    # combine of theirs
    (a, ta, la), (b, tb, lb) = _component(i), _component(j)
    bounds = Bounds(max(la, lb))
    values = []
    for name, alg, t in (("a", a, ta), ("b", b, tb),
                         ("union", fixtures.disjoint_union(a, b),
                          min(ta, tb))):
        path = tmp_path / ("%s.blf" % name)
        path.write_text(bio.serialize(bio.document_of_algebra(alg, bounds)),
                        encoding="utf-8")
        values.append(_cli_hierarchy(path, t))
    a, b, union = values
    assert union == _cli_value(["combine", a, b])
    assert union == repr(HierarchyValue("PT", min(ta, tb)))
