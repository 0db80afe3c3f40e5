"""The split-word images one computation hands down (structures.SplitImages):
each first-stage image is evaluated once per CLI command, a step given the
value answers as it does without it, a value for another algebra is
refused, and no step changes the value."""

import io as pyio
import random

import pytest

from blinfty import assembly, cli, fixtures
from blinfty.errors import (IncompleteTableError,
                            InternalInconsistencyError, StructureError)
from blinfty.invariants import (default_schedule, order_O, order_multi,
                                planarity, torsion)
from blinfty.structures import (Augmentation, BLAlgebra, Bounds,
                                OperationTable, PointedMap, check_pointed,
                                check_structure, is_augmentation, linearize,
                                linearize_pointed, zero_table)
from blinfty.words import Generator, GradedSpace

from util import random_table

B3 = Bounds(3)


# ---- one first-stage evaluation per (table, element) ------------------------

def _record_first_stage(monkeypatch):
    """Every first-stage coderivation call (not single_cluster) as
    (table, input terms); the tables are kept, so ids are not reused."""
    calls = []
    glue = assembly.apply_coderivation

    def recording(table, x, *, single_cluster=False):
        if not single_cluster:
            calls.append((table, frozenset(x.terms.items())))
        return glue(table, x, single_cluster=single_cluster)
    monkeypatch.setattr(assembly, "apply_coderivation", recording)
    return calls


def _repeats(calls):
    seen, repeats = set(), 0
    for table, terms in calls:
        key = (id(table), terms)
        repeats += key in seen
        seen.add(key)
    return repeats


@pytest.fixture()
def corpus(tmp_path):
    for name, text in fixtures.document_corpus().items():
        (tmp_path / ("%s.blf" % name)).write_text(text, encoding="utf-8")
    # the order-multi family: S1 = S2 = the fixture's map, S12 = 0
    text = (tmp_path / "pointed-two.pointed.blf").read_text(encoding="utf-8")
    (tmp_path / "pointed-two.S2.blf").write_text(
        text.replace("table pointed S1", "table pointed S2"), encoding="utf-8")
    (tmp_path / "pointed-two.S12.blf").write_text(
        text.split("table pointed", 1)[0] + "table pointed S12 parity 0\n",
        encoding="utf-8")
    # torsion certificates appended to their structure documents
    for name in ("planar-torsion-one", "torsion-zero"):
        cert = tmp_path / ("%s.cert.blf" % name)
        assert cli.main(["torsion", str(tmp_path / ("%s.blf" % name)),
                         "--certificate", str(cert)],
                        stream=pyio.StringIO()) == 0
        chains = [line for line in cert.read_text(encoding="utf-8").split("\n")
                  if line.startswith("chain ")]
        text = (tmp_path / ("%s.blf" % name)).read_text(encoding="utf-8")
        (tmp_path / ("%s.merged.blf" % name)).write_text(
            text + "\n".join(chains) + "\n", encoding="utf-8")
    return tmp_path


LINEARIZABLE_AUGS = ("--aug @linearizable.aug0 --aug @linearizable.aug1 "
                     "--aug @linearizable.aug2")

COMMANDS = [
    "verify @linearizable " + LINEARIZABLE_AUGS,
    "verify @planar-torsion-one.merged",
    "verify @torsion-zero.merged",
    "linearize @linearizable " + LINEARIZABLE_AUGS,
    "linearize @linearizable --aug @linearizable.aug1",
    "linearize @linearizable --aug @linearizable.aug2",
    "hierarchy @linearizable " + LINEARIZABLE_AUGS,
    "order-multi @pointed-two --aug @pointed-two.aug0 "
    "--pointed @pointed-two.pointed --pointed @pointed-two.S2 "
    "--pointed @pointed-two.S12 --points 2",
    "torsion @mixed-no-aug",
    "hierarchy @sd-example --aug @sd-example.aug0 "
    "--pointed @sd-example.pointed --umap @sd-example.umap",
]


def _argv(corpus, label):
    return [str(corpus / (tok[1:] + ".blf")) if tok.startswith("@") else tok
            for tok in label.split()]


@pytest.mark.parametrize("label", COMMANDS)
def test_cli_command_evaluates_each_first_stage_image_once(
        corpus, monkeypatch, label):
    calls = _record_first_stage(monkeypatch)
    code = cli.main(_argv(corpus, label), stream=pyio.StringIO())
    assert code in (0, 3)
    assert calls
    assert _repeats(calls) == 0


def test_library_searches_share_their_checks_images(monkeypatch):
    # torsion's own check seeds its search; planarity's augmentation checks
    # share p-hat with the orders
    calls = _record_first_stage(monkeypatch)
    torsion(fixtures.mixed_no_aug(), default_schedule(4, Bounds(4)))
    assert _repeats(calls) == 0
    for name, (alg, augs, pmap) in sorted(fixtures.corpus().items()):
        if pmap is not None and augs:
            calls.clear()
            planarity(augs, pmap, B3)
            assert calls and _repeats(calls) == 0, name


# ---- the value changes no answer --------------------------------------------

def _outcome(call):
    """A comparable outcome: a status, table or torsion answer as a tuple,
    or the name of the exception raised."""
    try:
        out = call()
    except (StructureError, IncompleteTableError,
            InternalInconsistencyError) as e:
        return type(e).__name__
    if hasattr(out, "witness"):
        return ("status", bool(out.ok), out.bounds, out.witness)
    if hasattr(out, "certificate"):
        return ("answer", out.kind, out.level, out.certificate, out.bounds)
    return ("table", out)


def _random_case(rng):
    """A 2-3 generator space with a window of 2-3 letters, and a random
    structure, augmentation and pointed map on it, complete or partial; most
    structures fail their check."""
    n = rng.randint(2, 3)
    acted = rng.randrange(3) == 0
    sp = GradedSpace([Generator("g%d" % i, 1 if i == 0 else rng.randrange(2),
                                action=rng.randint(1, 2) if acted else None)
                      for i in range(n)])
    bounds = Bounds(rng.randint(2, 3), word_bound=rng.choice([None, 1, 2]),
                    max_action=rng.randint(2, 4) if acted else None)
    p = random_table(rng, sp, max_k=3, max_l=2, n_entries=rng.randint(1, 3))
    if rng.randrange(3) == 0:
        p = OperationTable(sp, 1, [e for e in p.sorted_entries()
                                   if e[0] <= 2], complete=False, max_k=2)
    alg = BLAlgebra(sp, p)
    eps = Augmentation(alg, random_table(rng, sp, max_k=2, max_l=0, parity=0,
                                         n_entries=rng.randint(0, 2)))
    pmap = PointedMap(alg, random_table(rng, sp, max_k=2, max_l=1,
                                        parity=rng.randrange(2),
                                        n_entries=rng.randint(1, 2)))
    return alg, eps, pmap, bounds


def _steps(alg, eps, pmap, bounds, images, pointed_images):
    """Every step that takes the value, as zero-argument calls."""
    schedule = default_schedule(bounds.outer(), bounds)
    fam = {frozenset({1}): pmap.table}
    return [
        lambda: check_structure(alg, bounds, images),
        lambda: is_augmentation(eps, bounds, images),
        lambda: check_pointed(pmap, bounds, images),
        lambda: linearize(eps, bounds, images),
        lambda: linearize_pointed(pmap, eps, bounds, pointed_images),
        lambda: torsion(alg, schedule, images),
        lambda: order_O(eps, pmap, bounds, pointed_images),
        lambda: order_multi(eps, fam, 1, bounds, pointed_images),
    ]


def test_handed_down_images_change_no_answer():
    rng = random.Random(1919)
    kinds = set()
    for _ in range(60):
        alg, eps, pmap, bounds = _random_case(rng)
        plain = [_outcome(step) for step in
                 _steps(alg, eps, pmap, bounds, None, None)]
        # the check's own value, and one made at fewer letters, whose
        # missing words each step evaluates itself
        for at in (bounds, Bounds(1, max_action=bounds.max_action)):
            try:
                images = check_structure(alg, at).images
                pointed = check_pointed(pmap, at, images).images
            except IncompleteTableError:
                continue
            handed = [_outcome(step) for step in
                      _steps(alg, eps, pmap, bounds, images, pointed)]
            assert handed == plain
        kinds.update(out if isinstance(out, str) else
                     out[:2] if out[0] != "table" else "table"
                     for out in plain)
    # passing and failing checks, tables, answers and raised steps all occur
    assert {("status", True), ("status", False), "table", "StructureError",
            "InternalInconsistencyError"} <= kinds, kinds
    assert {("answer", "exact"), ("answer", "not-found")} & kinds, kinds


def test_images_of_another_algebra_raise():
    alg, pmap = fixtures.pointed_one()
    eps = fixtures.zero_aug(alg)
    twin, _ = fixtures.pointed_one()
    images = check_structure(twin, B3).images
    steps = _steps(alg, eps, pmap, B3, images, images) + [
        lambda: planarity([eps], pmap, B3, images=images)]
    for step in steps:
        with pytest.raises(ValueError, match="split-word images"):
            step()


def _snapshot(images):
    return [(table, {ew: dict(img.terms) for ew, img in held.items()})
            for table, held in images._held]


def test_no_step_changes_the_value(corpus, monkeypatch):
    made = []
    checked = cli._checked_inputs

    def recording(args, rep):
        inputs = checked(args, rep)
        made.append((inputs[-1], _snapshot(inputs[-1])))
        return inputs
    monkeypatch.setattr(cli, "_checked_inputs", recording)
    for label in ("hierarchy @sd-example --aug @sd-example.aug0 "
                  "--pointed @sd-example.pointed --umap @sd-example.umap",
                  "hierarchy @pointed-two --aug @pointed-two.aug0 "
                  "--pointed @pointed-two.pointed",
                  "hierarchy @linearizable " + LINEARIZABLE_AUGS):
        cli.main(_argv(corpus, label), stream=pyio.StringIO())
    assert len(made) == 3
    for images, before in made:
        assert images._held
        assert _snapshot(images) == before


def test_a_check_adds_its_images_to_a_new_value():
    alg = fixtures.linearizable()
    small = check_structure(alg, Bounds(2)).images
    images = check_structure(alg, B3, small).images
    assert images.algebra is alg
    # the check at more letters made a new value; the one it was given
    # gained nothing
    assert len(small.held(alg.table)) < len(images.held(alg.table))
    assert images.held(zero_table(alg.space)) == {}
