import hashlib
import json
import random
from fractions import Fraction as F

import pytest

from orbistring import gchords
from orbistring.chords import (
    DiagramError,
    compose,
    from_cactus,
    identity_md,
    locate,
    md_from_data,
    random_md,
    region_walk,
    to_cactus,
)
from orbistring.gchords import (
    GDiagram,
    HolonomyError,
    decorate,
    enumerate_gmd,
    from_gdiagram_json,
    g_compose,
    g_identity,
    incoming_holonomy,
    outgoing_holonomy,
    random_gdiagram,
)
from orbistring.groups import catalog_group


def resolve(name):
    return catalog_group(name)


def test_single_region_holonomy():
    S3 = catalog_group("S3")
    for g in range(6):
        for k in range(6):
            W = GDiagram(identity_md(), S3, g, (), (k,))
            assert incoming_holonomy(W) == (S3.conjugate(g, k),)
            assert outgoing_holonomy(W) == g


def test_lift_change_conjugates_one_slot():
    S3 = catalog_group("S3")
    rng = random.Random(2)
    for _ in range(30):
        md = random_md(rng, rng.randint(2, 3))
        W = random_gdiagram(rng, md, S3, rng.randrange(6))
        base_ih = incoming_holonomy(W)
        i = rng.randrange(md.n)
        m = rng.randrange(6)
        lifts = list(W.lifts)
        lifts[i] = S3.mul(lifts[i], m)
        W2 = GDiagram(W.base, S3, W.outer, W.transports, tuple(lifts))
        ih2 = incoming_holonomy(W2)
        for j in range(md.n):
            if j == i:
                assert ih2[j] == S3.conjugate(base_ih[j], m)
            else:
                assert ih2[j] == base_ih[j]
        assert outgoing_holonomy(W2) == W.outer


def test_decorate_flip_inverts_delta():
    Z3 = catalog_group("Z3")
    chords = [(F(1, 4), F(3, 4))]
    marks = [F(1, 2), F(0)]
    a = decorate(2, chords, marks, Z3, 1, [2], [0, 1])
    b = decorate(2, [(F(3, 4), F(1, 4))], marks, Z3, 1, [1], [0, 1])  # flipped, inverted
    assert a == b
    assert incoming_holonomy(a) == incoming_holonomy(b)


def test_decorate_tree_shapes_same_subclusters():
    Z3 = catalog_group("Z3")
    marks = [F(2, 8), F(4, 8), F(7, 8)]
    # path tree 1/8 -2-> 3/8 -1-> 5/8 and vee tree with matching transports
    path = decorate(
        3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], marks, Z3, 0, [2, 1], [0, 0, 0]
    )
    # vee: 1/8 -> 5/8 carries tau(5/8) = 1*2 = 0? transports: tau(3/8)=2, tau(5/8)=mul(1,2)=0
    vee = decorate(
        3, [(F(1, 8), F(5, 8)), (F(3, 8), F(5, 8))], marks, Z3, 0, [0, 1], [0, 0, 0]
    )
    assert path.transports == vee.transports
    assert path == vee


def test_decorate_mark_on_vertex_transports_lift():
    Z3 = catalog_group("Z3")
    marks = [F(3, 8), F(4, 8), F(7, 8)]  # z_1 on vertex 3/8 with transport 2
    W = decorate(3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], marks, Z3, 0, [2, 1], [1, 0, 0])
    # moved to 1/8; lift transported by tau^-1 = -2 = 1: new lift = 1 + 1 = 2
    assert W.base.marks[0] == F(1, 8)
    assert W.lifts[0] == Z3.mul(Z3.invert(2), 1)


def test_enumerate_trivial_group():
    Z1 = catalog_group("Z1")
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    decs = enumerate_gmd(md, Z1, 0)
    assert len(decs) == 1
    assert incoming_holonomy(decs[0]) == (0, 0)


def test_enumerate_fiber_order():
    Z2 = catalog_group("Z2")
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    for g in (0, 1):
        decs = enumerate_gmd(md, Z2, g)
        assert len(decs) == 2 ** 3
    Z3 = catalog_group("Z3")
    assert len(enumerate_gmd(identity_md(), Z3, 2)) == 3


def test_enumerate_empty_signature():
    S3 = catalog_group("S3")
    # n = 1: the region holonomy is conjugate to the outer one, so e is unreachable
    assert enumerate_gmd(identity_md(), S3, 3, (0,)) == []


def test_enumerate_cap():
    S3 = catalog_group("S3")
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    with pytest.raises(HolonomyError):
        enumerate_gmd(md, S3, 0, cap=10)


def test_library_inputs_are_checked():
    # an out-of-range outer element used to give 27 decorations whose holonomy
    # walk ended in an IndexError, and a short inner signature silently matched none
    Z3 = catalog_group("Z3")
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    cases = [
        (lambda: enumerate_gmd(md, Z3, 7), "element index 7 out of range for Z3"),
        (lambda: enumerate_gmd(md, Z3, 0, (0, 3)), "element index 3 out of range for Z3"),
        (lambda: enumerate_gmd(md, Z3, 0, (0,)), "need 2 inner holonomies, got 1"),
        (lambda: g_identity(Z3, 9), "element index 9 out of range for Z3"),
    ]
    for call, message in cases:
        with pytest.raises(HolonomyError) as exc:
            call()
        assert str(exc.value) == message
    assert len(enumerate_gmd(md, Z3, 0, (0, 0))) == 9
    assert g_identity(Z3, 2).outer == 2


def test_equal_classes_equal_holonomy():
    rng = random.Random(6)
    Z3 = catalog_group("Z3")
    for _ in range(20):
        md = random_md(rng, rng.randint(1, 3))
        W = random_gdiagram(rng, md, Z3, rng.randrange(3))
        deltas = W.rep_deltas()
        chords = list(md.rep_chords())
        order = list(range(len(chords)))
        rng.shuffle(order)
        raw_chords, raw_delta = [], []
        for i in order:
            x, y = chords[i]
            d = deltas[(x, y)]
            if rng.random() < 0.5:
                raw_chords.append((y, x))
                raw_delta.append(Z3.invert(d))
            else:
                raw_chords.append((x, y))
                raw_delta.append(d)
        W2 = decorate(
            md.n, raw_chords, md.marks, Z3, W.outer, raw_delta, list(W.lifts),
            interval_labels=md.arc_labels if md.clusters else None,
        )
        assert W2 == W
        assert incoming_holonomy(W2) == incoming_holonomy(W)


def test_g_compose_units_and_mismatch():
    Z2 = catalog_group("Z2")
    rng = random.Random(10)
    for _ in range(20):
        md = random_md(rng, rng.randint(1, 3))
        W = random_gdiagram(rng, md, Z2, rng.randrange(2))
        ih = incoming_holonomy(W)
        assert g_compose(W, [g_identity(Z2, h) for h in ih]) == W
        assert g_compose(g_identity(Z2, W.outer), [W]) == W
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    W = enumerate_gmd(md, Z2, 1)[0]
    ih = incoming_holonomy(W)
    with pytest.raises(HolonomyError) as exc:
        g_compose(W, [g_identity(Z2, 1 - ih[0]), g_identity(Z2, ih[1])])
    assert exc.value.slot == 1


def test_g_compose_recomputed_holonomies():
    S3 = catalog_group("S3")
    rng = random.Random(12)
    for _ in range(15):
        md = random_md(rng, rng.randint(1, 2))
        W = random_gdiagram(rng, md, S3, rng.randrange(6))
        ih = incoming_holonomy(W)
        parts = [random_gdiagram(rng, random_md(rng, rng.randint(1, 2)), S3, h) for h in ih]
        out = g_compose(W, parts)
        assert outgoing_holonomy(out) == W.outer
        assert incoming_holonomy(out) == tuple(h for p in parts for h in incoming_holonomy(p))


def test_g_compose_rejects_wrong_transport(monkeypatch):
    # negative control: with every fiber transport replaced by the identity the
    # composite's recomputed holonomies no longer match the parts on a third of
    # the instances of the stream above
    monkeypatch.setattr(gchords, "_transport_to", lambda W, tape, s: 0)
    S3 = catalog_group("S3")
    rng = random.Random(12)
    failed = {}
    for t in range(15):
        md = random_md(rng, rng.randint(1, 2))
        W = random_gdiagram(rng, md, S3, rng.randrange(6))
        ih = incoming_holonomy(W)
        parts = [random_gdiagram(rng, random_md(rng, rng.randint(1, 2)), S3, h) for h in ih]
        try:
            g_compose(W, parts)
        except HolonomyError as e:
            assert e.slot is None
            failed[t] = str(e)
    assert sorted(failed) == [2, 3, 9, 11, 13]
    assert failed[2] == "composite holonomies (3, 0) do not match the parts (0, 3)"


def test_g_compose_associativity_instances():
    Z3 = catalog_group("Z3")
    rng = random.Random(13)
    for _ in range(20):
        md = random_md(rng, rng.randint(1, 2))
        W = random_gdiagram(rng, md, Z3, rng.randrange(3))
        parts = [
            random_gdiagram(rng, random_md(rng, rng.randint(1, 2)), Z3, h)
            for h in incoming_holonomy(W)
        ]
        inner = [
            [random_gdiagram(rng, random_md(rng, 1), Z3, h) for h in incoming_holonomy(p)]
            for p in parts
        ]
        left = g_compose(g_compose(W, parts), [w for grp in inner for w in grp])
        right = g_compose(W, [g_compose(p, grp) for p, grp in zip(parts, inner)])
        assert left == right


def test_gdiagram_json_roundtrip():
    S3 = catalog_group("S3")
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    W = enumerate_gmd(md, S3, 4)[7]
    blob = json.dumps(W.to_json())
    again = from_gdiagram_json(blob, resolve)
    assert again == W


def test_forgetful_then_enumerate_recovers_base():
    Z2 = catalog_group("Z2")
    rng = random.Random(14)
    for _ in range(10):
        md = random_md(rng, rng.randint(1, 2))
        for W in enumerate_gmd(md, Z2, rng.randrange(2)):
            assert W.base == md


def test_outgoing_holonomy_equals_seam_traversal():
    """oh is the stored element, and the full outer-circle traversal from the
    base lift crosses the seam exactly once regardless of chords and marks."""
    from orbistring.chords import rep_diagram
    from orbistring.gchords import _seam_crossings

    rng = random.Random(17)
    S3 = catalog_group("S3")
    for _ in range(25):
        md = random_md(rng, rng.randint(1, 3))
        W = random_gdiagram(rng, md, S3, rng.randrange(6))
        d = rep_diagram(md)
        verts = list(d.vertices) or [F(0)]
        crossings = 0
        for i, v in enumerate(verts):
            nxt = verts[(i + 1) % len(verts)]
            length = (nxt - v) % 1 or F(1)
            crossings += _seam_crossings(v, length)
        assert crossings == 1
        assert outgoing_holonomy(W) == W.outer


def _walk_digest_lines():
    """Everything computed from region walks on a seeded stream over Z2, Z3 and S3:
    decorated and plain composites, cacti, positions and fiber transports at
    twelfths of every base region, and the error of a mismatched slot."""
    rng = random.Random(81)
    for name in ("Z2", "Z3", "S3"):
        G = catalog_group(name)
        for _ in range(40):
            md = random_md(rng, rng.randint(1, 4))
            W = random_gdiagram(rng, md, G, rng.randrange(G.order))
            ih = incoming_holonomy(W)
            parts = [random_gdiagram(rng, random_md(rng, rng.randint(1, 2)), G, h) for h in ih]
            out = g_compose(W, parts)
            yield [ih, out.to_json(), incoming_holonomy(out)]
            yield compose(md, [p.base for p in parts]).to_json()
            cactus = to_cactus(md)
            yield [cactus.to_json(), from_cactus(cactus).to_json()]
            for label in range(1, md.n + 1):
                tape = region_walk(md, label)
                for k in range(12):
                    s = tape.total * k / 12
                    kind, coord = locate(tape, s)
                    yield [label, k, kind, str(coord), gchords._transport_to(W, tape, s)]
            i = rng.randrange(md.n)
            p = parts[i]
            wrong = (p.outer + 1 + rng.randrange(G.order - 1)) % G.order
            bad = parts[:i] + [GDiagram(p.base, G, wrong, p.transports, p.lifts)] + parts[i + 1 :]
            with pytest.raises(HolonomyError) as exc:
                g_compose(W, bad)
            yield [type(exc.value).__name__, str(exc.value), exc.value.slot]


def test_region_walk_digest():
    # pinned before region walks carried their own arc-length positions
    digest = hashlib.sha256()
    for line in _walk_digest_lines():
        digest.update(json.dumps(line, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "966570ddeb4553b486a7e672574d308ede08ebb16b0aaf5d738596180ced97d5"


def test_walk_positions_out_of_range():
    # negative control for the range checks in locate and _transport_to: the end
    # of the walk and a position before the mark are not on the region boundary
    S3 = catalog_group("S3")
    rng = random.Random(4)
    for _ in range(30):
        md = random_md(rng, rng.randint(1, 4))
        W = random_gdiagram(rng, md, S3, rng.randrange(6))
        for label in range(1, md.n + 1):
            tape = region_walk(md, label)
            for s in (tape.total, F(-1, 3)):
                with pytest.raises(DiagramError) as exc:
                    locate(tape, s)
                assert exc.value.kind == "bad-coordinate" and exc.value.witness == s
                with pytest.raises(DiagramError) as exc:
                    gchords._transport_to(W, tape, s)
                assert exc.value.kind == "bad-coordinate" and exc.value.witness == s
