import hashlib
import json
import random
from fractions import Fraction as F
from itertools import product

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


@pytest.mark.parametrize(
    "outer,delta,lifts,bad",
    [(1.5, [0], [0, 0], "1.5"), (1, [True], [0, 0], "true"), (1, [0], [0, "1"], '"1"')],
)
def test_decorate_rejects_non_integer_elements(outer, delta, lifts, bad):
    # decorate cast with int(), so an outer element 1.5 gave outer holonomy 1
    with pytest.raises(HolonomyError) as exc:
        decorate(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)], catalog_group("Z2"), outer, delta, lifts)
    assert str(exc.value) == f"element index: expected an integer, got {bad}"


def test_equal_classes_equal_holonomy():
    rng = random.Random(6)
    Z3 = catalog_group("Z3")
    for _ in range(20):
        md = random_md(rng, rng.randint(1, 3))
        W = random_gdiagram(rng, md, Z3, rng.randrange(3))
        deltas = W.rep_deltas()  # keyed by ticks
        chords, ticks = list(md.rep_chords()), md.rep_ticks()
        order = list(range(len(chords)))
        rng.shuffle(order)
        raw_chords, raw_delta = [], []
        for i in order:
            x, y = chords[i]
            d = deltas[ticks[i]]
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
    monkeypatch.setattr(gchords, "_transport_to", lambda W, tape, word, s: 0)
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
    from orbistring.gchords import _seam_offset

    rng = random.Random(17)
    S3 = catalog_group("S3")
    for _ in range(25):
        md = random_md(rng, rng.randint(1, 3))
        W = random_gdiagram(rng, md, S3, rng.randrange(6))
        d = rep_diagram(md)
        verts = list(d.vertices) or [0]
        crossings = 0
        for i, v in enumerate(verts):
            nxt = verts[(i + 1) % len(verts)]
            length = (nxt - v) % d.L or d.L
            crossings += _seam_offset(v, d.L) <= length
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
                tape = region_walk(md, label).scaled(12)
                word = gchords._word(md, tape)
                for k in range(12):
                    s = tape.total * k // 12
                    kind, coord = locate(tape, s)
                    yield [label, k, kind, str(F(coord, tape.L)), gchords._transport_to(W, tape, word, s)]
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
            word = gchords._word(md, tape)
            for s in (tape.total, -1):
                with pytest.raises(DiagramError) as exc:
                    locate(tape, s)
                assert exc.value.kind == "bad-coordinate" and exc.value.witness == s
                with pytest.raises(DiagramError) as exc:
                    gchords._transport_to(W, tape, word, s)
                assert exc.value.kind == "bad-coordinate" and exc.value.witness == s


# oracles for holonomy on region words ----------------------------------------

ORACLE_GROUPS = ("Z2", "Z3", "S3", "Z2xZ2", "Z4", "D4", "Q8")


def _unit_factor(W, tape, u):
    """Left-multiplication factor of one walk unit, written out here so the oracles
    share no code with gchords: the outer holonomy for an arc that reaches circle
    coordinate 0, the fiber identification across a cluster passage, whose
    vertices are looked up as Fractions in the base's clusters."""
    G = W.group
    if u[0] == "seg":
        return W.outer if ((-u[1]) % tape.L or tape.L) <= u[2] else 0
    grp, taus = W.base.clusters[u[1]], W.transports[u[1]]
    return G.mul(taus[grp.index(F(u[3], tape.L))], G.invert(taus[grp.index(F(u[2], tape.L))]))


def _mark_transport(W, tape):
    """Fiber transport from the mark to the start of its walk: the identity on an
    arc, else from the cluster's least vertex to the first passage's arrival."""
    u = tape.steps[0][1]
    return 0 if u[0] == "seg" else W.transports[u[1]][W.base.clusters[u[1]].index(F(u[2], tape.L))]


def _tape_holonomy(W, tapes):
    """Region holonomies by folding the unit factors of the region walks, measured
    from the lifted mark: independent of the integer region words."""
    G = W.group
    out = []
    for tape in tapes:
        w = 0
        for _, u in tape.steps:
            w = G.mul(_unit_factor(W, tape, u), w)
        m = G.mul(_mark_transport(W, tape), W.lifts[tape.label - 1])
        out.append(G.conjugate(w, m))
    return tuple(out)


def _tape_transport(W, tape, s):
    """Fiber transport from the mark to arc length s by folding the units walked
    before s, the arc that s falls inside trimmed at s."""
    G = W.group
    acc = _mark_transport(W, tape)
    for pos, u in tape.steps:
        if pos >= s:
            break
        if u[0] == "seg" and pos + u[2] > s:
            u = ("seg", u[1], s - pos)
        acc = G.mul(_unit_factor(W, tape, u), acc)
    return acc


def _tie_positions(tape):
    """Every step position, every point where an arc reaches coordinate 0, and
    three interior points of each arc: the places a transport's factor count
    changes, and the places between them.  The tape's ticks must be multiples of 4."""
    out = set()
    for pos, u in tape.steps:
        out.add(pos)
        if u[0] == "seg":
            out.add(pos + ((-u[1]) % tape.L or tape.L))
            out.update(pos + u[2] * k // 4 for k in (1, 2, 3))
    return sorted(s for s in out if s < tape.total)


def test_transport_matches_tape_fold_at_ties():
    # the digest samples twelfths of each walk, which rarely land exactly on a
    # passage or on a seam point; here every such point is checked, on walks
    # scaled by 4 as graded composition scales them
    names = ("Z2", "Z3", "S3", "D4", "Q8")
    rng = random.Random(33)
    checked = 0
    for t in range(2000):
        G = catalog_group(names[t % len(names)])
        md = random_md(rng, 1 + t // len(names) % 5)
        W = random_gdiagram(rng, md, G, rng.randrange(G.order))
        for tape in (t.scaled(4) for t in _tapes(md)):
            word = gchords._word(md, tape)
            for s in _tie_positions(tape):
                assert gchords._transport_to(W, tape, word, s) == _tape_transport(W, tape, s), (W, tape, s)
                checked += 1
    assert checked > 40000


def _tapes(md):
    return [region_walk(md, label) for label in range(1, md.n + 1)]


def test_incoming_holonomy_matches_tape_oracle():
    rng = random.Random(31)
    for t in range(3000):
        G = catalog_group(ORACLE_GROUPS[t % len(ORACLE_GROUPS)])
        md = random_md(rng, 1 + t // len(ORACLE_GROUPS) % 5)
        W = random_gdiagram(rng, md, G, rng.randrange(G.order))
        assert incoming_holonomy(W) == _tape_holonomy(W, _tapes(md))


def _scan_fibre(md, G, outer, inner):
    """The filtered fibre by brute force: every decoration in lexicographic order
    of (transports, lifts), kept when the tape oracle gives the inner signature."""
    tapes = _tapes(md)
    free = [len(grp) - 1 for grp in md.clusters]
    out = []
    for flat in product(range(G.order), repeat=sum(free)):
        it = iter(flat)
        transports = tuple((0,) + tuple(next(it) for _ in range(f)) for f in free)
        for lifts in product(range(G.order), repeat=md.n):
            W = GDiagram(md, G, outer, transports, lifts)
            if _tape_holonomy(W, tapes) == inner:
                out.append(W)
    return out


def test_filtered_enumeration_matches_brute_force_scan():
    # arities keep |G|^(2n-1) candidates at 512 or fewer; a random signature
    # (a third of the cases) often has an empty fibre
    max_n = {"Z2": 4, "Z3": 3, "S3": 2, "Z2xZ2": 2, "Z4": 2, "D4": 2, "Q8": 2}
    rng = random.Random(32)
    sizes = []
    for t in range(300):
        name = ORACLE_GROUPS[t % len(ORACLE_GROUPS)]
        G = catalog_group(name)
        md = random_md(rng, rng.randint(1, max_n[name]))
        outer = rng.randrange(G.order)
        if t % 3 == 0:
            inner = tuple(rng.randrange(G.order) for _ in range(md.n))
        else:
            inner = incoming_holonomy(random_gdiagram(rng, md, G, outer))
        found = enumerate_gmd(md, G, outer, inner)
        assert found == _scan_fibre(md, G, outer, inner), (name, md, outer, inner)
        sizes.append(len(found))
    assert sizes.count(0) >= 30 and sum(sizes) > 1000


def test_g_compose_slot_mismatch_message():
    S3 = catalog_group("S3")
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    W = enumerate_gmd(md, S3, 4)[7]
    ih = incoming_holonomy(W)
    wrong = S3.mul(ih[1], 1)
    with pytest.raises(HolonomyError) as exc:
        g_compose(W, [g_identity(S3, ih[0]), g_identity(S3, wrong)])
    assert exc.value.slot == 2
    assert str(exc.value) == f"slot 2: region holonomy {ih[1]} != part outer holonomy {wrong}"


def test_holonomy_figure_witnesses():
    # the fibre behind criterion 07: oh = (1,3,2), ih = ((2,3),(2,3)) over S3
    S3 = catalog_group("S3")
    md = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    g, h = S3.names.index("(1,3,2)"), S3.names.index("(2,3)")
    found = enumerate_gmd(md, S3, g, (h, h))
    assert len(found) == 12
    assert all(incoming_holonomy(W) == (h, h) for W in found)


def _count(monkeypatch, module, name, log):
    """Wrap module.name so each call appends its first argument to log."""
    fn = getattr(module, name)

    def counting(*args):
        log.append(args[0])
        return fn(*args)

    monkeypatch.setattr(module, name, counting)


def test_filtered_enumeration_walks_each_region_once(monkeypatch):
    # the fibre over a 3-region base has 3^5 candidates; solving the lifts per
    # region walks each region of the base once and folds each region word once
    # per choice of the 3^2 transports, instead of once per candidate
    Z3 = catalog_group("Z3")
    md = md_from_data(3, [(F(1, 8), F(3, 8)), (F(5, 8), F(7, 8))], [F(1, 4), F(1, 2), F(3, 4)])
    W = GDiagram(md, Z3, 1, ((0, 2), (0, 1)), (1, 0, 2))
    inner = incoming_holonomy(W)
    gchords._region_words.cache_clear()
    walks, folds, holonomies = [], [], []
    _count(monkeypatch, gchords, "region_walk", walks)
    _count(monkeypatch, gchords, "_fold", folds)
    _count(monkeypatch, gchords, "incoming_holonomy", holonomies)
    found = enumerate_gmd(md, Z3, 1, inner)
    assert W in found and len(found) == 27
    assert len(walks) == 3 and len(folds) == 27 and holonomies == []


def test_g_compose_walks_each_base_region_once(monkeypatch):
    # the slot check folds the region walks the base composition lays the parts
    # along, so a cold g_compose walks each base region once
    from orbistring import chords

    Z3 = catalog_group("Z3")
    md = md_from_data(3, [(F(1, 8), F(3, 8)), (F(5, 8), F(7, 8))], [F(1, 4), F(1, 2), F(3, 4)])
    W = GDiagram(md, Z3, 1, ((0, 2), (0, 1)), (1, 0, 2))
    part = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    parts = [GDiagram(part, Z3, h, ((0, 1),), (2, 0)) for h in incoming_holonomy(W)]
    gchords._region_words.cache_clear()
    walks = []
    _count(monkeypatch, chords, "region_walk", walks)
    _count(monkeypatch, gchords, "region_walk", walks)
    g_compose(W, parts)
    assert walks.count(md) == 3
