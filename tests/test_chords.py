import ast
import hashlib
import json
import random
import time
from fractions import Fraction as F
from itertools import permutations
from math import lcm
from pathlib import Path

import pytest

from orbistring import chords, gchords
from orbistring import selftest as st
from orbistring.chords import (
    Cactus,
    CactusError,
    DiagramError,
    _cactus_walk,
    _canonical_joint,
    _composite,
    _decompose,
    _label,
    _random_noncrossing_matching,
    _tick,
    canonical_md,
    compose,
    from_cactus,
    identity_md,
    locate,
    md_from_data,
    parse_cactus,
    parse_diagram,
    random_md,
    region_walk,
    regions_report,
    relabel,
    rep_diagram,
    to_cactus,
    validate_diagram,
)
from orbistring.gchords import from_gdiagram_json, g_compose, incoming_holonomy, random_gdiagram
from orbistring.groups import catalog_group


def test_validate_trivial():
    d = validate_diagram(1, [], [F(1, 3)])
    assert d.n == 1 and d.perimeter(1) == 1
    rep = regions_report(d)
    assert rep[0]["perimeter"] == "1"


def test_crossing_rejected_with_witness():
    with pytest.raises(DiagramError) as exc:
        validate_diagram(3, [(F(1, 10), F(4, 10)), (F(2, 10), F(6, 10))], [F(0), F(15, 100), F(3, 10)])
    assert exc.value.kind == "crossing"
    assert exc.value.witness == (0, 1)


def test_cycle_rejected():
    with pytest.raises(DiagramError) as exc:
        validate_diagram(
            4,
            [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8)), (F(5, 8), F(1, 8))],
            [F(0), F(2, 8), F(4, 8), F(6, 8)],
        )
    assert exc.value.kind == "cycle"


def test_mark_off_region():
    with pytest.raises(DiagramError) as exc:
        validate_diagram(2, [(F(1, 4), F(3, 4))], [F(1, 8), F(7, 8)])  # both in the outer region
    assert exc.value.kind == "mark-off-region"


# One input per DiagramError kind that validation can reach, two for arity (the
# chord count and the mark count), plus one input with two faults, pinning which
# check runs first.
ERROR_KIND_CASES = [
    ("bad-coordinate", 2, [(F(1, 4), F(5, 4))], [F(0), F(1, 2)]),
    ("arity", 3, [(F(1, 4), F(3, 4))], [F(0), F(1, 2), F(7, 8)]),  # chord count
    ("arity", 2, [(F(1, 4), F(3, 4))], [F(0)]),  # mark count
    ("crossing", 3, [(F(1, 10), F(4, 10)), (F(2, 10), F(6, 10))], [F(0), F(15, 100), F(3, 10)]),
    ("cycle", 4, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8)), (F(5, 8), F(1, 8))], [F(0), F(2, 8), F(4, 8), F(6, 8)]),
    ("mark-off-region", 2, [(F(1, 4), F(3, 4))], [F(1, 8), F(7, 8)]),
    ("arity", 3, [(F(1, 10), F(4, 10)), (F(2, 10), F(6, 10))], [F(0), F(15, 100)]),  # marks + crossing
]


@pytest.mark.parametrize("validate", [validate_diagram, md_from_data])
@pytest.mark.parametrize("kind,n,chords,marks", ERROR_KIND_CASES)
def test_error_kinds(validate, kind, n, chords, marks):
    with pytest.raises(DiagramError) as exc:
        validate(n, chords, marks)
    assert exc.value.kind == kind


# Kinds raised under src/ that no input reaches, each with the reason.
UNREACHABLE_KINDS = {
    "zero-measure": "a non-crossing forest of n-1 chords always cuts n regions",
}


def test_error_kinds_are_pinned():
    """Every DiagramError kind the package raises has an input in ERROR_KIND_CASES
    or a reason in UNREACHABLE_KINDS, and every pinned kind is still raised."""
    raised = set()
    for path in (Path(__file__).resolve().parents[1] / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "DiagramError":
                raised.add(ast.literal_eval(node.args[0]))
    assert raised == {case[0] for case in ERROR_KIND_CASES} | set(UNREACHABLE_KINDS)


def _random_chord_set(rng):
    """1-7 chords on a small pool of points with mixed denominators up to 24,
    each given in a random orientation, with occasional duplicate chords."""
    k = rng.randint(1, 7)
    dens = rng.sample(range(2, 25), rng.randint(1, 3))
    pool = set()
    while len(pool) < 2:
        pool |= {F(rng.randrange(d), d) for d in dens for _ in range(k + 1)}
    pool = sorted(pool)
    out = []
    for _ in range(k):
        x, y = rng.choice(out) if out and rng.random() < 0.1 else rng.sample(pool, 2)
        out.append((x, y) if rng.random() < 0.5 else (y, x))
    return out


def _crossing_oracle(chords):
    """(kind, witness) of the first crossing or cycle, by brute force: two chords
    cross when their four endpoints are distinct and interleave in [0, 1)."""
    spans = [tuple(sorted(c)) for c in chords]
    for i, (a, b) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            c, d = spans[j]
            if len({a, b, c, d}) == 4 and (a < c < b < d or c < a < d < b):
                return "crossing", (i, j)
    component = {}
    for idx, (x, y) in enumerate(chords):
        cx = component.get(x, {x})
        if y in cx:
            return "cycle", idx
        merged = cx | component.get(y, {y})
        component.update(dict.fromkeys(merged, merged))
    return None


def _decompose_on_ticks(n, chords):
    """_decompose of Fraction chords in [0, 1) on ticks modulo 2L, L the lcm of
    their denominators, so every arc has a midpoint tick."""
    L = 2 * lcm(*(v.denominator for c in chords for v in c))
    return _decompose(n, L, [(_tick(x, L), _tick(y, L)) for x, y in chords])


def test_crossing_detection_matches_oracle():
    rng = random.Random(3000)
    seen = {"crossing": 0, "cycle": 0, None: 0}
    for _ in range(3000):
        cl = _random_chord_set(rng)
        n = len(cl) + 1
        expected = _crossing_oracle(cl)
        seen[expected and expected[0]] += 1
        if expected is None:
            dec = _decompose_on_ticks(n, cl)
            marks = [next(F(u[1] + u[2] // 2, dec.L) for u in f if u[0] == "seg") % 1 for f in dec.faces]
            assert validate_diagram(n, cl, marks).n == n
            continue
        with pytest.raises(DiagramError) as exc:
            validate_diagram(n, cl, [F(0)] * n)
        assert (exc.value.kind, exc.value.witness) == expected, cl
    assert min(seen.values()) > 500, seen


def test_crossing_reported_before_cycle():
    cl = [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8)), (F(5, 8), F(1, 8)), (F(1, 4), F(3, 4))]
    with pytest.raises(DiagramError) as exc:
        validate_diagram(5, cl, [F(0)] * 5)
    assert (exc.value.kind, exc.value.witness) == ("crossing", (0, 3))


def test_large_coprime_denominators():
    with pytest.raises(DiagramError) as exc:
        validate_diagram(3, [(F(1, 7), F(5, 11)), (F(1234, 9973), F(3, 11))], [F(0)] * 3)
    assert (exc.value.kind, exc.value.witness) == ("crossing", (0, 1))
    cl = [(F(5, 11), F(1, 7)), (F(5, 11), F(9, 13)), (F(1234, 9973), F(10, 13))]
    d = validate_diagram(4, cl, [F(0), F(1, 5), F(1, 2), F(7, 10)])
    assert d.clusters == ((F(1234, 9973), F(10, 13)), (F(1, 7), F(5, 11), F(9, 13)))
    assert d.arc_labels == (4, 2, 3, 4, 1)
    assert regions_report(d) == [
        {"label": 1, "perimeter": "45961/129649",
         "loop": [{"arc": ["10/13", "45961/129649"]}, {"pass": ["1234/9973", "10/13"]}]},
        {"label": 2, "perimeter": "24/77", "loop": [{"arc": ["1/7", "24/77"]}, {"pass": ["5/11", "1/7"]}]},
        {"label": 3, "perimeter": "34/143", "loop": [{"arc": ["5/11", "34/143"]}, {"pass": ["9/13", "5/11"]}]},
        {"label": 4, "perimeter": "87166/907543",
         "loop": [{"arc": ["1234/9973", "1335/69811"]}, {"pass": ["1/7", "9/13"]},
                  {"arc": ["9/13", "1/13"]}, {"pass": ["10/13", "1234/9973"]}]},
    ]


def test_zero_measure_region_rejected(monkeypatch):
    # negative control for the region-count gate: validation rejects crossings
    # before it, so with the crossing sweep reporting none two crossing chords
    # bound one region where three are needed
    monkeypatch.setattr(chords, "_crosses", lambda ticks: False)
    with pytest.raises(DiagramError) as exc:
        _decompose(3, 10, [(1, 4), (2, 6)])
    assert exc.value.kind == "zero-measure"
    assert str(exc.value) == "expected 3 regions, found 1"


def test_pairwise_scan_names_every_crossing_the_sweep_finds():
    # _clusters raises nothing of its own after the scan: the sweep finds a
    # crossing exactly when some pair crosses, chords sharing ends included
    rng = random.Random(32)
    found = 0
    for _ in range(3000):
        spans = [tuple(sorted(rng.sample(range(10), 2))) for _ in range(rng.randint(2, 5))]
        try:
            chords._check_crossings(spans)
            named = False
        except DiagramError as exc:
            named = exc.kind == "crossing"
        assert chords._crosses(spans) == named, spans
        found += named
    assert 500 < found < 2500


_CACTUS = {
    "perimeters": [[1, 2], [1, 2]],
    "joints": [[[1, [0, 1]], [2, [0, 1]]]],
    "base_lobe": 1,
    "base_offset": [1, 4],
}


@pytest.mark.parametrize(
    "parse,data,entry",
    [
        (parse_diagram, {"n": 2, "chords": [[1, 4, 3, 4, 5]], "marks": [[0, 1], [1, 2]]}, "chord [1, 4, 3, 4, 5]"),
        (parse_diagram, {"n": 2, "chords": [[1, 4, 3, 4]], "marks": [[0, 1, 7], [1, 2]]}, "mark [0, 1, 7]"),
        (
            lambda blob: from_gdiagram_json(blob, catalog_group),
            {"n": 2, "chords": [[1, 4, 3, 4, 1]], "marks": [[1, 2], [0, 1]], "group": "Z2", "outer": 0,
             "lifts": [0, 0]},
            "chord [1, 4, 3, 4, 1]",
        ),
        (parse_cactus, {**_CACTUS, "perimeters": [[1, 2, 3], [1, 2]]}, "perimeter [1, 2, 3]"),
        (parse_cactus, {**_CACTUS, "joints": [[[1, [0, 1, 5]], [2, [0, 1]]]]}, "joint offset [0, 1, 5]"),
        (parse_cactus, {**_CACTUS, "base_offset": [1, 4, 9]}, "base_offset [1, 4, 9]"),
    ],
)
def test_over_long_coordinate_entries_rejected(parse, data, entry):
    with pytest.raises((DiagramError, CactusError)) as exc:
        parse(json.dumps(data))
    assert entry in str(exc.value)
    assert getattr(exc.value, "kind", "bad-coordinate") == "bad-coordinate"


def test_regions_report_shared_endpoint():
    # the two-chord diagram of demos/chord_operad.py
    d = validate_diagram(3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], [F(2, 8), F(4, 8), F(7, 8)])
    assert regions_report(d) == [
        {"label": 1, "perimeter": "1/4", "loop": [{"arc": ["1/8", "1/4"]}, {"pass": ["3/8", "1/8"]}]},
        {"label": 2, "perimeter": "1/4", "loop": [{"arc": ["3/8", "1/4"]}, {"pass": ["5/8", "3/8"]}]},
        {"label": 3, "perimeter": "1/2", "loop": [{"arc": ["5/8", "1/2"]}, {"pass": ["1/8", "5/8"]}]},
    ]


def _region_digest_lines():
    """Regions of a seeded stream of raw diagrams: random non-crossing matchings
    with up to 7 merges of adjacent vertices, so clusters reach 5 or more
    vertices and nest.  Merges that close a cycle are recorded as rejections."""
    rng = random.Random(2024)
    for _ in range(1500):
        m = rng.randint(1, 9)
        coords = sorted(F(k, 64) for k in rng.sample(range(64), 2 * m))
        chords = [(coords[a], coords[b]) for a, b in _random_noncrossing_matching(rng, m)]
        for _ in range(rng.randint(0, min(7, 2 * m - 2))):
            verts = sorted({v for c in chords for v in c})
            i = rng.randrange(len(verts) - 1)
            a, b = verts[i], verts[i + 1]
            merged = [(a if x == b else x, a if y == b else y) for x, y in chords]
            if all(x != y for x, y in merged):  # a chord from a to b would shrink to a point
                chords = merged
        try:
            dec = _decompose_on_ticks(m + 1, chords)
        except DiagramError as e:
            yield [e.kind, str(e)]
            continue
        L = dec.L
        faces = [
            [["pass", str(u[1]), str(F(u[2], L)), str(F(u[3], L))] if u[0] == "pass"
             else [u[0], str(F(u[1], L)), str(F(u[2], L))] for u in f]
            for f in dec.faces
        ]
        marks = [next(u[1] + u[2] // 2 for u in f if u[0] == "seg") for f in dec.faces]
        d = _label(dec, [z % L for z in marks])
        yield [
            faces,
            list(dec.arc_face),
            list(d.arc_labels),
            [[str(v) for v in g] for g in d.clusters],
            [str(d.perimeter(lab)) for lab in range(1, d.n + 1)],
        ]


def _placement_oracle(chords, marks):
    """(kind, arc labels) of validating a non-crossing chord set, by brute force.

    Two arcs between consecutive vertices lie in one region when no chord
    separates them; regions are ranked by their least arc start.  A mark inside
    an arc may go only to that arc's region, a mark on a vertex to any region
    with an arc starting in the vertex's cluster.  Every assignment of marks to
    regions is tried in lexicographic order of the ranks, and the first that
    fits labels each region by its mark."""
    comp = {v: {v} for c in chords for v in c}
    for x, y in chords:
        if y in comp[x]:
            return "cycle", None
        merged = comp[x] | comp[y]
        comp.update(dict.fromkeys(merged, merged))
    verts = sorted(comp)
    if not verts:
        return None, ()
    arcs = [(a, (b - a) % 1 or 1) for a, b in zip(verts, verts[1:] + verts[:1])]
    sides = [tuple(min(c) < (a + w / 2) % 1 < max(c) for c in chords) for a, w in arcs]
    ranked = sorted(set(sides), key=lambda s: min(a for (a, _), t in zip(arcs, sides) if t == s))
    region = [ranked.index(s) for s in sides]

    def candidates(z):
        if z in comp:
            return {r for (a, _), r in zip(arcs, region) if a in comp[z]}
        return {region[max((i for i, v in enumerate(verts) if v < z), default=len(verts) - 1)]}

    cand = [candidates(z) for z in marks]
    for ranks in permutations(range(len(marks))):
        if all(r in c for r, c in zip(ranks, cand)):
            label = {r: i + 1 for i, r in enumerate(ranks)}
            return None, tuple(label[r] for r in region)
    return "mark-off-region", None


def test_mark_placement_matches_permutation_oracle():
    # random forests of up to 4 chords on twelfths, with adjacent vertices
    # merged so clusters grow, and half the marks put on a chord vertex
    rng = random.Random(1515)
    seen = {"placed": 0, "mark-off-region": 0, "cycle": 0, "ambiguous": 0}
    for _ in range(1500):
        m = rng.randint(0, 4)
        coords = sorted(F(k, 12) for k in rng.sample(range(12), 2 * m))
        chords = [(coords[a], coords[b]) for a, b in _random_noncrossing_matching(rng, m)]
        for _ in range(rng.randint(0, 2) if m > 1 else 0):
            verts = sorted({v for c in chords for v in c})
            i = rng.randrange(len(verts) - 1)
            merged = [tuple(verts[i] if v == verts[i + 1] else v for v in c) for c in chords]
            if all(x != y for x, y in merged):
                chords = merged
        verts = sorted({v for c in chords for v in c})
        marks = []
        for _ in range(m + 1):
            if not verts:
                marks.append(F(rng.randrange(12), 12))
            elif rng.random() < 0.5:
                marks.append(rng.choice(verts))
            else:
                a = rng.choice(verts)
                b = min((v for v in verts if v > a), default=verts[0] + 1)
                marks.append((a + b) / 2 % 1)
        kind, labels = _placement_oracle(chords, marks)
        seen["ambiguous"] += kind is None and any(z in verts for z in marks)
        seen[kind or "placed"] += 1
        if kind is None:
            assert validate_diagram(m + 1, chords, marks).arc_labels == labels, (chords, marks)
            continue
        with pytest.raises(DiagramError) as exc:
            validate_diagram(m + 1, chords, marks)
        assert exc.value.kind == kind, (chords, marks)
    assert min(seen["placed"], seen["mark-off-region"], seen["ambiguous"]) >= 400 and seen["cycle"] >= 30, seen


def _backtrack_placement(dec, marks):
    """(face of each mark or None, candidate faces of each mark) by the recursive
    backtracker _label ran before it placed marks by one matching: candidates in
    ascending order, so the first placement found is the lexicographically least."""
    n = len(dec.faces)
    touched = [{u[1] for u in units if u[0] == "pass"} for units in dec.faces]
    cluster_at = {u[2]: u[1] for units in dec.faces for u in units if u[0] == "pass"}
    cand = [[f for f in range(n) if cluster_at[z] in touched[f]] if z in cluster_at else [dec.face_of_point(z)]
            for z in marks]
    assignment = [None] * n

    def backtrack(mi, used):
        if mi == n:
            return True
        for f in cand[mi]:
            if f not in used:
                assignment[mi] = f
                if backtrack(mi + 1, used | {f}):
                    return True
        assignment[mi] = None
        return False

    return (assignment if backtrack(0, set()) else None), cand


def test_mark_matching_matches_the_backtracking_oracle():
    # forests of up to 7 chords on 24ths (ticks of 48ths, so a mark off the
    # vertices sits on an odd tick), adjacent vertices merged so clusters grow,
    # and about 70% of the marks on a chord vertex
    rng = random.Random(3434)
    seen = {"placed": 0, "shared cluster": 0, "refused": 0, "hall of 3+": 0}
    for _ in range(6000):
        m = rng.randint(0, 7)
        ends = sorted(2 * t for t in rng.sample(range(24), 2 * m))
        chords = [(ends[a], ends[b]) for a, b in _random_noncrossing_matching(rng, m)]
        for _ in range(rng.randint(0, 3) if m > 1 else 0):
            verts = sorted({v for c in chords for v in c})
            i = rng.randrange(len(verts) - 1)
            merged = [tuple(verts[i] if v == verts[i + 1] else v for v in c) for c in chords]
            if all(x != y for x, y in merged):
                chords = merged
        try:
            dec = _decompose(m + 1, 48, chords)
        except DiagramError:  # a merge closed a cycle
            continue
        verts = dec.vertices
        marks = [
            rng.choice(verts) if verts and rng.random() < 0.7 else 2 * rng.randrange(24) + 1 for _ in range(m + 1)
        ]
        placement, cand = _backtrack_placement(dec, marks)
        if placement is None:
            with pytest.raises(DiagramError) as exc:
                _label(dec, marks)
            hall = exc.value.witness
            assert exc.value.kind == "mark-off-region" and hall == tuple(sorted(set(hall))), (chords, marks)
            assert len(set().union(*(cand[i] for i in hall))) < len(hall), (chords, marks, hall)
            seen["refused"] += 1
            seen["hall of 3+"] += len(hall) >= 3
            continue
        d = _label(dec, marks)
        label_of_face = {f: mi + 1 for mi, f in enumerate(placement)}
        assert d.arc_labels == tuple(label_of_face[f] for f in dec.arc_face), (chords, marks)
        assert d.regions == tuple(tuple(dec.faces[f]) for f in placement), (chords, marks)
        seen["placed"] += 1
        on = [ci for z in marks for ci, grp in enumerate(dec.clusters) if z in grp]
        seen["shared cluster"] += len(on) > len(set(on))
    assert min(seen.values()) >= 250, seen


def test_fan_refusal_names_a_hall_set():
    # n-1 chords from 0 to k/n, n-2 marks at 0 and two marks inside (0, 1/n):
    # both inner marks need the one region on that arc
    for n in (10, 40):
        chords = [(F(0), F(k, n)) for k in range(1, n)]
        marks = [F(0)] * (n - 2) + [F(1, 3 * n), F(2, 3 * n)]
        start = time.perf_counter()
        with pytest.raises(DiagramError) as exc:
            validate_diagram(n, chords, marks)
        assert time.perf_counter() - start < 0.05, n
        assert (exc.value.kind, str(exc.value), exc.value.witness) == (
            "mark-off-region", f"marks [{n - 1}, {n}] outnumber their regions", (n - 2, n - 1)
        )


def test_large_nested_diagram_validates():
    # 1,100 regions cut by nested chords k/L to 1 - k/L, each mark inside an arc of
    # its own region: one recursion per mark would overflow the stack here
    n, L = 1100, 4400
    d = validate_diagram(n, [(F(k, L), F(L - k, L)) for k in range(1, n)], [F(2 * k + 1, 2 * L) for k in range(n)])
    assert d.arc_labels == tuple(range(2, 1101)) + tuple(range(1099, 0, -1))


def test_input_checks_off_the_cli_name_their_witness():
    # relabel and the walk-position check are reached by no CLI verb
    md = random_md(random.Random(1), 2)
    with pytest.raises(DiagramError) as exc:
        relabel(md, [0, 0])
    assert (exc.value.kind, str(exc.value), exc.value.witness) == ("arity", "not a permutation of the labels", (0, 0))
    tape = region_walk(md, 1)
    for s in (tape.total, -1):
        with pytest.raises(DiagramError) as exc:
            locate(tape, s)
        want = ("bad-coordinate", "walk position out of range", s)
        assert (exc.value.kind, str(exc.value), exc.value.witness) == want


def test_region_digest():
    # pinned on the half-edge face traversal, with its chord jumps left out
    digest = hashlib.sha256()
    for line in _region_digest_lines():
        digest.update(json.dumps(line).encode() + b"\n")
    assert digest.hexdigest() == "b9e840c22806de5879570d444caef1505ca5f64519a0e03bcd6871c2140e6d2e"


def test_shared_endpoint_three_regions():
    d = validate_diagram(3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], [F(2, 8), F(4, 8), F(7, 8)])
    assert [d.perimeter(i) for i in (1, 2, 3)] == [F(1, 4), F(1, 4), F(1, 2)]
    assert d.clusters == ((F(1, 8), F(3, 8), F(5, 8)),)
    assert d.arc_labels == (1, 2, 3)


def test_single_chord_regions():
    a, b = F(1, 10), F(4, 10)
    d = validate_diagram(2, [(a, b)], [F(2, 10), F(6, 10)])
    assert d.perimeter(1) == b - a
    assert d.perimeter(2) == 1 - b + a


def test_gamma_moves_do_not_change_class():
    base = md_from_data(3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], [F(2, 8), F(4, 8), F(7, 8)])
    flipped = md_from_data(3, [(F(3, 8), F(1, 8)), (F(5, 8), F(3, 8))], [F(2, 8), F(4, 8), F(7, 8)])
    permuted = md_from_data(3, [(F(3, 8), F(5, 8)), (F(1, 8), F(3, 8))], [F(2, 8), F(4, 8), F(7, 8)])
    assert base == flipped == permuted


def test_forest_equivalence_tree_shapes():
    # same 3-vertex cluster, two different tree shapes, same labels
    marks = [F(2, 8), F(4, 8), F(7, 8)]
    path = md_from_data(3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], marks)
    vee = md_from_data(3, [(F(1, 8), F(5, 8)), (F(3, 8), F(5, 8))], marks)
    assert path == vee
    assert path.rep_chords() == ((F(1, 8), F(3, 8)), (F(3, 8), F(5, 8)))


def test_marks_on_cluster_vertices_normalize():
    marks = [F(3, 8), F(4, 8), F(7, 8)]  # z_1 on the vertex 3/8
    md = md_from_data(3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], marks)
    assert md.marks[0] == F(1, 8)  # moved to the cluster's least coordinate


def test_two_marks_on_one_cluster_disambiguated_by_labels():
    chords = [(F(1, 4), F(3, 4))]
    a = md_from_data(2, chords, [F(1, 4), F(3, 4)])
    b = md_from_data(2, chords, [F(1, 4), F(3, 4)], [2, 1])
    assert a.marks == b.marks == (F(1, 4), F(1, 4))
    assert a != b  # the same marks carry two genuinely different labelings


def test_compose_units():
    e = identity_md()
    c = md_from_data(2, [(F(1, 10), F(4, 10))], [F(2, 10), F(6, 10)])
    assert compose(e, [c]) == c
    assert compose(c, [e, e]) == c
    assert compose(e, [e]) == e


def test_compose_one_chord_example():
    c = md_from_data(2, [(F(1, 10), F(4, 10))], [F(2, 10), F(6, 10)])
    e = identity_md()
    out = compose(c, [e, e])
    assert out.rep_chords() == c.rep_chords()


def test_compose_arity_mismatch():
    c = md_from_data(2, [(F(1, 10), F(4, 10))], [F(2, 10), F(6, 10)])
    with pytest.raises(DiagramError) as exc:
        compose(c, [identity_md()])
    assert exc.value.kind == "arity"


def test_region_labels_out_of_range():
    # label 0 used to read region n through a negative index, and label n + 1
    # ended in an IndexError
    md = md_from_data(2, [(F(1, 10), F(4, 10))], [F(2, 10), F(6, 10)])
    for label in (0, 3):
        for call in (lambda: region_walk(md, label), lambda: md.perimeter(label)):
            with pytest.raises(DiagramError) as exc:
                call()
            assert exc.value.kind == "arity" and exc.value.witness == label
            assert str(exc.value) == f"region label {label} out of range 1..2"


def test_compose_associativity_random():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(1, 3)
        c = random_md(rng, m)
        parts = [random_md(rng, rng.randint(1, 3)) for _ in range(m)]
        inner = [[random_md(rng, rng.randint(1, 2)) for _ in range(p.n)] for p in parts]
        left = compose(compose(c, parts), [w for grp in inner for w in grp])
        right = compose(c, [compose(p, grp) for p, grp in zip(parts, inner)])
        assert left == right


def test_compose_preserves_total_perimeter():
    rng = random.Random(5)
    for _ in range(25):
        c = random_md(rng, rng.randint(1, 3))
        parts = [random_md(rng, rng.randint(1, 2)) for _ in range(c.n)]
        out = compose(c, parts)
        assert sum((out.perimeter(i + 1) for i in range(out.n)), F(0)) == 1


def test_relabel_is_action():
    rng = random.Random(8)
    for _ in range(20):
        c = random_md(rng, 3)
        s1 = [1, 2, 0]
        s2 = [2, 0, 1]
        comp = [s2[s1[i]] for i in range(3)]
        assert relabel(relabel(c, s1), s2) == relabel(c, comp)
        assert relabel(c, [0, 1, 2]) == c


def test_cactus_examples():
    e = identity_md()
    k = to_cactus(e)
    assert k.perimeters == (F(1),)
    assert k.base_lobe == 1 and k.base_offset == 0 and not k.joints
    c = md_from_data(2, [(F(1, 10), F(4, 10))], [F(2, 10), F(6, 10)])
    k2 = to_cactus(c)
    assert sorted(k2.perimeters) == [F(3, 10), F(7, 10)]
    assert len(k2.joints) == 1 and len(k2.joints[0]) == 2
    assert from_cactus(k2) == c


def test_cactus_roundtrip_random():
    rng = random.Random(21)
    for _ in range(120):
        c = random_md(rng, rng.randint(1, 5))
        assert from_cactus(to_cactus(c)) == c


def test_three_lobe_chain_cactus():
    # lobes 1-2-3 in a chain: joints (1,2) and (2,3)
    k = Cactus(
        perimeters=(F(1, 4), F(1, 4), F(1, 2)),
        joints=(
            ((1, F(1, 8)), (2, F(1, 8))),
            ((2, F(3, 16)), (3, F(1, 4))),
        ),
        base_lobe=3,
        base_offset=F(1, 8),
    )
    md = from_cactus(k)
    assert md.n == 3
    assert len(md.clusters) == 2
    assert all(len(g) == 2 for g in md.clusters)
    assert to_cactus(md) == Cactus(k.perimeters, tuple(sorted(k.joints)), k.base_lobe, k.base_offset)


def test_invalid_cactus_rejected():
    with pytest.raises(CactusError):
        from_cactus(Cactus((F(1, 2), F(1, 4)), (), 1, F(0)))  # perimeters do not sum to 1
    with pytest.raises(CactusError):
        # disconnected: two lobes, no joints
        from_cactus(Cactus((F(1, 2), F(1, 2)), (), 1, F(0)))


def test_cactus_reader_fuzz():
    """Every to_cactus output reads back through JSON to its class, and every
    perturbation of one (a joint dropped, a joint added, base_on_joint flipped)
    is refused with a CactusError, never a DiagramError: a dropped joint
    disconnects the tree of lobes, an added one closes a cycle, and a flipped
    flag contradicts the joints."""
    rng = random.Random(53)
    for _ in range(150):
        c = random_md(rng, rng.randint(1, 5))
        k = to_cactus(c)
        assert 0 <= k.base_offset < k.perimeters[k.base_lobe - 1]  # the reader refuses any other offset
        data = k.to_json()
        assert from_cactus(parse_cactus(json.dumps(data))) == c
        perims = [F(*p) for p in data["perimeters"]]
        n = len(perims)
        perturbed = [{**data, "base_on_joint": not data["base_on_joint"]}]
        if data["joints"]:
            drop = rng.randrange(len(data["joints"]))
            perturbed.append({**data, "joints": data["joints"][:drop] + data["joints"][drop + 1 :]})
        if n > 1:
            extra = []
            for lobe in rng.sample(range(1, n + 1), rng.randint(2, min(n, 3))):
                off = perims[lobe - 1] * F(rng.randrange(4), 4)
                extra.append([lobe, [off.numerator, off.denominator]])
            perturbed.append({**data, "joints": data["joints"] + [extra]})
        for blob in perturbed:
            with pytest.raises(CactusError):
                from_cactus(parse_cactus(json.dumps(blob)))
    crosswise = {
        "perimeters": [[1, 2], [1, 2]],
        "joints": [[[1, [0, 1]], [2, [1, 4]]], [[1, [1, 4]], [2, [0, 1]]]],
        "base_lobe": 1,
        "base_offset": [1, 8],
    }
    with pytest.raises(CactusError, match="^joint 1 closes a cycle through lobe 2$"):
        from_cactus(parse_cactus(crosswise))


def test_diagram_json_roundtrip():
    c = md_from_data(3, [(F(1, 8), F(3, 8)), (F(3, 8), F(5, 8))], [F(2, 8), F(4, 8), F(7, 8)])
    blob = json.dumps(c.to_json())
    again = parse_diagram(blob)
    assert again == c
    k = to_cactus(c)
    again_k = parse_cactus(json.dumps(k.to_json()))
    assert again_k == k


def test_canonicalization_idempotent_random():
    rng = random.Random(4)
    for _ in range(60):
        c = random_md(rng, rng.randint(1, 4))
        d = rep_diagram(c)
        assert canonical_md(d) == c


def test_mark_on_base_point_u():
    # u = 0 sitting on a chord vertex exercises the base-lobe orientation rule
    c = md_from_data(2, [(F(0), F(1, 2))], [F(1, 4), F(3, 4)])
    k = to_cactus(c)
    assert k.base_on_joint
    assert from_cactus(k) == c


def compose_cactus(base: Cactus, parts: list[Cactus]) -> Cactus:
    """Operad composition on the cactus side, independent of chord diagrams.

    Lobe i of the base is replaced by part i scaled to its perimeter, anchored
    at the lobe's marked point; base joints transfer through the part's
    boundary parameterization.  Raises on the degenerate case where a base
    joint lands exactly on a part joint (the joints would merge; the diagram
    route handles that case).
    """
    n = len(base.perimeters)
    if len(parts) != n:
        raise CactusError(f"need {n} parts, got {len(parts)}")
    offsets = []
    acc = 0
    for p in parts:
        offsets.append(acc)
        acc += len(p.perimeters)
    walks = []
    for p in parts:
        L, _, segments, _ = _cactus_walk(p)
        walks.append([(F(g0, L), F(dl, L), lobe, F(loff, L)) for g0, dl, lobe, loff in segments])

    def locate(i: int, off: F) -> tuple[int, F]:
        """Base-lobe-i offset -> (composite lobe, composite lobe offset)."""
        r_i = base.perimeters[i - 1]
        s = off / r_i  # position along part i's unit boundary
        part = parts[i - 1]
        for g0, dl, lobe, loff in walks[i - 1]:
            if g0 <= s < g0 + dl:
                t = (loff + (s - g0)) % part.perimeters[lobe - 1]
                for joint in part.joints:
                    if any(lo == lobe and of == t for lo, of in joint):
                        raise CactusError("base joint lands on a part joint")
                return offsets[i - 1] + lobe, t * r_i
        raise CactusError("position not found on the part boundary")

    perims = []
    for i, p in enumerate(parts):
        for q in p.perimeters:
            perims.append(q * base.perimeters[i])
    joints = []
    for p, off0, i in zip(parts, offsets, range(1, n + 1)):
        for joint in p.joints:
            joints.append(
                _canonical_joint([(off0 + lo, of * base.perimeters[i - 1]) for lo, of in joint])
            )
    for joint in base.joints:
        joints.append(_canonical_joint([locate(lo, of) for lo, of in joint]))
    if base.base_on_joint:
        raise CactusError("base point on a joint is outside the generic composition")
    bl, boff = locate(base.base_lobe, base.base_offset)
    return Cactus(tuple(perims), tuple(sorted(joints)), bl, boff)


def _locate_circle(tape, s):
    """locate at the walk position s given as a Fraction of the circle, on the
    tape scaled to s's denominator; the coordinate is read back as a Fraction."""
    fine = tape.scaled((s * tape.L).denominator)
    kind, tick = locate(fine, int(s * fine.L))
    return kind, F(tick, fine.L)


def _witness_arc_labels(base, parts):
    """Interval labels of the composite by the interior-witness rule, independent
    of the parts' own interval labels: a point strictly inside one arc of part
    region j is carried along the base walk, past the composite vertices, and
    the composite region holding it gets the renumbered label offset + j.
    Also returns whether some part vertex lands on a base cluster passage."""
    tapes = [region_walk(base, i + 1) for i in range(base.n)]
    new_chords = list(rep_diagram(base).chords)
    on_passage = False
    for part, tape in zip(parts, tapes):
        r = F(tape.total, tape.L)
        on_passage |= any(_locate_circle(tape, r * x)[0] == "vertex" for grp in part.clusters for x in grp)
        new_chords += [(_locate_circle(tape, r * x)[1], _locate_circle(tape, r * y)[1]) for x, y in part.rep_chords()]
    dec = _decompose_on_ticks(sum(p.n for p in parts), new_chords)
    vertex_set = {F(v, dec.L) for v in dec.vertices}
    face_label = {}
    offset = 0
    for part, tape in zip(parts, tapes):
        pd = rep_diagram(part)
        r = F(tape.total, tape.L)
        for j in range(1, part.n + 1):
            seg = next(u for u in pd.regions[j - 1] if u[0] == "seg")
            for k in range(2, 67):
                kind, coord = _locate_circle(tape, r * ((F(seg[1], pd.L) + F(seg[2], k * pd.L)) % 1))
                if kind == "point" and coord not in vertex_set:
                    break
            else:
                raise AssertionError(f"no interior witness for region {j} of part {part}")
            assert face_label.setdefault(dec.face_of_point(coord * dec.L), offset + j) == offset + j
        offset += part.n
    return tuple(face_label[f] for f in dec.arc_face), on_passage


def test_composite_labels_match_interior_witnesses():
    rng = random.Random(1313)
    on_passage = 0
    for _ in range(2000):
        base = random_md(rng, rng.randint(1, 5))
        parts = [identity_md() if rng.random() < 0.2 else random_md(rng, rng.randint(1, 5)) for _ in range(base.n)]
        expected, hit = _witness_arc_labels(base, parts)
        assert _composite(base, parts)[0].arc_labels == expected, (base, parts)
        on_passage += hit
    assert on_passage >= 100, on_passage


def _least_scale(md):
    """The lcm of the reduced denominators of a class's coordinates, read through its Fraction views."""
    return lcm(*(v.denominator for v in md.marks + tuple(v for grp in md.clusters for v in grp)))


def test_classes_on_different_scales_compare_equal():
    quarter = md_from_data(2, [(F(1, 4), F(3, 4))], [F(1, 2), F(0)])
    # the same diagram laid out on eighths, 2/8 for 1/4
    eighths = canonical_md(_label(_decompose(2, 8, [(2, 6)]), [4, 0]))
    # a composite on the common scale 4·2 whose coordinates are all quarters
    half = md_from_data(2, [(F(0), F(1, 2))], [F(0), F(1, 2)])
    composite = compose(quarter, [half, identity_md()])
    fresh = md_from_data(composite.n, composite.rep_chords(), composite.marks, composite.arc_labels)
    assert (quarter.L, eighths.L, composite.L) == (4, 4, 4)
    for a, b in ((quarter, eighths), (composite, fresh)):
        assert a == b and hash(a) == hash(b) and a.to_json() == b.to_json()
        rep_diagram.cache_clear()
        rep_diagram(a)
        rep_diagram(b)
        assert rep_diagram.cache_info()[:2] == (1, 1)  # one hit, one miss


def test_compose_returns_least_scale():
    rng = random.Random(41)
    reduced = 0
    for _ in range(300):
        base = random_md(rng, rng.randint(1, 4))
        parts = [random_md(rng, rng.randint(1, 3)) for _ in range(base.n)]
        out = compose(base, parts)
        assert out.L == _least_scale(out)
        reduced += out.L < base.L * lcm(*(p.L for p in parts))
    assert reduced >= 100, reduced


def test_compose_validates_no_part():
    # the interior-witness labelling looked each part up in rep_diagram, a cache
    # miss that validated every fresh part
    rng = random.Random(31)
    base = random_md(rng, 4)
    parts = [random_md(rng, rng.randint(1, 3)) for _ in range(base.n)]
    rep_diagram.cache_clear()
    rep_diagram(base)
    misses = rep_diagram.cache_info().misses
    compose(base, parts)
    assert rep_diagram.cache_info().misses == misses


def _oracle_composite(base, parts):
    """Check the composite built from its parts against validation of the same
    chords and marks, given as Fractions, which walks the composite's faces and
    runs every check of the forced-label path; return the number of part
    vertices placed on a base passage."""
    d, tapes = _composite(base, parts)
    v = validate_diagram(d.n, d.chords, d.marks, d.arc_labels)
    assert v.clusters == d.clusters and canonical_md(v) == canonical_md(d), (base, parts)
    if not set(v.mark_ticks) & set(v.vertices):  # each mark then names its region alone
        assert canonical_md(validate_diagram(d.n, d.chords, d.marks)) == canonical_md(d), (base, parts)
    return sum(
        locate(tape, tape.total * x // p.L)[0] == "vertex"
        for p, tape in zip(parts, tapes)
        for grp in p.cluster_ticks
        for x in grp
    )


def test_composite_matches_validation_of_its_chords():
    rng = random.Random(2626)
    on_passage = 0
    for _ in range(600):
        base = random_md(rng, rng.randint(1, 5))
        parts = [identity_md() if rng.random() < 0.2 else random_md(rng, rng.randint(1, 5)) for _ in range(base.n)]
        on_passage += _oracle_composite(base, parts)
    assert on_passage >= 100, on_passage


def test_composite_matches_validation_on_the_criteria_inputs(monkeypatch):
    seen = []

    def checked_compose(base, parts):
        seen.append(_oracle_composite(base, parts))
        return compose(base, parts)

    def checked_g_compose(W, parts):
        seen.append(_oracle_composite(W.base, [p.base for p in parts]))
        return g_compose(W, parts)

    monkeypatch.setattr(st, "compose", checked_compose)
    monkeypatch.setattr(st, "g_compose", checked_g_compose)
    assert st.crit_05_operad(42).ok and st.crit_06_g_operad(42).ok
    assert len(seen) > 6000 and sum(seen) >= 100, (len(seen), sum(seen))  # 6,111 composites, 510 on passages


def _counted_face_walks(monkeypatch):
    """A list that gets one entry per call of chords._face_units, and an S3
    decorated base with parts whose region walks are cached."""
    walks = []
    face_units = chords._face_units
    monkeypatch.setattr(chords, "_face_units", lambda *args: walks.append(args) or face_units(*args))
    rng = random.Random(37)
    G = catalog_group("S3")
    W = random_gdiagram(rng, random_md(rng, 3), G, rng.randrange(G.order))
    parts = [random_gdiagram(rng, random_md(rng, 2), G, h) for h in incoming_holonomy(W)]
    rep_diagram.cache_clear()
    gchords._region_words.cache_clear()
    for p in [W] + parts:
        incoming_holonomy(p)
    walks.clear()
    return walks, W, parts


def test_compose_walks_no_face_of_the_composite(monkeypatch):
    # the composite's class is built from its parts; it used to be validated
    # afresh, face walk included
    walks, W, parts = _counted_face_walks(monkeypatch)
    compose(W.base, [p.base for p in parts])
    assert walks == []


def test_g_compose_walks_the_composite_once(monkeypatch):
    # only the holonomy recheck walks the new class, through rep_diagram
    walks, W, parts = _counted_face_walks(monkeypatch)
    misses = rep_diagram.cache_info().misses
    g_compose(W, parts)
    assert len(walks) == 1 and rep_diagram.cache_info().misses == misses + 1


def test_cactus_correspondence_is_operad_map():
    """The cactus-side composition (independent implementation) matches the
    diagram-side composition transported through the correspondence."""
    rng = random.Random(99)
    checked = 0
    while checked < 60:
        base = random_md(rng, rng.randint(1, 3))
        parts = [random_md(rng, rng.randint(1, 3)) for _ in range(base.n)]
        try:
            via_cactus = compose_cactus(to_cactus(base), [to_cactus(p) for p in parts])
        except CactusError:
            continue  # joint collision or base on a joint: outside the generic case
        assert via_cactus == to_cactus(compose(base, parts))
        checked += 1
