"""Marked chord diagrams on the unit-perimeter circle and their operad.

Coordinates are exact rationals in [0,1) with the initial marked point at 0.
Chords are non-crossing, may share endpoints, and their endpoint graph must be
a forest; the disc then falls into n regions for n-1 chords.  Diagrams,
classes and region walks store each coordinate as an integer tick t standing
for t/L, one scale L per object, and a class on the least L, so equal classes
have equal ticks.  Validation, walks and composition run on ints; Fractions
appear only in the input readers, the Fraction views, to_json, regions_report
and the cactus side.  A composite is built from its parts, labels included,
and its faces are walked only when rep_diagram walks its class.  A cactus
must be a tree of circles: its lobe-joint incidence graph is checked to be
connected and acyclic before its boundary walk unrolls it onto the circle.
Classes are quotients by chord relabeling and flips, by moving marks within a
cluster (the vertex set of one tree), and by forgetting tree shapes: only the
cluster partition and the interval labeling survive, which is exactly the data
this module canonicalizes and compares.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import pairwise
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .groups import _json_int, _load_json


class DiagramError(ValueError):
    """Invalid diagram data, with a machine-readable kind and witness."""

    def __init__(self, kind: str, message: str, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


def _tick(v: Fraction, L: int) -> int:
    """The tick of the point v on a scale L that its denominator divides."""
    return v.numerator * (L // v.denominator)


class _FractionViews:
    """Fraction views of the mark and cluster ticks of a LabeledChords or an MDClass."""

    @property
    def marks(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(z, self.L) for z in self.mark_ticks)

    @property
    def clusters(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.L) for v in grp) for grp in self.cluster_ticks)


@dataclass(frozen=True)
class LabeledChords(_FractionViews):
    """Chords, marks, sorted clusters and interval labels on ticks modulo L: all
    that a class is read from.  A composite is built as this, without regions."""

    n: int
    L: int
    chord_ticks: tuple[tuple[int, int], ...]
    mark_ticks: tuple[int, ...]
    cluster_ticks: tuple[tuple[int, ...], ...]
    arc_labels: tuple[int, ...]  # label of the arc starting at the i-th vertex, sorted

    @property
    def chords(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(x, self.L), Fraction(y, self.L)) for x, y in self.chord_ticks)


@dataclass(frozen=True)
class Diagram(LabeledChords):
    """A validated marked labeled chord diagram with its region decomposition,
    every coordinate and length a tick modulo L."""

    vertices: tuple[int, ...]
    # per region (index = label-1): cyclic unit list, each unit either
    # ("seg", start, length) or ("pass", cluster_index, arrival, departure)
    regions: tuple[tuple[tuple, ...], ...]

    def region(self, label: int) -> tuple[tuple, ...]:
        if not 1 <= label <= self.n:
            raise DiagramError("arity", f"region label {label} out of range 1..{self.n}", label)
        return self.regions[label - 1]

    def perimeter(self, label: int) -> Fraction:
        return Fraction(sum(u[2] for u in self.region(label) if u[0] == "seg"), self.L)


def _crosses(spans: Sequence[tuple[int, int]]) -> bool:
    """Whether two chords, given as (near, far) ticks, cross.  One sweep by near
    end, far ends descending at a tie, keeps the far ends of the open chords on
    a stack, innermost last; non-crossing chords nest, so a chord crosses one
    exactly when it ends beyond the innermost chord still open at its near end."""
    stack: list[int] = []
    for lo, hi in sorted(spans, key=lambda s: (s[0], -s[1])):
        while stack and stack[-1] <= lo:
            stack.pop()
        if stack and stack[-1] < hi:
            return True
        stack.append(hi)
    return False


def _check_crossings(spans: Sequence[tuple[int, int]]) -> None:
    """Name the lexicographically first pair of crossing chords, by a pairwise scan."""
    for i, (a, b) in enumerate(spans):
        for j in range(i + 1, len(spans)):
            c, d = spans[j]
            if a < c < b < d or c < a < d < b:
                raise DiagramError("crossing", f"chords {i} and {j} cross", (i, j))


def _find(parent: dict[int, int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _clusters(chords: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Trees of the endpoint forest of chords given as tick pairs with distinct
    ends, sorted, each sorted; raises on a crossing or on any cycle."""
    spans = [(x, y) if x < y else (y, x) for x, y in chords]
    if _crosses(spans):
        # the sweep returns True only on a pair lo' < lo < hi' < hi, one the scan names
        _check_crossings(spans)
    parent: dict[int, int] = {}
    for x, y in spans:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
    for idx, (x, y) in enumerate(spans):
        rx, ry = _find(parent, x), _find(parent, y)
        if rx == ry:
            raise DiagramError("cycle", f"chord {idx} closes a cycle in the endpoint forest", idx)
        parent[rx] = ry
    groups: dict[int, list[int]] = {}
    for v in parent:
        groups.setdefault(_find(parent, v), []).append(v)
    return tuple(sorted(tuple(sorted(g)) for g in groups.values()))


def _face_units(
    vertices: Sequence[int], clusters: Sequence[Sequence[int]], L: int
) -> tuple[list[list[tuple]], tuple[int, ...]]:
    """Region boundaries as cyclic unit lists, and the region of each arc.

    Vertices, clusters, and the units' coordinates and lengths are ticks modulo
    L.  The arc starting at vertices[i] ends at w = vertices[i+1], where the
    region passes through the cluster of w to the cyclic predecessor of w in
    that sorted cluster and continues along the arc starting there.  For
    non-crossing chords the cycles of this arc permutation, the Kreweras
    complement of the cluster partition, are the regions, whatever the tree
    shapes; crossing chords must be rejected first.  Regions are listed in the
    order of their first arcs and start there.
    """
    V = len(vertices)
    vidx = {v: i for i, v in enumerate(vertices)}
    back = {w: (ci, grp[k - 1]) for ci, grp in enumerate(clusters) for k, w in enumerate(grp)}
    arc_face: list[int | None] = [None] * V
    faces: list[list[tuple]] = []
    for first in range(V):
        if arc_face[first] is not None:
            continue
        units: list[tuple] = []
        i = first
        while arc_face[i] is None:
            arc_face[i] = len(faces)
            w = vertices[(i + 1) % V]
            ci, depart = back[w]
            v = vertices[i]
            units += [("seg", v, (w - v) % L), ("pass", ci, w, depart)]
            i = vidx[depart]
        faces.append(units)
    return faces, tuple(arc_face)


def _arc_of_point(vertices: Sequence[int], z: int) -> int:
    """Index i of the arc starting at vertices[i] that strictly contains the
    non-vertex point z; vertices must be sorted and non-empty."""
    return (bisect_right(vertices, z) - 1) % len(vertices)


@dataclass(frozen=True)
class _Decomposition:
    """Checked chords with their clusters and unlabeled region boundaries."""

    L: int
    chords: tuple[tuple[int, int], ...]
    clusters: tuple[tuple[int, ...], ...]
    vertices: tuple[int, ...]
    faces: list[list[tuple]]
    arc_face: tuple[int, ...]  # face holding the arc that starts at vertices[i]

    def face_of_point(self, z: int) -> int:
        return self.arc_face[_arc_of_point(self.vertices, z)] if self.vertices else 0


def _decompose(n: int, L: int, chords: Sequence[tuple[int, int]]) -> _Decomposition:
    """First validation step: arity, crossings, clusters, regions of chords given
    as tick pairs modulo L with distinct ends."""
    if len(chords) != n - 1:
        raise DiagramError("arity", f"{n} regions need {n - 1} chords, got {len(chords)}", len(chords))
    clusters = _clusters(chords)
    vertices = tuple(sorted(v for grp in clusters for v in grp))
    faces, arc_face = _face_units(vertices, clusters, L) if vertices else ([[("seg", 0, L)]], ())
    if len(faces) != n:
        raise DiagramError("zero-measure", f"expected {n} regions, found {len(faces)}", len(faces))
    return _Decomposition(L, tuple(chords), clusters, vertices, faces, arc_face)


def _label(dec: _Decomposition, marks: Sequence[int], forced_arc_labels=None) -> Diagram:
    """Second validation step: number the regions by the marks they carry.

    marks are ticks modulo dec.L, one per region.  Without forced labels, marks are matched to
    faces ranked by least arc start.  The graph joining each cluster to the faces it touches has
    |C| + n nodes, V = n - 1 + |C| edges (one per passage) and is connected: it is a tree.  So every
    perfect matching gives each cluster the same faces (two would differ by a closed trail in the
    tree), and handing them to its marks in ascending order is the lexicographically least placement.
    """
    faces, vertices = dec.faces, dec.vertices
    n = len(faces)
    touched = [{u[1] for u in units if u[0] == "pass"} for units in faces]
    cluster_at = {u[2]: u[1] for units in faces for u in units if u[0] == "pass"}  # vertex -> its cluster

    if forced_arc_labels is not None:
        if len(vertices) != len(forced_arc_labels):
            raise DiagramError("arity", "interval label count does not match vertices", len(forced_arc_labels))
        face_label: dict[int, int] = {}
        for vi, f in enumerate(dec.arc_face):
            lab = forced_arc_labels[vi]
            if face_label.setdefault(f, lab) != lab:
                raise DiagramError("mark-off-region", "inconsistent interval labels", vi)
        if not vertices:
            face_label[0] = 1
        face_of_label = {lab: f for f, lab in face_label.items()}
        missing = set(range(1, n + 1)) - face_of_label.keys()  # n faces, so a bijection iff empty
        if missing:
            raise DiagramError("mark-off-region", "interval labels are not a bijection", min(missing))
        for mi, z in enumerate(marks):
            f = face_of_label[mi + 1]
            on_face = cluster_at[z] in touched[f] if z in cluster_at else dec.face_of_point(z) == f
            if not on_face:
                raise DiagramError("mark-off-region", f"mark {mi + 1} is not on region {mi + 1}", mi)
    else:
        cand = [[f for f in range(n) if cluster_at[z] in touched[f]] if z in cluster_at else [dec.face_of_point(z)]
                for z in marks]
        owner, match = [None] * n, [None] * n  # face -> its mark, mark -> its face
        for mi in range(n):  # each mark joins along a shortest alternating path, searched breadth first
            came, reached = {}, [mi]  # came: face -> the mark the search reached it from
            for m in reached:
                for free in cand[m]:
                    if free not in came:
                        came[free] = m
                        if owner[free] is None:
                            break
                        reached.append(owner[free])
                else:
                    continue
                break
            else:  # a Hall set: the faces these marks reach are matched to all of them but mi
                hall = tuple(sorted(reached))
                raise DiagramError("mark-off-region", f"marks {[m + 1 for m in hall]} outnumber their regions", hall)
            while free is not None:
                owner[free] = m = came[free]
                match[m], free = free, match[m]
        group = [cluster_at.get(z, -1 - mi) for mi, z in enumerate(marks)]  # its cluster, or alone off the vertices
        in_order = zip(sorted(zip(group, range(n))), sorted(zip(group, match)))  # a group's marks and faces, ascending
        face_of_label = {mi + 1: f for (_, mi), (_, f) in in_order}

    regions = tuple(tuple(faces[face_of_label[lab]]) for lab in range(1, n + 1))
    label_of_face = {f: lab for lab, f in face_of_label.items()}
    arc_labels = tuple(label_of_face[f] for f in dec.arc_face)
    return Diagram(n, dec.L, dec.chords, tuple(marks), dec.clusters, arc_labels, vertices, regions)


def validate_diagram(
    n: int,
    chords: Iterable[Sequence[Fraction]],
    marks: Iterable[Fraction],
    forced_arc_labels: Sequence[int] | None = None,
) -> Diagram:
    """Check all diagram invariants and compute the labeled region decomposition.

    Region i is the one carrying z_i; a mark on a cluster vertex may go to any region touching
    the cluster.  One bipartite matching places the marks and keeps the lexicographically least
    placement; without one, mark-off-region's witness is a Hall set, marks outnumbering the
    regions they reach.  Canonical-class input carries explicit interval labels instead.
    """
    ml = [Fraction(z) % 1 for z in marks]
    if len(ml) != n:
        raise DiagramError("arity", f"{n} regions need {n} marks, got {len(ml)}", len(ml))
    if n < 1:
        raise DiagramError("bad-coordinate", "n must be at least 1", n)
    cl = []
    for c in chords:
        if len(c) != 2:
            raise DiagramError("bad-coordinate", "chord needs two endpoints", tuple(c))
        x, y = Fraction(c[0]) % 1, Fraction(c[1]) % 1
        if x == y:
            raise DiagramError("bad-coordinate", "chord endpoints coincide", (x, y))
        cl.append((x, y))
    L = lcm(*(v.denominator for v in ml), *(v.denominator for c in cl for v in c))
    dec = _decompose(n, L, [(_tick(x, L), _tick(y, L)) for x, y in cl])
    return _label(dec, [_tick(z, L) for z in ml], forced_arc_labels)


def regions_report(d: Diagram) -> list[dict]:
    """Per-region boundary loops (arcs and cluster passages) with perimeters."""
    out = []
    for lab in range(1, d.n + 1):
        loop = []
        for u in d.regions[lab - 1]:
            if u[0] == "seg":
                loop.append({"arc": [str(Fraction(u[1], d.L)), str(Fraction(u[2], d.L))]})
            else:
                loop.append({"pass": [str(Fraction(u[2], d.L)), str(Fraction(u[3], d.L))]})
        out.append({"label": lab, "perimeter": str(d.perimeter(lab)), "loop": loop})
    return out


# canonical classes ----------------------------------------------------------


@dataclass(frozen=True)
class MDClass(_FractionViews):
    """Canonical representative of a marked chord diagram class.

    Only the data surviving the quotients is kept: cluster partition of the
    chord endpoints, interval labels, and the marks (marks on a cluster are
    normalized to its least coordinate), as ticks on the least scale L, so
    equal classes compare and hash equal.
    """

    n: int
    L: int
    mark_ticks: tuple[int, ...]
    cluster_ticks: tuple[tuple[int, ...], ...]
    arc_labels: tuple[int, ...]

    def rep_ticks(self) -> tuple[tuple[int, int], ...]:
        """Path-tree representative chords on ticks, sorted."""
        return tuple(sorted((a, b) for grp in self.cluster_ticks for a, b in zip(grp, grp[1:])))

    def rep_chords(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Path-tree representative chords, sorted, as Fractions."""
        return tuple((Fraction(a, self.L), Fraction(b, self.L)) for a, b in self.rep_ticks())

    def perimeter(self, label: int) -> Fraction:
        return rep_diagram(self).perimeter(label)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "chords": [
                [c[0].numerator, c[0].denominator, c[1].numerator, c[1].denominator]
                for c in self.rep_chords()
            ],
            "marks": [[z.numerator, z.denominator] for z in self.marks],
            "clusters": [[[v.numerator, v.denominator] for v in g] for g in self.clusters],
            "interval_labels": list(self.arc_labels),
        }


@lru_cache(maxsize=4096)
def rep_diagram(md: MDClass) -> Diagram:
    return _label(_decompose(md.n, md.L, md.rep_ticks()), md.mark_ticks, md.arc_labels)


def canonical_md(d: LabeledChords) -> MDClass:
    cluster_min = {v: grp[0] for grp in d.cluster_ticks for v in grp}
    g = gcd(d.L, *d.mark_ticks, *cluster_min)  # so equal classes have equal ticks
    marks = tuple(cluster_min.get(z, z) // g for z in d.mark_ticks)
    clusters = tuple(tuple(v // g for v in grp) for grp in d.cluster_ticks)
    return MDClass(d.n, d.L // g, marks, clusters, d.arc_labels)


def md_from_data(n, chords, marks, arc_labels=None) -> MDClass:
    return canonical_md(validate_diagram(n, chords, marks, arc_labels))


def identity_md() -> MDClass:
    return MDClass(1, 1, (0,), (), ())


def relabel(md: MDClass, perm: Sequence[int]) -> MDClass:
    """Push the class along a permutation of region labels; perm[old] = new (0-based)."""
    if sorted(perm) != list(range(md.n)):
        raise DiagramError("arity", "not a permutation of the labels", tuple(perm))
    marks = [None] * md.n
    for old, z in enumerate(md.mark_ticks):
        marks[perm[old]] = z
    labels = tuple(perm[lab - 1] + 1 for lab in md.arc_labels)
    return MDClass(md.n, md.L, tuple(marks), md.cluster_ticks, labels)


# region walks ---------------------------------------------------------------


@dataclass(frozen=True)
class WalkTape:
    """The boundary of one region unrolled from its mark, for laying parts along.

    Each step is (position, unit): the position is the arc length walked
    before the unit, which is ("seg", start, length) or ("pass", cluster,
    arrival, departure), all in ticks.  A mark on a cluster sits on the first
    step, the passage the walk starts on.  At a passage's position, locate
    stops at its arrival vertex, before the passage, and so does a fibre
    transport along the walk of a decorated diagram.
    """

    label: int
    L: int
    total: int
    steps: tuple[tuple[int, tuple], ...]

    def check(self, s: int) -> None:
        if not 0 <= s < self.total:
            raise DiagramError("bad-coordinate", "walk position out of range", s)

    def scaled(self, k: int) -> "WalkTape":
        """The same walk on ticks modulo k·L."""
        steps = tuple(
            (p * k, ("seg", u[1] * k, u[2] * k) if u[0] == "seg" else ("pass", u[1], u[2] * k, u[3] * k))
            for p, u in self.steps
        )
        return WalkTape(self.label, self.L * k, self.total * k, steps)


def region_walk(md: MDClass, label: int) -> WalkTape:
    d = rep_diagram(md)
    units = d.region(label)
    z = md.mark_ticks[label - 1]
    # rep_diagram's forced labels put the mark on a passage or strictly inside an arc of its region
    if not d.vertices:
        units = (("seg", z, d.L),)
    elif z in d.vertices:
        k = next(k for k, u in enumerate(units) if u[0] == "pass" and z in d.cluster_ticks[u[1]])
        units = units[k:] + units[:k]
    else:
        k, u = next((k, u) for k, u in enumerate(units) if u[0] == "seg" and 0 < (z - u[1]) % d.L < u[2])
        off = (z - u[1]) % d.L
        units = (("seg", z, u[2] - off),) + units[k + 1 :] + units[:k] + (("seg", u[1], off),)
    steps = []
    pos = 0
    for u in units:
        steps.append((pos, u))
        if u[0] == "seg":
            pos += u[2]
    return WalkTape(label, d.L, pos, tuple(steps))


def locate(tape: WalkTape, s: int):
    """Position at arc length s along the tape.

    Returns ("point", coord) strictly inside an arc, or ("vertex", coord) when
    s falls on a cluster passage; the coordinate is then the passage's arrival
    vertex, which is on the region's closure.
    """
    tape.check(s)
    k = bisect_left(tape.steps, s, key=itemgetter(0))
    if k < len(tape.steps) and tape.steps[k][0] == s:
        u = tape.steps[k][1]
        return ("vertex", u[2]) if u[0] == "pass" else ("point", u[1])
    pos, u = tape.steps[k - 1]
    return ("point", (u[1] + s - pos) % tape.L)


# composition ----------------------------------------------------------------


def _composite(base: MDClass, parts: Sequence[MDClass]) -> tuple[LabeledChords, list[WalkTape]]:
    """The composite diagram, built from its parts, and the base region walks
    the parts are laid along.  Its chords are the base's representative chords
    followed by each part's, and its marks are the parts' marks, in order.

    The base walks are scaled by P, the lcm of the parts' scales, and part
    i's tick a goes to walk position r·a/L_p, an integer, along base region
    i's tape of total r.  So each composite arc runs along one part arc and
    takes that part region's label, renumbered past the earlier parts: the
    arc leaving the base vertex at walk position pos runs along the part arc
    holding pos, and the arc leaving a part vertex placed inside a base arc
    along the part arc starting there.  A part vertex placed on a passage
    sits on its arrival vertex and joins its base cluster.  No face is walked.
    """
    if len(parts) != base.n:
        raise DiagramError("arity", f"need {base.n} parts, got {len(parts)}", len(parts))
    P = lcm(*(p.L for p in parts))
    new_chords = [(x * P, y * P) for x, y in base.rep_ticks()]
    new_marks: list[int] = []
    label: dict[int, int] = {}  # composite vertex -> label of the arc leaving it
    tapes = [region_walk(base, i + 1).scaled(P) for i in range(base.n)]
    offset = 0
    for part, tape in zip(parts, tapes):
        r = tape.total
        vertices = sorted(v for grp in part.cluster_ticks for v in grp)
        at = [r * x // part.L for x in vertices]  # walk positions of the part vertices
        for pos, u in tape.steps:
            if u[0] == "seg":
                label[u[1]] = offset + (part.arc_labels[_arc_of_point(at, pos)] if vertices else 1)
        placed = {}
        for x, s, lab in zip(vertices, at, part.arc_labels):
            kind, placed[x] = locate(tape, s)
            if kind == "point":
                label[placed[x]] = offset + lab
        new_chords += [(placed[x], placed[y]) for x, y in part.rep_ticks()]
        new_marks += [locate(tape, r * z // part.L)[1] for z in part.mark_ticks]
        offset += part.n
    clusters = _clusters(new_chords)
    labels = tuple(label[v] for v in sorted(v for grp in clusters for v in grp))
    return LabeledChords(offset, base.L * P, tuple(new_chords), tuple(new_marks), clusters, labels), tapes


def compose(base: MDClass, parts: Sequence[MDClass]) -> MDClass:
    """Operad composition: part i is rescaled to the perimeter of region i and
    laid along its boundary starting at the mark, following the orientation."""
    return canonical_md(_composite(base, parts)[0])


# cactus correspondence ------------------------------------------------------


class CactusError(ValueError):
    pass


@dataclass(frozen=True)
class Cactus:
    """Lobes with perimeters, joints with cyclic incidence, and the base point.

    Lobe i is parameterized from its own marked point; a joint incidence
    (lobe, offset) records where the joint sits on that lobe.  base_offset is
    the position of the global base point on its lobe, and the base point sits
    on a joint exactly when (base_lobe, base_offset) is a joint incidence.  A
    valid cactus is a tree of circles: its lobe-joint incidence graph is
    connected and acyclic, which the boundary walk checks before it starts.
    """

    perimeters: tuple[Fraction, ...]
    joints: tuple[tuple[tuple[int, Fraction], ...], ...]
    base_lobe: int
    base_offset: Fraction

    @property
    def base_on_joint(self) -> bool:
        return any((self.base_lobe, self.base_offset) in j for j in self.joints)

    def to_json(self) -> dict:
        return {
            "perimeters": [[p.numerator, p.denominator] for p in self.perimeters],
            "joints": [
                [[lobe, [off.numerator, off.denominator]] for lobe, off in j] for j in self.joints
            ],
            "base_lobe": self.base_lobe,
            "base_offset": [self.base_offset.numerator, self.base_offset.denominator],
            "base_on_joint": self.base_on_joint,
        }


def _canonical_joint(joint: Sequence[tuple[int, Fraction | int]]) -> tuple[tuple[int, Fraction | int], ...]:
    rotations = [tuple(joint[k:]) + tuple(joint[:k]) for k in range(len(joint))]
    return min(rotations)


def to_cactus(md: MDClass) -> Cactus:
    d = rep_diagram(md)
    tapes = [region_walk(md, i + 1) for i in range(md.n)]
    incid = {}  # vertex -> (lobe, offset) of the passage that departs from it
    for t in tapes:
        for pos, u in t.steps:
            if u[0] == "pass":
                incid[u[3]] = (t.label, pos)
    joints = sorted(_canonical_joint([incid[v] for v in grp]) for grp in d.cluster_ticks)
    if 0 in incid:
        lobe, base = incid[0]
    elif d.vertices:  # 0 lies L - v ticks along the arc leaving the last vertex v
        v = d.vertices[-1]
        lobe, p = incid[v]
        base = (p + md.L - v) % tapes[lobe - 1].total  # wraps when the lobe's mark splits that arc
    else:
        lobe, base = 1, -md.mark_ticks[0] % md.L
    return Cactus(
        tuple(Fraction(t.total, md.L) for t in tapes),
        tuple(tuple((lo, Fraction(off, md.L)) for lo, off in j) for j in joints),
        lobe,
        Fraction(base, md.L),
    )


def _cactus_walk(c: Cactus):
    """Checked boundary walk of a cactus from its base point, on ticks modulo L,
    the lcm of the denominators of its perimeters and offsets.

    The lobe-joint incidence graph must be a tree: no joint closes a cycle
    (union-find) and every lobe is joined to lobe 1.  The walk then passes
    every arc of every lobe once and closes at the base point after L ticks.
    Returns L, the lobe perimeters, the segments as (global start, length,
    lobe, lobe offset) tuples and, per joint, the global positions at which
    the walk visits it, all in ticks.
    """
    n = len(c.perimeters)
    if sum(c.perimeters, Fraction(0)) != 1 or any(p <= 0 for p in c.perimeters):
        raise CactusError("lobe perimeters must be positive and sum to 1")
    if not 1 <= c.base_lobe <= n:
        raise CactusError(f"base point on unknown lobe {c.base_lobe}")
    offsets = [off for joint in c.joints for _, off in joint] + [c.base_offset]
    L = lcm(*(v.denominator for v in list(c.perimeters) + offsets))
    perims = [_tick(p, L) for p in c.perimeters]
    joints = [[(lobe, _tick(off, L)) for lobe, off in joint] for joint in c.joints]
    base_offset = _tick(c.base_offset, L)
    if not 0 <= base_offset < perims[c.base_lobe - 1]:
        raise CactusError(f"base point offset out of range on lobe {c.base_lobe}")
    by_lobe: dict[int, list[tuple[int, int]]] = {i + 1: [] for i in range(n)}
    parent = {x: x for x in range(-len(joints), n + 1) if x}  # lobe i is node i, joint qi node -1 - qi
    for qi, joint in enumerate(joints):
        if len(joint) < 2:
            raise CactusError(f"joint {qi} touches fewer than two lobes")
        seen_lobes = set()
        for lobe, off in joint:
            if lobe < 1 or lobe > n:
                raise CactusError(f"joint {qi} touches unknown lobe {lobe}")
            if lobe in seen_lobes:
                raise CactusError(f"joint {qi} touches lobe {lobe} twice")
            seen_lobes.add(lobe)
            if not 0 <= off < perims[lobe - 1]:
                raise CactusError(f"joint {qi} offset out of range on lobe {lobe}")
            by_lobe[lobe].append((off, qi))
            root = _find(parent, lobe)
            if root == _find(parent, -1 - qi):
                raise CactusError(f"joint {qi} closes a cycle through lobe {lobe}")
            parent[root] = -1 - qi
    for lobe, offs in by_lobe.items():
        offs.sort()
        for (o1, _), (o2, _) in zip(offs, offs[1:]):
            if o1 == o2:
                raise CactusError(f"two joints at the same point of lobe {lobe}")
    for lobe in range(2, n + 1):
        if _find(parent, lobe) != _find(parent, 1):
            raise CactusError(f"lobe {lobe} is not joined to lobe 1")

    def next_joint(lobe: int, off: int) -> tuple[int, int] | None:
        """First joint strictly ahead of the given lobe offset (cyclically): on
        ticks, the distance (o - off) % r taken in (0, r] is 1 + (o - off - 1) % r."""
        r = perims[lobe - 1]
        return min(by_lobe[lobe], key=lambda oq: (oq[0] - off - 1) % r, default=None)

    cur_lobe, cur_off = c.base_lobe, base_offset
    s = 0
    # (global start, length, lobe, lobe offset at start)
    segments: list[tuple[int, int, int, int]] = []
    visits: dict[int, list[int]] = {}
    while s < L:
        r = perims[cur_lobe - 1]
        nj = next_joint(cur_lobe, cur_off)
        delta = r if nj is None else (nj[0] - cur_off - 1) % r + 1
        segments.append((s, min(delta, L - s), cur_lobe, cur_off))
        s += delta
        if nj is None or s > L:  # a lone lobe without joints, or the base point mid-arc
            break
        off2, qi = nj
        joint = joints[qi]
        visits.setdefault(qi, []).append(s % L)  # the closing arrival at a base joint is 0
        cur_lobe, cur_off = joint[(joint.index((cur_lobe, off2)) + 1) % len(joint)]
    return L, perims, segments, visits


def from_cactus(c: Cactus) -> MDClass:
    """Unroll the cactus boundary from the base point into the unit circle."""
    n = len(c.perimeters)
    L, perims, segments, visits = _cactus_walk(c)
    chords = [chord for qi in sorted(visits) for chord in pairwise(sorted(visits[qi]))]
    marks = [0] * n
    for g0, dl, lo, off0 in segments:  # the segments of a lobe cover it once
        # the marked point, lobe offset 0, lies -off0 % r into the segment from lobe offset off0
        if (k := -off0 % perims[lo - 1]) < dl:
            marks[lo - 1] = (g0 + k) % L
    arc_label = {g0: lo for g0, _, lo, _ in segments}  # segments start at ticks below L
    arc_labels = tuple(arc_label[v] for v in sorted({v for pos in visits.values() for v in pos}))
    return canonical_md(_label(_decompose(n, L, chords), marks, arc_labels))


# JSON interchange -----------------------------------------------------------


def _ints(entry, k: int, what: str) -> list[int]:
    """The k integers of one JSON coordinate entry; raises ValueError naming it."""
    if len(entry) != k:
        raise ValueError(f"{what} {entry} needs {k} integers, got {len(entry)}")
    return [_json_int(v, f"{what} {entry}", ValueError) for v in entry]


def _diagram_fields(data: dict):
    """(n, chords, marks, interval labels or None) of a diagram JSON object."""
    try:
        n = _json_int(data["n"], "field 'n'", ValueError)
        chords = [
            (Fraction(xn, xd), Fraction(yn, yd))
            for xn, xd, yn, yd in (_ints(c, 4, "chord") for c in data.get("chords", []))
        ]
        marks = [Fraction(*_ints(m, 2, "mark")) for m in data["marks"]]
        labels = data.get("interval_labels")
        if labels is not None:
            labels = [_json_int(v, "field 'interval_labels'", ValueError) for v in labels]
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        raise DiagramError("bad-coordinate", f"bad diagram JSON: {e}") from None
    return n, chords, marks, labels


def parse_diagram(data: str | dict) -> MDClass:
    """Diagram from JSON {"n", "chords": [[xn,xd,yn,yd],...], "marks": [[n,d],...]};
    canonical-class output also carries "clusters" and "interval_labels"."""
    data = _load_json(data, lambda msg: DiagramError("bad-coordinate", msg))
    return md_from_data(*_diagram_fields(data))


def parse_cactus(data: str | dict) -> Cactus:
    data = _load_json(data, CactusError)
    try:
        perims = tuple(Fraction(*_ints(p, 2, "perimeter")) for p in data["perimeters"])
        joints = tuple(
            _canonical_joint(
                [(_json_int(lobe, "lobe", ValueError), Fraction(*_ints(off, 2, "joint offset"))) for lobe, off in j]
            )
            for j in data["joints"]
        )
        base_lobe = _json_int(data["base_lobe"], "field 'base_lobe'", ValueError)
        base_offset = Fraction(*_ints(data["base_offset"], 2, "base_offset"))
        base_on_joint = data.get("base_on_joint", False)
        if type(base_on_joint) is not bool:
            got = json.dumps(base_on_joint, default=repr)
            raise ValueError(f"field 'base_on_joint': expected true or false, got {got}")
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        raise CactusError(f"bad cactus JSON: {e}") from None
    c = Cactus(perims, tuple(sorted(joints)), base_lobe, base_offset)
    if base_on_joint != c.base_on_joint:
        where = "a joint incidence" if c.base_on_joint else "not a joint incidence"
        raise CactusError(f"base_on_joint contradicts the joints: the base point is {where}")
    return c


# randomized diagrams for property testing -----------------------------------


_RANDOM_MAX_DEN = 16
# ticks of every coordinate k/den (den <= 16) and of every mark random_md draws
_RANDOM_SCALE = 60 * lcm(*range(2, _RANDOM_MAX_DEN + 1))


def _random_tick(rng) -> int:
    den = rng.randint(2, _RANDOM_MAX_DEN)
    return rng.randrange(den) * (_RANDOM_SCALE // den)


def _random_noncrossing_matching(rng, m: int) -> list[tuple[int, int]]:
    """Random non-crossing perfect matching of 2m points 0..2m-1."""
    pts = list(range(2 * m))

    def rec(seq):
        if not seq:
            return []
        k = rng.randrange(len(seq) // 2)
        j = 2 * k + 1
        return [(seq[0], seq[j])] + rec(seq[1:j]) + rec(seq[j + 1 :])

    return rec(pts)


def random_md(rng, n: int) -> MDClass:
    """A random marked chord diagram class with n regions and small denominators."""
    M = _RANDOM_SCALE
    for _ in range(400):
        try:
            m = n - 1
            coords = sorted({_random_tick(rng) for _ in range(2 * m)})
            if len(coords) < 2 * m:
                continue
            pairs = _random_noncrossing_matching(rng, m)
            chords = [(coords[a], coords[b]) for a, b in pairs]
            # occasionally merge two vertices to create a shared endpoint
            if m >= 2 and rng.random() < 0.35:
                i = rng.randrange(2 * m - 1)
                a, b = coords[i], coords[i + 1]
                chords = [
                    (a if x == b else x, a if y == b else y) for x, y in chords
                ]
                if any(x == y for x, y in chords):
                    continue
            dec = _decompose(n, M, chords)
            marks = []
            for face in dec.faces:
                segs = [u for u in face if u[0] == "seg"]
                u = segs[rng.randrange(len(segs))]
                if rng.random() < 0.2:
                    # place the mark on a vertex of a touching cluster
                    passes = [p for p in face if p[0] == "pass"]
                    if passes:
                        p = passes[rng.randrange(len(passes))]
                        marks.append(p[2])
                        continue
                # num/(q·k) of the circle past the arc's start, q the reduced
                # denominator of the arc's length; 60 divides g, so k divides it
                g = gcd(u[2], M)
                k = rng.randint(2, 5)
                top = u[2] // g * k
                num = rng.randrange(1, top) if top > 1 else 0
                marks.append((u[1] + num * g // k) % M)
            return canonical_md(_label(dec, marks))
        except DiagramError:
            continue
    raise RuntimeError("random diagram generation failed")
