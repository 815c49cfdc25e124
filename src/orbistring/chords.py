"""Marked chord diagrams on the unit-perimeter circle and their operad.

Coordinates are exact rationals in [0,1) with the initial marked point at 0.
Chords are non-crossing, may share endpoints, and their endpoint graph must be
a forest; the disc then falls into n regions for n-1 chords.  Validation
checks this on integer ticks modulo L, the lcm of the endpoint denominators.
Classes are quotients by chord relabeling and flips, by moving marks within a
cluster (the vertex set of one tree), and by forgetting tree shapes: only the
cluster partition and the interval labeling survive, which is exactly the data
this module canonicalizes and compares.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import itemgetter
from typing import Iterable, Sequence

from .groups import _json_int, _load_json


class DiagramError(ValueError):
    """Invalid diagram data, with a machine-readable kind and witness."""

    def __init__(self, kind: str, message: str, witness=None):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


def _mod1(x: Fraction) -> Fraction:
    return x % 1


def _ccw(a: Fraction, b: Fraction) -> Fraction:
    """Arc length from a counterclockwise to b."""
    return (b - a) % 1


@dataclass(frozen=True)
class Diagram:
    """A validated marked labeled chord diagram with its region decomposition."""

    n: int
    chords: tuple[tuple[Fraction, Fraction], ...]
    marks: tuple[Fraction, ...]
    vertices: tuple[Fraction, ...]
    clusters: tuple[tuple[Fraction, ...], ...]
    # per region (index = label-1): cyclic unit list, each unit either
    # ("seg", start, length) or ("pass", cluster_index, arrival, departure)
    regions: tuple[tuple[tuple, ...], ...]
    arc_labels: tuple[int, ...]  # label of the arc starting at vertices[i]

    def region(self, label: int) -> tuple[tuple, ...]:
        if not 1 <= label <= self.n:
            raise DiagramError("arity", f"region label {label} out of range 1..{self.n}", label)
        return self.regions[label - 1]

    def perimeter(self, label: int) -> Fraction:
        return sum((u[2] for u in self.region(label) if u[0] == "seg"), Fraction(0))

    def cluster_of(self, v: Fraction) -> int:
        for i, c in enumerate(self.clusters):
            if v in c:
                return i
        raise KeyError(v)


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


def _clusters(chords: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Trees of the endpoint forest; raises on any cycle."""
    parent: dict[int, int] = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in chords:
        parent.setdefault(x, x)
        parent.setdefault(y, y)
    for idx, (x, y) in enumerate(chords):
        rx, ry = find(x), find(y)
        if rx == ry:
            raise DiagramError("cycle", f"chord {idx} closes a cycle in the endpoint forest", idx)
        parent[rx] = ry
    groups: dict[int, list[int]] = {}
    for v in parent:
        groups.setdefault(find(v), []).append(v)
    return sorted([sorted(g) for g in groups.values()])


def _face_units(
    vertices: Sequence[int], clusters: Sequence[Sequence[int]], frac: dict[int, Fraction], L: int
) -> tuple[list[list[tuple]], tuple[int, ...]]:
    """Region boundaries as cyclic unit lists, and the region of each arc.

    Vertices and clusters are ticks modulo L; units carry coordinates frac[tick]
    and Fraction lengths.  The arc starting at vertices[i] ends at
    w = vertices[i+1], where the region passes through the cluster of w to the
    cyclic predecessor of w in that sorted cluster and continues along the arc
    starting there.  For non-crossing chords the cycles of this arc
    permutation, the Kreweras complement of the cluster partition, are the
    regions, whatever the tree shapes; crossing chords must be rejected first.
    Regions are listed in the order of their first arcs and start there.
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
            units += [("seg", frac[v], Fraction((w - v) % L, L)), ("pass", ci, frac[w], frac[depart])]
            i = vidx[depart]
        faces.append(units)
    return faces, tuple(arc_face)


def _arc_of_point(vertices: Sequence[Fraction], z: Fraction) -> int:
    """Index i of the arc starting at vertices[i] that strictly contains the
    non-vertex point z; vertices must be sorted and non-empty."""
    return (bisect_right(vertices, z) - 1) % len(vertices)


@dataclass(frozen=True)
class _Decomposition:
    """Checked chords with their clusters and unlabeled region boundaries."""

    chords: tuple[tuple[Fraction, Fraction], ...]
    clusters: list[list[Fraction]]
    cluster_index: dict[Fraction, int]
    vertices: tuple[Fraction, ...]
    faces: list[list[tuple]]
    arc_face: tuple[int, ...]  # face holding the arc that starts at vertices[i]

    def face_of_point(self, z: Fraction) -> int:
        return self.arc_face[_arc_of_point(self.vertices, z)] if self.vertices else 0


def _decompose(n: int, chords: Iterable[Sequence[Fraction]]) -> _Decomposition:
    """First validation step: coordinates, arity, crossings, clusters, regions.

    After the coordinate checks every step runs on integer ticks x·L, L the lcm
    of the endpoint denominators; the result maps them back to coordinates."""
    if n < 1:
        raise DiagramError("bad-coordinate", "n must be at least 1", n)
    cl = []
    for c in chords:
        if len(c) != 2:
            raise DiagramError("bad-coordinate", "chord needs two endpoints", tuple(c))
        x, y = _mod1(Fraction(c[0])), _mod1(Fraction(c[1]))
        if x == y:
            raise DiagramError("bad-coordinate", "chord endpoints coincide", (x, y))
        cl.append((x, y))
    if len(cl) != n - 1:
        raise DiagramError("arity", f"{n} regions need {n - 1} chords, got {len(cl)}", len(cl))

    L = lcm(*(v.denominator for c in cl for v in c))
    frac = {v.numerator * (L // v.denominator): v for c in cl for v in c}  # tick -> coordinate
    spans = [tuple(sorted(v.numerator * (L // v.denominator) for v in c)) for c in cl]
    if _crosses(spans):
        _check_crossings(spans)
        raise DiagramError("crossing", "chords cross, but the pairwise scan names no pair")
    clusters = _clusters(spans)
    vertices = sorted(frac)

    if not vertices:
        faces, arc_face = [[("seg", Fraction(0), Fraction(1))]], ()
    else:
        faces, arc_face = _face_units(vertices, clusters, frac, L)
    if len(faces) != n:
        raise DiagramError("zero-measure", f"expected {n} regions, found {len(faces)}", len(faces))
    clusters = [[frac[v] for v in grp] for grp in clusters]
    cluster_index = {v: ci for ci, grp in enumerate(clusters) for v in grp}
    vertices = tuple(frac[v] for v in vertices)
    return _Decomposition(tuple(cl), clusters, cluster_index, vertices, faces, arc_face)


def _label(dec: _Decomposition, marks: Sequence[Fraction], forced_arc_labels=None) -> Diagram:
    """Second validation step: number the regions by the marks they carry.

    marks must already be reduced mod 1, one per region.
    """
    faces, vertices, cluster_index = dec.faces, dec.vertices, dec.cluster_index
    n = len(faces)

    # face ordering key for deterministic matching
    def face_key(units):
        return min(u[1] for u in units if u[0] == "seg")

    order = sorted(range(n), key=lambda f: face_key(faces[f]))
    touched = []
    for units in faces:
        t = set()
        for u in units:
            if u[0] == "pass":
                t.add(u[1])
        touched.append(t)

    def candidates(z: Fraction) -> list[int]:
        if z in cluster_index:
            ci = cluster_index[z]
            return [f for f in order if ci in touched[f]]
        return [dec.face_of_point(z)]

    cand = [candidates(z) for z in marks]

    assignment: list[int | None] = [None] * n  # mark index -> face index
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
        missing = set(range(1, n + 1)) - set(face_label.values())  # n faces, so a bijection iff empty
        if missing:
            raise DiagramError("mark-off-region", "interval labels are not a bijection", min(missing))
        for mi in range(n):
            f = next(f for f, lab in face_label.items() if lab == mi + 1)
            if f not in cand[mi]:
                raise DiagramError("mark-off-region", f"mark {mi + 1} is not on region {mi + 1}", mi)
            assignment[mi] = f
    else:

        def backtrack(mi: int, used: set[int]) -> bool:
            if mi == n:
                return True
            for f in cand[mi]:
                if f not in used:
                    assignment[mi] = f
                    if backtrack(mi + 1, used | {f}):
                        return True
            assignment[mi] = None
            return False

        if not backtrack(0, set()):
            bad = next(i for i in range(n) if assignment[i] is None)
            raise DiagramError(
                "mark-off-region", f"mark {bad + 1} cannot be placed on its own region", bad
            )

    face_of_label = {mi + 1: assignment[mi] for mi in range(n)}
    regions = tuple(tuple(tuple(u) for u in faces[face_of_label[lab]]) for lab in range(1, n + 1))
    label_of_face = {f: lab for lab, f in face_of_label.items()}
    arc_labels = tuple(label_of_face[f] for f in dec.arc_face)
    return Diagram(
        n,
        dec.chords,
        tuple(marks),
        vertices,
        tuple(tuple(g) for g in dec.clusters),
        regions,
        arc_labels,
    )


def validate_diagram(
    n: int,
    chords: Iterable[Sequence[Fraction]],
    marks: Iterable[Fraction],
    forced_arc_labels: Sequence[int] | None = None,
) -> Diagram:
    """Check all diagram invariants and compute the labeled region decomposition.

    Region labels are implied by the marks: region i is the one carrying z_i.
    A mark sitting on a cluster vertex is ambiguous between the regions that
    touch the cluster; the lexicographically least perfect matching is used.
    Canonical-class input carries explicit interval labels instead.
    """
    ml = [_mod1(Fraction(z)) for z in marks]
    if len(ml) != n:
        raise DiagramError("arity", f"{n} regions need {n} marks, got {len(ml)}", len(ml))
    return _label(_decompose(n, chords), ml, forced_arc_labels)


def regions_report(d: Diagram) -> list[dict]:
    """Per-region boundary loops (arcs and cluster passages) with perimeters."""
    out = []
    for lab in range(1, d.n + 1):
        loop = []
        for u in d.regions[lab - 1]:
            if u[0] == "seg":
                loop.append({"arc": [str(u[1]), str(u[2])]})
            else:
                loop.append({"pass": [str(u[2]), str(u[3])]})
        out.append({"label": lab, "perimeter": str(d.perimeter(lab)), "loop": loop})
    return out


# canonical classes ----------------------------------------------------------


@dataclass(frozen=True)
class MDClass:
    """Canonical representative of a marked chord diagram class.

    Only the data surviving the quotients is kept: cluster partition of the
    chord endpoints, interval labels, and the marks (marks on a cluster are
    normalized to its least coordinate).
    """

    n: int
    marks: tuple[Fraction, ...]
    clusters: tuple[tuple[Fraction, ...], ...]
    arc_labels: tuple[int, ...]

    def rep_chords(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """Path-tree representative chords, sorted."""
        out = []
        for grp in self.clusters:
            for a, b in zip(grp, grp[1:]):
                out.append((a, b))
        return tuple(sorted(out))

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
    return validate_diagram(md.n, md.rep_chords(), md.marks, forced_arc_labels=md.arc_labels)


def canonical_md(d: Diagram) -> MDClass:
    cluster_min = {v: grp[0] for grp in d.clusters for v in grp}
    marks = tuple(cluster_min.get(z, z) for z in d.marks)
    return MDClass(d.n, marks, d.clusters, d.arc_labels)


def md_from_data(n, chords, marks, arc_labels=None) -> MDClass:
    return canonical_md(validate_diagram(n, chords, marks, arc_labels))


def identity_md() -> MDClass:
    return MDClass(1, (Fraction(0),), (), ())


def relabel(md: MDClass, perm: Sequence[int]) -> MDClass:
    """Push the class along a permutation of region labels; perm[old] = new (0-based)."""
    if sorted(perm) != list(range(md.n)):
        raise DiagramError("arity", "not a permutation of the labels", tuple(perm))
    marks = [None] * md.n
    for old, z in enumerate(md.marks):
        marks[perm[old]] = z
    labels = tuple(perm[lab - 1] + 1 for lab in md.arc_labels)
    return MDClass(md.n, tuple(marks), md.clusters, labels)


# region walks ---------------------------------------------------------------


@dataclass(frozen=True)
class WalkTape:
    """The boundary of one region unrolled from its mark, for laying parts along.

    Each step is (position, unit): the position is the arc length walked
    before the unit, which is ("seg", start, length) or ("pass", cluster,
    arrival, departure).  A mark on a cluster sits on the first step,
    the passage the walk starts on.  At a passage's position, locate stops
    at its arrival vertex, before the passage, and so does a fibre transport
    along the walk of a decorated diagram.
    """

    label: int
    total: Fraction
    steps: tuple[tuple[Fraction, tuple], ...]

    def check(self, s: Fraction) -> None:
        if not 0 <= s < self.total:
            raise DiagramError("bad-coordinate", "walk position out of range", s)


def region_walk(md: MDClass, label: int) -> WalkTape:
    d = rep_diagram(md)
    units = d.region(label)
    z = md.marks[label - 1]
    if not d.vertices:
        units = (("seg", z, Fraction(1)),)
    elif z in d.vertices:
        ci = d.cluster_of(z)
        k = next((k for k, u in enumerate(units) if u[0] == "pass" and u[1] == ci), None)
        if k is None:
            raise DiagramError("mark-off-region", f"mark {label} is not on region {label}", label)
        units = units[k:] + units[:k]
    else:
        for k, u in enumerate(units):
            if u[0] == "seg" and 0 < (off := _ccw(u[1], z)) < u[2]:
                units = (("seg", z, u[2] - off),) + units[k + 1 :] + units[:k] + (("seg", u[1], off),)
                break
        else:
            raise DiagramError("mark-off-region", f"mark {label} is not on region {label}", label)
    steps = []
    pos = Fraction(0)
    for u in units:
        steps.append((pos, u))
        if u[0] == "seg":
            pos += u[2]
    return WalkTape(label, pos, tuple(steps))


def locate(tape: WalkTape, s: Fraction):
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
    return ("point", _mod1(u[1] + (s - pos)))


# composition ----------------------------------------------------------------


def _walk_position(tape: WalkTape, point: Fraction) -> Fraction:
    """Arc length of a circle point along the region walk (point must be interior
    to one of the region's arcs)."""
    for pos, u in tape.steps:
        if u[0] == "seg":
            off = _ccw(u[1], point)
            if off < u[2]:
                return pos + off
    raise DiagramError("mark-off-region", "point is not interior to the region", point)


def _composite(base: MDClass, parts: Sequence[MDClass]) -> tuple[Diagram, list[WalkTape]]:
    """The labeled composite diagram and the base region walks the parts are laid
    along.  Its chords are the base's representative chords followed by each
    part's, and its marks are the parts' marks, in order.

    Part i's coordinate x goes to walk position r·x along base region i's tape
    of total r, so each composite arc runs along one part arc and takes that
    part region's label, renumbered past the earlier parts: the arc leaving the
    base vertex at walk position pos runs along the part arc holding pos/r, and
    the arc leaving a part vertex placed inside a base arc along the part arc
    starting there.  A part vertex placed on a passage sits on its arrival
    vertex, whose outgoing arc lies in another base region.
    """
    if len(parts) != base.n:
        raise DiagramError("arity", f"need {base.n} parts, got {len(parts)}", len(parts))
    new_chords: list[tuple[Fraction, Fraction]] = list(rep_diagram(base).chords)
    new_marks: list[Fraction] = []
    label: dict[Fraction, int] = {}  # composite vertex -> label of the arc leaving it
    tapes = [region_walk(base, i + 1) for i in range(base.n)]
    offset = 0
    for part, tape in zip(parts, tapes):
        r = tape.total
        vertices = sorted(v for grp in part.clusters for v in grp)
        for pos, u in tape.steps:
            if u[0] == "seg":
                label[u[1]] = offset + (part.arc_labels[_arc_of_point(vertices, pos / r)] if vertices else 1)
        placed = {}
        for x, lab in zip(vertices, part.arc_labels):
            kind, placed[x] = locate(tape, r * x)
            if kind == "point":
                label[placed[x]] = offset + lab
        new_chords += [(placed[x], placed[y]) for x, y in part.rep_chords()]
        new_marks += [locate(tape, r * z)[1] for z in part.marks]
        offset += part.n
    dec = _decompose(offset, new_chords)
    # new_marks are locate() coordinates, already reduced mod 1, one per part region
    return _label(dec, new_marks, [label[v] for v in dec.vertices]), tapes


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
    the position of the global base point on its lobe.
    """

    perimeters: tuple[Fraction, ...]
    joints: tuple[tuple[tuple[int, Fraction], ...], ...]
    base_lobe: int
    base_offset: Fraction
    base_on_joint: bool = False

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


def _canonical_joint(joint: Sequence[tuple[int, Fraction]]) -> tuple[tuple[int, Fraction], ...]:
    rotations = [tuple(joint[k:]) + tuple(joint[:k]) for k in range(len(joint))]
    return min(rotations)


def _pass_offset(tape: WalkTape, cluster: int) -> Fraction:
    for pos, u in tape.steps:
        if u[0] == "pass" and u[1] == cluster:
            return pos
    raise CactusError(f"region {tape.label} does not pass cluster {cluster}")


def to_cactus(md: MDClass) -> Cactus:
    d = rep_diagram(md)
    tapes = [region_walk(md, i + 1) for i in range(md.n)]
    perims = tuple(t.total for t in tapes)
    joints = []
    for ci, grp in enumerate(d.clusters):
        incid = []
        for v in grp:
            vi = d.vertices.index(v)
            lobe = d.arc_labels[vi]  # region of the arc leaving v
            incid.append((lobe, _pass_offset(tapes[lobe - 1], ci)))
        joints.append(_canonical_joint(incid))
    u = Fraction(0)
    if u in d.vertices:
        vi = d.vertices.index(u)
        lobe = d.arc_labels[vi]
        ci = d.cluster_of(u)
        return Cactus(perims, tuple(sorted(joints)), lobe, _pass_offset(tapes[lobe - 1], ci), True)
    lobe = d.arc_labels[_arc_of_point(d.vertices, u)] if d.vertices else 1
    return Cactus(perims, tuple(sorted(joints)), lobe, _walk_position(tapes[lobe - 1], u), False)


def _cactus_walk(c: Cactus):
    """Checked boundary walk of a cactus from its base point.

    Returns the segments as (global start, length, lobe, lobe offset) tuples
    and, per joint, the global positions at which the walk visits it.
    """
    n = len(c.perimeters)
    if sum(c.perimeters, Fraction(0)) != 1 or any(p <= 0 for p in c.perimeters):
        raise CactusError("lobe perimeters must be positive and sum to 1")
    if not 1 <= c.base_lobe <= n:
        raise CactusError(f"base point on unknown lobe {c.base_lobe}")
    by_lobe: dict[int, list[tuple[Fraction, int]]] = {i + 1: [] for i in range(n)}
    for qi, joint in enumerate(c.joints):
        if len(joint) < 2:
            raise CactusError(f"joint {qi} touches fewer than two lobes")
        seen_lobes = set()
        for lobe, off in joint:
            if lobe < 1 or lobe > n:
                raise CactusError(f"joint {qi} touches unknown lobe {lobe}")
            if lobe in seen_lobes:
                raise CactusError(f"joint {qi} touches lobe {lobe} twice")
            seen_lobes.add(lobe)
            if not 0 <= off < c.perimeters[lobe - 1]:
                raise CactusError(f"joint {qi} offset out of range on lobe {lobe}")
            by_lobe[lobe].append((off, qi))
    for lobe, offs in by_lobe.items():
        offs.sort()
        for (o1, _), (o2, _) in zip(offs, offs[1:]):
            if o1 == o2:
                raise CactusError(f"two joints at the same point of lobe {lobe}")

    def next_joint(lobe: int, off: Fraction) -> tuple[Fraction, int] | None:
        """First joint strictly ahead of the given lobe offset (cyclically)."""
        offs = by_lobe[lobe]
        if not offs:
            return None
        r = c.perimeters[lobe - 1]
        best = None
        for o, qi in offs:
            d = (o - off) % r
            if d == 0:
                d = r
            if best is None or d < best[0]:
                best = (d, o, qi)
        return best[1], best[2]

    cur_lobe, cur_off = c.base_lobe, c.base_offset
    s = Fraction(0)
    # (global start, length, lobe, lobe offset at start)
    segments: list[tuple[Fraction, Fraction, int, Fraction]] = []
    visits: dict[int, list[Fraction]] = {}
    guard = 0
    max_steps = 4 + sum(len(j) for j in c.joints) + n
    while s < 1:
        r = c.perimeters[cur_lobe - 1]
        nj = next_joint(cur_lobe, cur_off)
        remaining = 1 - s
        if nj is None:
            delta, endpoint = r, None
        else:
            off2, qi = nj
            delta = (off2 - cur_off) % r
            if delta == 0:
                delta = r
            endpoint = (off2, qi)
        if delta > remaining:
            # the walk must close mid-lobe exactly at the base point
            if (
                c.base_on_joint
                or cur_lobe != c.base_lobe
                or (cur_off + remaining) % r != c.base_offset
            ):
                raise CactusError("boundary walk does not close at the base point")
            segments.append((s, remaining, cur_lobe, cur_off))
            s = Fraction(1)
            break
        segments.append((s, delta, cur_lobe, cur_off))
        s += delta
        if endpoint is None:
            if s != 1 or c.base_on_joint or cur_lobe != c.base_lobe:
                raise CactusError("boundary walk does not close")
            break
        off2, qi = endpoint
        joint = c.joints[qi]
        pos = next((k for k, (lo, of) in enumerate(joint) if lo == cur_lobe and of == off2), None)
        if pos is None:
            raise CactusError("walk arrived at a joint with no matching incidence")
        if s == 1:
            # the closing arrival switches back onto the base incidence
            if not c.base_on_joint or joint[(pos + 1) % len(joint)] != (c.base_lobe, c.base_offset):
                raise CactusError("boundary walk ends on a joint away from the base point")
            visits.setdefault(qi, []).append(Fraction(0))
            break
        visits.setdefault(qi, []).append(s)
        cur_lobe, cur_off = joint[(pos + 1) % len(joint)]
        guard += 1
        if guard > max_steps:
            raise CactusError("boundary walk does not close; dual graph is not a tree")
    if s != 1:
        raise CactusError("boundary walk came back early; cactus is disconnected")
    for qi, joint in enumerate(c.joints):
        if len(visits.get(qi, [])) != len(joint):
            raise CactusError(f"joint {qi} was not visited once per incident lobe")
    return segments, visits


def from_cactus(c: Cactus) -> MDClass:
    """Unroll the cactus boundary from the base point into the unit circle."""
    n = len(c.perimeters)
    segments, visits = _cactus_walk(c)
    chords: list[tuple[Fraction, Fraction]] = []
    for qi in sorted(visits):
        pos = sorted(visits[qi])
        for a, b in zip(pos, pos[1:]):
            chords.append((a, b))
    marks: list[Fraction] = []
    for lobe in range(1, n + 1):
        r = c.perimeters[lobe - 1]
        at_joint = next(
            (qi for qi, joint in enumerate(c.joints) if any(lo == lobe and of == 0 for lo, of in joint)),
            None,
        )
        if at_joint is not None:
            marks.append(min(visits[at_joint]))
            continue
        z = None
        for g0, dl, lo, off0 in segments:
            if lo != lobe:
                continue
            t = (0 - off0) % r
            if t < dl:
                z = _mod1(g0 + t)
                break
        if z is None:
            raise CactusError(f"could not locate the marked point of lobe {lobe}")
        marks.append(z)
    arc_labels_map: dict[Fraction, int] = {}
    for g0, dl, lo, off0 in segments:
        arc_labels_map[_mod1(g0)] = lo
    vertex_list = sorted({v for pos in visits.values() for v in pos})
    arc_labels = tuple(arc_labels_map[v] for v in vertex_list)
    return md_from_data(n, chords, marks, arc_labels)


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
        base_on_joint = bool(data.get("base_on_joint", False))
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
        raise CactusError(f"bad cactus JSON: {e}") from None
    return Cactus(perims, tuple(sorted(joints)), base_lobe, base_offset, base_on_joint)


# randomized diagrams for property testing -----------------------------------


_RANDOM_MAX_DEN = 16


def _random_fraction(rng) -> Fraction:
    den = rng.randint(2, _RANDOM_MAX_DEN)
    return Fraction(rng.randrange(den), den)


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
    for _ in range(400):
        try:
            m = n - 1
            coords = sorted({_random_fraction(rng) for _ in range(2 * m)})
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
            dec = _decompose(n, chords)
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
                den = u[2].denominator * rng.randint(2, 5)
                num = rng.randrange(1, int(u[2] * den)) if int(u[2] * den) > 1 else 0
                marks.append(_mod1(u[1] + Fraction(num, den)))
            return canonical_md(_label(dec, marks))
        except DiagramError:
            continue
    raise RuntimeError("random diagram generation failed")
