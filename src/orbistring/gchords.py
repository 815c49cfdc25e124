"""G-decorated marked chord diagrams: holonomy traversal and graded composition.

The bundle over the circle is trivialized over [0,1) with a single seam at 0;
crossing the seam counterclockwise multiplies the fiber coordinate on the left
by the outer holonomy, and a chord identification multiplies by its element.
A decorated class keeps, per cluster, only the induced fiber identifications
between its vertices (the tree shape is forgotten), plus the mark lifts.
Region holonomies are evaluated on integer region words compiled from the
base diagram's region walks; incoming_holonomy caches them per base.  The
fibre transport to a point of a walk, which graded composition glues the
parts by, folds the prefix of the region word taken up before that point.
Everything runs on the integer ticks of the chords module.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .chords import (
    LabeledChords,
    MDClass,
    WalkTape,
    _composite,
    _diagram_fields,
    canonical_md,
    identity_md,
    region_walk,
    relabel as relabel_md,
    validate_diagram,
)
from .groups import FiniteGroup, _json_int, _load_json


class HolonomyError(ValueError):
    """Holonomy mismatch in graded composition, or invalid decoration data."""

    def __init__(self, message: str, slot: int | None = None):
        super().__init__(message)
        self.slot = slot


@dataclass(frozen=True)
class GDiagram:
    """Canonical G-decorated marked chord diagram.

    transports[c][j] identifies the fiber over the j-th vertex (sorted) of
    cluster c with the fiber over its least vertex; transports[c][0] = 0.
    lifts[i] is the fiber coordinate of the mark of region i+1.
    """

    base: MDClass
    group: FiniteGroup
    outer: int
    transports: tuple[tuple[int, ...], ...]
    lifts: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.base.n

    def rep_deltas(self) -> dict[tuple[int, int], int]:
        """Identification element for each canonical path-tree chord, keyed by its ticks."""
        out = {}
        G = self.group
        for grp, taus in zip(self.base.cluster_ticks, self.transports):
            for j in range(len(grp) - 1):
                out[(grp[j], grp[j + 1])] = G.mul(taus[j + 1], G.invert(taus[j]))
        return out

    def to_json(self) -> dict:
        data = self.base.to_json()
        deltas = self.rep_deltas()
        data["group"] = self.group.name
        data["outer"] = self.outer
        data["delta"] = [deltas[c] for c in self.base.rep_ticks()]
        data["lifts"] = list(self.lifts)
        return data


def _cluster_transports(
    G: FiniteGroup,
    clusters: Sequence[Sequence[int]],
    chords: Sequence[tuple[int, int]],
    delta: Sequence[int],
) -> tuple[tuple[int, ...], ...]:
    """Fiber transport from each cluster's least vertex, by tree walk over the chords;
    `chords._clusters` grouped these same chords into the clusters, so it reaches all."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for (x, y), d in zip(chords, delta):
        adj.setdefault(x, []).append((y, d))
        adj.setdefault(y, []).append((x, G.invert(d)))
    out = []
    for grp in clusters:
        tau = {grp[0]: 0}
        frontier = [grp[0]]
        while frontier:
            v = frontier.pop()
            for w, d in adj.get(v, ()):  # transport v -> w is left multiplication by d
                if w not in tau:
                    tau[w] = G.mul(d, tau[v])
                    frontier.append(w)
        out.append(tuple(tau[v] for v in grp))
    return tuple(out)


def _check_elements(G: FiniteGroup, values: Sequence[int]) -> None:
    for v in values:
        if not 0 <= _json_int(v, "element index", HolonomyError) < G.order:
            raise HolonomyError(f"element index {v} out of range for {G.name}")


def decorate(
    n: int,
    chords: Sequence[Sequence[Fraction]],
    marks: Sequence[Fraction],
    group: FiniteGroup,
    outer: int,
    delta: Sequence[int],
    lifts: Sequence[int],
    interval_labels: Sequence[int] | None = None,
) -> GDiagram:
    """Validate and canonicalize raw decorated diagram data."""
    d = validate_diagram(n, chords, marks, interval_labels)
    if len(delta) != len(d.chord_ticks):
        raise HolonomyError("need one identification element per chord")
    if len(lifts) != n:
        raise HolonomyError("need one mark lift per region")
    _check_elements(group, list(delta) + list(lifts) + [outer])
    return _decorated(d, group, outer, delta, lifts)


def _decorated(
    d: LabeledChords, group: FiniteGroup, outer: int, delta: Sequence[int], lifts: Sequence[int]
) -> GDiagram:
    """Canonicalize a validated diagram or a composite with one element per chord and one lift per mark.

    Flipping a chord inverts its element, relabeling permutes them, and only
    the per-cluster fiber identifications survive; a mark sitting on a cluster
    vertex is moved to the least vertex with its lift transported along.
    """
    transports = _cluster_transports(group, d.cluster_ticks, d.chord_ticks, delta)
    where = {v: (ci, j) for ci, grp in enumerate(d.cluster_ticks) for j, v in enumerate(grp)}
    new_lifts = []
    for z, k in zip(d.mark_ticks, lifts):
        if z in where:
            ci, j = where[z]
            # move the mark to the least vertex: coordinate at least = tau_j^-1 * k
            k = group.mul(group.invert(transports[ci][j]), k)
        new_lifts.append(k)
    return GDiagram(canonical_md(d), group, outer, transports, tuple(new_lifts))


def from_gdiagram_json(data, resolve_group) -> GDiagram:
    data = _load_json(data, HolonomyError)
    n, chords, marks, labels = _diagram_fields(data)
    try:
        group = str(data["group"])
        outer = _json_int(data["outer"], "field 'outer'", ValueError)
        delta = [_json_int(v, "field 'delta'", ValueError) for v in data.get("delta", [])]
        lifts = [_json_int(v, "field 'lifts'", ValueError) for v in data["lifts"]]
    except (KeyError, TypeError, ValueError) as e:
        raise HolonomyError(f"bad decorated diagram JSON: {e}") from None
    return decorate(n, chords, marks, resolve_group(group), outer, delta, lifts, labels)


def _seam_offset(seg_start: int, L: int) -> int:
    """Ticks from seg_start counterclockwise to circle coordinate 0, in (0, L]."""
    return -seg_start % L or L


def _word(md: MDClass, tape: WalkTape) -> tuple:
    """One region walk of md as (start, word, keys), start and word on integer indices.

    start is None for a walk that starts on an arc, else (cluster, arrival
    index) of the passage it starts on.  The word lists the walk's factors in
    order: None for an arc that reaches the seam (the outer holonomy) and
    (cluster, arrival index, departure index) for a cluster passage; arcs
    that miss the seam contribute nothing.  keys[j] is where the walk takes
    up factor j: (pos + o, 0) for an arc at pos that reaches the seam after o,
    (pos, 1) for a passage at pos; the factors before walk position s are
    those with key < (s, 1).  The tape may be scaled k-fold from md's ticks.
    """
    k = tape.L // md.L
    word, keys = [], []
    for pos, u in tape.steps:
        if u[0] == "pass":
            grp = md.cluster_ticks[u[1]]
            word.append((u[1], grp.index(u[2] // k), grp.index(u[3] // k)))
            keys.append((pos, 1))
        elif (o := _seam_offset(u[1], tape.L)) <= u[2]:
            word.append(None)
            keys.append((pos + o, 0))
    start = word[0][:2] if tape.steps[0][1][0] == "pass" else None
    return start, tuple(word), tuple(keys)


def _fold(G: FiniteGroup, outer: int, transports: Sequence[Sequence[int]], start, word) -> tuple[int, int]:
    """(s, w) of one region word: s transports the cluster's least vertex to the
    walk's start and w is the loop element, so the holonomy measured from
    mark lift k is w conjugated by s*k."""
    w = 0
    for x in word:
        if x is None:
            w = G.mul(outer, w)
        else:
            taus = transports[x[0]]
            w = G.mul(G.mul(taus[x[2]], G.invert(taus[x[1]])), w)
    return (0 if start is None else transports[start[0]][start[1]]), w


@lru_cache(maxsize=256)
def _region_words(md: MDClass) -> tuple[tuple, ...]:
    """md's region words, cached: g_compose checks the holonomy of the composite it
    builds, and again when that composite is a part of a later composition."""
    return tuple(_word(md, region_walk(md, label)) for label in range(1, md.n + 1))


def _word_holonomy(W: GDiagram, words: Sequence[tuple]) -> tuple[int, ...]:
    G = W.group
    folds = (_fold(G, W.outer, W.transports, start, word) for start, word, _ in words)
    return tuple(G.conjugate(w, G.mul(s, k)) for (s, w), k in zip(folds, W.lifts))


def incoming_holonomy(W: GDiagram) -> tuple[int, ...]:
    """Per-region holonomy measured from the lifted mark, following orientation."""
    return _word_holonomy(W, _region_words(W.base))


def outgoing_holonomy(W: GDiagram) -> int:
    """Total holonomy of the outer circle from the base lift; equals the stored element."""
    return W.outer


def g_identity(G: FiniteGroup, h: int) -> GDiagram:
    """The graded identity at holonomy h: no chords, mark at the base point, unit lift."""
    _check_elements(G, [h])
    return GDiagram(identity_md(), G, h, (), (0,))


def relabel(W: GDiagram, perm: Sequence[int]) -> GDiagram:
    base = relabel_md(W.base, perm)
    lifts = [0] * W.n
    for old, k in enumerate(W.lifts):
        lifts[perm[old]] = k
    return GDiagram(base, W.group, W.outer, W.transports, tuple(lifts))


def _transport_to(W: GDiagram, tape: WalkTape, word: tuple, s: int) -> int:
    """Fiber transport factor from the mark's fiber to the point s ticks along
    tape, folded from the prefix of its region word taken up before s.

    When s falls on a cluster passage the transport ends at the passage's
    arrival vertex, matching the attachment convention of the base composition.
    """
    tape.check(s)
    start, entries, keys = word
    a, w = _fold(W.group, W.outer, W.transports, start, entries[: bisect_left(keys, (s, 1))])
    return W.group.mul(w, a)


def g_compose(W: GDiagram, parts: Sequence[GDiagram]) -> GDiagram:
    """Graded composition; defined when each region holonomy of the base equals
    the outer holonomy of the part patched into it.  The composite's holonomies
    are recomputed from scratch and checked against the matching contract."""
    if len(parts) != W.n:
        raise HolonomyError(f"need {W.n} parts, got {len(parts)}")
    for p in parts:
        if p.group != W.group:
            raise HolonomyError("parts must be decorated over the same group")
    d, tapes = _composite(W.base, [p.base for p in parts])
    words = [_word(W.base, t) for t in tapes]
    for i, (h, p) in enumerate(zip(_word_holonomy(W, words), parts)):
        if outgoing_holonomy(p) != h:
            raise HolonomyError(
                f"slot {i + 1}: region holonomy {h} != part outer holonomy {p.outer}",
                slot=i + 1,
            )
    G = W.group
    # aligned with d: the base's chords, then each part's chords and marks
    base_deltas = W.rep_deltas()
    new_delta = [base_deltas[c] for c in W.base.rep_ticks()]
    new_lifts: list[int] = []
    for tape, word, k_i, p in zip(tapes, words, W.lifts, parts):
        r, Lp = tape.total, p.base.L  # part tick a lies r·a/Lp along the tape
        part_deltas = p.rep_deltas()
        for x, y in p.base.rep_ticks():
            fx = _transport_to(W, tape, word, r * x // Lp)
            fy = _transport_to(W, tape, word, r * y // Lp)
            # composite fiber coordinates glue as F(t) k_i a for part coordinate a
            dprime = G.mul(
                G.mul(G.mul(fy, k_i), part_deltas[(x, y)]),
                G.invert(G.mul(fx, k_i)),
            )
            new_delta.append(dprime)
        for z, lift in zip(p.base.mark_ticks, p.lifts):
            new_lifts.append(G.mul(G.mul(_transport_to(W, tape, word, r * z // Lp), k_i), lift))
    out = _decorated(d, G, W.outer, new_delta, new_lifts)
    expect = tuple(h for p in parts for h in incoming_holonomy(p))
    got = incoming_holonomy(out)
    if got != expect:
        raise HolonomyError(f"composite holonomies {got} do not match the parts {expect}")
    return out


def random_gdiagram(rng, md: MDClass, G: FiniteGroup, outer: int) -> GDiagram:
    """A uniformly random decoration of the base diagram with the given outer holonomy."""
    transports = tuple(
        (0,) + tuple(rng.randrange(G.order) for _ in range(len(grp) - 1)) for grp in md.cluster_ticks
    )
    lifts = tuple(rng.randrange(G.order) for _ in range(md.n))
    return GDiagram(md, G, outer, transports, lifts)


def enumerate_gmd(
    md: MDClass,
    G: FiniteGroup,
    outer: int,
    inner: tuple[int, ...] | None = None,
    cap: int = 1_000_000,
) -> list[GDiagram]:
    """All decorated classes over a base diagram with the given outer holonomy,
    optionally filtered by the inner holonomy signature, in lexicographic order
    of (transports, lifts).

    Region i's holonomy depends only on the transports and on lifts[i], so for
    each choice of transports the lifts are solved region by region and the
    fibre is the product of the admissible lift sets.  cap still bounds the
    number of candidate decorations, |G|^(free+n).
    """
    n = md.n
    _check_elements(G, [outer])
    if inner is not None:
        if len(inner) != n:
            raise HolonomyError(f"need {n} inner holonomies, got {len(inner)}")
        _check_elements(G, inner)
    free = sum(len(g) - 1 for g in md.cluster_ticks)
    total = G.order ** (free + n)
    if total > cap:
        raise HolonomyError(f"search space {total} exceeds cap {cap}")
    words = _region_words(md) if inner is not None else ()
    out = []
    elements = range(G.order)
    for taus_flat in product(elements, repeat=free):
        transports = []
        pos = 0
        for grp in md.cluster_ticks:
            transports.append((0,) + tuple(taus_flat[pos : pos + len(grp) - 1]))
            pos += len(grp) - 1
        transports = tuple(transports)
        lift_sets = [elements] * n
        if inner is not None:
            for i, ((start, word, _), h) in enumerate(zip(words, inner)):
                s, w = _fold(G, outer, transports, start, word)
                lift_sets[i] = [k for k in elements if G.conjugate(w, G.mul(s, k)) == h]
        for lifts in product(*lift_sets):
            out.append(GDiagram(md, G, outer, transports, lifts))
    return out
