"""The four benchmark workloads: rings, operad, g-operad and bv.

Each workload is a fixed cycle of slots.  A slot names an op kind and its
size class; the seed shuffles the slots within each cycle and draws every
op's random inputs.  Op ``i`` depends only on (workload, seed, i), so a run
is the same op sequence however fast the machine is, and a run that stops
at a cycle boundary has the same mix of op kinds at every seed.

An op is one library call, or one property instance of the kind the
package's own ``selftest`` checks.  ``Op.call`` holds only calls into
``orbistring``; inputs are built before it and ``Op.check`` judges the
result after it, both outside the timer.  ``check`` returns a bool; an
exception from ``call`` or ``check`` is a failed op.

Why each workload exists and what it predicts is written in README.md.

The known-answer probes in probes.py (point:Z5/Z7/Z8 Morita self-pairs,
Menichi's BV operator on lens rings, mixed-level Cyclo hashing) are left
out of these timed pools on purpose: fixing any of those defects changes
both the verdict and the amount of work, which would move the timed
metrics for a reason other than speed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Any, Callable

from orbistring import (
    Cyclo,
    Phase,
    bv_check,
    catalog_cocycle,
    catalog_group,
    catalog_subgroup,
    coboundary,
    compose,
    coset_gset,
    dw_frobenius,
    enumerate_gmd,
    from_cactus,
    g_compose,
    g_identity,
    graded_window_bv,
    identity_md,
    incoming_holonomy,
    lens_ring,
    md_from_data,
    morita_compare,
    multiply,
    orbifold_string_ring,
    point_gset,
    random_gdiagram,
    random_md,
    relabel,
    ring_window_bv,
    sphere_quotient_ring,
    to_cactus,
    trivial_cocycle,
    twisted_center,
)
from orbistring.graded import basis_window
from orbistring.groups import CATALOG_NAMES


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload:
    name = ""
    slots: tuple = ()
    trace_cycles = 1  # cycles run by the traced comparison

    def __init__(self, seed: int):
        self.seed = seed
        self._orders: dict[int, list] = {}

    def slot(self, index: int):
        cycle, pos = divmod(index, len(self.slots))
        order = self._orders.get(cycle)
        if order is None:
            order = list(self.slots)
            random.Random(f"{self.name}:{self.seed}:cycle:{cycle}").shuffle(order)
            self._orders = {cycle: order}
        return order[pos]

    def op(self, index: int) -> Op:
        rng = random.Random(f"{self.name}:{self.seed}:op:{index}")
        return self.make(self.slot(index), rng)

    def warmup_ops(self) -> list[Op]:
        """One op of each kind from a stream the measured ops never use."""
        rng = random.Random(f"{self.name}:{self.seed}:warmup")
        return [self.make(s, rng) for s in self.warmup_slots]

    def make(self, slot, rng) -> Op:  # pragma: no cover - abstract
        raise NotImplementedError

    def account(self, op: Op, result, count, calls) -> None:
        """Add workload-level counts of a traced op (see tracer.Tracer.count);
        calls(span) is the number of calls of a traced span made within the op."""


# rings ----------------------------------------------------------------------

# (group, base cocycle, coboundary denominators).  Three levels per group
# keep a cycle near 1.5 s; S4 gets one because an S4 twist costs as much as
# all the small groups' twists together.
TWISTS = tuple((g, base, (8, 16, 48)) for g, base in (
    ("Z4", "trivial"),
    ("Z6", "trivial"),
    ("Z8", "trivial"),
    ("Z2xZ2", "trivial"),
    ("Z2xZ2", "nontrivial"),
    ("S3", "trivial"),
    ("D4", "trivial"),
    ("Q8", "trivial"),
)) + (("S4", "trivial", (8,)),)
MORITA_PAIRS = (
    # (left, right, expected verdict); every pair here is decided today
    (("coset", "S3", "Z2"), ("point", "Z2"), True),
    (("coset", "S3", "Z3"), ("point", "Z3"), True),
    (("coset", "S4", "S3"), ("point", "S3"), True),
    (("coset", "Z4", "Z2"), ("point", "Z2"), True),
    (("point", "S3"), ("point", "S3"), True),
    (("point", "Z4"), ("point", "Z4"), True),
    (("point", "Z6"), ("point", "Z6"), True),
    (("point", "S4"), ("point", "S4"), True),
    (("point", "D4"), ("point", "Q8"), True),
    (("point", "Z2"), ("point", "Z3"), False),
    (("point", "S3"), ("point", "Z3"), False),
    (("point", "Z4"), ("point", "Z2xZ2"), False),
)


def gset_of(spec):
    if spec[0] == "coset":
        G, H = catalog_subgroup(spec[1], spec[2])
        return coset_gset(G, H)
    return point_gset(catalog_group(spec[1]))


def _class_algebra(G):
    """Conjugacy classes and class-sum structure constants, brute force from the table."""
    classes = []
    seen = set()
    for g in range(G.order):
        if g in seen:
            continue
        orbit = tuple(sorted({G.mul(G.mul(h, g), G.invert(h)) for h in range(G.order)}))
        seen.update(orbit)
        classes.append(orbit)
    consts = {}
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            consts[(i, j)] = [
                Fraction(sum(1 for g in ci for h in cj if G.mul(g, h) == ck[0])) for ck in classes
            ]
    return classes, consts


def _rank(rows: list[list[Fraction]]) -> int:
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col] / work[rank][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


class Rings(Workload):
    """Build and verify sector rings over Q(zeta_N) and Q."""

    name = "rings"
    slots = (
        tuple(("twisted", g, base, den) for g, base, dens in TWISTS for den in dens)
        + tuple(("dw", g) for g in CATALOG_NAMES)
        + tuple(("morita", k) for k in range(len(MORITA_PAIRS)))
    )
    warmup_slots = (("twisted", "Z4", "trivial", 8), ("dw", "S3"), ("morita", 3))
    trace_cycles = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        self._base_rings: dict = {}
        self._class_algebras: dict = {}
        self._rational_rings: dict = {}

    def make(self, slot, rng) -> Op:
        kind = slot[0]
        if kind == "twisted":
            _, gname, base_name, den = slot
            G = catalog_group(gname)
            base = trivial_cocycle(G) if base_name == "trivial" else catalog_cocycle(G, base_name)
            beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]

            def call():
                return twisted_center(G, base * coboundary(G, beta))

            return Op("twisted", call, lambda r: self._check_twisted(G, base_name, base, beta, den, r))
        if kind == "dw":
            G = catalog_group(slot[1])
            return Op("dw", lambda: dw_frobenius(G), lambda r: self._check_dw(G, r))
        left, right, expected = MORITA_PAIRS[slot[1]]
        X, Y = gset_of(left), gset_of(right)
        probe_seed = rng.randrange(1 << 30)
        return Op(
            "morita",
            lambda: morita_compare(X, Y, seed=probe_seed),
            lambda r: self._check_morita(slot[1], X, Y, expected, r),
        )

    def _check_twisted(self, G, base_name, base, beta, den, t2) -> bool:
        """The twisted ring equals the base ring through the diagonal rescaling (crit03)."""
        key = (G.name, base_name)
        t1 = self._base_rings.get(key)
        if t1 is None:
            t1 = self._base_rings[key] = twisted_center(G, base)
        if t1.dim != t2.dim or t1.meta["regular_reps"] != t2.meta["regular_reps"]:
            return False
        lvl = lcm(t1.level, t2.level, den)
        bscale = [Cyclo.from_phase(beta[r].q, lvl) for r in t1.meta["regular_reps"]]
        binv = [b.inverse() for b in bscale]
        for i in range(t1.dim):
            for j in range(t1.dim):
                scale_ij = bscale[i] * bscale[j]
                for k in range(t1.dim):
                    a, b = t1.structure[i][j][k], t2.structure[i][j][k]
                    if not a and not b:
                        continue
                    if b.lift(lvl) != a.lift(lvl) * scale_ij * binv[k]:
                        return False
        return True

    def _check_dw(self, G, ring) -> bool:
        got = self._class_algebras.get(G.name)
        if got is None:
            got = self._class_algebras[G.name] = _class_algebra(G)
        classes, consts = got
        if ring.dim != len(classes):
            return False
        return all(
            [c.rational_part() for c in ring.structure[i][j]] == counts for (i, j), counts in consts.items()
        )

    def _check_morita(self, pair, X, Y, expected, rep) -> bool:
        if rep.isomorphic is not expected:
            return False
        if not expected:
            return True
        rings = self._rational_rings.get(pair)
        if rings is None:
            rings = self._rational_rings[pair] = tuple(
                (
                    [[[c.rational_part() for c in row] for row in mat] for mat in r.structure],
                    [c.rational_part() for c in r.unit],
                )
                for r in (orbifold_string_ring(X), orbifold_string_ring(Y))
            )
        (sa, unit_a), (sb, unit_b) = rings
        T = rep.witness
        n = len(unit_a)
        if len(T) != n or _rank(T) != n:
            return False

        def apply(v):
            return [sum(T[r][c] * v[c] for c in range(n)) for r in range(n)]

        def mult_b(u, v):
            out = [Fraction(0)] * n
            for i in range(n):
                for j in range(n):
                    if u[i] and v[j]:
                        for k in range(n):
                            out[k] += u[i] * v[j] * sb[i][j][k]
            return out

        if apply(unit_a) != unit_b:
            return False
        cols = [apply([Fraction(int(t == i)) for t in range(n)]) for i in range(n)]
        return all(apply(sa[i][j]) == mult_b(cols[i], cols[j]) for i in range(n) for j in range(n))


# operad ---------------------------------------------------------------------


class Operad(Workload):
    """Plain chord-operad property instances on fresh random diagrams."""

    name = "operad"
    slots = (
        tuple(("unit", n) for n in range(1, 6))
        + tuple(("assoc", n) for n in range(1, 6))
        + tuple(("equiv", n) for n in (2, 3, 4, 5, 5))
        + tuple(("cactus", n) for n in range(1, 6))
        + tuple(("md_from_data", n) for n in range(1, 6))
    )
    warmup_slots = (("unit", 2), ("assoc", 2), ("equiv", 2), ("cactus", 2), ("md_from_data", 2))
    trace_cycles = 12

    def make(self, slot, rng) -> Op:
        kind, n = slot
        c = random_md(rng, n)
        if kind == "unit":
            e = identity_md()
            return Op(kind, lambda: (compose(c, [e] * c.n), compose(e, [c])),
                      lambda r: r[0] == c and r[1] == c)
        if kind == "assoc":
            parts = [random_md(rng, rng.randint(1, 3)) for _ in range(c.n)]
            inner = [[random_md(rng, rng.randint(1, 2)) for _ in range(p.n)] for p in parts]
            flat = [w for grp in inner for w in grp]

            def call():
                left = compose(compose(c, parts), flat)
                right = compose(c, [compose(p, grp) for p, grp in zip(parts, inner)])
                return left, right

            return Op(kind, call, lambda r: r[0] == r[1])
        if kind == "equiv":
            parts = [random_md(rng, rng.randint(1, 2)) for _ in range(c.n)]
            sig = list(range(c.n))
            rng.shuffle(sig)
            permuted = [None] * c.n
            for old in range(c.n):
                permuted[sig[old]] = parts[old]
            off, acc = [0] * c.n, 0
            for slot_ in range(c.n):
                off[slot_] = acc
                acc += permuted[slot_].n
            block = [off[sig[old]] + t for old in range(c.n) for t in range(parts[old].n)]

            def call():
                return compose(relabel(c, sig), permuted), relabel(compose(c, parts), block)

            return Op(kind, call, lambda r: r[0] == r[1])
        if kind == "cactus":

            def check(r):
                perim = sum((c.perimeter(i + 1) for i in range(c.n)), Fraction(0))
                return r == c and perim == 1

            return Op(kind, lambda: from_cactus(to_cactus(c)), check)
        # md_from_data on raw chords: each chord in a random orientation, shuffled
        raw = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in c.rep_chords()]
        rng.shuffle(raw)
        marks = list(c.marks)
        return Op(kind, lambda: md_from_data(n, raw, marks), lambda r: r == c)


# g-operad -------------------------------------------------------------------


class GOperad(Workload):
    """G-decorated composition and fibre enumeration over Z2, Z3 and S3."""

    name = "g-operad"
    slots = tuple(
        (kind, g, n)
        for g in ("Z2", "Z3", "S3")
        for kind in ("unit", "assoc", "enum")
        for n in ((1, 2) if (g, kind) == ("S3", "enum") else (1, 2, 3))
    )
    warmup_slots = (("unit", "Z2", 2), ("assoc", "Z3", 2), ("enum", "S3", 2))
    trace_cycles = 10

    def make(self, slot, rng) -> Op:
        kind, gname, n = slot
        G = catalog_group(gname)
        md = random_md(rng, n)
        W = random_gdiagram(rng, md, G, rng.randrange(G.order))
        ih = incoming_holonomy(W)
        if kind == "unit":
            right_ids = [g_identity(G, h) for h in ih]
            left_id = g_identity(G, W.outer)
            return Op(kind, lambda: (g_compose(W, right_ids), g_compose(left_id, [W])),
                      lambda r: r[0] == W and r[1] == W)
        if kind == "assoc":
            parts = [random_gdiagram(rng, random_md(rng, rng.randint(1, 2)), G, h) for h in ih]
            inner = [
                [random_gdiagram(rng, random_md(rng, 1), G, h) for h in incoming_holonomy(p)]
                for p in parts
            ]
            flat = [w for grp in inner for w in grp]

            def call():
                left = g_compose(g_compose(W, parts), flat)
                right = g_compose(W, [g_compose(p, grp) for p, grp in zip(parts, inner)])
                return left, right

            return Op(kind, call, lambda r: r[0] == r[1])

        def check(found):
            return W in found and len(enumerate_gmd(md, G, W.outer)) == G.order ** (2 * n - 1)

        return Op(kind, lambda: enumerate_gmd(md, G, W.outer, ih), check)

    def account(self, op, result, count, calls) -> None:
        if op.kind == "enum":
            # a filtered enumeration computes incoming_holonomy once per candidate it walks
            count("gchords.enumerate.tried", calls("gchords.incoming_holonomy"))
            count("gchords.enumerate.matched", len(result))


# bv -------------------------------------------------------------------------

# Windows are fixed (not drawn from the seed) and sized so each full pass
# costs about the same (9-10 basis elements), which keeps the op mix
# identical across seeds.
BV_WINDOWS = (
    ("lens(3,1)", lambda: lens_ring(3, 1), -3, 6),
    ("lens(3,2)", lambda: lens_ring(3, 2), -3, 2),
    ("lens(3,3)", lambda: lens_ring(3, 3), -3, 0),
    ("lens(5,2)", lambda: lens_ring(5, 2), -5, 4),
    ("sphere-quotient(2)", lambda: sphere_quotient_ring(2), -2, 3),
    ("sphere-quotient(3)", lambda: sphere_quotient_ring(3), -2, 1),
    ("Z(Q[S3])", None, 0, 0),
)


def _monomial_product(P, a, b):
    """Independent product of two normal monomials: (sign, monomial) or None for zero."""
    out = []
    for i, (ea, eb) in enumerate(zip(a, b)):
        e = ea + eb
        p = P.root_orders[i]
        if p is not None:
            e %= p
        if P.gens[i][1] % 2 and e > 1:
            return None
        out.append(e)
    if any(all(m >= z for m, z in zip(out, zero)) for zero in P.zero_monomials):
        return None
    odd = [i for i, (_, d) in enumerate(P.gens) if d % 2]
    # moving each odd generator of b left past the odd generators of a that follow it
    swaps = sum(b[j] * a[i] for j in odd for i in odd if i > j)
    return (-1 if swaps % 2 else 1), tuple(out)


class BV(Workload):
    """BV axiom checks: full passes, fail-fast negative controls and product tables."""

    name = "bv"
    warmup_slots = (("full", 6), ("table", 0), ("fail-degree", 1), ("fail-squared", 1))
    trace_cycles = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        self._zs3 = dw_frobenius(catalog_group("S3"))
        self._presentations = {w: spec[1]() for w, spec in enumerate(BV_WINDOWS) if spec[1]}
        self._bases = {w: basis_window(P, BV_WINDOWS[w][2], BV_WINDOWS[w][3]) for w, P in self._presentations.items()}
        self._bases[len(BV_WINDOWS) - 1] = list(range(self._zs3.dim))
        self._degree = {w: P.degree for w, P in self._presentations.items()}
        self._degree[len(BV_WINDOWS) - 1] = lambda b: 0
        self._chains = {}
        for w, basis in self._bases.items():
            deg = self._degree[w]
            self._chains[w] = [
                (x, y, z)
                for x in basis
                for y in basis
                if deg(y) == deg(x) + 1
                for z in basis
                if deg(z) == deg(x) + 2
            ]
        # Per window: one full pass, one product table and three fail-fast
        # controls.  Z(Q[S3]) has no presentation to tabulate, and a window
        # without a degree chain d, d+1, d+2 admits no Delta with Delta^2 != 0
        # of the right degree; both get degree-breaking controls instead.
        self.slots = tuple(
            (kind, w)
            for w in range(len(BV_WINDOWS))
            for kind in (
                "full",
                "table" if w in self._presentations else "fail-degree",
                "fail-degree",
                "fail-degree",
                "fail-squared" if self._chains[w] else "fail-degree",
            )
        )

    def make(self, slot, rng) -> Op:
        kind, w = slot
        _, _, lo, hi = BV_WINDOWS[w]
        P = self._presentations.get(w)
        if kind == "table":
            def call():
                basis = basis_window(P, lo, hi)
                return basis, [[multiply(P, {x: Fraction(1)}, {y: Fraction(1)}) for y in basis] for x in basis]

            return Op(kind, call, lambda r: self._check_table(w, r))
        if kind == "full":
            if P is None:
                ring = self._zs3
                return Op(kind, lambda: bv_check(ring_window_bv(ring)), lambda r: r.ok and not r.failures)
            return Op(kind, lambda: bv_check(graded_window_bv(P, lo, hi)), lambda r: r.ok and not r.failures)
        basis, degree = self._bases[w], self._degree[w]
        coeff = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))  # noqa: E731
        if kind == "fail-degree":
            src = rng.choice(basis)
            dst = rng.choice([b for b in basis if degree(b) != degree(src) + 1])
            delta = {src: {dst: coeff()}}
            axiom = "delta-degree"
        else:
            x, y, z = rng.choice(self._chains[w])
            delta = {x: {y: coeff()}, y: {z: coeff()}}
            axiom = "delta-squared"
        if P is None:
            ring = self._zs3
            call = lambda: bv_check(ring_window_bv(ring, delta))  # noqa: E731
        else:
            call = lambda: bv_check(graded_window_bv(P, lo, hi, delta))  # noqa: E731
        return Op(kind, call, lambda r: not r.ok and r.failures[0]["axiom"] == axiom)

    def _check_table(self, w, result) -> bool:
        basis, table = result
        P = self._presentations[w]
        if basis != self._bases[w]:
            return False
        for x, row in zip(basis, table):
            for y, got in zip(basis, row):
                prod = _monomial_product(P, x, y)
                want = {} if prod is None else {prod[1]: Fraction(prod[0])}
                if got != want:
                    return False
        return True

    def account(self, op, result, count, calls) -> None:
        if op.kind == "full":
            checked = result.checked
            count("graded.bv.instances", sum(v for k, v in checked.items() if k != "skipped"))
            count("graded.bv.skipped", checked.get("skipped", 0))


WORKLOADS = {cls.name: cls for cls in (Rings, Operad, GOperad, BV)}
