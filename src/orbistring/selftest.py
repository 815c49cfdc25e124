"""Property and reproduction checks behind `orbistring selftest` and the acceptance suite.

Every check is deterministic given the seed and prints no timing information,
so repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .chords import (
    compose,
    from_cactus,
    identity_md,
    md_from_data,
    random_md,
    relabel,
    to_cactus,
)
from .cyclo import Cyclo
from .gchords import (
    GDiagram,
    enumerate_gmd,
    g_compose,
    g_identity,
    incoming_holonomy,
    random_gdiagram,
)
from .graded import (
    basis_window,
    bv_check,
    graded_window_bv,
    lens_delta,
    lens_ring,
    multiply,
    ring_window_bv,
)
from .groups import (
    CATALOG_NAMES,
    catalog_group,
    catalog_subgroup,
    conjugacy_classes,
    coset_gset,
    point_gset,
)
from .phases import (
    Phase,
    catalog_cocycle,
    check_torsion_law,
    coboundary,
    discrete_torsion,
    restrict_to_centralizer,
    trivial_cocycle,
)
from .sector import dw_frobenius, morita_compare, twisted_center


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _class_algebra_bruteforce(G) -> tuple[list[tuple[int, ...]], dict]:
    """Structure constants of Z(Q[G]) on class sums, straight from the group algebra."""
    data = conjugacy_classes(G)
    consts = {}
    for i, ci in enumerate(data.classes):
        for j, cj in enumerate(data.classes):
            counts = [0] * len(data.classes)
            for k, ck in enumerate(data.classes):
                target = ck[0]
                counts[k] = sum(1 for g in ci for h in cj if G.mul(g, h) == target)
                for other in ck[1:]:
                    alt = sum(1 for g in ci for h in cj if G.mul(g, h) == other)
                    if alt != counts[k]:
                        raise AssertionError("class algebra product not class-constant")
            consts[(i, j)] = counts
    return list(data.classes), consts


def crit_01_dw_point(seed: int) -> CheckResult:
    checked = 0
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        ring = dw_frobenius(G)
        data = conjugacy_classes(G)
        if ring.dim != len(data.classes):
            return CheckResult("criterion-01 dijkgraaf-witten-point", False, f"{name}: dimension mismatch")
        classes, consts = _class_algebra_bruteforce(G)
        # ring orbits are the classes in the same least-representative order
        for (i, j), counts in consts.items():
            got = [c.rational_part() for c in ring.structure[i][j]]
            if got != [Fraction(v) for v in counts]:
                return CheckResult(
                    "criterion-01 dijkgraaf-witten-point", False, f"{name}: constants differ at ({i},{j})"
                )
        if not ring.pairing_nondegenerate():
            return CheckResult("criterion-01 dijkgraaf-witten-point", False, f"{name}: degenerate pairing")
        checked += 1
    return CheckResult(
        "criterion-01 dijkgraaf-witten-point",
        True,
        f"{checked} catalog groups match brute-force class algebras exactly",
    )


def crit_02_discrete_torsion(seed: int) -> CheckResult:
    Z22 = catalog_group("Z2xZ2")
    tw = twisted_center(Z22, catalog_cocycle(Z22, "nontrivial"))
    if tw.dim != 1:
        return CheckResult("criterion-02 discrete-torsion", False, f"nontrivial dim {tw.dim} != 1")
    tw0 = twisted_center(Z22, trivial_cocycle(Z22))
    if tw0.dim != 4:
        return CheckResult("criterion-02 discrete-torsion", False, f"trivial dim {tw0.dim} != 4")
    groups = 0
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        cocycles = [trivial_cocycle(G)]
        if name == "Z2xZ2":
            cocycles.append(catalog_cocycle(G, "nontrivial"))
        for alpha in cocycles:
            tau = discrete_torsion(alpha)
            law = check_torsion_law(tau)
            if not law.ok:
                return CheckResult("criterion-02 discrete-torsion", False, f"{name}: {law.reason}")
            for g in range(G.order):
                restrict_to_centralizer(tau, g)  # raises if not a character
        groups += 1
    return CheckResult(
        "criterion-02 discrete-torsion",
        True,
        f"dims 1/4 on Z2xZ2; cocycle law and characters hold on {groups} groups",
    )


def crit_03_cohomology_invariance(seed: int) -> CheckResult:
    rng = random.Random(seed + 3)
    abelian = [n for n in CATALOG_NAMES if n.startswith("Z") and n != "Z2xZ2"] + ["Z2xZ2"]
    total = 0
    for name in abelian:
        G = catalog_group(name)
        bases = [trivial_cocycle(G)]
        if name == "Z2xZ2":
            bases.append(catalog_cocycle(G, "nontrivial"))
        for alpha in bases:
            t1 = twisted_center(G, alpha)
            for trial in range(50):
                den = 2 * G.order
                beta = [Phase.one()] + [
                    Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)
                ]
                alpha2 = alpha * coboundary(G, beta)
                t2 = twisted_center(G, alpha2)
                if t1.dim != t2.dim:
                    return CheckResult(
                        "criterion-03 cohomology-invariance", False, f"{name}: dims differ"
                    )
                reps1 = t1.meta["regular_reps"]
                reps2 = t2.meta["regular_reps"]
                if reps1 != reps2:
                    return CheckResult(
                        "criterion-03 cohomology-invariance", False, f"{name}: regular sets differ"
                    )
                lvl = lcm(t1.level, t2.level, den)
                bscale = [Cyclo.from_phase(beta[r].q, lvl) for r in reps1]
                binv = [b.inverse() for b in bscale]
                for i in range(t1.dim):
                    for j in range(t1.dim):
                        scale_ij = bscale[i] * bscale[j]
                        for k in range(t1.dim):
                            if not t1.structure[i][j][k] and not t2.structure[i][j][k]:
                                continue
                            lhs = t2.structure[i][j][k].lift(lvl)
                            rhs = t1.structure[i][j][k].lift(lvl) * scale_ij * binv[k]
                            if lhs != rhs:
                                return CheckResult(
                                    "criterion-03 cohomology-invariance",
                                    False,
                                    f"{name}: rescaling fails at ({i},{j},{k})",
                                )
                total += 1
    return CheckResult(
        "criterion-03 cohomology-invariance",
        True,
        f"{total} random coboundary twists match through the diagonal rescaling",
    )


def crit_04_morita(seed: int) -> CheckResult:
    pairs = [("S3", "Z2"), ("S3", "Z3"), ("S4", "S3"), ("Z4", "Z2")]
    for gn, hn in pairs:
        G, H_elems = catalog_subgroup(gn, hn)
        X = coset_gset(G, H_elems)
        Y = point_gset(catalog_group(hn))
        rep = morita_compare(X, Y, seed=seed + 4)
        if rep.isomorphic is not True:
            return CheckResult(
                "criterion-04 morita-invariance",
                False,
                f"[{gn}/{hn}]: {rep.obstruction or rep.detail}",
            )
    neg = morita_compare(point_gset(catalog_group("Z2")), point_gset(catalog_group("Z3")))
    if neg.isomorphic is not False:
        return CheckResult("criterion-04 morita-invariance", False, "Z2 vs Z3 not rejected")
    return CheckResult(
        "criterion-04 morita-invariance",
        True,
        "4 coset-vs-point pairs isomorphic with verified rational witnesses",
    )


def crit_05_operad(seed: int) -> CheckResult:
    rng = random.Random(seed + 5)
    corpus = []
    for _ in range(1000):
        corpus.append(random_md(rng, rng.randint(1, 5)))
    e = identity_md()
    for idx, c in enumerate(corpus):
        if compose(c, [e] * c.n) != c or compose(e, [c]) != c:
            return CheckResult("criterion-05 operad-axioms", False, f"unit law fails at {idx}")
        if from_cactus(to_cactus(c)) != c:
            return CheckResult("criterion-05 operad-axioms", False, f"cactus roundtrip fails at {idx}")
        perim = sum((c.perimeter(i + 1) for i in range(c.n)), Fraction(0))
        if perim != 1:
            return CheckResult("criterion-05 operad-axioms", False, f"perimeters sum {perim} at {idx}")
    assoc = 0
    pos = 0
    while assoc < 334:
        c = corpus[pos % len(corpus)]
        pos += 1
        parts = [corpus[(pos + t) % len(corpus)] for t in range(c.n)]
        # keep sizes manageable: reroll parts bigger than 3 regions
        parts = [p if p.n <= 3 else random_md(rng, rng.randint(1, 3)) for p in parts]
        inner = [[random_md(rng, rng.randint(1, 2)) for _ in range(p.n)] for p in parts]
        left = compose(compose(c, parts), [w for grp in inner for w in grp])
        right = compose(c, [compose(p, grp) for p, grp in zip(parts, inner)])
        if left != right:
            return CheckResult("criterion-05 operad-axioms", False, f"associativity fails at {assoc}")
        assoc += 1
    equiv = 0
    for c in corpus:
        if c.n < 2:
            continue
        if equiv >= 300:
            break
        parts = [random_md(rng, rng.randint(1, 2)) for _ in range(c.n)]
        sig = list(range(c.n))
        rng.shuffle(sig)
        permuted = [None] * c.n
        for old in range(c.n):
            permuted[sig[old]] = parts[old]
        lhs = compose(relabel(c, sig), permuted)
        off = [0] * c.n
        acc = 0
        for slot in range(c.n):
            off[slot] = acc
            acc += permuted[slot].n
        block = []
        for old in range(c.n):
            base = off[sig[old]]
            block.extend(base + t for t in range(parts[old].n))
        if lhs != relabel(compose(c, parts), block):
            return CheckResult("criterion-05 operad-axioms", False, f"equivariance fails at {equiv}")
        equiv += 1
    return CheckResult(
        "criterion-05 operad-axioms",
        True,
        f"1000 diagrams: units+roundtrips; {assoc} associativity and {equiv} equivariance instances",
    )


def crit_06_g_operad(seed: int) -> CheckResult:
    from itertools import product as iproduct

    rng = random.Random(seed + 6)
    assoc_total = 0
    for gname in ("Z2", "Z3", "S3"):
        G = catalog_group(gname)
        for _ in range(70):
            W = random_gdiagram(rng, random_md(rng, rng.randint(1, 3)), G, rng.randrange(G.order))
            ih = incoming_holonomy(W)
            if g_compose(W, [g_identity(G, h) for h in ih]) != W:
                return CheckResult("criterion-06 g-graded-operad", False, f"{gname}: right unit fails")
            if g_compose(g_identity(G, W.outer), [W]) != W:
                return CheckResult("criterion-06 g-graded-operad", False, f"{gname}: left unit fails")
            parts = [
                random_gdiagram(rng, random_md(rng, rng.randint(1, 2)), G, h) for h in ih
            ]
            inner = [
                [random_gdiagram(rng, random_md(rng, 1), G, h) for h in incoming_holonomy(p)]
                for p in parts
            ]
            # g_compose recomputes ih/oh of every composite and enforces the contract
            left = g_compose(g_compose(W, parts), [w for grp in inner for w in grp])
            right = g_compose(W, [g_compose(p, grp) for p, grp in zip(parts, inner)])
            if left != right:
                return CheckResult(
                    "criterion-06 g-graded-operad", False, f"{gname}: associativity instance fails"
                )
            assoc_total += 1
    # exhaustive fiber counts and lift-orbit structure for |G| <= 3, n <= 3
    for gname in ("Z2", "Z3"):
        G = catalog_group(gname)
        for n in (1, 2, 3):
            md = random_md(random.Random(seed + n), n)
            for g in range(G.order):
                decs = enumerate_gmd(md, G, g, cap=10**7)
                if len(decs) != G.order ** (2 * n - 1):
                    return CheckResult(
                        "criterion-06 g-graded-operad",
                        False,
                        f"{gname} n={n}: fiber {len(decs)} != {G.order ** (2 * n - 1)}",
                    )
                groups: dict = {}
                for W in decs:
                    groups.setdefault(W.transports, set()).add(W.lifts)
                if len(groups) != G.order ** (n - 1):
                    return CheckResult(
                        "criterion-06 g-graded-operad", False, f"{gname} n={n}: delta-class count off"
                    )
                full = set(iproduct(range(G.order), repeat=n))
                for lifts in groups.values():
                    if lifts != full:
                        return CheckResult(
                            "criterion-06 g-graded-operad",
                            False,
                            f"{gname} n={n}: lift action not free and transitive",
                        )
    empty = enumerate_gmd(identity_md(), catalog_group("S3"), 3, (0,))
    if empty:
        return CheckResult("criterion-06 g-graded-operad", False, "expected an empty signature set")
    return CheckResult(
        "criterion-06 g-graded-operad",
        True,
        f"{assoc_total} graded composition cases; fiber counts |G|^(2n-1) and free lift orbits verified",
    )


def crit_07_holonomy_figure(seed: int) -> CheckResult:
    S3 = catalog_group("S3")
    md = md_from_data(2, [(Fraction(1, 4), Fraction(3, 4))], [Fraction(1, 2), Fraction(0)])
    g = S3.names.index("(1,3,2)")
    h = S3.names.index("(2,3)")
    found = enumerate_gmd(md, S3, g, (h, h))
    if not found:
        return CheckResult("criterion-07 holonomy-figure", False, "no decoration with ih=((2,3),(2,3))")
    W = found[0]
    realized = set()
    for k1 in range(6):
        for k2 in range(6):
            W2 = GDiagram(W.base, S3, W.outer, W.transports, (k1, k2))
            realized.add(incoming_holonomy(W2)[0])
    expected = {S3.names.index(nm) for nm in ("(1,2)", "(2,3)", "(1,3)")}
    if realized != expected:
        return CheckResult("criterion-07 holonomy-figure", False, f"realized {sorted(realized)}")
    if (ih := incoming_holonomy(W)) != (h, h):
        names = ",".join(S3.names[x] for x in ih)
        return CheckResult("criterion-07 holonomy-figure", False, f"witness has ih=({names})")
    return CheckResult(
        "criterion-07 holonomy-figure",
        True,
        f"{len(found)} witnesses with oh=(1,3,2), ih=((2,3),(2,3)); lifts sweep the conjugacy class",
    )


def crit_08_lens_rings(seed: int) -> CheckResult:
    for n, p in ((3, 2), (3, 3), (5, 2)):
        P = lens_ring(n, p)
        for l in range(0, 7):
            for m in range(0, 7 - l):
                for j in range(p):
                    for k in range(p):
                        u_l = P.monomial(u=l, v=j)
                        u_m = P.monomial(u=m, v=k)
                        a_l = P.monomial(a=1, u=l, v=j)
                        a_m = P.monomial(a=1, u=m, v=k)
                        uu = multiply(P, u_l, u_m)
                        if uu != P.monomial(u=l + m, v=(j + k) % p):
                            return CheckResult(
                                "criterion-08 lens-rings", False, f"(n,p)=({n},{p}) u-u fails"
                            )
                        au = multiply(P, a_l, u_m)
                        if au != P.monomial(a=1, u=l + m, v=(j + k) % p):
                            return CheckResult(
                                "criterion-08 lens-rings", False, f"(n,p)=({n},{p}) a-u fails"
                            )
                        if multiply(P, a_l, a_m):
                            return CheckResult(
                                "criterion-08 lens-rings", False, f"(n,p)=({n},{p}) a*a != 0"
                            )
        if multiply(P, P.monomial(a=1), P.monomial(a=1)):
            return CheckResult("criterion-08 lens-rings", False, "a^2 != 0")
        vp = P.unit()
        for _ in range(p):
            vp = multiply(P, vp, P.monomial(v=1))
        if vp != P.unit():
            return CheckResult("criterion-08 lens-rings", False, "v^p != 1")
    P1 = lens_ring(3, 1)
    w = basis_window(P1, -3, 4)
    names = [P1.mono_str(m) for m in w]
    if names != ["a", "a*u", "1", "a*u^2", "u", "a*u^3", "u^2"]:
        return CheckResult("criterion-08 lens-rings", False, f"p=1 window {names}")
    return CheckResult(
        "criterion-08 lens-rings",
        True,
        "sector-additive products exact for (3,2),(3,3),(5,2); p=1 degenerates to the sphere ring",
    )


def crit_09_bv_checker(seed: int) -> CheckResult:
    ring = dw_frobenius(catalog_group("S3"))
    rep = bv_check(ring_window_bv(ring))
    if not rep.ok:
        return CheckResult("criterion-09 bv-checker", False, "Z(Q[S3]) with Delta=0 fails")
    L = lens_ring(3, 2)
    rep2 = bv_check(graded_window_bv(L, -3, 6))
    if not rep2.ok:
        return CheckResult("criterion-09 bv-checker", False, "lens(3,2) with Delta=0 fails")
    basis = basis_window(L, -3, 6)
    amono = next(m for m in basis if L.mono_str(m) == "a")
    one = next(m for m in basis if L.mono_str(m) == "1")
    rep3 = bv_check(graded_window_bv(L, -3, 6, {amono: {one: Fraction(1)}}))
    if rep3.ok or not rep3.failures:
        return CheckResult("criterion-09 bv-checker", False, "degree-violating Delta not caught")
    menichi, squared = (bv_check(graded_window_bv(L, -3, 6, lens_delta(L, -3, 6, power))) for power in (1, 2))
    if not menichi.ok:
        return CheckResult("criterion-09 bv-checker", False, "Menichi's Delta on lens(3,2) fails")
    if not all(menichi.checked.get(k) for k in ("antisym", "leibniz", "jacobi")):
        return CheckResult("criterion-09 bv-checker", False, "Menichi's Delta on lens(3,2) checks no bracket")
    if squared.ok or squared.failures[0]["axiom"] != "jacobi":
        return CheckResult("criterion-09 bv-checker", False, "squared Menichi Delta not caught at jacobi")
    return CheckResult(
        "criterion-09 bv-checker",
        True,
        f"passes on Z(Q[S3]) and lens(3,2); corrupted Delta caught: {rep3.failures[0]['axiom']}",
    )


CRITERIA = [
    crit_01_dw_point,
    crit_02_discrete_torsion,
    crit_03_cohomology_invariance,
    crit_04_morita,
    crit_05_operad,
    crit_06_g_operad,
    crit_07_holonomy_figure,
    crit_08_lens_rings,
    crit_09_bv_checker,
]


def run_criteria(seed: int) -> list[CheckResult]:
    return [fn(seed) for fn in CRITERIA]


def render_report(results: list[CheckResult], seed: int) -> str:
    lines = []
    for r in results:
        lines.append(f"{r.name}: {'PASS' if r.ok else 'FAIL'} ({r.detail})")
    good = sum(1 for r in results if r.ok)
    lines.append(f"selftest seed={seed}: {good}/{len(results)} PASS")
    return "\n".join(lines)
