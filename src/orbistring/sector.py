"""Sector string rings of finite right G-sets, twisted centers, and Morita comparison.

Everything here lives in the discrete model where paths are constant: the
g-sector of a G-set X is the fixed-point set of g, and the umkehr map of the
diagonal square is restriction to the intersection of fixed-point sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .cyclo import Cyclo, _poly_divmod, _poly_trim, mat_det, mat_inverse
from .groups import FiniteGroup, GSet, conjugacy_classes, fixed_points, point_gset
from .phases import TwoCocycle, alpha_regular_reps


class SectorError(ValueError):
    """Sector element outside its fixed-point set, or inconsistent ring data."""


def sector_basis(X: GSet) -> list[tuple[int, int]]:
    """All pairs (g, m) with m fixed by g, lexicographic."""
    out = []
    for g in range(X.group.order):
        for m in fixed_points(X, g):
            out.append((g, m))
    return out


def sector_product(X: GSet, a: tuple[int, int], b: tuple[int, int]) -> dict[tuple[int, int], Fraction]:
    """Product of sector basis elements: (g,x)(h,y) = (gh,x) if x = y, else 0."""
    g, x = a
    h, y = b
    if X.act[x][g] != x:
        raise SectorError(f"point {x} is not fixed by {g}")
    if X.act[y][h] != y:
        raise SectorError(f"point {y} is not fixed by {h}")
    if x != y:
        return {}
    return {(X.group.mul(g, h), x): Fraction(1)}


def sector_act(X: GSet, p: tuple[int, int], h: int) -> tuple[int, int]:
    """(g, x) . h = (h^-1 g h, x h)."""
    g, x = p
    return (X.group.conjugate(g, h), X.act[x][h])


def sector_orbits(X: GSet) -> list[tuple[tuple[int, int], ...]]:
    """G-orbits of sector pairs, each sorted, listed by least member."""
    seen: set[tuple[int, int]] = set()
    orbits = []
    for p in sector_basis(X):
        if p in seen:
            continue
        orb = sorted({sector_act(X, p, h) for h in range(X.group.order)})
        seen.update(orb)
        orbits.append(tuple(orb))
    return orbits


def _nonzero(vec: Sequence) -> dict:
    """Sparse form {index: coefficient} of a dense coefficient vector."""
    return {i: c for i, c in enumerate(vec) if c}


def _sparse_structure(structure: Sequence) -> dict:
    """{(i, j): ((k, c), ...)} over the nonzero dense constants structure[i][j][k]."""
    return {
        (i, j): row
        for i, mat in enumerate(structure)
        for j, dense in enumerate(mat)
        if (row := tuple(_nonzero(dense).items()))
    }


def _ring_product(sparse: dict, u: dict, v: dict) -> dict:
    """Product of sparse vectors under sparse structure constants.

    Coefficients may be Cyclo (all at one level) or Fraction; zero terms are dropped.
    """
    out: dict = {}
    for i, ci in u.items():
        for j, cj in v.items():
            c = ci * cj
            for k, s in sparse.get((i, j), ()):
                acc = out.get(k)
                out[k] = c * s if acc is None else acc + c * s
    return {k: c for k, c in out.items() if c}


@dataclass(frozen=True)
class SectorRing:
    """A finite-dimensional associative algebra over Q(zeta_level) in a fixed basis."""

    labels: tuple[str, ...]
    level: int
    structure: tuple[tuple[tuple[Cyclo, ...], ...], ...]  # structure[i][j][k] = coeff of e_k in e_i e_j
    unit: tuple[Cyclo, ...]
    trace: tuple[Cyclo, ...] | None = None
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def _sparse(self) -> dict:
        return _sparse_structure(self.structure)

    def mult(self, u: Sequence[Cyclo], v: Sequence[Cyclo]) -> list[Cyclo]:
        prod = _ring_product(self._sparse, _nonzero(u), _nonzero(v))
        zero = Cyclo.zero(self.level)
        return [prod.get(k, zero) for k in range(self.dim)]

    def basis_vector(self, i: int) -> list[Cyclo]:
        zero = Cyclo.zero(self.level)
        return [Cyclo.one(self.level) if j == i else zero for j in range(self.dim)]

    def check_associative(self) -> None:
        S = self._sparse
        one = Cyclo.one(self.level)
        for i in range(self.dim):
            ei = {i: one}
            for j in range(self.dim):
                ej = {j: one}
                ij = _ring_product(S, ei, ej)
                for k in range(self.dim):
                    ek = {k: one}
                    if _ring_product(S, ij, ek) != _ring_product(S, ei, _ring_product(S, ej, ek)):
                        raise SectorError(f"associativity fails at basis triple ({i},{j},{k})")

    def check_unit(self) -> None:
        S = self._sparse
        unit = _nonzero(self.unit)
        one = Cyclo.one(self.level)
        for i in range(self.dim):
            ei = {i: one}
            if _ring_product(S, unit, ei) != ei or _ring_product(S, ei, unit) != ei:
                raise SectorError(f"unit law fails at basis element {i}")

    def trace_of(self, v: Sequence[Cyclo]) -> Cyclo:
        if self.trace is None:
            raise SectorError("ring has no trace")
        return sum((a * b for a, b in zip(v, self.trace)), Cyclo.zero(self.level))

    def pairing_matrix(self) -> list[list[Cyclo]]:
        return [
            [self.trace_of(self.mult(self.basis_vector(i), self.basis_vector(j))) for j in range(self.dim)]
            for i in range(self.dim)
        ]

    def pairing_nondegenerate(self) -> bool:
        zero, one = Cyclo.zero(self.level), Cyclo.one(self.level)
        return bool(mat_det(self.pairing_matrix(), zero, one))

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            for j in range(i):
                if self.structure[i][j] != self.structure[j][i]:
                    return False
        return True

    def to_json(self) -> dict:
        out = {
            "level": self.level,
            "dim": self.dim,
            "basis": list(self.labels),
            "unit": [str(c) for c in self.unit],
            "structure": [[i, j, k, str(c)] for (i, j), row in self._sparse.items() for k, c in row],
        }
        if self.trace is not None:
            out["trace"] = [str(c) for c in self.trace]
        return out


def _ring_from_rational(labels, structure_q, unit_q, trace_q=None, meta=None) -> SectorRing:
    lvl = 1
    structure = tuple(
        tuple(tuple(Cyclo.rational(c, lvl) for c in row) for row in mat) for mat in structure_q
    )
    unit = tuple(Cyclo.rational(c, lvl) for c in unit_q)
    trace = None if trace_q is None else tuple(Cyclo.rational(c, lvl) for c in trace_q)
    return SectorRing(tuple(labels), lvl, structure, unit, trace, meta or {})


def orbifold_string_ring(X: GSet, check: bool = True) -> SectorRing:
    """The G-invariant sector ring: basis = orbit sums, product = transfer then project.

    The transfer sums a class over its orbit members and the projection averages
    by 1/|G|; with this normalization the unit is the invariant vector of the
    identity sector and the one-point case is literally the class algebra.
    Other conventions rescale the structure constants by powers of |G|.
    """
    G = X.group
    orbits = sector_orbits(X)
    index = {p: i for i, orb in enumerate(orbits) for p in orb}
    dim = len(orbits)
    structure = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, oi in enumerate(orbits):
        for j, oj in enumerate(orbits):
            acc: dict[tuple[int, int], Fraction] = {}
            for g, x in oi:
                for h, y in oj:
                    if x == y:
                        key = (G.mul(g, h), x)
                        acc[key] = acc.get(key, Fraction(0)) + 1
            # the sum is G-invariant; read off the orbit-sum coordinates
            done: set[int] = set()
            for p, c in acc.items():
                k = index[p]
                if k in done:
                    continue
                done.add(k)
                structure[i][j][k] = c
            if check:
                for p, c in acc.items():
                    if structure[i][j][index[p]] != c:
                        raise SectorError("product failed to be orbit-constant")
    unit = [Fraction(0)] * dim
    for i, orb in enumerate(orbits):
        if orb[0][0] == 0:
            unit[i] = Fraction(1)
    labels = tuple("{" + ",".join(f"({G.names[g]},{x})" for g, x in orb) + "}" for orb in orbits)
    ring = _ring_from_rational(labels, structure, unit, meta={"orbits": orbits, "gset": X})
    if check:
        ring.check_associative()
        ring.check_unit()
    return ring


def dw_frobenius(G: FiniteGroup, check: bool = True) -> SectorRing:
    """Z(Q[G]) on class sums with trace = (coefficient of the identity class) / |G|."""
    ring = orbifold_string_ring(point_gset(G), check=check)
    data = conjugacy_classes(G)
    assert ring.dim == len(data.classes)
    trace = []
    for orb in ring.meta["orbits"]:
        cls = tuple(g for g, _ in orb)
        trace.append(Fraction(1, G.order) if cls == (0,) else Fraction(0))
    out = SectorRing(
        ring.labels,
        1,
        ring.structure,
        ring.unit,
        tuple(Cyclo.rational(c, 1) for c in trace),
        {"classes": data},
    )
    if check and not out.pairing_nondegenerate():
        raise SectorError("Frobenius pairing is degenerate")
    return out


def _twisted_conjugation_factor(alpha: TwoCocycle, h: int, x: int):
    """c with u_h u_x u_h^-1 = c * u_{h x h^-1}."""
    G = alpha.group
    hi = G.invert(h)
    hx = G.mul(h, x)
    return alpha.table[h][x] * alpha.table[hx][hi] / alpha.table[h][hi]


def twisted_center(G: FiniteGroup, alpha: TwoCocycle, check: bool = True) -> SectorRing:
    """The center of the alpha-twisted group algebra over Q(zeta_N).

    One basis vector per alpha-regular conjugacy class; coefficients are the
    phases that make the twisted class sum central.
    """
    N = max(alpha.level(), 1)
    data = conjugacy_classes(G)
    regular = alpha_regular_reps(alpha)
    zero, one = Cyclo.zero(N), Cyclo.one(N)

    vectors: list[list[Cyclo]] = []  # coordinates in the u_g basis, indexed by group element
    reps: list[int] = []
    for rep in regular:
        cls = next(c for c in data.classes if c[0] == rep)
        coeff = [zero] * G.order
        coeff[rep] = one
        # spread the coefficient over the class by twisted conjugation
        frontier = [rep]
        seen = {rep}
        while frontier:
            x = frontier.pop()
            for h in range(G.order):
                y = G.mul(G.mul(h, x), G.invert(h))
                if y in seen:
                    continue
                seen.add(y)
                c = Cyclo.from_phase(_twisted_conjugation_factor(alpha, h, x).q, N)
                coeff[y] = c * coeff[x]
                frontier.append(y)
        if check:
            for h in range(G.order):
                for x in cls:
                    y = G.mul(G.mul(h, x), G.invert(h))
                    c = Cyclo.from_phase(_twisted_conjugation_factor(alpha, h, x).q, N)
                    if coeff[y] != c * coeff[x]:
                        raise SectorError(f"twisted class sum for rep {rep} is not central")
        vectors.append(coeff)
        reps.append(rep)

    dim = len(vectors)
    structure = [[[zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(dim):
            prod = [zero] * G.order
            for x in range(G.order):
                if not vectors[i][x]:
                    continue
                for y in range(G.order):
                    if not vectors[j][y]:
                        continue
                    z = G.mul(x, y)
                    c = Cyclo.from_phase(alpha.table[x][y].q, N)
                    prod[z] = prod[z] + vectors[i][x] * vectors[j][y] * c
            coords = [prod[r] for r in reps]  # vectors are normalized to 1 at their rep
            if check:
                recon = [zero] * G.order
                for k, ck in enumerate(coords):
                    if ck:
                        for x in range(G.order):
                            recon[x] = recon[x] + ck * vectors[k][x]
                if recon != prod:
                    raise SectorError("twisted product left the span of the twisted class sums")
            structure[i][j] = coords
    unit = [one if r == 0 else zero for r in reps]
    trace = [Cyclo.rational(Fraction(1, G.order), N) if r == 0 else zero for r in reps]
    labels = tuple(f"tw({G.names[r]})" for r in reps)
    ring = SectorRing(
        labels,
        N,
        tuple(tuple(tuple(row) for row in mat) for mat in structure),
        tuple(unit),
        tuple(trace),
        {"regular_reps": reps, "u_vectors": vectors, "alpha": alpha},
    )
    if check:
        ring.check_associative()
        ring.check_unit()
        if not ring.pairing_nondegenerate():
            raise SectorError("twisted Frobenius pairing is degenerate")
    return ring


# Morita comparison ----------------------------------------------------------


@dataclass
class MoritaReport:
    dim_left: int
    dim_right: int
    isomorphic: bool | None  # None means inconclusive
    obstruction: str | None
    component_degrees_left: list[int] | None = None
    component_degrees_right: list[int] | None = None
    witness: list[list[Fraction]] | None = None
    detail: str = ""

    def to_json(self) -> dict:
        out = {
            "dim_left": self.dim_left,
            "dim_right": self.dim_right,
            "isomorphic": self.isomorphic,
            "obstruction": self.obstruction,
            "detail": self.detail,
        }
        if self.component_degrees_left is not None:
            out["component_degrees_left"] = self.component_degrees_left
            out["component_degrees_right"] = self.component_degrees_right
        if self.witness is not None:
            out["witness"] = [[str(c) for c in row] for row in self.witness]
        return out


def _rational_structure(ring: SectorRing) -> list[list[list[Fraction]]]:
    out = []
    for mat in ring.structure:
        rows = []
        for row in mat:
            vals = []
            for c in row:
                q = c.rational_part()
                if q is None:
                    raise SectorError("Morita comparison expects rational structure constants")
                vals.append(q)
            rows.append(vals)
        out.append(rows)
    return out


def _min_poly(mat: list[list[Fraction]]) -> list[Fraction]:
    """Minimal polynomial (monic, ascending coefficients) of a rational matrix."""
    n = len(mat)
    # first linear dependence among the flattened powers I, M, M^2, ...
    acc = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    flat = lambda M: [M[i][j] for i in range(n) for j in range(n)]
    seq = [flat(acc)]
    for _ in range(n):
        acc = [[sum(acc[i][k] * mat[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        seq.append(flat(acc))
    rows: list[list[Fraction]] = []
    pivots: list[int] = []
    coeffs_hist: list[list[Fraction]] = []
    for d, vec in enumerate(seq):
        # reduce vec against rows, tracking combination
        comb = [Fraction(0)] * len(seq)
        comb[d] = Fraction(1)
        w = vec[:]
        for r, (row, piv, ch) in enumerate(zip(rows, pivots, coeffs_hist)):
            if w[piv]:
                f = w[piv] / row[piv]
                w = [a - f * b for a, b in zip(w, row)]
                comb = [a - f * b for a, b in zip(comb, ch)]
        piv = next((i for i, a in enumerate(w) if a), None)
        if piv is None:
            poly = comb[: d + 1]
            lead = poly[-1]
            return [c / lead for c in poly]
        rows.append(w)
        pivots.append(piv)
        coeffs_hist.append(comb)
    raise SectorError("minimal polynomial computation failed")


def _factor_monic_over_q(poly: list[Fraction]) -> list[list[Fraction]]:
    """Factor a squarefree monic rational polynomial into monic irreducible factors.

    Numeric roots suggest candidate factors (minimal root subsets with integer
    symmetric functions after clearing denominators); every factor is certified
    by exact division, so float error can only cause a failure, never a wrong
    factorization.  Returns factors sorted by (degree, coefficients).
    """
    from itertools import combinations

    den = 1
    for c in poly:
        den = lcm(den, c.denominator)
    # substitute t = s/den to get a monic integer polynomial in s
    n = len(poly) - 1
    ipoly = [int(poly[k] * den ** (n - k)) for k in range(n + 1)]
    assert ipoly[-1] == 1

    roots = list(np.roots([float(c) for c in reversed(ipoly)]))
    remaining = [Fraction(c) for c in ipoly]
    idx = list(range(len(roots)))
    factors: list[list[Fraction]] = []
    while len(remaining) > 2:
        found = False
        for size in range(1, len(idx) + 1):
            for comb in combinations(idx, size):
                prod = [1.0]
                for i in comb:
                    r = roots[i]
                    prod = [a * (-r) + (prod[k - 1] if k else 0) for k, a in enumerate(prod)] + [prod[-1]]
                cand = [Fraction(round(c.real)) for c in prod]
                if any(abs(c.real - round(c.real)) > 1e-4 or abs(c.imag) > 1e-4 for c in prod):
                    continue
                q, r = _poly_divmod(remaining, cand)
                if not any(r):
                    factors.append(cand)
                    remaining = q
                    idx = [i for i in idx if i not in comb]
                    found = True
                    break
            if found:
                break
        if not found:
            raise SectorError("rational factorization failed")
    if len(remaining) == 2:
        factors.append(remaining)
    # undo the substitution: factor g(s) of degree d becomes g(den*t)/den^d
    out = []
    for f in factors:
        d = len(f) - 1
        out.append([f[k] * den**k / Fraction(den**d) for k in range(d + 1)])
    out.sort(key=lambda f: (len(f), f))
    return out


def _squarefree_core(q: Fraction) -> tuple[Fraction, int]:
    """q = s^2 * d with d a squarefree integer (sign included); returns (s, d)."""
    num, den = q.numerator, q.denominator
    n = num * den  # q = n / den^2
    s = Fraction(1, den)
    sign = -1 if n < 0 else 1
    n = abs(n)
    d = 1
    p = 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            s *= Fraction(p) ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    d *= n  # leftover prime
    return s, sign * d


def _sqrt_squarefree(d: int) -> Cyclo:
    """An exact square root of the squarefree integer d in a cyclotomic field."""
    assert d != 0
    level = 1
    res = Cyclo.one(1)
    need_i = d < 0
    for p in sorted(set(_prime_factors(abs(d)))):
        if p == 2:
            lvl = 8
            g = Cyclo.root(8, 1) + Cyclo.root(8, 7)  # zeta8 + zeta8^-1 = sqrt(2)
        else:
            lvl = p
            g = Cyclo.zero(p)
            for a in range(1, p):
                g = g + Cyclo.root(p, a) * _legendre(a, p)
            # g^2 = p if p = 1 mod 4, else -p
            if p % 4 == 3:
                need_i = not need_i
        nl = lcm(level, lvl)
        res = res.lift(nl) * g.lift(nl)
        level = nl
    if need_i:
        nl = lcm(level, 4)
        res = res.lift(nl) * Cyclo.root(4, 1).lift(nl) if nl != 4 else res.lift(4) * Cyclo.root(4, 1)
        level = nl
    if res * res != Cyclo.rational(d, level):
        raise SectorError("square root construction failed verification")
    return res


def _prime_factors(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        while n % p == 0:
            out.append(p)
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _legendre(a: int, p: int) -> int:
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def _roots_in_cyclotomic(factor: list[Fraction]) -> tuple[list[Cyclo], Fraction | None] | None:
    """Exact roots of a monic irreducible rational polynomial of degree <= 2.

    Returns (roots at some cyclotomic level, squarefree discriminant core) or
    None for degrees this comparator does not resolve.
    """
    d = len(factor) - 1
    if d == 1:
        return [Cyclo.rational(-factor[0], 1)], Fraction(0)
    if d == 2:
        b, c = factor[1], factor[0]
        disc = b * b - 4 * c
        s, core = _squarefree_core(disc)
        r = _sqrt_squarefree(core) * s
        lvl = r.level
        half = Fraction(1, 2)
        r1 = (r - Cyclo.rational(b, lvl)) * half
        r2 = (Cyclo.rational(-b, lvl) - r) * half
        return [r1, r2], Fraction(core)
    return None


def _probe_split(ring: SectorRing, rng) -> tuple[list[Fraction], list[list[Fraction]]] | None:
    """A probe element whose minimal polynomial is squarefree of full degree,
    together with the sorted irreducible factors of that polynomial."""
    sc = _rational_structure(ring)
    n = ring.dim
    for _ in range(200):
        probe = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        mat = [[sum(probe[t] * sc[t][j][k] for t in range(n)) for j in range(n)] for k in range(n)]
        mp = _min_poly(mat)
        if len(mp) - 1 != n:
            continue
        dp = [c * i for i, c in enumerate(mp)][1:]
        a, b = list(mp), _poly_trim(list(dp))
        while any(b):
            _, r = _poly_divmod(a, b)
            a, b = b, r
        if len(_poly_trim(a)) != 1:
            continue
        return probe, _factor_monic_over_q(list(mp))
    return None


def _idempotents(ring: SectorRing, probe: list[Fraction], roots: list[Cyclo], level: int) -> list[list[Cyclo]]:
    """Lagrange idempotents prod_{j != i} (probe - r_j)/(r_i - r_j), exactly verified."""
    n = ring.dim
    zero, one = Cyclo.zero(level), Cyclo.one(level)
    S = {ij: tuple((k, c.lift(level)) for k, c in row) for ij, row in ring._sparse.items()}
    unit = [c.lift(level) for c in ring.unit]
    probe_vec = [Cyclo.rational(q, level) for q in probe]
    out = []
    for i, ri in enumerate(roots):
        vec = _nonzero(unit)
        denom = one
        for j, rj in enumerate(roots):
            if j == i:
                continue
            shifted = [a - rj * b for a, b in zip(probe_vec, unit)]
            vec = _ring_product(S, vec, _nonzero(shifted))
            denom = denom * (ri - rj)
        e = [vec.get(k, zero) / denom for k in range(n)]
        es = _nonzero(e)
        if _ring_product(S, es, es) != es:
            raise SectorError("idempotent verification failed")
        out.append(e)
    total = [sum((e[k] for e in out), zero) for k in range(n)]
    if total != unit:
        raise SectorError("idempotents do not sum to the unit")
    return out


def morita_compare(X: GSet, Y: GSet, seed: int = 7, check: bool = True) -> MoritaReport:
    """Compare the orbifold string rings of two G-sets.

    Both rings are commutative and semisimple with rational structure constants.
    A generic probe splits each into number-field components; components are
    matched by (degree, squarefree discriminant core), and the matched
    eigenvalue idempotents over a common cyclotomic field assemble into a
    rational basis change that is then verified exactly as a unital algebra
    isomorphism.  Dimension or component mismatches are certified obstructions;
    anything this search cannot resolve is reported as inconclusive.
    """
    import random

    A = orbifold_string_ring(X, check=check)
    B = orbifold_string_ring(Y, check=check)
    rep = MoritaReport(A.dim, B.dim, None, None)
    if A.dim != B.dim:
        rep.isomorphic = False
        rep.obstruction = "dimension mismatch"
        return rep
    n = A.dim
    rng = random.Random(seed)
    pa = _probe_split(A, rng)
    pb = _probe_split(B, rng)
    if pa is None or pb is None:
        rep.detail = "no separating probe found; inconclusive"
        return rep
    probe_a, factors_a = pa
    probe_b, factors_b = pb
    rep.component_degrees_left = sorted(len(f) - 1 for f in factors_a)
    rep.component_degrees_right = sorted(len(f) - 1 for f in factors_b)

    roots_a: list[tuple[list[Cyclo], Fraction | None, int]] = []
    roots_b: list[tuple[list[Cyclo], Fraction | None, int]] = []
    for factors, acc in ((factors_a, roots_a), (factors_b, roots_b)):
        for f in factors:
            got = _roots_in_cyclotomic(f)
            if got is None:
                acc.append(([], None, len(f) - 1))
            else:
                acc.append((got[0], got[1], len(f) - 1))

    sig_a = sorted((d, core) for _, core, d in roots_a if core is not None)
    sig_b = sorted((d, core) for _, core, d in roots_b if core is not None)
    if rep.component_degrees_left != rep.component_degrees_right:
        rep.isomorphic = False
        rep.obstruction = "spectrum mismatch: component degrees differ"
        return rep
    if any(core is None for _, core, _ in roots_a) or any(core is None for _, core, _ in roots_b):
        rep.detail = "component of degree > 2; inconclusive"
        return rep
    if sig_a != sig_b:
        rep.isomorphic = False
        rep.obstruction = "spectrum mismatch: splitting fields differ"
        return rep

    level = 1
    for rs, _, _ in roots_a + roots_b:
        for r in rs:
            level = lcm(level, r.level)
    all_roots_a: list[Cyclo] = []
    all_roots_b: list[Cyclo] = []
    used = [False] * len(roots_b)
    for rs_a, core_a, d_a in roots_a:
        match = next(
            i
            for i, (rs_b, core_b, d_b) in enumerate(roots_b)
            if not used[i] and d_b == d_a and core_b == core_a
        )
        used[match] = True
        # conjugate roots are listed in a fixed order on both sides, so the
        # pairing commutes with conjugation and the basis change is rational
        all_roots_a.extend(r.lift(level) for r in rs_a)
        all_roots_b.extend(r.lift(level) for r in roots_b[match][0])

    zero, one = Cyclo.zero(level), Cyclo.one(level)
    idems_a = _idempotents(A, probe_a, all_roots_a, level)
    idems_b = _idempotents(B, probe_b, all_roots_b, level)
    Ea = [[idems_a[i][k] for i in range(n)] for k in range(n)]
    Ea_inv = mat_inverse(Ea, zero, one)
    T = [[zero] * n for _ in range(n)]
    for i in range(n):
        col_b = idems_b[i]
        for r in range(n):
            for c in range(n):
                T[r][c] = T[r][c] + col_b[r] * Ea_inv[i][c]
    Tq: list[list[Fraction]] = []
    for row in T:
        out_row = []
        for cval in row:
            q = cval.rational_part()
            if q is None:
                rep.detail = "basis change failed to be rational; inconclusive"
                return rep
            out_row.append(q)
        Tq.append(out_row)

    sa = _rational_structure(A)
    sb = _sparse_structure(_rational_structure(B))

    def apply(v):
        return [sum(Tq[r][c] * v[c] for c in range(n)) for r in range(n)]

    unit_a = [c.rational_part() for c in A.unit]
    unit_b = [c.rational_part() for c in B.unit]
    if apply(unit_a) != unit_b:
        rep.detail = "witness does not map unit to unit; inconclusive"
        return rep
    for i in range(n):
        ei = [Fraction(1) if t == i else Fraction(0) for t in range(n)]
        for j in range(n):
            ej = [Fraction(1) if t == j else Fraction(0) for t in range(n)]
            prod_a = [sa[i][j][k] for k in range(n)]
            if _nonzero(apply(prod_a)) != _ring_product(sb, _nonzero(apply(ei)), _nonzero(apply(ej))):
                rep.detail = "witness failed the homomorphism check; inconclusive"
                return rep
    rep.isomorphic = True
    rep.witness = Tq
    rep.detail = "rational basis change verified on all basis pairs"
    return rep
