"""Sector string rings of finite right G-sets, twisted centers, and Morita comparison.

Everything here lives in the discrete model where paths are constant: the
g-sector of a G-set X is the fixed-point set of g, and the umkehr map of the
diagonal square is restriction to the intersection of fixed-point sets.
The Morita comparator splits each ring into its components exactly: the power
maps on sectors act on a probe's eigenvalues as the Galois group of Q(zeta_e),
and the Galois orbits of its roots modulo a prime give the components.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations, groupby, product
from math import gcd, isqrt, lcm
from operator import mul
from typing import Iterator, Sequence

from .cyclo import (
    Cyclo,
    _echelon_insert,
    _echelon_insert_mod,
    _int_solve,
    _is_prime,
    _make,
    _poly_divmod,
    _power_rows,
    _prime_root,
    euler_phi,
)
from .groups import FiniteGroup, GSet, fixed_points, point_gset
from .phases import TwoCocycle, _torsion_exponents


class SectorError(ValueError):
    """Sector element outside its fixed-point set, or inconsistent ring data."""


def sector_basis(X: GSet) -> list[tuple[int, int]]:
    """All pairs (g, m) with m fixed by g, lexicographic."""
    out = []
    for g in range(X.group.order):
        for m in fixed_points(X, g):
            out.append((g, m))
    return out


def _nonzero(vec: Sequence) -> dict:
    """Sparse form {index: coefficient} of a dense coefficient vector."""
    return {i: c for i, c in enumerate(vec) if c}


def _expand(terms, sparse: dict) -> dict:
    """sum of c * (e_a e_b) over ((a, b), c) in terms, zero entries dropped.

    Coefficients may be Cyclo (all at one level), int or Fraction.
    """
    out: dict = {}
    for key, c in terms:
        for k, s in sparse.get(key, ()):
            acc = out.get(k)
            out[k] = c * s if acc is None else acc + c * s
    return {k: c for k, c in out.items() if c}


class _Roots(dict):
    """sum of m x^t over {t: m}, every m != 0: an element of R = Z[x]/(x^level - 1)."""

    __slots__ = ("level",)

    def __init__(self, level: int, terms: dict):
        super().__init__({t: m for t, m in terms.items() if m} if 0 in terms.values() else terms)
        self.level = level

    def __add__(self, other: _Roots) -> _Roots:
        return _Roots(self.level, {t: self.get(t, 0) + other.get(t, 0) for t in self.keys() | other.keys()})

    def __mul__(self, other: _Roots) -> _Roots:
        N, out = self.level, {}
        for t, m in self.items():
            for s, n in other.items():
                out[(t + s) % N] = out.get((t + s) % N, 0) + m * n
        return _Roots(N, out)


def _root_sum(N: int, count: dict) -> Cyclo:
    """sum of m zeta_N^t over {t: m}, in Q(zeta_N)."""
    num, powers = [0] * euler_phi(N), _power_rows(N)
    for t, m in count.items():
        for i, c in powers[t]:
            num[i] += m * c
    return _make(N, num, 1)


def _ring_product(sparse: dict, u: dict, v: dict) -> dict:
    """Product of sparse vectors under sparse structure constants."""
    return _expand([((i, j), ci * cj) for i, ci in u.items() for j, cj in v.items()], sparse)


def _pairing(dim: int, sparse: dict, trace: Sequence | None, zero) -> list[dict]:
    """The rows {j: trace(e_i e_j)} of the trace pairing, zero entries dropped,
    summed from sparse structure constants over the basis elements of nonzero trace."""
    if trace is None:
        raise SectorError("ring has no trace")
    live = _nonzero(trace)
    return [
        _nonzero([sum((c * live[k] for k, c in sparse.get((i, j), ()) if k in live), zero) for j in range(dim)])
        for i in range(dim)
    ]


@dataclass(frozen=True, eq=False)
class SectorRing:
    """A finite-dimensional associative algebra over Q(zeta_level) in a fixed basis.

    The ring is stored once, sparse, in the coefficients its checks run in:
    int or Fraction at level 1, Cyclo at level `level` otherwise.  table[(i, j)]
    lists the nonzero constants (k, c) of e_i e_j = sum_k c e_k by ascending k,
    unit_coords holds the nonzero coordinates {i: c} of the unit, and trace the
    trace of each basis element.  `structure` and `unit` are dense Cyclo views
    derived from them.  Rings compare and hash by identity.  `lift`, set by the
    sector-ring builder at level > 1, is the table over R = Z[x]/(x^level - 1),
    with table = pi(lift) for pi: x -> zeta_level; the constructor and replace cannot set it.
    """

    labels: tuple[str, ...]
    level: int
    table: dict
    unit_coords: dict
    trace: tuple | None = None
    meta: dict = field(default_factory=dict)
    lift: dict | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def structure(self) -> tuple[tuple[tuple[Cyclo, ...], ...], ...]:
        """structure[i][j][k] = coefficient of e_k in e_i e_j, as a Cyclo."""
        zero, n = Cyclo.zero(self.level), self.dim

        def row(i: int, j: int) -> tuple[Cyclo, ...]:
            dense = [zero] * n
            for k, c in self.table.get((i, j), ()):
                dense[k] = zero + c
            return tuple(dense)

        return tuple(tuple(row(i, j) for j in range(n)) for i in range(n))

    @cached_property
    def unit(self) -> tuple[Cyclo, ...]:
        zero = Cyclo.zero(self.level)
        return tuple(zero + self.unit_coords.get(i, 0) for i in range(self.dim))

    def mult(self, u: Sequence[Cyclo], v: Sequence[Cyclo]) -> list[Cyclo]:
        prod = _ring_product(self.table, _nonzero(u), _nonzero(v))
        zero = Cyclo.zero(self.level)
        return [prod.get(k, zero) for k in range(self.dim)]

    def basis_vector(self, i: int) -> list[Cyclo]:
        zero = Cyclo.zero(self.level)
        return [Cyclo.one(self.level) if j == i else zero for j in range(self.dim)]

    def _scalars(self) -> tuple:
        """The zero and one of the coefficients the checks run in."""
        if self.level == 1:
            return Fraction(0), Fraction(1)
        return Cyclo.zero(self.level), Cyclo.one(self.level)

    @cached_property
    def _modular(self) -> tuple[int, dict, tuple | None]:
        """(p, table, trace): the table and trace reduced modulo the first prime
        p > 2^31 with p = 1 (mod level) that divides no denominator in them,
        with zeta_level read as a primitive level-th root of unity omega mod p.

        zeta -> omega is a ring homomorphism from Z[zeta_level] onto F_p, and it extends
        to every coefficient whose denominator p does not divide.  So sums and products of
        reduced constants are the reductions of the exact ones, and a minor that is nonzero
        mod p is nonzero over Q(zeta_level): a rank over F_p is a lower bound for the exact
        rank.  A lift is reduced by x -> omega, to the same table (see check_associative).
        """
        values = [c for row in self.table.values() for _, c in row] + list(self.trace or ())
        den = lcm(*(c.den if isinstance(c, Cyclo) else c.denominator for c in values))
        p, omega = _prime_root(self.level, 2**31)
        while den % p == 0:
            p, omega = _prime_root(self.level, p)
        powers = [pow(omega, i, p) for i in range(self.level)]

        def mod(c) -> int:
            if type(c) is int:
                return c % p
            if isinstance(c, _Roots):
                return sum(map(mul, c.values(), map(powers.__getitem__, c))) % p
            num, d = (sum(map(mul, c.num, powers)), c.den) if isinstance(c, Cyclo) else (c.numerator, c.denominator)
            return num % p if d == 1 else num * pow(d, -1, p) % p

        table = {key: tuple((k, r) for k, c in (self.lift or self.table)[key] if (r := mod(c))) for key in self.table}
        return p, table, None if self.trace is None else tuple(map(mod, self.trace))

    def _generators(self) -> list[int]:
        """Basis indices S whose right-normed products s_1 (s_2 (... s_r)) span the ring.

        A candidate, non-unit basis elements first in index order, joins S when
        it lies outside the span W of the products found so far; W is then closed
        under left multiplication by S.  The search runs on the table reduced
        modulo the prime of _modular, with W kept as echelon rows over F_p by
        cyclo._echelon_insert_mod, and stops at full rank.  Every basis element
        is a candidate, so it always reaches full rank: the reduced products
        span F_p^n, some n of them have a minor that is nonzero mod p, and that
        minor is nonzero over Q(zeta_level), so the exact products span the ring.
        """
        p, table, _ = self._modular
        n = self.dim
        rows: dict[int, dict] = {}  # the echelon rows of W over F_p, by pivot
        gens: list[int] = []
        for cand in sorted(range(n), key=lambda i: i in self.unit_coords):
            if len(rows) == n:
                break
            if not _echelon_insert_mod(rows, {cand: 1}, p):
                continue
            gens.append(cand)
            todo = list(rows.values())
            while todo and len(rows) < n:
                w = todo.pop()
                for s in gens:
                    v: dict = {}  # e_s w
                    for m, c in w.items():
                        for k, t in table.get((s, m), ()):
                            v[k] = v.get(k, 0) + c * t
                    if row := _echelon_insert_mod(rows, v, p):
                        todo.append(row)
        return gens

    def check_associative(self) -> None:
        """(e_i e_j) e_k = e_i (e_j e_k) for every basis triple, each side expanded
        through the constants: sum_m c_ij^m e_m e_k against sum_m c_jk^m e_i e_m.

        Only the triples whose middle index lies in S = _generators() are
        multiplied out (Light's test).  For a bilinear product the middle nucleus
        N = {a : (x a) y = x (a y) for all x, y} is a subspace closed under the
        product: for a, b in N, (x(ab))y = ((xa)b)y = (xa)(by) = x(a(by)) = x((ab)y).
        The check puts S in N, and the right-normed products of S span the ring,
        so N is the whole ring.  On a failure the full scan names the
        lexicographically first failing basis triple, which exists because a
        failing generator triple is a basis triple.

        A commutative table is checked on the pairs i < k only.  If
        T[(a, b)] == T[(b, a)] for every a, b, then holds builds the same terms
        for left(k, j, i) as for right(i, j, k), and for right(k, j, i) as for
        left(i, j, k); so holds(i, j, k) iff holds(k, j, i), and holds(i, j, i)
        always.

        A lift is checked first, in R = Z[x]/(x^level - 1); the table only if that fails.
        - x -> zeta_level is a ring homomorphism pi: R -> Z[zeta_level], and the table is pi
          of the lift, zero images dropped.  So every identity in R holds in Q(zeta_level).
        - x -> omega is a ring homomorphism R -> F_p.  It factors through pi, because omega is
          a root of Phi_level mod p.  So the F_p table does not change.
        """
        n = range(self.dim)

        def holds(T: dict, i: int, j: int, k: int) -> bool:
            left = _expand([((m, k), c) for m, c in T.get((i, j), ())], T)
            right = _expand([((i, m), c) for m, c in T.get((j, k), ())], T)
            return left == right

        pairs = list(combinations(n, 2) if self.is_commutative() else product(n, repeat=2))
        gens = self._generators()
        if any(all(holds(T, i, j, k) for j in gens for i, k in pairs) for T in (self.lift, self.table) if T):
            return
        for i, j, k in product(n, repeat=3):
            if not holds(self.table, i, j, k):
                raise SectorError(f"associativity fails at basis triple ({i},{j},{k})")

    def check_unit(self) -> None:
        one = _Roots(self.level, {0: 1})  # a lift's unit has coordinates 1, as the builder sets it
        lifted = [(self.lift, dict.fromkeys(self.unit_coords, one), one)] if self.lift else []
        for T, unit, one in lifted + [(self.table, self.unit_coords, 1)]:
            for i in range(self.dim):
                left = _expand([((m, i), c) for m, c in unit.items()], T)
                right = _expand([((i, m), c) for m, c in unit.items()], T)
                if left != {i: one} or right != {i: one}:
                    break
            else:
                return
        raise SectorError(f"unit law fails at basis element {i}")

    def pairing_matrix(self) -> list[list[Cyclo]]:
        """trace(e_i e_j)."""
        zero = Cyclo.zero(self.level)
        return [[row.get(j, zero) for j in range(self.dim)] for row in _pairing(self.dim, self.table, self.trace, zero)]

    def pairing_nondegenerate(self) -> bool:
        """Every row of the pairing is independent of the rows before it.

        The rows are first built from the table and trace reduced modulo the
        prime of _modular, which gives the reductions of the exact rows, and
        run through the sparse echelon over F_p: full rank there proves the
        exact pairing nondegenerate.  Only after a dependence mod p does the
        exact echelon run, in the coefficients of the checks, so a pairing is
        called degenerate by exact arithmetic alone.
        """
        p, table, trace = self._modular
        rows: dict[int, dict] = {}
        if all(_echelon_insert_mod(rows, row, p) for row in _pairing(self.dim, table, trace, 0)):
            return True
        zero, one = self._scalars()
        rows = {}
        return all(_echelon_insert(rows, row, zero, one) for row in _pairing(self.dim, self.table, self.trace, zero))

    def is_commutative(self) -> bool:
        S = self.table
        return all(S.get((i, j)) == S.get((j, i)) for i in range(self.dim) for j in range(i))

    def to_json(self) -> dict:
        out = {
            "level": self.level,
            "dim": self.dim,
            "basis": list(self.labels),
            "unit": [str(self.unit_coords.get(i, 0)) for i in range(self.dim)],
            "structure": [[i, j, k, str(c)] for (i, j), row in self.table.items() for k, c in row],
        }
        if self.trace is not None:
            out["trace"] = [str(c) for c in self.trace]
        return out


def _loop_orbits(X: GSet, T: Sequence[Sequence[int]]) -> tuple[list[tuple], list[set]]:
    """The orbits of loops (g, x), x g = x, under (g, x) . h = (g^h, x h), listed by least
    loop: each one's loops, sorted, and members (g, x, e), e = T(g',h) where the walk from
    the least loop (g', x') reaches (g, x); only the orbits it reaches at one e per loop."""
    seen, loop_orbits, orbits = set(), [], []
    for g, x in sector_basis(X):
        if (g, x) not in seen:
            loops = set(zip(X.group.conjugation[g], X.act[x]))
            walk = set(zip(X.group.conjugation[g], X.act[x], T[g]))
            seen |= loops
            if len(walk) == len(loops):
                loop_orbits.append(tuple(sorted(loops)))
                orbits.append(walk)
    return loop_orbits, orbits


def _sector_ring(X: GSet, alpha: TwoCocycle | None, frobenius: bool) -> SectorRing:
    """The string ring of [X/G] with discrete torsion alpha (None: untwisted), the center
    of the alpha-twisted groupoid algebra of X x G over Q(zeta_N), N = alpha.modulus;
    checked associative and unital, and with frobenius (trace 1/|G| on the identity
    loops, 0 elsewhere) its pairing checked nondegenerate.

    The algebra has the loops (g, x), x g = x, as basis, with (g, x)(h, x) =
    zeta_N^a(g,h) (gh, x), alpha = exp(2 pi i a/N), and (g, x)(h, y) = 0 for x != y.
    u_h^-1 (g, x) u_h = zeta_N^T(g,h) (g^h, x h) for the torsion exponents T of
    phases._torsion_row, with T(g,hk) = T(g,h) + T(g^h,k), which _torsion_exponents
    derives from the cocycle law that TwoCocycle checks when it is built.
    The orbit sum of p = (g, x) is S_p = sum over h of zeta_N^T(g,h) (g^h, x h).  As
    (g^h, x h) = (g^h', x h') means h' = ch with c in C(g) n G_x, and T(g,h') = T(g,c)
    + T(g,h), S_p is well defined exactly when T(g,-) vanishes on C(g) n G_x, p
    alpha-regular.  S_p is central: u_k^-1 S_p u_k has exponent T(g,h) + T(g^h,k) =
    T(g,hk) at (g^(hk), x hk).  It is the one central element with coefficient 1 at p,
    conjugation being transitive on the orbit, and an irregular orbit carries none:
    conjugation by c multiplies the coefficient at p by zeta_N^T(g,c) != 1.

    S_i S_j is counted per root of unity at each loop, in R = Z[x]/(x^N - 1); c_k is its
    count at orbit k's least loop, where S_k has coefficient 1.  The span gate requires
    S_i S_j - sum_k c_k S_k to vanish at every loop, on the counts first and in Q(zeta_N)
    only where they differ.  S_j S_i = S_i S_j, the center being commutative.  For N > 1
    the counts are the lift, the constants their images; at N = 1 they are the constants.
    """
    G, n, size = X.group, X.group.order, X.size
    N = 1 if alpha is None else alpha.modulus
    T = _torsion_exponents(alpha) if N > 1 else [(0,) * n] * n
    a = alpha.exps if N > 1 else T  # at N = 1 every phase is 1
    loop_orbits, orbits = _loop_orbits(X, T)
    least = {(g * size + x) * N: k for k, ((g, x), *_) in enumerate(loop_orbits)}  # the least loop's key -> k
    table, lift = {}, {}  # table = pi(lift), kept for N > 1

    def per_index(pairs) -> Iterator[tuple[int, dict[int, int]]]:  # sorted (i * N + t, m) -> (i, {t: m})
        return ((i, {key % N: m for key, m in group}) for i, group in groupby(pairs, lambda km: km[0] // N))
    for i, left in enumerate(orbits):
        for j, right in enumerate(orbits):
            if j < i:  # the center is commutative: S_i S_j = S_j S_i
                lifted, row = lift.get((j, i)), table.get((j, i))
            else:
                counts: dict[int, int] = {}  # (g * size + x) * N + t -> the number of terms at zeta_N^t at (g, x)
                for g, x, e in left:
                    mg, ag = G.mult[g], a[g]
                    for h, y, f in right:
                        if x == y:
                            key = (mg[h] * size + x) * N + (e + f + ag[h]) % N
                            counts[key] = counts.get(key, 0) + 1
                coords = []  # (k * N + t, m): m terms at zeta_N^t at the least member of orbit k
                for key, m in counts.items():
                    t = key % N
                    if (k := least.get(key - t)) is not None:
                        coords.append((k * N + t, m))
                coords.sort()
                for key, m in coords:  # counts becomes the product less sum_k c_k S_k
                    k, t = divmod(key, N)
                    for g, x, e in orbits[k]:
                        key = (g * size + x) * N + (t + e) % N
                        counts[key] = counts.get(key, 0) - m
                if any(counts.values()) and any(_root_sum(N, c) for _, c in per_index(sorted(counts.items()))):
                    raise SectorError("product left the span of the orbit sums")
                if N == 1:
                    lifted, row = None, tuple(coords)
                else:
                    c_k = list(per_index(coords))  # c_k = sum of m x^t over {t: m}
                    lifted = tuple((k, _Roots(N, c)) for k, c in c_k)
                    row = tuple((k, v) for k, c in c_k if (v := _root_sum(N, c)))
            if row:
                table[i, j] = row
            lift[i, j] = lifted
    one, zero, tr = (1, 0, Fraction(1, n)) if N == 1 else (Cyclo.one(N), Cyclo.zero(N), Cyclo.rational(Fraction(1, n), N))
    unit = {k: one for k, loops in enumerate(loop_orbits) if loops[0][0] == 0}
    trace = tuple(tr if k in unit else zero for k in range(len(orbits))) if frobenius else None
    if alpha is None:
        labels = tuple("{" + ",".join(f"({G.names[g]},{x})" for g, x in loops) + "}" for loops in loop_orbits)
        meta = {"orbits": loop_orbits, "gset": X}
    else:
        reps = [loops[0][0] for loops in loop_orbits]
        labels = tuple(f"tw({G.names[g]})" for g in reps)
        meta = {"regular_reps": reps, "alpha": alpha}
    ring = SectorRing(labels, N, table, unit, trace, meta)
    if N > 1:
        object.__setattr__(ring, "lift", lift)
    ring.check_associative()
    ring.check_unit()
    if frobenius and not ring.pairing_nondegenerate():
        raise SectorError("Frobenius pairing is degenerate")
    return ring


def orbifold_string_ring(X: GSet) -> SectorRing:
    """The G-invariant sector ring: basis = orbit sums, product = transfer then project.

    The transfer sums a class over its orbit members and the projection averages
    by 1/|G|; with this normalization the unit is the invariant vector of the
    identity sector and the one-point case is literally the class algebra.
    Other conventions rescale the structure constants by powers of |G|.
    """
    return _sector_ring(X, None, False)


def dw_frobenius(G: FiniteGroup) -> SectorRing:
    """Z(Q[G]) on class sums with trace = (coefficient of the identity class) / |G|."""
    return _sector_ring(point_gset(G), None, True)


def twisted_center(G: FiniteGroup, alpha: TwoCocycle) -> SectorRing:
    """The center of the alpha-twisted group algebra over Q(zeta_N), N = alpha.modulus:
    one basis vector per alpha-regular conjugacy class, its twisted class sum with
    coefficient 1 at the class's least element (see _sector_ring)."""
    if alpha.group is not G and alpha.group != G:
        raise SectorError(f"cocycle is on {alpha.group.name}, not on {G.name}")
    return _sector_ring(point_gset(G), alpha, True)


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


def _eval_mod(poly: list[int], x: int, m: int) -> int:
    """poly(x) mod m, Horner, for ascending integer coefficients."""
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % m
    return acc


def _split_prime(ipoly: list[int], galois: list[list[Fraction]], e: int) -> tuple[int, list[int]]:
    """The first prime p = 1 (mod e), dividing no denominator of the galois
    polynomials, modulo which ipoly has deg(ipoly) distinct roots, and the roots.

    Primes p = 1 (mod e) split completely in Q(zeta_e), so every prime of this
    kind that does not divide the discriminant qualifies; the search gives up
    after 1000 of them.
    """
    n = len(ipoly) - 1
    dens = lcm(*(c.denominator for h in galois for c in h))
    tried = 0
    p = 1
    while tried < 1000:
        p += e
        if dens % p == 0 or not _is_prime(p):
            continue
        tried += 1
        roots = [x for x in range(p) if not _eval_mod(ipoly, x, p)]
        if len(roots) == n:
            return p, roots
    raise SectorError("rational factorization failed")


def _factor_monic_over_q(ipoly: list[int], galois: list[list[Fraction]], e: int) -> list[list[int]]:
    """Factor a squarefree monic integer polynomial whose roots lie in Q(zeta_e)
    into monic irreducible factors, sorted by (degree, coefficients).

    The galois polynomials act on the roots as Gal(Q(zeta_e)/Q), so the orbits
    of the roots modulo a prime p = 1 (mod e) under them are the roots of the
    irreducible factors.  The roots are lifted by Newton's iteration modulo
    p^(2^k) past twice the bound 2^n * sum|a_i| on the coefficients of any
    factor; each orbit's product, read as symmetric residues, is certified by
    exact division.
    """
    p, roots = _split_prime(ipoly, galois, e)
    n = len(ipoly) - 1
    bound = 2**n * sum(abs(c) for c in ipoly)
    deriv = [k * c for k, c in enumerate(ipoly)][1:]
    lifted = dict(zip(roots, roots))
    m = p
    while m <= 2 * bound:
        m *= m
        lifted = {
            r: (s - _eval_mod(ipoly, s, m) * pow(_eval_mod(deriv, s, m), -1, m)) % m for r, s in lifted.items()
        }

    hp = [[c.numerator * pow(c.denominator, -1, p) % p for c in h] for h in galois]
    remaining = ipoly
    factors: list[list[int]] = []
    seen: set[int] = set()
    for r in roots:
        if r in seen:
            continue
        orbit = {r} | {_eval_mod(h, r, p) for h in hp}
        if not orbit <= lifted.keys():
            raise SectorError("rational factorization failed")
        seen |= orbit
        prod = [1]
        for s in orbit:
            prod = [((prod[k - 1] if k else 0) - lifted[s] * c) % m for k, c in enumerate(prod)] + [1]
        cand = [c - m if 2 * c > m else c for c in prod]
        remaining, rem = _poly_divmod(remaining, cand)
        if any(rem):
            raise SectorError("rational factorization failed")
        factors.append(cand)
    factors.sort(key=lambda f: (len(f), f))
    return factors


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The positive rational square root of q, or None when q is not a rational square."""
    r = Fraction(isqrt(max(q.numerator, 0)), isqrt(q.denominator))
    return r if r * r == q else None


def _crt(matched: list[tuple[list[int], list]], n: int) -> list[Fraction]:
    """The h of degree < n with h = alpha (mod g) for each pair (g, alpha): g
    distinct monic irreducible integer polynomials, degrees summing to n, and
    alpha rational of any degree.  Per g, the coordinates of sum_k h_k x^k
    modulo g (x^k mod g by shift and reduce) equal those of alpha: n integer
    equations, scaled by the lcm of alpha's denominators, in one solve."""
    scale = lcm(*(c.denominator for _, alpha in matched for c in alpha))
    rows, rhs = [], []
    for g, alpha in matched:
        cur, powers = [1] + [0] * (len(g) - 2), []
        for _ in range(max(n, len(alpha))):
            powers.append(cur)
            top = cur[-1]
            cur = [-top * g[0]] + [c - top * gi for c, gi in zip(cur, g[1:-1])]
        rows += zip(*powers[:n])
        rhs += [[sum(int(a * scale) * x for a, x in zip(alpha, coord))] for coord in zip(*powers)]
    return [row[0] / scale for row in _int_solve(rows, rhs)]


def _probe_split(ring: SectorRing, rng) -> tuple[list[list[int]], list[list[int]]] | None:
    """The dense integer powers 1, x, ..., x^(n-1) of an integral probe x whose
    minimal polynomial has full degree n, and the sorted irreducible factors of
    that polynomial.

    The polynomial needs no squarefree test.  The ring is the sum of the
    centers Z(Q[G_m]) over orbit representatives m, a product of number fields
    by Maschke's theorem, so a minimal polynomial of full degree is a product
    of distinct irreducibles; _split_prime accepts only a prime modulo which it
    has n distinct roots, which certifies that again.

    One integer solve in the basis 1, ..., x^(n-1) writes x^n, which gives the
    minimal polynomial, and P_c(x) for each c prime to the group exponent e,
    where P_c is the power map (g, m) -> (g^c, m) on orbit sums.  The eigenvalue
    |C_g| chi(g) / chi(1) of a class sum goes to that of C_(g^c) under
    zeta_e -> zeta_e^c, so the polynomials h_c with P_c(x) = h_c(x) act on the
    eigenvalues of x as Gal(Q(zeta_e)/Q) (Dixon 1967).
    """
    G = ring.meta["gset"].group
    e = G.exponent()
    cs = [c for c in range(2, e) if gcd(c, e) == 1]
    orbits = ring.meta["orbits"]
    index = {p: i for i, orb in enumerate(orbits) for p in orb}
    images = []  # images[i][j]: the orbit of (g^c, m) for (g, m) in orbit i and c = cs[j]
    for g, m in (orb[0] for orb in orbits):
        walk = [0]
        for _ in range(e):
            walk.append(G.mul(walk[-1], g))
        images.append([index[walk[c], m] for c in cs])
    sparse, unit, n = ring.table, ring.unit_coords, ring.dim
    for _ in range(200):
        probe = [rng.randint(-9, 9) for _ in range(n)]
        x = _nonzero(probe)
        powers = [unit]
        for _ in range(n):
            powers.append(_ring_product(sparse, powers[-1], x))
        dense = [[v.get(k, 0) for k in range(n)] for v in powers]
        rhs = [[dense[n][k]] + [0] * len(cs) for k in range(n)]
        for i, row in enumerate(images):
            for j, k in enumerate(row, start=1):
                rhs[k][j] = probe[i]
        try:
            sol = _int_solve([list(col) for col in zip(*dense[:n])], rhs)
        except ArithmeticError:  # 1, ..., x^(n-1) are dependent: the degree is below n
            continue
        if any(row[0].denominator != 1 for row in sol):
            raise SectorError("minimal polynomial of an integral probe is not integral")
        mp = [-int(row[0]) for row in sol] + [1]
        galois = [[row[j] for row in sol] for j in range(1, len(cs) + 1)]
        return dense[:n], _factor_monic_over_q(mp, galois, e)
    return None


def morita_compare(X: GSet, Y: GSet, seed: int = 7) -> MoritaReport:
    """Compare the orbifold string rings of two G-sets.

    Both rings are commutative and semisimple with integral structure
    constants, and their components are subfields of Q(zeta_e), e the exponent
    of the acting group.  A generic probe of each ring has a squarefree monic
    integer minimal polynomial of full degree whose irreducible factors are
    the components.  The power maps (g, m) -> (g^c, m) act on the probe's
    eigenvalues as Gal(Q(zeta_e)/Q), so the Galois orbits of its roots modulo
    a prime p = 1 (mod e), lifted by Hensel's lemma, give the factors, each
    certified by exact division.  Each factor f of A is matched with the first
    unused factor g of B of its degree that, for a quadratic, has the same
    field: Q(sqrt disc_f) = Q(sqrt disc_g) exactly when disc_f / disc_g is the
    square of a rational r.  The root map alpha (a rational polynomial, with
    that r) sends a root of g to a root of f, and the Chinese remainder theorem,
    one integer solve in the n coefficients of h (_crt), gives the h of degree
    < n with h = alpha (mod g) on every component.  The rational map
    sending probe_a^k to h(probe_b)^k is then verified exactly as a unital
    algebra isomorphism, invertible modulo the least prime above 2^31 or else by
    the exact echelon.  Probes, the CRT, the witness solve and its checks run on
    ints through one fraction-free elimination.  Dimension, component or field
    mismatches are certified obstructions; components of degree > 2 are
    reported inconclusive.
    """
    import random

    A = orbifold_string_ring(X)
    B = A if Y == X else orbifold_string_ring(Y)
    rep = MoritaReport(A.dim, B.dim, None, None)
    if A.dim != B.dim:
        rep.isomorphic = False
        rep.obstruction = "dimension mismatch"
        return rep
    n = A.dim
    sa, sb = A.table, B.table
    rng = random.Random(seed)
    pa = _probe_split(A, rng)
    pb = _probe_split(B, rng)
    if pa is None or pb is None:
        rep.detail = "no separating probe found; inconclusive"
        return rep
    powers_a, factors_a = pa
    powers_b, factors_b = pb
    rep.component_degrees_left = sorted(len(f) - 1 for f in factors_a)
    rep.component_degrees_right = sorted(len(f) - 1 for f in factors_b)
    if rep.component_degrees_left != rep.component_degrees_right:
        rep.isomorphic = False
        rep.obstruction = "spectrum mismatch: component degrees differ"
        return rep
    if rep.component_degrees_left[-1] > 2:
        rep.detail = "component of degree > 2; inconclusive"
        return rep

    # pair each factor f of A with the first unused g of B over the same field and the root map alpha
    matched = []
    used = [False] * len(factors_b)
    for f in factors_a:
        for j, g in enumerate(factors_b):
            if used[j] or len(g) != len(f):
                continue
            if len(f) == 2:
                alpha = [-f[0]]
                break
            # Q(sqrt disc_f) = Q(sqrt disc_g) iff disc_f / disc_g = r^2 with r rational;
            # alpha sends the root (-g_1 + sqrt disc_g)/2 of g to (-f_1 + r sqrt disc_g)/2 of f
            r = _rational_sqrt(Fraction(f[1] ** 2 - 4 * f[0], g[1] ** 2 - 4 * g[0]))
            if r is not None:
                alpha = [(r * g[1] - f[1]) / 2, r]
                break
        else:
            rep.isomorphic = False
            rep.obstruction = "spectrum mismatch: splitting fields differ"
            return rep
        used[j] = True
        matched.append((g, alpha))
    h = _crt(matched, n)

    unit_a, unit_b = _nonzero(powers_a[0]), _nonzero(powers_b[0])
    beta = _nonzero([sum(c * v[k] for c, v in zip(h, powers_b)) for k in range(n)])
    d = lcm(*(c.denominator for c in beta.values()))
    d_beta = {k: int(d * c) for k, c in beta.items()}
    powers_beta = [unit_b]  # (d beta)^k
    for _ in range(n - 1):
        powers_beta.append(_ring_product(sb, powers_beta[-1], d_beta))
    # T probe_a^k = beta^k, solved over the integers as (rows d^k probe_a^k) T^t = (rows (d beta)^k)
    rows_beta = [[v.get(k, 0) for k in range(n)] for v in powers_beta]
    Tt = _int_solve([[d**k * c for c in row] for k, row in enumerate(powers_a)], rows_beta)
    D = lcm(*(c.denominator for row in Tt for c in row))
    DT = [[int(D * c) for c in row] for row in Tt]  # DT[i] = D T e_i, checked in place of T

    def apply(v: dict, s: int) -> dict:  # s D T v
        return _nonzero([s * sum(DT[k][r] * c for k, c in v.items()) for r in range(n)])

    if apply(unit_a, 1) != {k: D * c for k, c in unit_b.items()}:
        rep.detail = "witness does not map unit to unit; inconclusive"
        return rep
    cols = [_nonzero(row) for row in DT]
    for i in range(n):
        for j in range(n):
            if apply(dict(sa.get((i, j), ())), D) != _ring_product(sb, cols[i], cols[j]):
                rep.detail = "witness failed the homomorphism check; inconclusive"
                return rep
    p, rows = _prime_root(1, 2**31)[0], {}
    if not all(_echelon_insert_mod(rows, c, p) for c in cols):
        rows = {}
        if not all(_echelon_insert(rows, dict(c), 0, Fraction(1)) for c in cols):
            rep.detail = "witness is not invertible; inconclusive"
            return rep
    rep.isomorphic = True
    rep.witness = [list(row) for row in zip(*Tt)]
    rep.detail = "rational basis change verified on all basis pairs"
    return rep
