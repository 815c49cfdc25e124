"""Roots of unity as exact rationals mod 1; group 2-cocycles and the torsion 1-cocycle."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

from .groups import FiniteGroup, _json_int, _json_int_table, _load_json


class CocycleError(ValueError):
    """Invalid cocycle table or failed cocycle law, with a witness."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Phase:
    """The unit complex number exp(2*pi*i*q), stored as q in [0,1)."""

    q: Fraction

    @staticmethod
    def of(num: int | Fraction, den: int = 1) -> "Phase":
        return Phase(Fraction(num, den) % 1)

    @staticmethod
    def one() -> "Phase":
        return Phase(Fraction(0))

    def __mul__(self, other: "Phase") -> "Phase":
        return Phase((self.q + other.q) % 1)

    def __truediv__(self, other: "Phase") -> "Phase":
        return Phase((self.q - other.q) % 1)

    def inverse(self) -> "Phase":
        return Phase((-self.q) % 1)

    def __pow__(self, k: int) -> "Phase":
        return Phase((self.q * k) % 1)

    def is_one(self) -> bool:
        return self.q == 0

    def __str__(self):
        return str(self.q)


def _table_exponents(table: Sequence[Sequence[Phase]]) -> tuple[int, list[list[int]]]:
    """(L, k): L the table's level, the least common denominator of its phases,
    and table[g][h] = exp(2*pi*i*k[g][h]/L)."""
    L = lcm(*(p.q.denominator for row in table for p in row))
    return L, [[p.q.numerator * (L // p.q.denominator) for p in row] for row in table]


@dataclass(frozen=True)
class TwoCocycle:
    """A normalized U(1)-valued 2-cocycle on a finite group.

    alpha(g, h) = exp(2*pi*i*exps[g][h]/modulus) with exps[g][h] in [0, modulus).
    Construction refuses a modulus below 1 or a table that is not |G| x |G|, reduces the exponents
    modulo the modulus and divides all by their gcd, so modulus is the least level of the table and
    equal cocycles compare and hash equal, then raises CocycleError where _cocycle_law fails, at its witness.
    `table` is the same cocycle as phases.
    """

    group: FiniteGroup
    modulus: int
    exps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise CocycleError(f"modulus {self.modulus} is not positive", self.modulus)
        if (shape := tuple(map(len, self.exps))) != (n := self.group.order,) * n:
            raise CocycleError(f"exponent table must be {n}x{n}, got rows of lengths {shape}", shape)
        self._reduce()
        rep = _cocycle_law(self.group, self.modulus, self.exps)
        if not rep.ok:
            raise CocycleError(rep.reason, rep.witness)

    def _reduce(self) -> None:
        L = self.modulus  # gcd(L, e) = gcd(L, e mod L), so d divides each exponent reduced modulo L
        d = gcd(L, *(e for row in self.exps for e in row))
        object.__setattr__(self, "modulus", L // d)
        object.__setattr__(self, "exps", tuple(tuple(e % L // d for e in row) for row in self.exps))

    @cached_property
    def table(self) -> tuple[tuple[Phase, ...], ...]:
        return tuple(tuple(Phase.of(e, self.modulus) for e in row) for row in self.exps)

    def __mul__(self, other: "TwoCocycle") -> "TwoCocycle":
        if other.group is not self.group and other.group != self.group:
            raise CocycleError("cocycle product across different groups")
        L = lcm(self.modulus, other.modulus)
        s, t = L // self.modulus, L // other.modulus
        rows = (tuple((s * a + t * b) % L for a, b in zip(u, v)) for u, v in zip(self.exps, other.exps))
        return _closed_cocycle(self.group, L, tuple(rows))


def _closed_cocycle(G: FiniteGroup, L: int, exps: tuple) -> TwoCocycle:
    """TwoCocycle(G, L, exps) reduced but unchecked, for its three callers, whose
    tables satisfy the law by construction.  trivial_cocycle: the zero table is
    normalized and zeroes every term.  coboundary: delta(beta), beta(e) = 1, has
    exponents b(g) + b(h) - b(gh), normalized as b(e) = 0, and they cancel term
    by term in the identity.  TwoCocycle.__mul__: the identity is linear, so the
    sum of two cocycle tables scaled to a common level is one."""
    alpha = object.__new__(TwoCocycle)
    alpha.__dict__.update(group=G, modulus=L, exps=exps)
    alpha._reduce()
    return alpha


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    reason: str
    witness: tuple | None


def _cocycle_law(G: FiniteGroup, L: int, a: Sequence[Sequence[int]]) -> CocycleReport:
    """Normalization and c(g,h,k) = a(g,h) + a(gh,k) - a(g,hk) - a(h,k) = 0 mod L,
    the cocycle identity of alpha = exp(2 pi i a/L) read as integers.

    Once the table is normalized, the identity is checked first only for k in
    a generating set S of G.  That suffices by induction on the word length
    of k, every element being a word in S.  It holds for k = e by
    normalization: c(g,h,e) = a(gh,e) - a(h,e) = 0.  And c is minus the
    coboundary of a, so it is a 3-cocycle, and its coboundary at (g, h, s, k')
    gives
        c(g,h,sk') = c(h,s,k') - c(gh,s,k') + c(g,hs,k') + c(g,h,s):
    if the identity holds for k' and for s in S, at every g and h, the right
    side vanishes, so it holds for sk'.  Only when a generator fails does the
    full scan run, which names the lexicographically first failing triple.
    """
    n = G.order
    for g in range(n):
        if a[0][g]:
            return CocycleReport(False, "not normalized: alpha(e,g) != 1", (0, g))
        if a[g][0]:
            return CocycleReport(False, "not normalized: alpha(g,e) != 1", (g, 0))
    mult = G.mult

    def first_failure(ks: Sequence[int]) -> tuple | None:
        for g in range(n):
            ag, mg = a[g], mult[g]
            for h in range(n):
                agh, ah, hk = ag[h], a[h], mult[h]
                am = a[mg[h]]
                for k in ks:
                    if (agh + am[k] - ag[hk[k]] - ah[k]) % L:
                        return (g, h, k)
        return None

    if first_failure(G.generators) is None:
        return CocycleReport(True, "valid normalized 2-cocycle", None)
    return CocycleReport(False, "cocycle identity fails", first_failure(range(n)))


def make_cocycle(G: FiniteGroup, table: Sequence[Sequence[Phase]]) -> TwoCocycle:
    """The cocycle of a phase table, normalized (divided by alpha(e,e)) on its
    exponents modulo its level; TwoCocycle checks the law."""
    n = G.order
    if len(table) != n or any(len(r) != n for r in table):
        raise CocycleError(f"table must be {n}x{n}")
    L, a = _table_exponents(table)
    unit = a[0][0]
    return TwoCocycle(G, L, [[(e - unit) % L for e in row] for row in a])


def trivial_cocycle(G: FiniteGroup) -> TwoCocycle:
    return _closed_cocycle(G, 1, ((0,) * G.order,) * G.order)


def coboundary(G: FiniteGroup, beta: Sequence[Phase]) -> TwoCocycle:
    """delta(beta)(g,h) = beta(g) beta(h) beta(gh)^-1 for beta with beta(e) = 1."""
    vals = list(beta)
    if len(vals) != G.order:
        raise CocycleError("beta must assign a phase to every element")
    if not vals[0].is_one():
        raise CocycleError("beta(e) must be 1")
    L, (b,) = _table_exponents([vals])
    rows = (tuple((bg + b[h] - b[gh]) % L for h, gh in enumerate(row)) for bg, row in zip(b, G.mult))
    return _closed_cocycle(G, L, tuple(rows))


@dataclass(frozen=True)
class TorsionCocycle:
    """The inertia-groupoid 1-cocycle tau(g,h) = alpha(g,h) / alpha(h, h^-1 g h)."""

    group: FiniteGroup
    tau: tuple[tuple[Phase, ...], ...]


def _torsion_row(alpha: TwoCocycle, g: int) -> list[int]:
    """The row T(g, -): T(g,h) = a(g,h) - a(h, g^h) mod L, g^h = h^-1 g h, for
    alpha = exp(2 pi i a/L), L = alpha.modulus.  So tau(g,h) = exp(2 pi i T(g,h)/L),
    and u_h^-1 u_g u_h = zeta_L^T(g,h) u_(g^h) in the alpha-twisted group algebra:
    both u_g u_h and u_h u_(g^h) are multiples of u_(gh)."""
    a, ag = alpha.exps, alpha.exps[g]
    return [(ag[h] - a[h][c]) % alpha.modulus for h, c in enumerate(alpha.group.conjugation[g])]


def _torsion_exponents(alpha: TwoCocycle) -> list[list[int]]:
    """The rows T(g, -) of _torsion_row over every g.  They obey the groupoid law
    T(g,hk) = T(g,h) + T(g^h,k) mod L: the alpha-twisted group algebra is
    associative as alpha is a cocycle, and u_(hk) = alpha(h,k)^-1 u_h u_k, so
    conjugating by u_(hk) is conjugating by u_h, then by u_k (the scalars cancel),
    and takes u_g to zeta_L^(T(g,h) + T(g^h,k)) u_(g^(hk)).  check_torsion_law
    checks the law independently."""
    return [_torsion_row(alpha, g) for g in range(alpha.group.order)]


def discrete_torsion(alpha: TwoCocycle) -> TorsionCocycle:
    tau = tuple(tuple(Phase.of(t, alpha.modulus) for t in row) for row in _torsion_exponents(alpha))
    return TorsionCocycle(alpha.group, tau)


def check_torsion_law(t: TorsionCocycle) -> CocycleReport:
    """Groupoid 1-cocycle law tau(g,hk) = tau(g,h) tau(h^-1 g h, k)."""
    return _torsion_law(t.group, *_table_exponents(t.tau))


def _torsion_law(G: FiniteGroup, L: int, T: Sequence[Sequence[int]]) -> CocycleReport:
    """The groupoid law T(g,hk) = T(g,h) + T(g^h,k) mod L, g^h = h^-1 g h, on
    tau(g,h) = exp(2 pi i T(g,h)/L), read as integers modulo L.

    The law is checked first only for k = e and for k in a generating set S
    of G.  That suffices by induction on the word length of k, every element
    being a word in S: if the law holds for k' and for s in S, at every g and
    h, then
        T(g, h sk') = T(g, hs) + T(g^(hs), k')            (k' at g, hs)
                    = T(g,h) + T(g^h, s) + T(g^(hs), k')  (s at g, h)
                    = T(g,h) + T(g^h, sk')                (k' at g^h, s),
    so it holds for sk'.  Only when that check fails does the full scan run,
    which names the lexicographically first failing triple.
    """
    conj, mult, n = G.conjugation, G.mult, G.order

    def first_failure(ks: Sequence[int]) -> tuple | None:
        for g in range(n):
            Tg, cg = T[g], conj[g]
            for h in range(n):
                Th, Tc, hk = Tg[h], T[cg[h]], mult[h]
                for k in ks:
                    if Tg[hk[k]] != (Th + Tc[k]) % L:
                        return (g, h, k)
        return None

    if first_failure((0,) + G.generators) is None:
        return CocycleReport(True, "groupoid 1-cocycle law holds", None)
    return CocycleReport(False, "groupoid cocycle law fails", first_failure(range(n)))


def restrict_to_centralizer(t: TorsionCocycle, g: int) -> dict[int, Phase]:
    """The character h |-> tau(g,h) on C(g); raises if it is not multiplicative."""
    G = t.group
    cent = [h for h in range(G.order) if G.mul(g, h) == G.mul(h, g)]
    chi = {h: t.tau[g][h] for h in cent}
    for h1 in cent:
        for h2 in cent:
            if chi[G.mul(h1, h2)] != chi[h1] * chi[h2]:
                raise CocycleError(
                    f"tau(g={g},-) is not a character on the centralizer", (g, h1, h2)
                )
    return chi


# JSON interchange -----------------------------------------------------------


def parse_cocycle(data: str | dict, G: FiniteGroup) -> TwoCocycle:
    """Cocycle from JSON: {"group": name, "denominator": N, "num": [[...]]}."""
    need = "cocycle JSON needs 'denominator' and 'num'"
    data = _load_json(data, CocycleError, need)
    if "denominator" not in data or "num" not in data:
        raise CocycleError(need)
    den = _json_int(data["denominator"], "field 'denominator'", CocycleError)
    if den < 1:
        raise CocycleError("denominator must be positive")
    num = _json_int_table(data, "num", CocycleError)
    if len(num) != G.order or any(len(r) != G.order for r in num):
        raise CocycleError(f"num must be {G.order}x{G.order}")
    return make_cocycle(G, [[Phase.of(k, den) for k in row] for row in num])


def torsion_to_json(t: TorsionCocycle) -> dict:
    L, num = _table_exponents(t.tau)
    return {"group": t.group.name, "denominator": L, "num": num}


def catalog_cocycle(G: FiniteGroup, name: str) -> TwoCocycle:
    """Shipped cocycles: 'trivial' on any group, 'nontrivial' on Z2xZ2."""
    if name == "trivial":
        return trivial_cocycle(G)
    if name == "nontrivial" and G.name == "Z2xZ2":
        # elements are bit pairs (a1,a2) at index 2*a1 + a2; q = a1*b2/2
        tab = [
            [Phase.of((g >> 1) * (h & 1), 2) for h in range(4)]
            for g in range(4)
        ]
        return make_cocycle(G, tab)
    raise CocycleError(f"no catalog cocycle {name!r} for group {G.name}")
