"""Roots of unity as exact rationals mod 1; group 2-cocycles and the torsion 1-cocycle."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .groups import FiniteGroup, _json_field, _load_json, conjugacy_classes


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


def _table_level(table: Sequence[Sequence[Phase]]) -> int:
    """The least common denominator of a table of phases."""
    return lcm(*(p.q.denominator for row in table for p in row))


def _table_exponents(table: Sequence[Sequence[Phase]], level: int) -> list[list[int]]:
    """k with table[g][h] = exp(2*pi*i*k/level), for a level that every denominator divides."""
    return [[p.q.numerator * (level // p.q.denominator) for p in row] for row in table]


def _table_json(group: FiniteGroup, table: Sequence[Sequence[Phase]]) -> dict:
    den = _table_level(table)
    return {
        "group": group.name,
        "denominator": den,
        "num": [[int(p.q * den) for p in row] for row in table],
    }


@dataclass(frozen=True)
class TwoCocycle:
    """A normalized U(1)-valued 2-cocycle on a finite group."""

    group: FiniteGroup
    table: tuple[tuple[Phase, ...], ...]

    def level(self) -> int:
        return _table_level(self.table)

    def __mul__(self, other: "TwoCocycle") -> "TwoCocycle":
        if other.group is not self.group and other.group != self.group:
            raise CocycleError("cocycle product across different groups")
        n = self.group.order
        tab = tuple(tuple(self.table[g][h] * other.table[g][h] for h in range(n)) for g in range(n))
        return TwoCocycle(self.group, tab)


@dataclass(frozen=True)
class CocycleReport:
    ok: bool
    reason: str
    witness: tuple | None


def is_two_cocycle(G: FiniteGroup, table: Sequence[Sequence[Phase]]) -> CocycleReport:
    """Check normalization and the cocycle identity; report a violating triple on failure."""
    n = G.order
    if len(table) != n or any(len(r) != n for r in table):
        raise CocycleError(f"table must be {n}x{n}")
    for g in range(n):
        if not table[0][g].is_one():
            return CocycleReport(False, "not normalized: alpha(e,g) != 1", (0, g))
        if not table[g][0].is_one():
            return CocycleReport(False, "not normalized: alpha(g,e) != 1", (g, 0))
    for g in range(n):
        for h in range(n):
            gh = G.mul(g, h)
            for k in range(n):
                lhs = table[g][h] * table[gh][k]
                rhs = table[g][G.mul(h, k)] * table[h][k]
                if lhs != rhs:
                    return CocycleReport(False, "cocycle identity fails", (g, h, k))
    return CocycleReport(True, "valid normalized 2-cocycle", None)


def make_cocycle(G: FiniteGroup, table: Sequence[Sequence[Phase]]) -> TwoCocycle:
    """Normalize (divide by alpha(e,e)) and validate."""
    n = G.order
    if len(table) != n or any(len(r) != n for r in table):
        raise CocycleError(f"table must be {n}x{n}")
    unit = table[0][0]
    if not unit.is_one():
        table = [[table[g][h] / unit for h in range(n)] for g in range(n)]
    rep = is_two_cocycle(G, table)
    if not rep.ok:
        raise CocycleError(rep.reason, rep.witness)
    return TwoCocycle(G, tuple(tuple(row) for row in table))


def trivial_cocycle(G: FiniteGroup) -> TwoCocycle:
    one = Phase.one()
    return TwoCocycle(G, tuple(tuple(one for _ in range(G.order)) for _ in range(G.order)))


def coboundary(G: FiniteGroup, beta: Sequence[Phase]) -> TwoCocycle:
    """delta(beta)(g,h) = beta(g) beta(h) beta(gh)^-1 for beta with beta(e) = 1."""
    vals = list(beta)
    if len(vals) != G.order:
        raise CocycleError("beta must assign a phase to every element")
    if not vals[0].is_one():
        raise CocycleError("beta(e) must be 1")
    tab = tuple(
        tuple(vals[g] * vals[h] / vals[G.mul(g, h)] for h in range(G.order)) for g in range(G.order)
    )
    return TwoCocycle(G, tab)


@dataclass(frozen=True)
class TorsionCocycle:
    """The inertia-groupoid 1-cocycle tau(g,h) = alpha(g,h) / alpha(h, h^-1 g h)."""

    group: FiniteGroup
    tau: tuple[tuple[Phase, ...], ...]

    def level(self) -> int:
        return _table_level(self.tau)


def discrete_torsion(alpha: TwoCocycle) -> TorsionCocycle:
    G = alpha.group
    n = G.order
    tau = tuple(
        tuple(alpha.table[g][h] / alpha.table[h][G.conjugate(g, h)] for h in range(n))
        for g in range(n)
    )
    out = TorsionCocycle(G, tau)
    rep = check_torsion_law(out)
    if not rep.ok:
        raise CocycleError(rep.reason, rep.witness)
    return out


def check_torsion_law(t: TorsionCocycle) -> CocycleReport:
    """Groupoid 1-cocycle law tau(g,hk) = tau(g,h) tau(h^-1 g h, k).

    tau is read once as integers modulo its level L: tau(g,h) = exp(2 pi i T(g,h)/L).
    """
    G = t.group
    L = t.level()
    T = _table_exponents(t.tau, L)
    for g in range(G.order):
        Tg = T[g]
        for h in range(G.order):
            Th, Tc, hk = Tg[h], T[G.conjugate(g, h)], G.mult[h]
            for k in range(G.order):
                if Tg[hk[k]] != (Th + Tc[k]) % L:
                    return CocycleReport(False, "groupoid cocycle law fails", (g, h, k))
    return CocycleReport(True, "groupoid 1-cocycle law holds", None)


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


def alpha_regular_reps(alpha: TwoCocycle) -> list[int]:
    """Class representatives g with tau(g,-) trivial on C(g)."""
    t = discrete_torsion(alpha)
    data = conjugacy_classes(alpha.group)
    out = []
    for rep, cent in zip(data.reps, data.centralizers):
        if all(t.tau[rep][h].is_one() for h in cent):
            out.append(rep)
    return out


# JSON interchange -----------------------------------------------------------


def parse_cocycle(data: str | dict, G: FiniteGroup) -> TwoCocycle:
    """Cocycle from JSON: {"group": name, "denominator": N, "num": [[...]]}."""
    need = "cocycle JSON needs 'denominator' and 'num'"
    data = _load_json(data, CocycleError, need)
    if "denominator" not in data or "num" not in data:
        raise CocycleError(need)
    den = _json_field(data, "denominator", int, CocycleError)
    if den < 1:
        raise CocycleError("denominator must be positive")

    def phases(num) -> list[list[Phase]]:
        if len(num) != G.order or any(len(r) != G.order for r in num):
            raise CocycleError(f"num must be {G.order}x{G.order}")
        return [[Phase.of(int(num[g][h]), den) for h in range(G.order)] for g in range(G.order)]

    return make_cocycle(G, _json_field(data, "num", phases, CocycleError))


def cocycle_to_json(alpha: TwoCocycle) -> dict:
    return _table_json(alpha.group, alpha.table)


def torsion_to_json(t: TorsionCocycle) -> dict:
    return _table_json(t.group, t.tau)


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
