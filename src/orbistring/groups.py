"""Finite groups as multiplication tables, right G-sets, conjugacy data, catalog."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence


class GroupError(ValueError):
    """Invalid group, action table, or catalog lookup."""


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group on elements 0..order-1 with 0 the identity.

    Construction also derives, once, from the table:
      conjugation[q][h] = h^-1 * q * h;
      conjugacy, the classes by least member, each with its representative's
        centralizer (a ConjugacyData);
      generators, each element in index order that lies outside the subgroup
        generated by the ones chosen before it.
    They are not fields, so equality and hashing read the fields only.  They
    are set at construction rather than cached on first use: a later write
    to the instance dict would slow every attribute read on the group.
    """

    name: str
    order: int
    mult: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        n, mult, inv = range(self.order), self.mult, self.inv
        conj = tuple(tuple(mult[mult[inv[h]][q]][h] for h in n) for q in n)
        classes: list[tuple[int, ...]] = []
        for g in n:
            if not any(g in c for c in classes):
                classes.append(tuple(sorted(set(conj[g]))))
        reps = tuple(c[0] for c in classes)
        cents = tuple(tuple(h for h, c in enumerate(conj[r]) if c == r) for r in reps)
        gens: list[int] = []
        reached = {0}
        for g in n:
            if g not in reached:
                gens.append(g)
                reached = set(subgroup_closure(self, gens))
        object.__setattr__(self, "conjugation", conj)
        object.__setattr__(self, "conjugacy", ConjugacyData(tuple(classes), reps, cents))
        object.__setattr__(self, "generators", tuple(gens))

    @staticmethod
    def from_table(name: str, mult: Sequence[Sequence[int]], names: Sequence[str] | None = None) -> "FiniteGroup":
        n = len(mult)
        if n == 0:
            raise GroupError("empty multiplication table")
        tab = tuple(tuple(_json_int(v, "table entry", GroupError) for v in row) for row in mult)
        for i, row in enumerate(tab):
            if len(row) != n:
                raise GroupError(f"row {i} has length {len(row)}, expected {n}")
            for v in row:
                if not 0 <= v < n:
                    raise GroupError(f"entry out of range in row {i}")
        for x in range(n):
            if tab[0][x] != x or tab[x][0] != x:
                raise GroupError(f"element 0 is not an identity at {x}")
        for i in range(n):
            if sorted(tab[i]) != list(range(n)) or sorted(tab[r][i] for r in range(n)) != list(range(n)):
                raise GroupError(f"row or column {i} is not a permutation")
        for a in range(n):
            for b in range(n):
                ab = tab[a][b]
                for c in range(n):
                    if tab[ab][c] != tab[a][tab[b][c]]:
                        raise GroupError(f"associativity fails at triple ({a},{b},{c})")
        inv = []
        for a in range(n):
            b = next(b for b in range(n) if tab[a][b] == 0)
            inv.append(b)
        if names is None:
            names = tuple(str(i) for i in range(n))
        else:
            names = tuple(str(s) for s in names)
            if len(names) != n:
                raise GroupError("names length mismatch")
        return FiniteGroup(name, n, tab, tuple(inv), names)

    def mul(self, a: int, b: int) -> int:
        return self.mult[a][b]

    def invert(self, a: int) -> int:
        return self.inv[a]

    def conjugate(self, q: int, h: int) -> int:
        """h^-1 * q * h."""
        return self.conjugation[q][h]

    def is_abelian(self) -> bool:
        return all(self.mult[a][b] == self.mult[b][a] for a in range(self.order) for b in range(self.order))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
        return k

    def exponent(self) -> int:
        from math import lcm

        out = 1
        for a in range(self.order):
            out = lcm(out, self.element_order(a))
        return out

    def index_of_name(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise GroupError(f"no element named {name!r} in {self.name}") from None


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes (least-index representatives) with centralizers."""

    classes: tuple[tuple[int, ...], ...]
    reps: tuple[int, ...]
    centralizers: tuple[tuple[int, ...], ...]


def conjugacy_classes(G: FiniteGroup) -> ConjugacyData:
    return G.conjugacy


def bun_holonomy_action(G: FiniteGroup, q: int, h: int) -> int:
    """The action on circle-bundle holonomies: q |-> h^-1 q h."""
    return G.conjugate(q, h)


@dataclass(frozen=True)
class GSet:
    """A finite right G-set given by its action table."""

    group: FiniteGroup
    size: int
    act: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_table(group: FiniteGroup, act: Sequence[Sequence[int]]) -> "GSet":
        m = len(act)
        if m == 0:
            raise GroupError("empty G-set")
        tab = tuple(tuple(_json_int(v, "action entry", GroupError) for v in row) for row in act)
        for x, row in enumerate(tab):
            if len(row) != group.order:
                raise GroupError(f"action row {x} has wrong length")
            for v in row:
                if not 0 <= v < m:
                    raise GroupError(f"action entry out of range in row {x}")
            if row[0] != x:
                raise GroupError(f"identity does not fix point {x}")
        for x in range(m):
            for g in range(group.order):
                xg = tab[x][g]
                for h in range(group.order):
                    if tab[xg][h] != tab[x][group.mul(g, h)]:
                        raise GroupError(f"action fails at triple (point {x}, {g}, {h})")
        return GSet(group, m, tab)


def fixed_points(X: GSet, g: int) -> list[int]:
    """Points of X fixed by g, ascending."""
    return [m for m in range(X.size) if X.act[m][g] == m]


def point_gset(G: FiniteGroup) -> GSet:
    return GSet(G, 1, (tuple(0 for _ in range(G.order)),))


def translation_gset(G: FiniteGroup) -> GSet:
    """G acting on itself by right translation."""
    return GSet(G, G.order, G.mult)


def _closure(identity, gens: Sequence, mul: Callable) -> list:
    """Everything reached from identity by right multiplication with gens, sorted."""
    out = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = mul(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return sorted(out)


def subgroup_closure(G: FiniteGroup, gens: Iterable[int]) -> list[int]:
    return _closure(0, list(gens), G.mul)


def coset_gset(G: FiniteGroup, subgroup_elems: Sequence[int]) -> GSet:
    """Right cosets Hx with the right translation action of G."""
    H = list(subgroup_elems)
    cosets: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    for x in range(G.order):
        c = tuple(sorted(G.mul(h, x) for h in H))
        if c not in index:
            index[c] = len(cosets)
            cosets.append(c)
    cosets_sorted = sorted(cosets)
    renum = {c: i for i, c in enumerate(cosets_sorted)}
    act = []
    for c in cosets_sorted:
        row = []
        for g in range(G.order):
            row.append(renum[tuple(sorted(G.mul(x, g) for x in c))])
        act.append(tuple(row))
    return GSet(G, len(cosets_sorted), tuple(act))


# permutation helpers --------------------------------------------------------


def perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def perm_closure(gens: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All products of the generators; sorted with the identity first."""
    if not gens:
        raise GroupError("empty generator list")
    k = len(gens[0])
    gs = []
    for g in gens:
        t = tuple(_json_int(v, f"generator {g}", GroupError) for v in g)
        if sorted(t) != list(range(k)):
            raise GroupError(f"generator {g} is not a permutation of 0..{k - 1}")
        gs.append(t)
    return _closure(tuple(range(k)), gs, perm_mul)


def cycle_name(p: tuple[int, ...]) -> str:
    """Cycle notation on 1-based points; 'e' for the identity."""
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + ",".join(str(v + 1) for v in cyc) + ")")
    return "".join(parts) if parts else "e"


def group_from_perm_gens(name: str, gens: Sequence[Sequence[int]]) -> FiniteGroup:
    elems = perm_closure(gens)
    pos = {p: i for i, p in enumerate(elems)}
    mult = [[pos[perm_mul(a, b)] for b in elems] for a in elems]
    return FiniteGroup.from_table(name, mult, [cycle_name(p) for p in elems])


# JSON interchange -----------------------------------------------------------


def _load_json(data: str | dict, error, not_object: str = "JSON input must be an object") -> dict:
    """The JSON object in data; error(message) builds the domain error to raise."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as e:
            raise error(f"malformed JSON: {e}") from None
    if not isinstance(data, dict):
        raise error(not_object)
    return data


def _json_field(data: dict, key: str, read, error):
    """read(data[key]).  A missing field, or a value of the wrong shape, raises
    the domain error class error naming the field; an error that read raises
    itself passes through unchanged."""
    if key not in data:
        raise error(f"missing field {key!r}")
    try:
        return read(data[key])
    except error:
        raise
    except (KeyError, IndexError, TypeError, ValueError) as e:
        raise error(f"bad field {key!r}: {e}") from None


def _json_int(value, field: str, error) -> int:
    """value if it is a JSON integer; anything else (1.5, 1e400, true, "1") raises
    the domain error error(message) naming the field and the value as JSON."""
    if type(value) is not int:
        raise error(f"{field}: expected an integer, got {json.dumps(value, default=repr)}")
    return value


def _json_int_table(data: dict, key: str, error) -> list[list[int]]:
    """data[key], an array of arrays of JSON integers, read by _json_field and _json_int."""
    field = f"field {key!r}"
    return _json_field(data, key, lambda rows: [[_json_int(v, field, error) for v in row] for row in rows], error)


def parse_group(data: str | dict) -> FiniteGroup:
    """Group from JSON: {"name", "mult": [[...]]} or {"name", "perm_gens": [[...]]}."""
    data = _load_json(data, GroupError, "group JSON must be an object")
    name = str(data.get("name", "G"))
    if "mult" in data:
        g = FiniteGroup.from_table(name, _json_int_table(data, "mult", GroupError))
        if "names" in data:  # read after the table, whose errors come first
            g = _json_field(
                data, "names", lambda names: FiniteGroup.from_table(name, g.mult, names), GroupError
            )
        if "order" in data and _json_int(data["order"], "field 'order'", GroupError) != g.order:
            raise GroupError(f"declared order {data['order']} does not match table size {g.order}")
        return g
    if "perm_gens" in data:
        return group_from_perm_gens(name, _json_int_table(data, "perm_gens", GroupError))
    raise GroupError("group JSON needs 'mult' or 'perm_gens'")


def parse_gset(data: str | dict, resolve_group=None) -> GSet:
    """G-set from JSON: {"group": name-or-inline, "size", "act": [[...]]}."""
    data = _load_json(data, GroupError, "G-set JSON must be an object")
    gspec = data.get("group")
    if isinstance(gspec, dict):
        G = parse_group(gspec)
    elif isinstance(gspec, str):
        if resolve_group is None:
            G = catalog_group(gspec)
        else:
            G = resolve_group(gspec)
    else:
        raise GroupError("G-set JSON needs a 'group' (name or inline)")
    X = GSet.from_table(G, _json_int_table(data, "act", GroupError))
    if "size" in data and _json_int(data["size"], "field 'size'", GroupError) != X.size:
        raise GroupError(f"declared size {data['size']} does not match table")
    return X


def group_to_json(G: FiniteGroup) -> dict:
    return {
        "name": G.name,
        "order": G.order,
        "names": list(G.names),
        "mult": [list(r) for r in G.mult],
    }


# catalog --------------------------------------------------------------------


def _q8_group() -> FiniteGroup:
    # elements 1, -1, i, -i, j, -j, k, -k
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {"1": 0, "i": 2, "j": 4, "k": 6}

    def enc(sym: str, sign: int) -> int:
        return base[sym] + (0 if sign > 0 else 1)

    rules = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("j", "1"): ("j", 1), ("k", "1"): ("k", 1),
        ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
        ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1),
        ("k", "i"): ("j", 1), ("i", "k"): ("j", -1),
    }
    mult = [[0] * 8 for _ in range(8)]
    syms = ["1", "1", "i", "i", "j", "j", "k", "k"]
    signs = [1, -1, 1, -1, 1, -1, 1, -1]
    for a in range(8):
        for b in range(8):
            sym, sgn = rules[(syms[a], syms[b])]
            mult[a][b] = enc(sym, sgn * signs[a] * signs[b])
    return FiniteGroup.from_table("Q8", mult, names)


@lru_cache(maxsize=None)
def catalog_group(name: str) -> FiniteGroup:
    """Built-in groups: Zn, S3, S4, D4, Q8, Z2xZ2."""
    if name.startswith("Z") and name[1:].isdigit():
        n = int(name[1:])
        if n < 1:
            raise GroupError("cyclic group order must be positive")
        mult = [[(i + j) % n for j in range(n)] for i in range(n)]
        return FiniteGroup.from_table(name, mult, [f"g{i}" if i else "e" for i in range(n)])
    if name == "S3":
        return group_from_perm_gens("S3", [[1, 0, 2], [1, 2, 0]])
    if name == "S4":
        return group_from_perm_gens("S4", [[1, 0, 2, 3], [1, 2, 3, 0]])
    if name == "D4":
        return group_from_perm_gens("D4", [[1, 2, 3, 0], [3, 2, 1, 0]])
    if name == "Q8":
        return _q8_group()
    if name == "Z2xZ2":
        mult = [[(i ^ j) for j in range(4)] for i in range(4)]
        return FiniteGroup.from_table("Z2xZ2", mult, ["(0,0)", "(0,1)", "(1,0)", "(1,1)"])
    raise GroupError(f"unknown catalog group {name!r}")


CATALOG_NAMES = ("Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z7", "Z8", "S3", "S4", "D4", "Q8", "Z2xZ2")

# subgroups used by the Morita comparisons, as generator names in the parent
_CATALOG_SUBGROUPS = {
    ("S3", "Z2"): ["(1,2)"],
    ("S3", "Z3"): ["(1,2,3)"],
    ("S4", "S3"): ["(1,2)", "(1,2,3)"],
    ("Z4", "Z2"): ["g2"],
}


def catalog_subgroup(parent: str, name: str) -> tuple[FiniteGroup, list[int]]:
    """(parent group, subgroup element indices) for a named catalog pair."""
    G = catalog_group(parent)
    key = (parent, name)
    if key not in _CATALOG_SUBGROUPS:
        raise GroupError(f"unknown catalog subgroup {name!r} of {parent!r}")
    return G, subgroup_closure(G, [G.index_of_name(g) for g in _CATALOG_SUBGROUPS[key]])
