import copy
import dataclasses
import hashlib
import json
import math
import random
import re
import sys
from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from orbistring import sector
from orbistring.cyclo import Cyclo, _echelon_insert, _is_prime, _poly_divmod, _prime_root, cyclotomic_poly
from orbistring.groups import (
    CATALOG_NAMES,
    GSet,
    catalog_group,
    catalog_subgroup,
    conjugacy_classes,
    coset_gset,
    point_gset,
    translation_gset,
)
from orbistring.phases import (
    Phase,
    _torsion_row,
    alpha_regular_reps,
    catalog_cocycle,
    coboundary,
    discrete_torsion,
    make_cocycle,
    trivial_cocycle,
)
from orbistring.sector import (
    SectorError,
    _crt,
    _eval_mod,
    _factor_monic_over_q,
    _probe_split,
    _rational_sqrt,
    dw_frobenius,
    morita_compare,
    orbifold_string_ring,
    sector_act,
    sector_basis,
    twisted_center,
)


def group_algebra_product(G, xs, ys):
    """Oracle: multiply two formal sums in Q[G] directly."""
    out = {}
    for g, cg in xs.items():
        for h, ch in ys.items():
            k = G.mul(g, h)
            out[k] = out.get(k, 0) + cg * ch
    return {k: v for k, v in out.items() if v}


def sector_product(X, a, b):
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


def test_sector_product_point_is_group_algebra():
    S3 = catalog_group("S3")
    pt = point_gset(S3)
    for g in range(6):
        for h in range(6):
            assert sector_product(pt, (g, 0), (h, 0)) == {(S3.mul(g, h), 0): Fraction(1)}


def test_sector_product_mismatch_and_errors():
    Z2 = catalog_group("Z2")
    X = GSet.from_table(Z2, [[0, 1], [1, 0], [2, 2]])
    assert sector_product(X, (1, 2), (1, 2)) == {(0, 2): Fraction(1)}
    assert sector_product(X, (0, 0), (0, 1)) == {}
    with pytest.raises(SectorError):
        sector_product(X, (1, 0), (0, 0))  # 0 is not fixed by the generator


def test_sector_product_associative_exhaustive():
    Z2 = catalog_group("Z2")
    X = GSet.from_table(Z2, [[0, 1], [1, 0], [2, 2]])
    basis = sector_basis(X)
    for a in basis:
        for b in basis:
            for c in basis:
                ab = sector_product(X, a, b)
                bc = sector_product(X, b, c)
                lhs = {}
                for p, cf in ab.items():
                    for q, cf2 in sector_product(X, p, c).items():
                        lhs[q] = lhs.get(q, 0) + cf * cf2
                rhs = {}
                for p, cf in bc.items():
                    for q, cf2 in sector_product(X, a, p).items():
                        rhs[q] = rhs.get(q, 0) + cf * cf2
                assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def test_sector_product_conjugation_covariance():
    S3 = catalog_group("S3")
    G, H = catalog_subgroup("S3", "Z2")
    X = coset_gset(G, H)
    basis = sector_basis(X)
    for a in basis:
        for b in basis:
            if a[1] != b[1]:
                continue
            for h in range(6):
                lhs = {sector_act(X, p, h): c for p, c in sector_product(X, a, b).items()}
                rhs = sector_product(X, sector_act(X, a, h), sector_act(X, b, h))
                assert lhs == rhs


def test_point_ring_is_class_algebra():
    for name in ("Z4", "S3", "D4", "Q8"):
        G = catalog_group(name)
        ring = orbifold_string_ring(point_gset(G))
        data = conjugacy_classes(G)
        assert ring.dim == len(data.classes)
        for i, ci in enumerate(data.classes):
            for j, cj in enumerate(data.classes):
                prod = group_algebra_product(
                    G, {g: 1 for g in ci}, {h: 1 for h in cj}
                )
                for k, ck in enumerate(data.classes):
                    want = Fraction(prod.get(ck[0], 0))
                    assert ring.structure[i][j][k].rational_part() == want


def test_free_transitive_ring_is_q():
    S3 = catalog_group("S3")
    ring = orbifold_string_ring(translation_gset(S3))
    assert ring.dim == 1
    assert ring.structure[0][0][0] == Cyclo.one(1)


def test_trivial_group_ring_is_pointwise():
    Z1 = catalog_group("Z1")
    X = GSet.from_table(Z1, [[0], [1], [2], [3]])
    ring = orbifold_string_ring(X)
    assert ring.dim == 4
    for i in range(4):
        for j in range(4):
            for k in range(4):
                expect = Fraction(1) if i == j == k else Fraction(0)
                assert ring.structure[i][j][k].rational_part() == expect


def test_string_ring_commutative_and_unital():
    for spec in [("S3", "Z2"), ("S4", "S3")]:
        G, H = catalog_subgroup(*spec)
        ring = orbifold_string_ring(coset_gset(G, H))
        assert ring.is_commutative()
        ring.check_unit()


@pytest.mark.parametrize(
    "X",
    [point_gset(catalog_group("S3")), translation_gset(catalog_group("Z4")), coset_gset(*catalog_subgroup("S4", "S3"))],
    ids=["point:S3", "self:Z4", "coset:S4:S3"],
)
def test_string_ring_is_transfer_sector_product_projection(X):
    # oracle: transfer each orbit to its orbit sum, multiply by the sector
    # product, project by averaging over G, and read the orbit-sum coordinates
    G, ring = X.group, orbifold_string_ring(X)
    orbits = ring.meta["orbits"]
    for orb in orbits:
        assert {sector_act(X, p, h) for p in orb for h in range(G.order)} == set(orb)
    for i, oi in enumerate(orbits):
        for j, oj in enumerate(orbits):
            prod = {}
            for a in oi:
                for b in oj:
                    for q, c in sector_product(X, a, b).items():
                        prod[q] = prod.get(q, 0) + c
            projected = {}
            for q, c in prod.items():
                for h in range(G.order):
                    r = sector_act(X, q, h)
                    projected[r] = projected.get(r, 0) + c / G.order
            coords = {k: projected.get(ok[0], 0) for k, ok in enumerate(orbits)}
            assert all(projected.get(q, 0) == coords[k] for k, ok in enumerate(orbits) for q in ok)
            assert dict(ring.table.get((i, j), ())) == {k: c for k, c in coords.items() if c}


def test_dw_frobenius_s3_example():
    S3 = catalog_group("S3")
    ring = dw_frobenius(S3)
    ti = next(i for i, lab in enumerate(ring.labels) if "(2,3)" in lab)
    ei = ring.basis_vector(ti)
    sq = ring.mult(ei, ei)
    # (sum of 3 transpositions)^2 = 3e + 3(sum of the two 3-cycles)
    expect = {0: 3, ti: 0}
    for k, c in enumerate(sq):
        if k == 0:
            assert c.rational_part() == 3
        elif k == ti:
            assert not c
        else:
            assert c.rational_part() == 3
    assert ring.pairing_nondegenerate()
    assert ring.trace == (Fraction(1, 6), 0, 0)


def test_dw_dimension_matches_classes():
    for name in ("Z5", "Z8", "S3", "S4", "D4", "Q8", "Z2xZ2"):
        G = catalog_group(name)
        assert dw_frobenius(G).dim == len(conjugacy_classes(G).classes)


def test_twisted_center_dims():
    G = catalog_group("Z2xZ2")
    assert twisted_center(G, catalog_cocycle(G, "nontrivial")).dim == 1
    assert twisted_center(G, trivial_cocycle(G)).dim == 4
    # trivial cocycle reproduces the class algebra structure constants
    S3 = catalog_group("S3")
    tw = twisted_center(S3, trivial_cocycle(S3))
    dw = dw_frobenius(S3)
    assert tw.dim == dw.dim
    for i in range(tw.dim):
        for j in range(tw.dim):
            got = [c.rational_part() for c in tw.structure[i][j]]
            want = [c.rational_part() for c in dw.structure[i][j]]
            assert got == want


def test_twisted_center_refuses_a_cocycle_on_another_group():
    # refused before either table is read: unchecked, these read out of range or build a wrong ring
    for group, other in (("Z2", "Z3"), ("Z3", "Z2"), ("Z4", "Z2xZ2"), ("S3", "Z6")):
        with pytest.raises(SectorError, match=f"^cocycle is on {other}, not on {group}$"):
            twisted_center(catalog_group(group), trivial_cocycle(catalog_group(other)))


def test_twisted_center_abelian_dimension_formula():
    G = catalog_group("Z2xZ2")
    alpha = catalog_cocycle(G, "nontrivial")
    expected = sum(
        1
        for g in range(4)
        if all(alpha.table[g][h] == alpha.table[h][g] for h in range(4))
    )
    assert twisted_center(G, alpha).dim == expected == 1


def test_twisted_center_refuses_a_class_without_a_central_sum(monkeypatch):
    # under the nontrivial cocycle on Z2xZ2 only the identity is alpha-regular; fed
    # every class rep, the torsion row of rep 1 gives one conjugate a second phase
    G = catalog_group("Z2xZ2")
    monkeypatch.setattr(sector, "alpha_regular_reps", lambda alpha: list(conjugacy_classes(G).reps))
    with pytest.raises(SectorError, match="^twisted class sum for rep 1 is not central$"):
        twisted_center(G, catalog_cocycle(G, "nontrivial"))


def test_twisted_center_dim_equals_regular_count_random_coboundary():
    rng = random.Random(9)
    G = catalog_group("Z2xZ2")
    alpha = catalog_cocycle(G, "nontrivial")
    for _ in range(5):
        beta = [Phase.one()] + [Phase.of(rng.randrange(8), 8) for _ in range(3)]
        alpha2 = alpha * coboundary(G, beta)
        tau = discrete_torsion(alpha2)
        regular = sum(
            1
            for g in range(4)
            if all(tau.tau[g][h].is_one() for h in range(4) if G.mul(g, h) == G.mul(h, g))
        )
        assert twisted_center(G, alpha2).dim == regular == 1


def test_morita_positive_pairs_with_witness():
    for gn, hn in [("S3", "Z2"), ("S3", "Z3"), ("S4", "S3"), ("Z4", "Z2")]:
        G, H = catalog_subgroup(gn, hn)
        rep = morita_compare(coset_gset(G, H), point_gset(catalog_group(hn)))
        assert rep.isomorphic is True
        assert rep.witness is not None
        assert rep.dim_left == rep.dim_right


def test_morita_negative_cases():
    rep = morita_compare(point_gset(catalog_group("Z2")), point_gset(catalog_group("Z3")))
    assert rep.isomorphic is False and rep.obstruction == "dimension mismatch"
    rep2 = morita_compare(point_gset(catalog_group("Z4")), point_gset(catalog_group("Z2xZ2")))
    assert rep2.isomorphic is False
    assert "spectrum" in rep2.obstruction
    assert rep2.component_degrees_left == [1, 1, 2]
    assert rep2.component_degrees_right == [1, 1, 1, 1]


def test_morita_splitting_fields_differ():
    # Z3 on a point and a free orbit: Q + Q + Q(sqrt -3); point:Z4: Q + Q + Q(i)
    Z3 = catalog_group("Z3")
    X = GSet.from_table(Z3, [[0, 0, 0]] + [[1 + (x - 1 + g) % 3 for g in range(3)] for x in range(1, 4)])
    Y = point_gset(catalog_group("Z4"))
    for left, right in ((X, Y), (Y, X)):
        assert morita_compare(left, right).to_json() == {
            "dim_left": 4,
            "dim_right": 4,
            "isomorphic": False,
            "obstruction": "spectrum mismatch: splitting fields differ",
            "detail": "",
            "component_degrees_left": [1, 1, 2],
            "component_degrees_right": [1, 1, 2],
        }


def test_morita_self_translation_vs_trivial_point():
    rep = morita_compare(translation_gset(catalog_group("S3")), point_gset(catalog_group("Z1")))
    assert rep.isomorphic is True


def test_morita_degree_above_two_is_inconclusive():
    for name, degrees in [("Z5", [1, 4]), ("Z7", [1, 6]), ("Z8", [1, 1, 2, 4])]:
        X = point_gset(catalog_group(name))
        rep = morita_compare(X, X)
        assert rep.isomorphic is None and rep.obstruction is None
        assert rep.component_degrees_left == rep.component_degrees_right == degrees
        assert rep.detail == "component of degree > 2; inconclusive"


def test_morita_z11_factors_exactly():
    # floating-point root hints used to lose the degree-10 factor of Z11
    X = point_gset(catalog_group("Z11"))
    rep = morita_compare(X, X)
    assert rep.component_degrees_left == rep.component_degrees_right == [1, 10]
    assert rep.detail == "component of degree > 2; inconclusive"


_PINNED_WITNESSES = {
    ("coset:S3:Z2", "point:Z2"): ([1, 1], [["1", "0"], ["0", "1"]]),
    ("coset:S3:Z3", "point:Z3"): ([1, 2], [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
    ("coset:S4:S3", "point:S3"): (
        [1, 1, 1],
        [["1", "3/2", "3/2"], ["0", "1/2", "-1/2"], ["0", "-3/2", "-1/2"]],
    ),
    ("coset:Z4:Z2", "point:Z2"): ([1, 1], [["1", "0"], ["0", "1"]]),
    ("point:D4", "point:Q8"): (
        [1, 1, 1, 1, 1],
        [
            ["1", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "1"],
            ["0", "-1", "0", "0", "0"],
            ["0", "0", "0", "1", "0"],
            ["0", "0", "-1", "0", "0"],
        ],
    ),
    ("point:Z6", "point:Z6"): (
        [1, 1, 2, 2],
        [
            ["1", "0", "0", "0", "0", "0"],
            ["0", "0", "0", "0", "0", "-1"],
            ["0", "0", "0", "0", "1", "0"],
            ["0", "0", "0", "-1", "0", "0"],
            ["0", "0", "1", "0", "0", "0"],
            ["0", "-1", "0", "0", "0", "0"],
        ],
    ),
}


def _gset(spec):
    kind, _, rest = spec.partition(":")
    if kind == "point":
        return point_gset(catalog_group(rest))
    if kind == "self":
        return translation_gset(catalog_group(rest))
    return coset_gset(*catalog_subgroup(*rest.split(":")))


@pytest.mark.parametrize("left,right", sorted(_PINNED_WITNESSES))
def test_morita_witness_pinned(left, right):
    degrees, witness = _PINNED_WITNESSES[left, right]
    rep = morita_compare(_gset(left), _gset(right), seed=46)
    assert rep.to_json() == {
        "dim_left": len(witness),
        "dim_right": len(witness),
        "isomorphic": True,
        "obstruction": None,
        "detail": "rational basis change verified on all basis pairs",
        "component_degrees_left": degrees,
        "component_degrees_right": degrees,
        "witness": witness,
    }


@pytest.mark.parametrize(
    "name,degrees",
    [
        ("Z9", [1, 2, 6]),
        ("Z10", [1, 1, 4, 4]),
        ("Z12", [1, 1, 2, 2, 2, 4]),
        ("Z13", [1, 12]),
        ("Z17", [1, 16]),
        ("Z19", [1, 18]),
    ],
)
def test_probe_split_component_degrees(name, degrees):
    # Q[Zn] is the sum of Q(zeta_d) over d | n
    ring = orbifold_string_ring(point_gset(catalog_group(name)))
    _, factors = _probe_split(ring, random.Random(7))
    assert [len(f) - 1 for f in factors] == degrees


def test_probe_split_divides_once_per_factor(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(len(b) - 1)
        return _poly_divmod(a, b)

    monkeypatch.setattr(sector, "_poly_divmod", counted)
    ring = orbifold_string_ring(point_gset(catalog_group("Z13")))
    _, factors = _probe_split(ring, random.Random(7))
    assert sorted(calls) == [len(f) - 1 for f in factors] == [1, 12]


@pytest.mark.parametrize("spec", ["coset:S4:S3", "point:S4", "point:Z6", "point:D4", "point:Z13"])
def test_probe_split_powers_are_int(spec):
    powers, factors = _probe_split(orbifold_string_ring(_gset(spec)), random.Random(7))
    assert all(type(c) is int for row in powers for c in row)
    assert all(type(c) is int for f in factors for c in f)


def test_crt_solves_every_congruence():
    # distinct monic irreducibles (cyclotomic, x^2 - p, x - a) and rational alpha
    # of any degree, also at or above deg g: h has n coefficients and h - alpha
    # is divisible by each g
    rng = random.Random(21)
    irreducibles = [list(cyclotomic_poly(d)) for d in range(1, 16)]
    irreducibles += [[-p, 0, 1] for p in (2, 3, 5, 7)] + [[-a, 1] for a in (0, 2, -3, 5)]
    for _ in range(300):
        gs = rng.sample(irreducibles, rng.randint(1, 4))
        n = sum(len(g) - 1 for g in gs)
        matched = [
            (g, [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, len(g) + 3))])
            for g in gs
        ]
        h = _crt(matched, n)
        assert len(h) == n
        for g, alpha in matched:
            diff = [(h[k] if k < n else 0) - (alpha[k] if k < len(alpha) else 0) for k in range(max(n, len(alpha)))]
            scale = lcm(*(c.denominator for c in diff))
            assert not any(_poly_divmod([int(c * scale) for c in diff], g)[1])


_SWEEP = (
    ["coset:S3:Z2", "coset:S3:Z3", "coset:S4:S3", "coset:Z4:Z2"]
    + [f"point:{name}" for name in CATALOG_NAMES]
    + ["self:S3", "self:Z4", "self:Z2xZ2"]
)


def test_morita_sweep_digest():
    # all 400 ordered pairs at seed 46; the digest was computed before the
    # factorization moved to Galois orbits
    digest = hashlib.sha256()
    gsets = [_gset(spec) for spec in _SWEEP]
    for X in gsets:
        for Y in gsets:
            digest.update(json.dumps(morita_compare(X, Y, seed=46).to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "e82d348884ca58797405e00fc09026138fb4143c962d46cdc713a0a49844c331"


def test_factor_rejects_a_repeated_root():
    # (x - 1)^2 (x - 2) has two distinct roots modulo every prime, never three,
    # so the search for a split prime gives up
    with pytest.raises(SectorError, match="^rational factorization failed$"):
        _factor_monic_over_q([-2, 5, -4, 1], [], 2)


def _squarefree_core(q):
    """Oracle: q = s^2 * d with s > 0 and d a squarefree integer (sign included),
    by trial division; returns (s, d)."""
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


def test_rational_sqrt_matches_squarefree_core_oracle():
    # Q(sqrt d1) = Q(sqrt d2) iff d1 / d2 is a rational square, and its root is s1 / s2
    rng = random.Random(19)
    cores = [-15, -7, -5, -3, -2, -1, 2, 3, 5, 6, 10]
    shared = 0
    for _ in range(3000):
        c1 = rng.choice(cores)
        c2 = c1 if rng.random() < 0.5 else rng.choice(cores)
        d1, d2 = (Fraction(rng.randint(1, 40), rng.randint(1, 40)) ** 2 * c for c in (c1, c2))
        (s1, k1), (s2, k2) = _squarefree_core(d1), _squarefree_core(d2)
        assert (k1, k2) == (c1, c2) and s1 > 0 and s2 > 0
        shared += c1 == c2
        assert _rational_sqrt(d1 / d2) == (s1 / s2 if c1 == c2 else None)
    assert 1400 < shared < 1800
    assert _rational_sqrt(Fraction(-4, 9)) is None and _rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)


def _patch_solve(monkeypatch, caller, edit):
    """Pass every solution of a Morita solve called from `caller` through edit."""
    solve = sector._int_solve

    def patched(*args):
        sol = solve(*args)
        return edit(sol) if sys._getframe(1).f_code.co_name == caller else sol

    monkeypatch.setattr(sector, "_int_solve", patched)


@pytest.mark.parametrize(
    "column,detail",
    [
        (1, "witness failed the homomorphism check; inconclusive"),
        (0, "witness does not map unit to unit; inconclusive"),
    ],
)
def test_morita_witness_gates_fire(monkeypatch, column, detail):
    # row i of the witness solve is T e_i; adding e_0 to T e_0 moves the unit
    # e_0 of point:S3, adding it to T e_1 keeps the unit but breaks e_1 e_1
    def bump(sol):
        return [[c + 1 if (i, k) == (column, 0) else c for k, c in enumerate(row)] for i, row in enumerate(sol)]

    _patch_solve(monkeypatch, "morita_compare", bump)
    X = point_gset(catalog_group("S3"))
    assert orbifold_string_ring(X).unit_coords == {0: 1}
    rep = morita_compare(X, X, seed=46)
    assert (rep.isomorphic, rep.obstruction, rep.witness, rep.detail) == (None, None, None, detail)


def test_morita_singular_witness_is_inconclusive(monkeypatch):
    # a _crt that sends every component to the root of the left ring's first
    # linear factor gives a constant h: the witness A -> Q -> B is a unital
    # homomorphism of rank 1, which the unit and product checks both accept
    real = sector._crt
    monkeypatch.setattr(sector, "_crt", lambda matched, n: real([(g, matched[0][1]) for g, _ in matched], n))
    X = point_gset(catalog_group("S3"))
    rep = morita_compare(X, X, seed=46)
    assert (rep.isomorphic, rep.obstruction, rep.witness) == (None, None, None)
    assert rep.detail == "witness is not invertible; inconclusive"


def test_morita_invertibility_falls_back_to_exact_echelon(monkeypatch):
    # a dependence modulo the prime is not yet a singular witness
    X = point_gset(catalog_group("S3"))
    want = morita_compare(X, X, seed=46).to_json()
    real = sector._echelon_insert_mod

    def dependent(rows, v, p):
        """A dependence on every column of the witness, read from morita_compare's generator."""
        if sys._getframe(1).f_code.co_name == "<genexpr>" and sys._getframe(2).f_code.co_name == "morita_compare":
            return {}
        return real(rows, v, p)

    monkeypatch.setattr(sector, "_echelon_insert_mod", dependent)
    assert morita_compare(X, X, seed=46).to_json() == want and want["isomorphic"] is True

def test_probe_minimal_polynomial_gate_fires(monkeypatch):
    # a solution whose x^n column is not integral
    _patch_solve(monkeypatch, "_probe_split", lambda sol: [[row[0] + Fraction(1, 2)] + row[1:] for row in sol])
    X = point_gset(catalog_group("S3"))
    with pytest.raises(SectorError, match="^minimal polynomial of an integral probe is not integral$"):
        morita_compare(X, X, seed=46)


def test_ring_json():
    ring = dw_frobenius(catalog_group("S3"))
    blob = ring.to_json()
    assert blob["dim"] == 3 and blob["level"] == 1
    assert all(len(t) == 4 for t in blob["structure"])
    tw = twisted_center(catalog_group("Z2xZ2"), catalog_cocycle(catalog_group("Z2xZ2"), "nontrivial"))
    blob2 = tw.to_json()
    assert blob2["dim"] == 1


def test_sector_product_associative_order8_group():
    # exhaustive triple check with |G| = 8 on a 4-point action
    D4 = catalog_group("D4")
    # D4 is built from permutations of the square's corners; recover that action
    from orbistring.groups import perm_closure

    perms = perm_closure([[1, 2, 3, 0], [3, 2, 1, 0]])
    X = GSet.from_table(D4, [[perms[g][m] for g in range(8)] for m in range(4)])
    basis = sector_basis(X)
    for a in basis:
        for b in basis:
            for c in basis:
                ab = sector_product(X, a, b)
                bc = sector_product(X, b, c)
                lhs = {}
                for p, cf in ab.items():
                    for q, cf2 in sector_product(X, p, c).items():
                        lhs[q] = lhs.get(q, 0) + cf * cf2
                rhs = {}
                for p, cf in bc.items():
                    for q, cf2 in sector_product(X, a, p).items():
                        rhs[q] = rhs.get(q, 0) + cf * cf2
                assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}


def test_twisted_pairing_nondegenerate():
    G = catalog_group("Z2xZ2")
    for alpha in (trivial_cocycle(G), catalog_cocycle(G, "nontrivial")):
        ring = twisted_center(G, alpha)
        assert ring.pairing_nondegenerate()


def test_pairing_matrix_is_cyclo_trace_of_products():
    G = catalog_group("Z2xZ2")
    for ring in (dw_frobenius(catalog_group("S3")), twisted_center(G, catalog_cocycle(G, "nontrivial"))):
        pairing = ring.pairing_matrix()
        for i in range(ring.dim):
            for j in range(ring.dim):
                c = pairing[i][j]
                assert isinstance(c, Cyclo) and c.level == ring.level
                prod = ring.mult(ring.basis_vector(i), ring.basis_vector(j))
                assert c == sum((a * t for a, t in zip(prod, ring.trace)), Cyclo.zero(ring.level))


def test_dense_views_are_cyclo_at_ring_level():
    # structure and unit are derived from the sparse table for readers outside
    # the checks, which call Cyclo methods on every entry
    G = catalog_group("Z2xZ2")
    rings = [
        dw_frobenius(catalog_group("S3")),
        orbifold_string_ring(coset_gset(*catalog_subgroup("S4", "S3"))),
        twisted_center(G, catalog_cocycle(G, "nontrivial")),
        _level8_center(),
    ]
    assert [r.level for r in rings] == [1, 1, 2, 8]
    for ring in rings:
        assert all(isinstance(c, Cyclo) and c.level == ring.level for c in ring.unit)
        for i in range(ring.dim):
            for j in range(ring.dim):
                row = ring.structure[i][j]
                assert all(isinstance(c, Cyclo) and c.level == ring.level for c in row)
                assert list(row) == ring.mult(ring.basis_vector(i), ring.basis_vector(j))


def _repeat_pairing_row(monkeypatch):
    """Make row 1 of every trace pairing a copy of row 0."""
    pairing = sector._pairing

    def patched(*args):
        rows = pairing(*args)
        rows[1] = type(rows[0])(rows[0])
        return rows

    monkeypatch.setattr(sector, "_pairing", patched)


def test_pairing_gates_fire_on_a_repeated_row(monkeypatch):
    tw = _level8_center()
    assert (tw.level, tw.dim) == (8, 4)
    _repeat_pairing_row(monkeypatch)
    with pytest.raises(SectorError, match="^Frobenius pairing is degenerate$"):
        dw_frobenius(catalog_group("S3"))
    with pytest.raises(SectorError, match="^twisted Frobenius pairing is degenerate$"):
        _level8_center()


def test_traceless_ring_has_no_pairing():
    ring = orbifold_string_ring(point_gset(catalog_group("S3")))
    assert ring.trace is None
    for method in (ring.pairing_nondegenerate, ring.pairing_matrix):
        with pytest.raises(SectorError, match="^ring has no trace$"):
            method()


def _corrupt_constant(ring, i, j, k, change):
    row = dict(ring.table.get((i, j), ()))
    row[k] = change(row.get(k, 0 if ring.level == 1 else Cyclo.zero(ring.level)))
    table = dict(ring.table)
    table[i, j] = tuple(sorted((m, c) for m, c in row.items() if c))
    return sector.SectorRing(ring.labels, ring.level, table, ring.unit_coords, ring.trace)


def _corrupt_unit(ring, i, value):
    unit = dict(ring.unit_coords)
    unit[i] = value
    return sector.SectorRing(ring.labels, ring.level, ring.table, unit, ring.trace)


def _level8_center():
    # Z4 twisted by a coboundary of denominator 8: constants -z^3 and -z^2 at level 8
    Z4 = catalog_group("Z4")
    beta = [Phase.one(), Phase.of(1, 8), Phase.of(3, 8), Phase.of(5, 8)]
    return twisted_center(Z4, trivial_cocycle(Z4) * coboundary(Z4, beta))


def test_check_associative_names_corrupted_triple():
    dw = dw_frobenius(catalog_group("S3"))  # level 1, classes e, transpositions, 3-cycles
    assert dw.level == 1
    tw = _level8_center()
    assert tw.level == 8
    z = Cyclo.root(8, 1)
    cases = [
        (dw, (1, 1, 0), lambda c: c + 1, "(1,1,2)"),
        (dw, (2, 1, 1), lambda c: c * 2, "(1,1,1)"),
        (tw, (1, 2, 3), lambda c: c * z, "(1,1,1)"),
        (tw, (3, 3, 2), lambda c: c + z, "(1,2,3)"),
    ]
    for ring, (i, j, k), change, witness in cases:
        ring.check_associative()
        with pytest.raises(SectorError, match=re.escape(f"associativity fails at basis triple {witness}")):
            _corrupt_constant(ring, i, j, k, change).check_associative()


def test_orbit_constant_gate_fires(monkeypatch):
    # splitting the transposition orbit of point:S4 in two makes the orbit sums
    # fail to close: a product is no longer constant on the fake orbits
    X = point_gset(catalog_group("S4"))
    orbits = sector.sector_orbits(X)
    assert [len(o) for o in orbits] == [1, 6, 8, 3, 6]
    fake = orbits[:1] + [orbits[1][:1], orbits[1][1:]] + orbits[2:]
    monkeypatch.setattr(sector, "sector_orbits", lambda X: fake)
    with pytest.raises(SectorError, match="^product failed to be orbit-constant$"):
        orbifold_string_ring(X)


def test_check_unit_names_corrupted_element():
    dw = dw_frobenius(catalog_group("S3"))
    tw = _level8_center()
    z = Cyclo.root(8, 1)
    bad = [
        _corrupt_unit(dw, 2, 1),
        _corrupt_unit(dw, 0, 2),
        _corrupt_unit(tw, 1, z),
        _corrupt_unit(tw, 0, z),
    ]
    for ring in bad:
        with pytest.raises(SectorError, match=r"^unit law fails at basis element 0$"):
            ring.check_unit()
    # a corrupted row of the unit's products names the element it breaks
    for ring, value in ((dw, 2), (tw, z)):
        ring.check_unit()
        with pytest.raises(SectorError, match=r"^unit law fails at basis element 2$"):
            _corrupt_constant(ring, 0, 2, 2, lambda c: c * value).check_unit()


def test_twisted_center_rejects_non_regular_class(monkeypatch):
    # the class of a non-alpha-regular element has no central twisted class sum
    G = catalog_group("Z2xZ2")
    alpha = catalog_cocycle(G, "nontrivial")
    regular = sector.alpha_regular_reps(alpha)
    assert regular == [0]
    monkeypatch.setattr(sector, "alpha_regular_reps", lambda a: regular + [1])
    with pytest.raises(SectorError, match=r"^twisted class sum for rep 1 is not central$"):
        twisted_center(G, alpha)


def test_twisted_center_rejects_missing_class(monkeypatch):
    # without the 3-cycles, (sum of transpositions)^2 leaves the span
    S3 = catalog_group("S3")
    alpha = trivial_cocycle(S3)
    regular = sector.alpha_regular_reps(alpha)
    assert regular == [0, 1, 3]
    monkeypatch.setattr(sector, "alpha_regular_reps", lambda a: regular[:2])
    with pytest.raises(SectorError, match=r"^twisted product left the span of the twisted class sums$"):
        twisted_center(S3, alpha)


def _frontier_exponents(G, alpha, rep):
    """Oracle: the twisted class sum of rep as {x: e}, spread from coefficient 1
    at rep over its class by u_h u_x u_h^-1 = zeta_N^k u_(h x h^-1); None when a
    conjugate is reached at two phases, so that no central sum has coefficient 1 at rep."""
    N, a, mul, inv = alpha.modulus, alpha.exps, G.mult, G.inv
    exps = {rep: 0}
    frontier = [rep]
    while frontier:
        x = frontier.pop()
        for h in range(G.order):
            y = mul[mul[h][x]][inv[h]]
            e = (a[h][x] + a[mul[h][x]][inv[h]] - a[h][inv[h]] + exps[x]) % N
            if y not in exps:
                exps[y] = e
                frontier.append(y)
            elif exps[y] != e:
                return None
    return exps


def _class_sum_inputs():
    """Every catalog group, on the trivial base and on Z2xZ2's nontrivial one,
    twisted by a coboundary at denominators 1 to 48."""
    rng = random.Random(28)
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        bases = [trivial_cocycle(G)] + ([catalog_cocycle(G, "nontrivial")] if name == "Z2xZ2" else [])
        for base in bases:
            for den in (1, 2, 3, 4, 8, 12, 48):
                beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
                yield G, base * coboundary(G, beta)


def test_class_sums_read_off_the_torsion_rows_match_the_frontier_oracle():
    regular_seen = irregular_seen = 0
    for G, alpha in _class_sum_inputs():
        regular = alpha_regular_reps(alpha)
        for r in G.conjugacy.reps:
            row = _torsion_row(alpha, r)
            read = {}
            for h, y in enumerate(G.conjugation[r]):
                read.setdefault(y, set()).add(row[h])
            oracle = _frontier_exponents(G, alpha, r)
            if r in regular:
                regular_seen += 1
                assert {y: e for y, (e,) in read.items()} == oracle, (G.name, alpha, r)
            else:
                # no central sum: the row gives some conjugate two exponents
                irregular_seen += 1
                assert oracle is None and any(len(es) > 1 for es in read.values()), (G.name, alpha, r)
    assert (regular_seen, irregular_seen) == (413, 21)


def test_twisted_center_digest_over_the_class_sum_inputs():
    lines = [json.dumps(twisted_center(G, alpha).to_json(), sort_keys=True) for G, alpha in _class_sum_inputs()]
    assert len(lines) == 98
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0613469070123c27cb3b4d6ed9530d0d6e492573b2ca12f7a8659870e5c398d2"


def test_dw_frobenius_reduces_its_ring_mod_the_prime_once(monkeypatch):
    calls = []
    prime_root = sector._prime_root
    monkeypatch.setattr(sector, "_prime_root", lambda *args: calls.append(args) or prime_root(*args))
    ring = dw_frobenius(catalog_group("S3"))
    assert len(calls) == 1
    assert ring.meta.keys() == {"orbits", "gset"}


_TWISTS = tuple((g, base, (8, 16, 48)) for g, base in (
    ("Z4", "trivial"),
    ("Z6", "trivial"),
    ("Z8", "trivial"),
    ("Z2xZ2", "trivial"),
    ("Z2xZ2", "nontrivial"),
    ("S3", "trivial"),
    ("D4", "trivial"),
    ("Q8", "trivial"),
)) + (("S4", "trivial", (8,)),)


def _digest_rings():
    rng = random.Random(61)
    for name, base, dens in _TWISTS:
        G = catalog_group(name)
        alpha = catalog_cocycle(G, base)
        for den in dens:
            for _ in range(2):
                beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
                yield twisted_center(G, alpha * coboundary(G, beta))
    for name in CATALOG_NAMES:
        yield dw_frobenius(catalog_group(name))
    for spec in _SWEEP:
        yield orbifold_string_ring(_gset(spec))


def test_sector_ring_digest():
    # twisted centers over Q(zeta_8/16/48), the 13 DW rings and the 20 sweep
    # string rings; the digest was computed before the exact core moved to
    # integer numerators
    digest = hashlib.sha256()
    for ring in _digest_rings():
        digest.update(json.dumps(ring.to_json(), sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == "51c185266a365ee3fcdf2391a1036827546b1daea78275c51b0be1356f86c403"


def _crit03_centers():
    """The twisted centers criterion 03 builds at seed 42: each base cocycle's
    center once, then the 50 centers twisted by a random coboundary."""
    rng = random.Random(42 + 3)
    for name in [n for n in CATALOG_NAMES if n.startswith("Z") and n != "Z2xZ2"] + ["Z2xZ2"]:
        G = catalog_group(name)
        bases = [trivial_cocycle(G)] + ([catalog_cocycle(G, "nontrivial")] if name == "Z2xZ2" else [])
        for alpha in bases:
            yield twisted_center(G, alpha)
            for _ in range(50):
                den = 2 * G.order
                beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
                yield twisted_center(G, alpha * coboundary(G, beta))


def test_generators_pinned():
    # the catalog point rings, the coset rings of the sweep and criterion 03's
    # twisted centers; the digest was computed with the elimination inside
    # _generators, before it moved to cyclo
    rings = [orbifold_string_ring(_gset(spec)) for spec in _SWEEP if spec.startswith(("point:", "coset:"))]
    rings += _crit03_centers()
    digest = hashlib.sha256()
    for ring in rings:
        digest.update(json.dumps(ring._generators()).encode() + b"\n")
    assert len(rings) == 4 + len(CATALOG_NAMES) + 51 * 10
    assert digest.hexdigest() == "d773e628c248ecd23dc26ba3427a939bccc94fd19aef05033e2adad501e77747"


def _oracle_associativity(ring):
    """The full scan over all n^3 basis triples, on products read straight from
    the table: the message naming the first failing triple, or None."""
    table, n = ring.table, ring.dim

    def times(u, v):
        out = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for k, c in table.get((a, b), ()):
                    out[k] = out.get(k, 0) + ca * cb * c
        return {k: c for k, c in out.items() if c}

    for i in range(n):
        for j in range(n):
            for k in range(n):
                ei, ej, ek = {i: 1}, {j: 1}, {k: 1}
                if times(times(ei, ej), ek) != times(ei, times(ej, ek)):
                    return f"associativity fails at basis triple ({i},{j},{k})"
    return None


def _oracle_rings():
    """DW rings, twisted centers at levels 1, 8, 16 and 48, and coset string rings."""
    rng = random.Random(83)
    rings = [dw_frobenius(catalog_group(name)) for name in CATALOG_NAMES]
    for name, base, _ in _TWISTS:
        G = catalog_group(name)
        alpha = catalog_cocycle(G, base)
        rings.append(twisted_center(G, alpha))
        for den in (8, 16, 48):
            beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
            rings.append(twisted_center(G, alpha * coboundary(G, beta)))
    rings += [orbifold_string_ring(_gset(spec)) for spec in _SWEEP if spec.startswith("coset:")]
    return rings


def test_check_associative_matches_full_scan_oracle():
    rng = random.Random(5)
    rings = _oracle_rings()
    assert {r.level for r in rings} >= {1, 2, 8, 16, 48}
    for ring in rings:
        assert _oracle_associativity(ring) is None
        ring.check_associative()
    failing = 0
    for _ in range(600):
        ring = rng.choice(rings)
        n, z = ring.dim, Cyclo.root(ring.level, rng.randrange(ring.level))
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.5:
            delta = rng.choice([1, -1, 2, z])
            bad = _corrupt_constant(ring, i, j, k, lambda c: c + delta)
        else:
            factor = rng.choice([0, -1, 2, z])
            bad = _corrupt_constant(ring, i, j, k, lambda c: c * factor)
        want = _oracle_associativity(bad)
        if want is None:
            bad.check_associative()
        else:
            failing += 1
            with pytest.raises(SectorError) as err:
                bad.check_associative()
            assert str(err.value) == want
    assert failing >= 250
    # symmetric corruptions change c_ij^k and c_ji^k together, so the table stays
    # commutative and the generator pass runs over the pairs i < k only
    failing = 0
    for _ in range(300):
        ring = rng.choice(rings)
        n, z = ring.dim, Cyclo.root(ring.level, rng.randrange(ring.level))
        i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        delta = rng.choice([1, -1, 2, z])
        bad = _corrupt_constant(ring, i, j, k, lambda c: c + delta)
        if i != j:
            bad = _corrupt_constant(bad, j, i, k, lambda c: c + delta)
        assert bad.is_commutative()
        want = _oracle_associativity(bad)
        if want is None:
            bad.check_associative()
        else:
            failing += 1
            with pytest.raises(SectorError) as err:
                bad.check_associative()
            assert str(err.value) == want
    assert failing >= 200


def _z8_center_16():
    # Z8 twisted by a coboundary of denominator 16: the ring of e_1's powers
    Z8 = catalog_group("Z8")
    beta = [Phase.of(k, 16) for k in (0, 4, 2, 8, 3, 15, 14, 15)]
    return twisted_center(Z8, trivial_cocycle(Z8) * coboundary(Z8, beta))


def _expand_calls(monkeypatch, ring) -> int:
    """The number of sector._expand calls in one passing check_associative."""
    calls = []

    def counted(terms, sparse):
        calls.append(1)
        return expand(terms, sparse)

    expand = sector._expand
    monkeypatch.setattr(sector, "_expand", counted)
    ring.check_associative()
    return len(calls)


def test_check_associative_multiplies_generator_triples_only(monkeypatch):
    ring = _z8_center_16()
    assert (ring.level, ring.dim, ring._generators()) == (16, 8, [1])
    # the table is commutative: two expansions per pair i < k for the one generator
    assert _expand_calls(monkeypatch, ring) == 2 * (8 * 7 // 2)


def test_check_associative_scans_all_pairs_of_a_noncommutative_ring(monkeypatch):
    # M_2(Q) on the matrix units E11, E12, E21, E22 (E_ab E_cd = [b = c] E_ad),
    # with unit E11 + E22: associative and not commutative
    table = {}
    for a, b, c, d in product((0, 1), repeat=4):
        if b == c:
            table[2 * a + b, 2 * c + d] = ((2 * a + d, 1),)
    ring = sector.SectorRing(("E11", "E12", "E21", "E22"), 1, table, {0: 1, 3: 1})
    assert not ring.is_commutative() and ring._generators() == [1, 2]
    ring.check_unit()
    assert _oracle_associativity(ring) is None
    # two expansions per pair (i, k), all n^2 of them, for each of the two generators
    assert _expand_calls(monkeypatch, ring) == 2 * 2 * 4**2
    for (i, j, k), value in (((0, 1, 1), 2), ((1, 2, 0), 0), ((3, 3, 1), 1), ((2, 1, 3), -1)):
        bad = _corrupt_constant(ring, i, j, k, lambda c: value)
        want = _oracle_associativity(bad)
        assert want is not None and not bad.is_commutative(), (i, j, k)
        with pytest.raises(SectorError) as err:
            bad.check_associative()
        assert str(err.value) == want, (i, j, k)


def test_check_associative_catches_triples_off_the_generators():
    # the corrupted constant's middle index is not a generator; on Z8 neither
    # is the middle index of the triple the full scan names
    z8, dw = _z8_center_16(), dw_frobenius(catalog_group("D4"))
    assert dw._generators() == [1, 2, 4]
    z = Cyclo.root(16, 1)
    cases = [
        (z8, (3, 4, 7), lambda c: c * z, "(1,2,4)"),
        (z8, (0, 2, 2), lambda c: c * z, "(0,0,2)"),
        (z8, (5, 6, 3), lambda c: c + 1, "(1,4,6)"),
        (dw, (1, 3, 0), lambda c: c + 1, "(1,1,2)"),
    ]
    for ring, (i, j, k), change, witness in cases:
        bad = _corrupt_constant(ring, i, j, k, change)
        assert j not in bad._generators()
        with pytest.raises(SectorError, match=re.escape(f"associativity fails at basis triple {witness}")):
            bad.check_associative()


def _lifted_image(ring):
    """Oracle: the lift mapped by x -> zeta_level through Cyclo sums, zero images dropped."""
    image = {}
    for key, row in ring.lift.items():
        values = [(k, sum((m * Cyclo.root(ring.level, t) for t, m in c.items()), Cyclo.zero(ring.level))) for k, c in row]
        if nonzero := tuple((k, v) for k, v in values if v):
            image[key] = nonzero
    return image


def _tables_expanded(monkeypatch, ring, check):
    """For each sector._expand call in check(), whether it ran on the lift (True) or the table (False)."""
    seen = []
    expand = sector._expand
    monkeypatch.setattr(sector, "_expand", lambda terms, sparse: seen.append(sparse is ring.lift) or expand(terms, sparse))
    check()
    monkeypatch.setattr(sector, "_expand", expand)
    return seen


def _counted_cyclo_products(monkeypatch):
    """A list that gains one entry per Cyclo product, either operand order."""
    calls = []
    times = Cyclo.__mul__

    def counted(self, other):
        calls.append(1)
        return times(self, other)

    monkeypatch.setattr(Cyclo, "__mul__", counted)
    monkeypatch.setattr(Cyclo, "__rmul__", counted)
    return calls


def test_lift_is_set_only_by_twisted_center():
    ring = _z8_center_16()
    assert ring.lift is not None and _lifted_image(ring) == ring.table
    assert "lift" not in repr(ring)
    with pytest.raises(TypeError):
        sector.SectorRing(ring.labels, ring.level, ring.table, ring.unit_coords, lift=ring.lift)
    assert dataclasses.replace(ring).lift is None
    assert _corrupt_constant(ring, 0, 1, 1, lambda c: c).lift is None


def test_failed_lifted_checks_fall_back_to_the_exact_pass(monkeypatch):
    # 1 + x^8 maps to 1 + zeta_16^8 = 0, so adding it to a lifted constant
    # leaves the table as it is and breaks the lifted identities
    ring = _z8_center_16()
    bad = copy.copy(ring)
    kernel = sector._Roots(16, {0: 1, 8: 1})
    lift = dict(ring.lift)
    assert [k for k, _ in lift[0, 1]] == [1]
    lift[0, 1] = tuple((k, c + kernel) for k, c in lift[0, 1])
    object.__setattr__(bad, "lift", lift)
    assert _lifted_image(bad) == bad.table == ring.table
    assert bad._modular == ring._modular
    for check in ("check_associative", "check_unit"):
        # the passing ring decides on the lift alone, without a Cyclo product
        products = _counted_cyclo_products(monkeypatch)
        assert set(_tables_expanded(monkeypatch, ring, getattr(ring, check))) == {True}
        assert not products
        # the corrupted lift fails, and the exact pass runs and accepts
        seen = _tables_expanded(monkeypatch, bad, getattr(bad, check))
        assert True in seen and False in seen and seen.index(False) > 0
        assert products
    # a ring made by dataclasses.replace has no lift and names the same witness
    z = Cyclo.root(16, 1)
    corrupted = _corrupt_constant(ring, 3, 4, 7, lambda c: c * z)
    replaced = dataclasses.replace(ring, table=corrupted.table)
    assert replaced.lift is None
    for failing in (corrupted, replaced):
        with pytest.raises(SectorError, match=re.escape("associativity fails at basis triple (1,2,4)")):
            failing.check_associative()
    with pytest.raises(SectorError, match="^unit law fails at basis element 0$"):
        dataclasses.replace(ring, unit_coords={0: z}).check_unit()


def _d16_section_cocycle():
    """The cocycle s(g) s(h) s(gh)^-1 on D4 of the section s(r^i t^j) = R^i T^j
    of D16 -> D4 = D16/<R^4>, for the rotation r = (1,2,3,4) and reflection t =
    (1,4)(2,3) of the square and R, T of the octagon.  Its values lie in the
    center {1, R^4} of D16, read as the phases 1 and -1."""
    D4 = catalog_group("D4")
    r, t = D4.index_of_name("(1,2,3,4)"), D4.index_of_name("(1,4)(2,3)")
    powers = [0]
    for _ in range(3):
        powers.append(D4.mul(powers[-1], r))
    form = {D4.mul(powers[i], t if j else 0): (i, j) for i in range(4) for j in range(2)}
    assert len(form) == 8
    table = []
    for g in range(8):
        row = []
        for h in range(8):
            (i, j), (k, l) = form[g], form[h]
            # R^i T^j R^k T^l = R^(i +- k) T^(j + l), and s(gh) = R^m T^(j + l)
            m, _ = form[D4.mul(g, h)]
            row.append(Phase.of((i + (-k if j else k) - m) % 8 // 4, 2))
        table.append(row)
    return D4, make_cocycle(D4, table)


def _lift_inputs():
    """Every catalog group twisted by seeded coboundaries at denominators 8, 16
    and 48, on the trivial base and on Z2xZ2's nontrivial one; Z2xZ2's
    nontrivial cocycle itself; and D4 with the cocycle of D16 -> D4."""
    rng = random.Random(29)
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        bases = [trivial_cocycle(G)] + ([catalog_cocycle(G, "nontrivial")] if name == "Z2xZ2" else [])
        for base in bases:
            for den in (8, 16, 48):
                beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
                yield G, base * coboundary(G, beta)
    G = catalog_group("Z2xZ2")
    yield G, catalog_cocycle(G, "nontrivial")
    yield _d16_section_cocycle()


def test_d16_section_cocycle_is_not_a_coboundary():
    D4, alpha = _d16_section_cocycle()
    assert alpha.modulus == 2
    assert (alpha_regular_reps(alpha), len(D4.conjugacy.reps)) == ([0, 3], 5)


def test_lift_invariants(monkeypatch):
    seen = 0
    for G, alpha in _lift_inputs():
        products = _counted_cyclo_products(monkeypatch)
        ring = twisted_center(G, alpha)
        assert not products, (G.name, alpha)
        assert _lifted_image(ring) == ring.table, (G.name, alpha)
        exact = dataclasses.replace(ring)
        assert exact.lift is None and exact._modular == ring._modular, (G.name, alpha)
        # the lifted checks decide alone (a ring of dimension 1 has no pair i < k
        # to expand), and the exact checks agree with them
        for check in ("check_associative", "check_unit"):
            assert set(_tables_expanded(monkeypatch, ring, getattr(ring, check))) <= {True}, (G.name, alpha, check)
            assert set(_tables_expanded(monkeypatch, exact, getattr(exact, check))) <= {False}, (G.name, alpha, check)
        seen += 1
    assert seen == 3 * 14 + 2


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 6000) if _is_prime(n)] == [n for n in range(-3, 6000) if _trial_division_is_prime(n)]
    # around 2^31 trial division needs only the primes up to 46341
    small = [d for d in range(2, 46342) if _trial_division_is_prime(d)]
    window = range(2**31 - 300, 2**31 + 300)
    assert [n for n in window if _is_prime(n)] == [n for n in window if all(n % d for d in small)]
    # the least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7, 9 and 12 prime bases
    pseudoprimes = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321,
        3825123056546413051, 318665857834031151167461,
    )
    assert not any(_is_prime(n) for n in pseudoprimes)
    assert all(_is_prime(n) for n in (2**31 - 1, 10**9 + 7, 2**61 - 1))


@pytest.mark.parametrize("level", [1, 2, 3, 4, 6, 8, 12, 16, 48])
def test_prime_root_is_the_least_split_prime_with_a_primitive_root(level):
    p, omega = _prime_root(level, 2**31)
    assert p > 2**31 and (p - 1) % level == 0 and _is_prime(p)
    assert not any(_is_prime(q) for q in range(2**31 + 1, p) if (q - 1) % level == 0)
    assert [k for k in range(1, level + 1) if pow(omega, k, p) == 1] == [level]
    assert _eval_mod(list(cyclotomic_poly(level)), omega, p) == 0
    assert _prime_root(level, p)[0] > p


def _idempotent_pair(trace):
    """Q x Q on two orthogonal idempotents with the given trace, so that the
    pairing is diag(trace)."""
    table = {(0, 0): ((0, 1),), (1, 1): ((1, 1),)}
    return sector.SectorRing(("e0", "e1"), 1, table, {0: 1, 1: 1}, trace)


def _count_exact_echelon(monkeypatch):
    calls = []
    exact = sector._echelon_insert
    monkeypatch.setattr(sector, "_echelon_insert", lambda *args: calls.append(1) or exact(*args))
    return calls


def test_pairing_that_vanishes_mod_the_prime_is_decided_exactly(monkeypatch):
    calls = _count_exact_echelon(monkeypatch)
    p = _prime_root(1, 2**31)[0]
    ring = _idempotent_pair((1, p))  # diag(1, p): nondegenerate, singular mod p
    assert ring._modular[0] == p and ring._modular[2] == (1, 0)
    assert ring.pairing_nondegenerate() and calls
    calls.clear()
    assert not _idempotent_pair((1, 0)).pairing_nondegenerate() and calls
    calls.clear()
    assert _idempotent_pair((1, p + 1)).pairing_nondegenerate() and not calls
    # a denominator p moves the reduction on to the next prime
    ring = _idempotent_pair((1, Fraction(1, p)))
    assert ring._modular[0] == _prime_root(1, p)[0]
    assert ring.pairing_nondegenerate() and not calls


def test_pairing_runs_the_exact_echelon_only_after_a_dependence_mod_p(monkeypatch):
    calls = _count_exact_echelon(monkeypatch)
    rings = [ring for ring in _oracle_rings() if ring.trace is not None]
    assert len(rings) >= 40
    for ring in rings:
        zero, one = ring._scalars()
        rows = {}
        exact = sector._pairing(ring.dim, ring.table, ring.trace, zero)
        assert all(_echelon_insert(rows, row, zero, one) for row in exact)
        calls.clear()
        assert ring.pairing_nondegenerate() and not calls


def _square_vanishing_mod_p(level):
    """Q(zeta_level)[x]/(x^3) on the basis 1, x, y = x^2/c, with x x = c y for a
    constant c that is nonzero but vanishes modulo the ring's prime: c = p at
    level 1, c = zeta - omega above."""
    p, omega = _prime_root(level, 2**31)
    c = p if level == 1 else Cyclo.root(level, 1) - omega
    one = 1 if level == 1 else Cyclo.one(level)
    table = {(0, k): ((k, one),) for k in range(3)} | {(k, 0): ((k, one),) for k in range(3)}
    table[1, 1] = ((2, c),)
    return sector.SectorRing(("1", "x", "y"), level, table, {0: one})


def _exact_span_rank(ring, gens):
    """The exact rank of the right-normed products of gens, closed under left
    multiplication by gens, by the sparse echelon over Q(zeta_level)."""
    zero, one = ring._scalars()
    rows, todo = {}, [{s: one} for s in gens]
    while todo:
        w = todo.pop()
        if row := _echelon_insert(rows, dict(w), zero, one):
            todo += [sector._ring_product(ring.table, {s: one}, w) for s in gens]
    return len(rows)


@pytest.mark.parametrize("level", [1, 4])
def test_generators_span_when_a_constant_vanishes_mod_the_prime(level):
    ring = _square_vanishing_mod_p(level)
    assert ring._modular[1][1, 1] == ()  # x x reduces to 0
    ring.check_unit()
    # mod p, x generates only x, so y joins as a generator of its own
    assert ring._generators() == [1, 2, 0]
    assert _exact_span_rank(ring, ring._generators()) == 3
    assert _exact_span_rank(ring, [1, 0]) == 3  # over Q(zeta), x and 1 already span
    assert _oracle_associativity(ring) is None
    ring.check_associative()
    z = Cyclo.root(level, 1) if level > 1 else 2
    failing = 0
    for i, j, k in product(range(3), repeat=3):
        for change in (lambda c: c + 1, lambda c: c * z, lambda c: 0):
            bad = _corrupt_constant(ring, i, j, k, change)
            want = _oracle_associativity(bad)
            if want is None:
                bad.check_associative()
                continue
            failing += 1
            with pytest.raises(SectorError) as err:
                bad.check_associative()
            assert str(err.value) == want
    assert failing >= 30


def test_light_test_and_pairing_run_no_cyclo_inverse(monkeypatch):
    def refuse(self):
        raise AssertionError("Cyclo.inverse called")

    monkeypatch.setattr(Cyclo, "inverse", refuse)
    assert [dw_frobenius(catalog_group(name)).dim for name in ("S3", "D4")] == [3, 5]
    assert sum(ring.dim for ring in _crit03_centers()) > 51 * 10
