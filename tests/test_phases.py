import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import lcm
from types import SimpleNamespace

import pytest

from orbistring import phases
from orbistring.groups import CATALOG_NAMES, catalog_group, conjugacy_classes
from orbistring.phases import (
    CocycleError,
    Phase,
    TorsionCocycle,
    TwoCocycle,
    _cocycle_law,
    _table_exponents,
    catalog_cocycle,
    check_torsion_law,
    coboundary,
    discrete_torsion,
    make_cocycle,
    parse_cocycle,
    restrict_to_centralizer,
    trivial_cocycle,
)
from orbistring.sector import twisted_center


def test_phase_arithmetic():
    a = Phase.of(3, 4)
    b = Phase.of(1, 2)
    assert (a * b).q == Fraction(1, 4)
    assert (a / b).q == Fraction(1, 4)
    assert a.inverse().q == Fraction(1, 4)
    assert (a**4).is_one()


def test_all_ones_cocycle_valid():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        rep = _cocycle_law(G, *_table_exponents(trivial_cocycle(G).table))
        assert rep.ok


def test_z2xz2_nontrivial_cocycle_valid_by_enumeration():
    G = catalog_group("Z2xZ2")
    alpha = catalog_cocycle(G, "nontrivial")
    # independent oracle: check the identity over all 64 triples directly
    for g in range(4):
        for h in range(4):
            for k in range(4):
                lhs = alpha.table[g][h].q + alpha.table[G.mul(g, h)][k].q
                rhs = alpha.table[g][G.mul(h, k)].q + alpha.table[h][k].q
                assert lhs % 1 == rhs % 1, (g, h, k)


def test_perturbed_cocycle_rejected_with_witness():
    G = catalog_group("Z2xZ2")
    alpha = catalog_cocycle(G, "nontrivial")
    table = [list(row) for row in alpha.table]
    table[2][1] = table[2][1] * Phase.of(1, 3)
    rep = _cocycle_law(G, *_table_exponents(table))
    assert not rep.ok
    assert rep.witness is not None and len(rep.witness) in (2, 3)


def test_coboundary_examples():
    Z2 = catalog_group("Z2")
    beta = [Phase.one(), Phase.of(1, 4)]  # beta(g) = i
    db = coboundary(Z2, beta)
    assert db.table[1][1].q == Fraction(1, 2)  # delta(beta)(g,g) = -1
    assert _cocycle_law(Z2, *_table_exponents(db.table)).ok
    for name in ("Z3", "S3", "Z2xZ2"):
        G = catalog_group(name)
        rng = random.Random(7)
        vals = [Phase.one()] + [Phase.of(rng.randrange(8), 8) for _ in range(G.order - 1)]
        assert _cocycle_law(G, *_table_exponents(coboundary(G, vals).table)).ok
    with pytest.raises(CocycleError):
        coboundary(Z2, [Phase.of(1, 2), Phase.one()])  # beta(e) != 1


def test_discrete_torsion_trivial_and_abelian():
    S3 = catalog_group("S3")
    tau = discrete_torsion(trivial_cocycle(S3))
    assert all(p.is_one() for row in tau.tau for p in row)
    G = catalog_group("Z2xZ2")
    alpha = catalog_cocycle(G, "nontrivial")
    tau = discrete_torsion(alpha)
    # abelian: tau(g,h) = alpha(g,h)/alpha(h,g); closed form (a1 b2 - a2 b1)/2
    for g in range(4):
        for h in range(4):
            expected = Fraction((g >> 1) * (h & 1) - (g & 1) * (h >> 1), 2) % 1
            assert tau.tau[g][h].q == expected
            assert tau.tau[g][h] == alpha.table[g][h] / alpha.table[h][g]
    assert check_torsion_law(tau).ok


def test_torsion_antisymmetric_on_abelian():
    G = catalog_group("Z2xZ2")
    tau = discrete_torsion(catalog_cocycle(G, "nontrivial"))
    for g in range(4):
        for h in range(4):
            assert tau.tau[g][h] == tau.tau[h][g].inverse()


def test_restricted_characters():
    G = catalog_group("Z2xZ2")
    tau = discrete_torsion(catalog_cocycle(G, "nontrivial"))
    chi_e = restrict_to_centralizer(tau, 0)
    assert all(p.is_one() for p in chi_e.values())
    chi = restrict_to_centralizer(tau, 2)  # g = (1,0)
    for h in range(4):
        assert chi[h].q == Fraction(h & 1, 2)  # exp(pi i b2)
    S3 = catalog_group("S3")
    tau0 = discrete_torsion(trivial_cocycle(S3))
    for g in range(6):
        assert all(p.is_one() for p in restrict_to_centralizer(tau0, g).values())


def test_restriction_names_a_broken_character():
    # tau(0,1) = -1 on Z2xZ2 breaks chi(1 * 2) = chi(1) chi(2)
    G = catalog_group("Z2xZ2")
    table = [list(row) for row in discrete_torsion(trivial_cocycle(G)).tau]
    table[0][1] = Phase.of(1, 2)
    tau = TorsionCocycle(G, tuple(map(tuple, table)))
    with pytest.raises(CocycleError, match=r"^tau\(g=0,-\) is not a character on the centralizer$") as exc:
        restrict_to_centralizer(tau, 0)
    assert exc.value.witness == (0, 1, 2)


def test_character_property_all_catalog():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        tau = discrete_torsion(trivial_cocycle(G))
        for g in range(G.order):
            chi = restrict_to_centralizer(tau, g)
            for h1 in chi:
                for h2 in chi:
                    assert chi[G.mul(h1, h2)] == chi[h1] * chi[h2]


def test_character_invariance_under_coboundary():
    rng = random.Random(3)
    for name in ("Z4", "Z2xZ2", "S3"):
        G = catalog_group(name)
        base = [trivial_cocycle(G)]
        if name == "Z2xZ2":
            base.append(catalog_cocycle(G, "nontrivial"))
        for alpha in base:
            for _ in range(10):
                beta = [Phase.one()] + [
                    Phase.of(rng.randrange(2 * G.order), 2 * G.order) for _ in range(G.order - 1)
                ]
                alpha2 = alpha * coboundary(G, beta)
                t1 = discrete_torsion(alpha)
                t2 = discrete_torsion(alpha2)
                data = conjugacy_classes(G)
                for rep, cent in zip(data.reps, data.centralizers):
                    for h in cent:
                        assert t1.tau[rep][h] == t2.tau[rep][h]


def test_torsion_multiplicative_on_centralizer():
    G = catalog_group("Z2xZ2")
    tau = discrete_torsion(catalog_cocycle(G, "nontrivial"))
    for g in range(4):
        cent = [h for h in range(4) if G.mul(g, h) == G.mul(h, g)]
        for h1 in cent:
            for h2 in cent:
                assert tau.tau[g][G.mul(h1, h2)] == tau.tau[g][h1] * tau.tau[g][h2]


def test_cocycle_json_roundtrip_and_normalization():
    G = catalog_group("Z2xZ2")
    alpha = catalog_cocycle(G, "nontrivial")
    blob = {"group": "Z2xZ2", "denominator": 2, "num": [[0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 0, 1]]}
    again = parse_cocycle(blob, G)
    assert again.table == alpha.table
    # un-normalized input is normalized by dividing by alpha(e,e)
    shifted = {"denominator": 4, "num": [[1] * 4 for _ in range(4)]}
    norm = parse_cocycle(shifted, G)
    assert all(p.is_one() for row in norm.table for p in row)
    # alpha(g, g^2) != alpha(g^2, g) on Z3 violates the only nontrivial identity
    bad = {"denominator": 3, "num": [[0, 0, 0], [0, 0, 1], [0, 0, 0]]}
    with pytest.raises(CocycleError):
        parse_cocycle(bad, catalog_group("Z3"))


def test_make_cocycle_dimension_check():
    with pytest.raises(CocycleError):
        make_cocycle(catalog_group("Z3"), [[Phase.one()] * 2] * 2)


def _phase_cocycle_report(G, table):
    """(ok, reason, witness) of the cocycle checks written out in Phase
    arithmetic, in the scan order of _cocycle_law."""
    n = G.order
    for g in range(n):
        if not table[0][g].is_one():
            return False, "not normalized: alpha(e,g) != 1", (0, g)
        if not table[g][0].is_one():
            return False, "not normalized: alpha(g,e) != 1", (g, 0)
    for g, h, k in product(range(n), repeat=3):
        if table[g][h] * table[G.mul(g, h)][k] != table[g][G.mul(h, k)] * table[h][k]:
            return False, "cocycle identity fails", (g, h, k)
    return True, "valid normalized 2-cocycle", None


def test_cocycle_check_matches_phase_oracle():
    # coboundaries with one entry corrupted in three cases of four; make_cocycle
    # also gets each table times a constant phase, which it divides out first
    rng = random.Random(17)
    seen = Counter()
    for t in range(400):
        G = catalog_group(("Z2", "Z3", "Z4", "S3", "Z2xZ2", "D4", "Q8")[t % 7])
        den = rng.randint(2, 12)
        beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
        table = [list(row) for row in coboundary(G, beta).table]
        if t % 4:
            g, h = rng.randrange(G.order), rng.randrange(G.order)
            table[g][h] = table[g][h] * Phase.of(rng.randrange(1, 5), 5)
        want = _phase_cocycle_report(G, table)
        rep = _cocycle_law(G, *_table_exponents(table))
        assert (rep.ok, rep.reason, rep.witness) == want, (G.name, table)
        seen[want[1]] += 1
        unit = Phase.of(rng.randrange(7), 7)
        scaled = [[p * unit for p in row] for row in table]
        normalized = [[p / scaled[0][0] for p in row] for row in scaled]
        want = _phase_cocycle_report(G, normalized)
        if want[0]:
            assert make_cocycle(G, scaled).table == tuple(map(tuple, normalized))
            continue
        with pytest.raises(CocycleError) as exc:
            make_cocycle(G, scaled)
        assert (str(exc.value), exc.value.witness) == want[1:]
    assert len(seen) == 4 and min(seen.values()) >= 30, seen


def test_cocycle_law_matches_full_scan_oracle_off_the_generators():
    # normalized coboundaries with one entry off the identity row and column
    # corrupted, so the identity check runs; its generator-first pass must
    # name the oracle's triple, also when that triple's k is no generator
    rng = random.Random(26)
    off = Counter()
    for t in range(300):
        G = catalog_group(("Z4", "Z6", "S3", "Z2xZ2", "D4", "Q8", "S4")[t % 7])
        den = rng.randint(2, 12)
        beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
        table = [list(row) for row in coboundary(G, beta).table]
        if t % 5:
            g, h = rng.randrange(1, G.order), rng.randrange(1, G.order)
            table[g][h] = table[g][h] * Phase.of(rng.randrange(1, 5), 5)
        want = _phase_cocycle_report(G, table)
        rep = _cocycle_law(G, *_table_exponents(table))
        assert (rep.ok, rep.reason, rep.witness) == want, (G.name, t)
        if want[0]:
            assert make_cocycle(G, table).table == tuple(map(tuple, table))
            continue
        with pytest.raises(CocycleError) as exc:
            make_cocycle(G, table)
        assert (str(exc.value), exc.value.witness) == want[1:]
        if want[2][2] not in G.generators:
            off[G.name] += 1
    assert sum(off.values()) >= 80 and len(off) >= 6, off


def _corrupt_tau(tau, g, h, factor):
    table = [list(row) for row in tau.tau]
    table[g][h] = table[g][h] * factor
    return TorsionCocycle(tau.group, tuple(tuple(row) for row in table))


def test_torsion_law_names_corrupted_triple():
    G = catalog_group("Z2xZ2")
    tau = discrete_torsion(catalog_cocycle(G, "nontrivial"))
    rep = check_torsion_law(_corrupt_tau(tau, 2, 1, Phase.of(1, 3)))
    assert (rep.ok, rep.reason, rep.witness) == (False, "groupoid cocycle law fails", (2, 1, 1))
    S4 = catalog_group("S4")
    beta = [Phase.one()] + [Phase.of(k % 5, 6) for k in range(1, 24)]
    tau = discrete_torsion(trivial_cocycle(S4) * coboundary(S4, beta))
    assert check_torsion_law(tau).ok
    rep = check_torsion_law(_corrupt_tau(tau, 5, 7, Phase.of(1, 4)))
    assert (rep.ok, rep.reason, rep.witness) == (False, "groupoid cocycle law fails", (1, 2, 7))


def _torsion_law_oracle(G, tau):
    """(ok, reason, witness) of the groupoid law over all |G|^3 triples, in
    Phase arithmetic, conjugating through the multiplication table."""
    n = G.order
    for g, h, k in product(range(n), repeat=3):
        gh = G.mul(G.mul(G.inv[h], g), h)
        if tau[g][G.mul(h, k)] != tau[g][h] * tau[gh][k]:
            return False, "groupoid cocycle law fails", (g, h, k)
    return True, "groupoid 1-cocycle law holds", None


def test_torsion_law_matches_full_scan_oracle_off_the_generators():
    # torsions of random twists with one entry corrupted; the generator-first
    # check must name the oracle's triple, also when its k is no generator
    rng = random.Random(27)
    off = Counter()
    for t in range(300):
        G = catalog_group(("Z4", "Z6", "S3", "Z2xZ2", "D4", "Q8", "S4")[t % 7])
        den = rng.randint(2, 12)
        beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
        tau = discrete_torsion(trivial_cocycle(G) * coboundary(G, beta))
        if t % 5:
            tau = _corrupt_tau(tau, rng.randrange(G.order), rng.randrange(G.order), Phase.of(rng.randrange(1, 6), 6))
        want = _torsion_law_oracle(G, tau.tau)
        rep = check_torsion_law(tau)
        assert (rep.ok, rep.reason, rep.witness) == want, (G.name, t)
        if not want[0] and want[2][2] not in (0,) + G.generators:
            off[G.name] += 1
    assert sum(off.values()) >= 80 and len(off) >= 6, off
    # Z1 has no generators, so only k = e tests tau(e, e) = 1
    Z1 = catalog_group("Z1")
    assert Z1.generators == ()
    rep = check_torsion_law(TorsionCocycle(Z1, ((Phase.of(1, 2),),)))
    assert (rep.ok, rep.reason, rep.witness) == (False, "groupoid cocycle law fails", (0, 0, 0))


def _oracle_cocycle(base, beta):
    """Phase tables of base * delta(beta) and of its torsion, by the Phase formulas."""
    G = base.group
    n = G.order
    table = [[base.table[g][h] * (beta[g] * beta[h] / beta[G.mul(g, h)]) for h in range(n)] for g in range(n)]
    tau = [[table[g][h] / table[h][G.conjugate(g, h)] for h in range(n)] for g in range(n)]
    return table, tau


def test_integer_cocycles_match_phase_oracle():
    rng = random.Random(14)
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        data = conjugacy_classes(G)
        bases = [trivial_cocycle(G)] + ([catalog_cocycle(G, "nontrivial")] if name == "Z2xZ2" else [])
        for base in bases:
            for _ in range(4):
                den = rng.randint(2, 48)
                beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
                alpha = base * coboundary(G, beta)
                table, tau = _oracle_cocycle(base, beta)
                level = lcm(*(p.q.denominator for row in table for p in row))
                assert alpha.table == tuple(map(tuple, table))
                assert alpha.modulus == level
                assert alpha.exps == tuple(tuple(int(p.q * level) for p in row) for row in table)
                assert discrete_torsion(alpha).tau == tuple(map(tuple, tau))
                regular = [
                    r for r, cent in zip(data.reps, data.centralizers) if all(tau[r][h].is_one() for h in cent)
                ]
                assert twisted_center(G, alpha).meta["regular_reps"] == regular


def test_cocycle_scales_compare_and_hash_equal():
    rng = random.Random(15)
    for name in ("Z4", "S3", "Z2xZ2", "Q8"):
        G = catalog_group(name)
        beta = [Phase.one()] + [Phase.of(rng.randrange(12), 12) for _ in range(G.order - 1)]
        alpha = coboundary(G, beta)
        for scale in (2, 5):
            again = TwoCocycle(G, scale * alpha.modulus, [[scale * e for e in row] for row in alpha.exps])
            assert again == alpha and hash(again) == hash(alpha)
        inverse = coboundary(G, [b.inverse() for b in beta])
        assert alpha * inverse == trivial_cocycle(G)
        assert hash(alpha * inverse) == hash(trivial_cocycle(G))
        assert (alpha * inverse).modulus == 1


def test_two_cocycle_refuses_a_table_that_breaks_the_law():
    # random tables refused when built, with the witness of _cocycle_law; their
    # torsions keep a negative control for check_torsion_law, which most fail
    rng = random.Random(16)
    broken = 0
    for name in ("Z4", "S3", "Z2xZ2", "D4"):
        G = catalog_group(name)
        for _ in range(5):
            exps = [[rng.randrange(6) if g and h else 0 for h in range(G.order)] for g in range(G.order)]
            want = _cocycle_law(G, 6, exps)
            with pytest.raises(CocycleError) as got:
                TwoCocycle(G, 6, exps)
            assert (str(got.value), got.value.witness) == (want.reason, want.witness)
            table = [[Phase.of(e, 6) for e in row] for row in exps]
            _, tau = _oracle_cocycle(SimpleNamespace(group=G, table=table), [Phase.one()] * G.order)
            broken += not check_torsion_law(TorsionCocycle(G, tuple(map(tuple, tau)))).ok
    assert broken >= 15


def test_cocycle_law_is_checked_once_where_a_cocycle_is_made(monkeypatch):
    calls = Counter()
    for law in ("_cocycle_law", "_torsion_law"):
        real = getattr(phases, law)
        monkeypatch.setattr(phases, law, lambda *args, real=real, law=law: calls.update([law]) or real(*args))
    rng = random.Random(32)
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        calls.clear()
        bases = [trivial_cocycle(G)] + ([catalog_cocycle(G, "nontrivial")] if name == "Z2xZ2" else [])
        assert calls == Counter(_cocycle_law=len(bases) - 1)  # the nontrivial one through make_cocycle
        calls.clear()
        for base in bases * 3:
            den = rng.randint(2, 24)
            beta = [Phase.one()] + [Phase.of(rng.randrange(den), den) for _ in range(G.order - 1)]
            twist = coboundary(G, beta)
            alpha = base * twist
            assert calls == Counter()
            # the closed operations need no check, and their results pass it
            for made in (base, twist, alpha):
                assert _cocycle_law(G, made.modulus, made.exps).ok
            discrete_torsion(alpha)
            twisted_center(G, alpha)
            assert calls == Counter()
            assert make_cocycle(G, alpha.table) == alpha
            assert calls == Counter(_cocycle_law=1)
            calls.clear()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: trivial_cocycle(catalog_group("Z4")) * trivial_cocycle(catalog_group("Z2xZ2")),
         "cocycle product across different groups"),
        (lambda: coboundary(catalog_group("Z3"), [Phase.one()] * 2), "beta must assign a phase to every element"),
        (lambda: coboundary(catalog_group("Z3"), [Phase.one()] * 4), "beta must assign a phase to every element"),
        (lambda: coboundary(catalog_group("Z2"), [Phase.of(1, 2), Phase.one()]), "beta(e) must be 1"),
        (lambda: make_cocycle(catalog_group("Z2"), [[Phase.one()] * 2]), "table must be 2x2"),
        (lambda: make_cocycle(catalog_group("Z2"), [[Phase.one()] * 2, [Phase.one()]]), "table must be 2x2"),
    ],
)
def test_cocycle_input_checks_name_the_bad_input(call, message):
    # no CLI verb reaches these: parse_cocycle checks its table's shape first,
    # and no verb multiplies cocycles or builds a coboundary
    with pytest.raises(CocycleError) as err:
        call()
    assert type(err.value) is CocycleError
    assert (str(err.value), err.value.witness) == (message, None)


def test_a_raw_cocycle_reduces_its_exponents_modulo_the_modulus():
    Z2, Z4 = catalog_group("Z2"), catalog_group("Z4")
    alpha = TwoCocycle(Z2, 2, ((0, 0), (0, 2)))
    assert (alpha.modulus, alpha.exps) == (1, ((0, 0), (0, 0)))
    assert alpha == trivial_cocycle(Z2) and hash(alpha) == hash(trivial_cocycle(Z2))
    # 6/4 = 3/2 = 1/2 mod 1, and a negative exponent is read modulo the modulus too
    assert TwoCocycle(Z2, 4, ((0, 0), (0, 6))) == TwoCocycle(Z2, 2, ((0, 0), (0, 1)))
    beta = [Phase.one(), Phase.of(1, 4), Phase.of(1, 2), Phase.of(3, 4)]
    twist = coboundary(Z4, beta)
    negated = TwoCocycle(Z4, twist.modulus, tuple(tuple(e - twist.modulus for e in row) for row in twist.exps))
    assert negated == twist


@pytest.mark.parametrize(
    "modulus,exps,message,witness",
    [
        (2, ((0, 0),), "exponent table must be 2x2, got rows of lengths (2,)", (2,)),
        (2, ((0, 0), (0,)), "exponent table must be 2x2, got rows of lengths (2, 1)", (2, 1)),
        (0, ((0, 0), (0, 0)), "modulus 0 is not positive", 0),
        (-2, ((0, 0), (0, 1)), "modulus -2 is not positive", -2),
    ],
)
def test_a_raw_cocycle_refuses_a_bad_shape_or_modulus(modulus, exps, message, witness):
    # no CLI verb builds a raw TwoCocycle: parse_cocycle goes through make_cocycle
    with pytest.raises(CocycleError) as err:
        TwoCocycle(catalog_group("Z2"), modulus, exps)
    assert type(err.value) is CocycleError
    assert (str(err.value), err.value.witness) == (message, witness)
