import dataclasses
import hashlib
import json

import pytest

from orbistring.groups import (
    CATALOG_NAMES,
    FiniteGroup,
    GroupError,
    GSet,
    bun_holonomy_action,
    catalog_group,
    catalog_subgroup,
    conjugacy_classes,
    coset_gset,
    fixed_points,
    group_to_json,
    parse_group,
    parse_gset,
    perm_closure,
    point_gset,
    translation_gset,
)


def brute_force_classes(G):
    """Independent conjugation oracle: orbit partition over all pairs."""
    out = []
    seen = set()
    for g in range(G.order):
        if g in seen:
            continue
        orb = {G.mul(G.mul(G.inv[h], g), h) for h in range(G.order)}
        seen |= orb
        out.append(tuple(sorted(orb)))
    return out


def test_trivial_group_classes():
    Z1 = catalog_group("Z1")
    data = conjugacy_classes(Z1)
    assert data.classes == ((0,),)
    assert data.centralizers == ((0,),)


def test_s3_classes_against_bruteforce():
    S3 = catalog_group("S3")
    data = conjugacy_classes(S3)
    sizes = sorted(len(c) for c in data.classes)
    assert sizes == [1, 2, 3]
    assert list(data.classes) == brute_force_classes(S3)
    transposition_class = next(c for c in data.classes if len(c) == 3)
    i = data.classes.index(transposition_class)
    assert len(data.centralizers[i]) == 2


def test_abelian_classes_singletons():
    Z4 = catalog_group("Z4")
    data = conjugacy_classes(Z4)
    assert all(len(c) == 1 for c in data.classes)
    assert all(len(z) == 4 for z in data.centralizers)


def test_class_sizes_sum_to_order():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        data = conjugacy_classes(G)
        assert sum(len(c) for c in data.classes) == G.order
        for c, z in zip(data.classes, data.centralizers):
            assert len(c) * len(z) == G.order  # orbit-stabilizer


def test_bun_holonomy_examples():
    S3 = catalog_group("S3")
    q = S3.names.index("(1,2)")
    h = S3.names.index("(1,2,3)")
    assert S3.names[bun_holonomy_action(S3, q, h)] == "(2,3)"
    assert bun_holonomy_action(S3, q, 0) == q
    Z4 = catalog_group("Z4")
    for a in range(4):
        for b in range(4):
            assert bun_holonomy_action(Z4, a, b) == a


def test_bun_holonomy_right_action():
    S3 = catalog_group("S3")
    for q in range(6):
        for h in range(6):
            for k in range(6):
                lhs = bun_holonomy_action(S3, bun_holonomy_action(S3, q, h), k)
                assert lhs == bun_holonomy_action(S3, q, S3.mul(h, k))


def test_fixed_points_examples():
    S3 = catalog_group("S3")
    pt = point_gset(S3)
    for g in range(6):
        assert fixed_points(pt, g) == [0]
    free = translation_gset(S3)
    for g in range(1, 6):
        assert fixed_points(free, g) == []
    Z2 = catalog_group("Z2")
    X = GSet.from_table(Z2, [[0, 1], [1, 0], [2, 2]])
    assert fixed_points(X, 1) == [2]
    assert fixed_points(X, 0) == [0, 1, 2]


def test_fixed_points_conjugation_covariance():
    S3 = catalog_group("S3")
    G, H = catalog_subgroup("S3", "Z2")
    X = coset_gset(G, H)
    for g in range(6):
        for h in range(6):
            lhs = sorted(X.act[m][h] for m in fixed_points(X, g))
            assert lhs == fixed_points(X, S3.conjugate(g, h))


def test_parse_group_roundtrip():
    S3 = catalog_group("S3")
    again = parse_group(json.dumps(group_to_json(S3)))
    assert again.mult == S3.mult and again.names == S3.names


def test_parse_group_associativity_witness():
    tab = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # row 2 breaks the group laws
    with pytest.raises(GroupError) as exc:
        parse_group({"name": "bad", "mult": tab})
    assert "fails" in str(exc.value) or "permutation" in str(exc.value)


def test_parse_group_nonassociative_triple_named():
    # valid Latin square that is not associative: witness triple reported
    tab = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(GroupError) as exc:
        parse_group({"name": "quasigroup", "mult": tab})
    assert "triple" in str(exc.value)


def test_perm_gens_closure():
    g = parse_group({"name": "S3", "perm_gens": [[1, 0, 2], [1, 2, 0]]})
    assert g.order == 6
    # closure is independent of generator order
    h = parse_group({"name": "S3", "perm_gens": [[1, 2, 0], [1, 0, 2]]})
    assert g.mult == h.mult


def test_perm_closure_rejects_non_permutation():
    with pytest.raises(GroupError):
        perm_closure([[0, 0, 1]])


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: FiniteGroup.from_table("G", [[0, 1], [1, 0.7]]), "table entry: expected an integer, got 0.7"),
        (lambda: FiniteGroup.from_table("G", [[0, 1], [True, 0]]), "table entry: expected an integer, got true"),
        (lambda: GSet.from_table(catalog_group("Z2"), [[0, 1.0], [1, 0]]), "action entry: expected an integer, got 1.0"),
        (lambda: perm_closure([[1, 0, "2"]]), "generator [1, 0, '2']: expected an integer, got \"2\""),
    ],
    ids=["float", "bool", "gset", "perm"],
)
def test_constructors_reject_non_integer_indices(build, message):
    # each entry used to be cast with int(), so 0.7 read as 0 and built Z2
    with pytest.raises(GroupError) as exc:
        build()
    assert str(exc.value) == message


def test_gset_validation_errors():
    Z2 = catalog_group("Z2")
    with pytest.raises(GroupError) as exc:
        GSet.from_table(Z2, [[1, 0], [0, 1]])  # identity moves points
    assert "identity" in str(exc.value)
    with pytest.raises(GroupError) as exc:
        GSet.from_table(Z2, [[0, 1], [1, 1]])  # g moves 0 to 1 but fixes 1
    assert "triple" in str(exc.value)


def test_parse_gset():
    X = parse_gset({"group": "Z2", "size": 3, "act": [[0, 1], [1, 0], [2, 2]]})
    assert X.size == 3
    with pytest.raises(GroupError):
        parse_gset({"group": "Z2", "size": 5, "act": [[0, 1], [1, 0], [2, 2]]})


def test_catalog_groups_all_valid():
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        assert G.order >= 1
        assert G.mul(0, 0) == 0
    assert catalog_group("Q8").order == 8
    assert not catalog_group("Q8").is_abelian()
    assert catalog_group("D4").order == 8
    assert catalog_group("S4").order == 24
    assert catalog_group("Z2xZ2").exponent() == 2


def test_subgroups_for_morita():
    for gn, hn, order in [("S3", "Z2", 2), ("S3", "Z3", 3), ("S4", "S3", 6), ("Z4", "Z2", 2)]:
        G, H = catalog_subgroup(gn, hn)
        assert len(H) == order
        X = coset_gset(G, H)
        assert X.size == G.order // order


def _conjugacy_oracle(G):
    """Classes by least member, with the centralizer of each least member,
    straight from the multiplication table."""
    classes, reps, cents = [], [], []
    for g in range(G.order):
        if any(g in c for c in classes):
            continue
        orbit = tuple(sorted({G.mul(G.mul(G.inv[h], g), h) for h in range(G.order)}))
        classes.append(orbit)
        reps.append(orbit[0])
        cents.append(tuple(h for h in range(G.order) if G.mul(orbit[0], h) == G.mul(h, orbit[0])))
    return tuple(classes), tuple(reps), tuple(cents)


def _generated_oracle(G, gens):
    """The elements reached from the identity by right multiplication with gens."""
    reached, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for y in (G.mul(x, s) for s in gens):
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return sorted(reached)


def test_cached_group_data_matches_the_table():
    digest = hashlib.sha256()
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        n = range(G.order)
        assert all(G.conjugation[q][h] == G.mul(G.mul(G.inv[h], q), h) for q in n for h in n)
        assert all(G.conjugate(q, h) == G.conjugation[q][h] for q in n for h in n)
        assert _generated_oracle(G, G.generators) == list(n)
        assert 0 not in G.generators
        data = conjugacy_classes(G)
        assert (data.classes, data.reps, data.centralizers) == _conjugacy_oracle(G)
        assert conjugacy_classes(G) is data is G.conjugacy  # computed once per group
        digest.update(json.dumps([data.classes, data.reps, data.centralizers]).encode() + b"\n")
    # computed before the conjugacy data was cached on the group
    assert digest.hexdigest() == "3b1f2f3e0776787d8b2831715383fb721dea44d16f55b7caa6eba1e16fd0b15f"


def test_groups_with_derived_data_compare_and_hash_equal():
    assert [f.name for f in dataclasses.fields(FiniteGroup)] == ["name", "order", "mult", "inv", "names"]
    for name in CATALOG_NAMES:
        G = catalog_group(name)
        H = FiniteGroup.from_table(name, [list(row) for row in G.mult], G.names)
        assert H is not G and H == G and hash(H) == hash(G) and {G: 1}[H] == 1
        assert (H.conjugation, H.conjugacy, H.generators) == (G.conjugation, G.conjugacy, G.generators)
    assert catalog_group("S3") != catalog_group("Z6")
