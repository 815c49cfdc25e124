import dataclasses
import gc
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from orbistring import graded
from orbistring.graded import (
    BVData,
    GradedError,
    GradedPresentation,
    WindowOverflow,
    basis_window,
    bracket,
    bv_check,
    el_add,
    el_scale,
    graded_window_bv,
    lens_delta,
    lens_ring,
    multiply,
    ring_window_bv,
    sphere_quotient_ring,
)
from orbistring.groups import catalog_group
from orbistring.sector import dw_frobenius


def test_lens_ring_requires_odd_n():
    with pytest.raises(GradedError):
        lens_ring(2, 3)
    lens_ring(5, 1)
    for n in (1, -1):
        with pytest.raises(GradedError, match=f"^the sphere dimension must be at least 3, got {n}: "):
            lens_ring(n, 2)


def test_unit_law():
    P = lens_ring(3, 2)
    one = P.unit()
    for el in (P.monomial(a=1), P.monomial(u=2, v=1), P.monomial(a=1, u=3)):
        assert multiply(P, one, el) == el
        assert multiply(P, el, one) == el


def test_lens_sigma_products():
    P = lens_ring(3, 2)
    assert multiply(P, P.monomial(a=1), P.monomial(a=1)) == {}
    uv = multiply(P, P.monomial(u=1, v=1), P.monomial(u=2, v=1))
    assert uv == P.monomial(u=3, v=0)
    assert multiply(P, P.monomial(v=1), P.monomial(v=1)) == P.unit()
    # v^p acts as the identity on everything
    x = P.monomial(a=1, u=2, v=1)
    vv = multiply(P, P.monomial(v=1), P.monomial(v=1))
    assert multiply(P, vv, x) == x


def test_lens_h0_dimension():
    P = lens_ring(3, 2)
    basis0 = [m for m in basis_window(P, 0, 0)]
    assert [P.mono_str(m) for m in basis0] == ["1", "v"]


def test_p1_degenerates_to_sphere_ring():
    P = lens_ring(3, 1)
    assert multiply(P, P.monomial(v=1), P.unit()) == P.unit()  # v == 1
    names = [P.mono_str(m) for m in basis_window(P, -3, 4)]
    assert names == ["a", "a*u", "1", "a*u^2", "u", "a*u^3", "u^2"]


def test_sphere_quotient_relations():
    S = sphere_quotient_ring(2)
    a, b, v, y = (S.monomial(**{k: 1}) for k in "abvy")
    assert multiply(S, a, a) == {}
    assert multiply(S, a, b) == {}
    assert multiply(S, a, v) == {}
    assert multiply(S, b, b) == {}  # odd square
    assert multiply(S, y, y) == S.unit()
    # y is invertible: y * y^(p-1) = 1
    assert multiply(S, b, v) == S.monomial(b=1, v=1)
    S1 = sphere_quotient_ring(1)
    assert multiply(S1, S1.monomial(y=1), S1.unit()) == S1.unit()


def test_koszul_graded_commutativity():
    P = sphere_quotient_ring(3)
    rng = random.Random(1)
    basis = basis_window(P, -2, 6)
    for _ in range(60):
        m1 = basis[rng.randrange(len(basis))]
        m2 = basis[rng.randrange(len(basis))]
        x, y = {m1: F(1)}, {m2: F(1)}
        d1, d2 = P.degree(m1), P.degree(m2)
        lhs = multiply(P, x, y)
        rhs = el_scale(multiply(P, y, x), F(-1) if (d1 * d2) % 2 else F(1))
        assert lhs == rhs


def _oracle_monomial_product(P, a, b, seen):
    """(sign, exponents) of a*b, or None when it is zero, from the word of a then b.

    The word lists each generator once per unit of its exponent.  It is sorted
    by adjacent swaps, each swap of two odd letters flipping the sign; then
    roots of unity wrap, odd squares vanish and listed zero monomials vanish.
    seen counts how often each rule fired.
    """
    word = [i for m in (a, b) for i, e in enumerate(m) for _ in range(e)]
    sign = 1
    for end in range(len(word) - 1, 0, -1):
        for k in range(end):
            if word[k] > word[k + 1]:
                if P.gens[word[k]][1] % 2 and P.gens[word[k + 1]][1] % 2:
                    sign = -sign
                word[k], word[k + 1] = word[k + 1], word[k]
    exps = [word.count(i) for i in range(len(P.gens))]
    for i, ((_, d), p) in enumerate(zip(P.gens, P.root_orders)):
        if p is not None and exps[i] >= p:
            seen["wraparound"] += 1
            exps[i] %= p
        if d % 2 and exps[i] > 1:
            seen["odd square"] += 1
            return None
    if any(all(e >= z for e, z in zip(exps, zm)) for zm in P.zero_monomials):
        seen["zero monomial"] += 1
        return None
    seen["sign -1" if sign < 0 else "sign +1"] += 1
    return sign, tuple(exps)


def test_multiply_matches_word_sorting_oracle():
    rng = random.Random(25)
    coeffs = (1, -1, 2, F(1), F(-1), F(1, 2), F(-3, 2), F(2, 3))
    rings = (
        lambda: lens_ring(rng.choice((3, 5, 7)), rng.randint(1, 4)),
        lambda: sphere_quotient_ring(rng.randint(1, 4)),
        lambda: _random_presentation(rng),
    )
    seen = Counter()
    for case in range(1500):
        P = rings[case % 3]()
        tops = [1 + (d % 2 == 0) for _, d in P.gens]  # odd squares come from products
        x, y = (
            {tuple(map(rng.randint, [0] * len(tops), tops)): rng.choice(coeffs) for _ in range(rng.randint(1, 5))}
            for _ in "xy"
        )
        sums = {}
        for ma, ca in x.items():
            for mb, cb in y.items():
                if (prod := _oracle_monomial_product(P, ma, mb, seen)) is not None:
                    sums[prod[1]] = sums.get(prod[1], F(0)) + prod[0] * ca * cb
        seen["cancelled"] += sum(1 for v in sums.values() if not v)
        got = multiply(P, x, y)
        assert got == {m: v for m, v in sums.items() if v}, (P, x, y)
        assert all(type(v) is F for v in got.values())
    for rule in ("wraparound", "odd square", "zero monomial", "sign -1", "sign +1", "cancelled"):
        assert seen[rule] > 40, seen
    # (1 + v)(v - 1) = v^2 - 1 = 0 where v^2 = 1
    P = lens_ring(3, 2)
    one, v = P.unit(), P.monomial(v=1)
    assert multiply(P, el_add(one, v), el_add(v, one, -1)) == {}


def test_normal_form_confluence_random_orders():
    P = sphere_quotient_ring(2)
    rng = random.Random(2)
    for _ in range(200):
        raw = [rng.randrange(4) for _ in P.gens]
        nm = P.normal_monomial(raw)
        # reducing coordinates in any order gives the same answer
        order = list(range(len(raw)))
        rng.shuffle(order)
        step = list(raw)
        for i in order:
            partial = list(step)
            nm_partial = P.normal_monomial(partial)
            if nm_partial is None:
                assert nm is None
                break
        else:
            assert P.normal_monomial(step) == nm


def test_normal_monomial_precedence():
    # the odd a squares to zero before any exponent to its right is read
    P = lens_ring(3, 2)
    assert P.normal_monomial((2, -1, 0)) is None
    with pytest.raises(GradedError, match="^negative exponent$"):
        P.normal_monomial((-1, 2, 0))
    # a monomial of the wrong length is refused by name, not read on a prefix
    for mono in ((1, 0, 0, 5), (1, 0), (0, 2, 0, 7)):
        with pytest.raises(GradedError) as err:
            P.normal_monomial(mono)
        assert type(err.value) is GradedError
        assert str(err.value) == f"monomial {mono} does not give one exponent per generator"


def test_multiply_refuses_a_monomial_of_the_wrong_length():
    # read on a prefix, (0, 1, 0, 7) * 1 was u on lens(3,2); each key of each argument is checked
    P = lens_ring(3, 2)
    assert multiply(P, {(0, 1, 0): F(1)}, P.unit()) == {(0, 1, 0): F(1)}
    for x, y in (({(0, 1, 0, 7): 1}, P.unit()), (P.unit(), {(0, 1, 0): 1, (2,): 1}), ({(0, 0, 0): 1, (): 3}, {})):
        bad = next(m for m in [*x, *y] if len(m) != 3)
        with pytest.raises(GradedError) as err:
            multiply(P, x, y)
        assert type(err.value) is GradedError
        assert str(err.value) == f"monomial {bad} does not give one exponent per generator"


def test_presentations_built_apart_compare_equal_and_replace_derives_rules_again():
    P, Q = sphere_quotient_ring(3), sphere_quotient_ring(3)
    assert P is not Q and P == Q and hash(P) == hash(Q) and repr(P) == repr(Q)
    assert repr(P).count("=") == 3  # the three fields, none of the derived rules
    # a of degree -3 is odd beside b, so a * b = -b * a and a squares to zero
    R = dataclasses.replace(P, gens=(("b", 1), ("a", -3), ("v", 2), ("y", 0)), zero_monomials=())
    assert R != P and R._odd_pairs == ((1, 0),)
    assert R.degree((1, 1, 1, 0)) == 0 and R.normal_monomial((0, 2, 0, 0)) is None
    assert multiply(R, R.monomial(a=1), R.monomial(b=1)) == {(1, 1, 0, 0): F(-1)}
    assert multiply(R, R.monomial(b=1), R.monomial(a=1)) == {(1, 1, 0, 0): F(1)}


def test_degree0_free_generator_rejected():
    with pytest.raises(GradedError):
        GradedPresentation((("x", 0),), (None,))


@pytest.mark.parametrize(
    "gens,roots,message",
    [
        ((("v", 2),), (3,), "root-of-unity generator v must have degree 0"),
        ((("v", 0),), (0,), "root order of v must be positive"),
    ],
)
def test_root_of_unity_generator_checks(gens, roots, message):
    with pytest.raises(GradedError, match=message):
        GradedPresentation(gens, roots)


@pytest.mark.parametrize(
    "gens,zero",
    [
        ((("a", 2),), (0, 1)),  # read on a prefix, it made the unit zero
        ((("a", 2), ("b", 2)), (1,)),  # basis_window indexed past its end
        ((("a", 2), ("b", 2)), (2, -1)),
    ],
)
def test_zero_monomial_needs_one_non_negative_exponent_per_generator(gens, zero):
    with pytest.raises(GradedError) as e:
        GradedPresentation(gens, (None,) * len(gens), (zero,))
    assert str(e.value) == f"zero monomial {zero} does not give one non-negative exponent per generator"


@pytest.mark.parametrize(
    "gens,roots,message",
    [
        # too few ended in a bare IndexError, and an extra order was ignored
        ((("a", 2), ("b", 2)), (None,), "root order count 1 does not match generator count 2"),
        ((("a", 2),), (None, 3), "root order count 2 does not match generator count 1"),
    ],
)
def test_root_orders_need_one_entry_per_generator(gens, roots, message):
    with pytest.raises(GradedError) as e:
        GradedPresentation(gens, roots)
    assert str(e.value) == message


def test_monomial_rejects_unknown_generator_and_negative_exponent():
    P = lens_ring(3, 2)
    with pytest.raises(GradedError, match="unknown generator w"):
        P.monomial(w=1)
    with pytest.raises(GradedError, match="negative exponent"):
        P.monomial(u=-1)


def test_negative_free_generator_window_rejected():
    P = GradedPresentation((("w", -2),), (None,))
    with pytest.raises(GradedError):
        basis_window(P, -4, 0)


def test_window_overflow_error():
    P = lens_ring(3, 2)
    D = graded_window_bv(P, 0, 2)
    with pytest.raises(WindowOverflow):
        u = next(m for m in D.basis if P.mono_str(m) == "u")
        D.mult(u, u)


def test_bracket_zero_delta():
    P = lens_ring(3, 2)
    D = graded_window_bv(P, -3, 6)
    a = {D.basis[0]: F(1)}
    b = {D.basis[1]: F(1)}
    assert bracket(D, a, b, D.degree(D.basis[0])) == {}


def test_bracket_unit_vanishes():
    # Lambda[x] with Delta(x) = 1: {1, b} = 0 for any b
    P = GradedPresentation((("x", 1),), (None,))
    basis = basis_window(P, 0, 1)
    one = next(m for m in basis if P.mono_str(m) == "1")
    x = next(m for m in basis if P.mono_str(m) == "x")
    D = graded_window_bv(P, 0, 1, {x: {one: F(1)}})
    assert bracket(D, {one: F(1)}, {x: F(1)}, 0) == {}


def test_bracket_synthetic_cross_check():
    # Lambda[x], |x| = 1, Delta(x) = 1: expand {x,x} by hand
    P = GradedPresentation((("x", 1),), (None,))
    basis = basis_window(P, 0, 1)
    one = next(m for m in basis if P.mono_str(m) == "1")
    x = next(m for m in basis if P.mono_str(m) == "x")
    D = graded_window_bv(P, 0, 1, {x: {one: F(1)}})
    got = bracket(D, {x: F(1)}, {x: F(1)}, 1)
    # direct expansion: (-1)^1 D(x x) - (-1)^1 D(x) x - x D(x) = 0 + x - x = 0
    t1 = el_scale(D.apply_delta(D.mult_el({x: F(1)}, {x: F(1)})), -1)
    t2 = D.mult_el(D.apply_delta({x: F(1)}), {x: F(1)})
    t3 = el_scale(D.mult_el({x: F(1)}, D.apply_delta({x: F(1)})), -1)
    assert got == el_add(el_add(t1, t2), t3) == {}


def test_bv_check_passes_zero_delta():
    rep = bv_check(graded_window_bv(lens_ring(3, 2), -3, 6))
    assert rep.ok
    rep2 = bv_check(ring_window_bv(dw_frobenius(catalog_group("S3"))))
    assert rep2.ok
    rep3 = bv_check(graded_window_bv(sphere_quotient_ring(2), -2, 4))
    assert rep3.ok


def test_bv_check_catches_degree_violation():
    P = lens_ring(3, 2)
    basis = basis_window(P, -3, 6)
    amono = next(m for m in basis if P.mono_str(m) == "a")
    one = next(m for m in basis if P.mono_str(m) == "1")
    rep = bv_check(graded_window_bv(P, -3, 6, {amono: {one: F(1)}}))
    assert not rep.ok
    assert rep.failures[0]["axiom"] == "delta-degree"


def test_bv_check_catches_nonsquare_delta():
    # Delta(1) = x and Delta(x) = nothing is fine (Delta^2 = 0);
    # Delta(1) = x with Delta(x) = 1 violates Delta^2 = 0
    P = GradedPresentation((("x", 1),), (None,))
    basis = basis_window(P, 0, 1)
    one = next(m for m in basis if P.mono_str(m) == "1")
    x = next(m for m in basis if P.mono_str(m) == "x")
    bad = bv_check(graded_window_bv(P, 0, 1, {one: {x: F(1)}, x: {one: F(1)}}))
    assert not bad.ok
    kinds = {f["axiom"] for f in bad.failures}
    assert "delta-degree" in kinds or "delta-squared" in kinds


def test_presentation_json():
    P = sphere_quotient_ring(2)
    blob = P.to_json()
    assert {"name": "b", "degree": 1} in blob["generators"]
    assert any("y^2 = 1" in r for r in blob["relations"])
    assert "a^2" in blob["relations"][0]


def _oracle_basis_window(P, lo, hi):
    """basis_window as a pruned recursion over the generators, with suffix bounds."""
    if lo > hi:
        raise GradedError("empty degree window")
    k = len(P.gens)
    degs = [d for _, d in P.gens]
    caps = []
    for i, (name, deg) in enumerate(P.gens):
        p = P.root_orders[i]
        if p is not None:
            caps.append(p - 1)
        elif P.gens[i][1] % 2:
            caps.append(1)
        else:
            pure = None
            for z in P.zero_monomials:
                if z[i] > 0 and all(e == 0 for j, e in enumerate(z) if j != i):
                    pure = z[i] - 1 if pure is None else min(pure, z[i] - 1)
            if pure is not None:
                caps.append(pure)
            elif deg > 0:
                caps.append(None)
            else:
                raise GradedError(f"generator {name} has unbounded negative degree; window is infinite")
    # degree range reachable by generators i.. ; None is an unbounded maximum
    min_rest = [0] * (k + 1)
    max_rest = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        d, cap = degs[i], caps[i]
        min_rest[i] = min_rest[i + 1] + (0 if cap is None else min(0, d * cap))
        above = max_rest[i + 1]
        max_rest[i] = None if cap is None or above is None else above + max(0, d * cap)
    out = []

    def normal(mono):
        """Read off the relations, not through P.normal_monomial."""
        for e, (_, d), p in zip(mono, P.gens, P.root_orders):
            if (p is not None and e >= p) or (d % 2 and e > 1):
                return False
        return not any(all(e >= ze for e, ze in zip(mono, z)) for z in P.zero_monomials)

    def rec(i, cur, mono):
        if i == k:
            if lo <= cur <= hi and normal(mono):
                out.append(tuple(mono))
            return
        d, cap = degs[i], caps[i]
        if cap is None:
            cap = (hi - cur - min_rest[i + 1]) // d
        for e in range(cap + 1):
            nxt = cur + e * d
            above = max_rest[i + 1]
            if nxt + min_rest[i + 1] > hi or (above is not None and nxt + above < lo):
                continue
            mono.append(e)
            rec(i + 1, nxt, mono)
            mono.pop()

    rec(0, 0, [])
    return sorted(set(out), key=lambda m: (P.degree(m), m))


def _random_presentation(rng):
    """1-4 generators of degree -5..5, roots of unity in degree 0, random zero monomials."""
    while True:
        n = rng.randint(1, 4)
        gens, roots = [], []
        for i in range(n):
            d = rng.randint(-5, 5)
            gens.append((f"x{i}", d))
            roots.append(rng.randint(1, 4) if d == 0 else None)
        zero = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:  # a pure power, which caps its generator
                z = [0] * n
                z[rng.randrange(n)] = rng.randint(1, 4)
            else:
                z = [rng.randint(0, 2) for _ in range(n)]
            if any(z):
                zero.append(tuple(z))
        try:
            return GradedPresentation(tuple(gens), tuple(roots), tuple(zero))
        except GradedError:
            continue


def test_basis_window_matches_recursive_oracle():
    # windows, empty windows and both errors, message for message
    rng = random.Random(24)
    outcomes = Counter()
    for _ in range(3000):
        P = _random_presentation(rng)
        lo = rng.randint(-12, 8)
        hi = lo + rng.randint(-1, 12)
        try:
            want = _oracle_basis_window(P, lo, hi)
        except GradedError as e:
            with pytest.raises(GradedError) as got:
                basis_window(P, lo, hi)
            assert str(got.value) == str(e), (P, lo, hi)
            outcomes[str(e).split()[0]] += 1  # "empty" or "generator"
            continue
        assert basis_window(P, lo, hi) == want, (P, lo, hi)
        outcomes["nonempty" if want else "no monomial"] += 1
    assert outcomes["nonempty"] > 1000 and outcomes["no monomial"] > 100
    assert outcomes["empty"] > 100 and outcomes["generator"] > 100


def test_window_bases_and_product_tables_digest():
    # 171 windows: lens(n, p) for odd n <= 7 and p <= 5, sphere-quotient(p) for
    # p <= 4, each on lo in {-6, -3, 0} with widths 3, 6 and 9.  Every line holds
    # the basis and, for each ordered basis pair, the sign and monomial of the
    # product (empty when it is zero).  Pinned before the normal-form rules were
    # derived once per presentation.
    rings = [(f"lens({n},{p})", lens_ring(n, p)) for n in (3, 5, 7) for p in range(1, 6)]
    rings += [(f"sphere-quotient({p})", sphere_quotient_ring(p)) for p in range(1, 5)]
    digest, windows = hashlib.sha256(), 0
    for name, P in rings:
        for lo in (-6, -3, 0):
            for hi in (lo + 3, lo + 6, lo + 9):
                basis = basis_window(P, lo, hi)
                table = []
                for a in basis:
                    for b in basis:
                        prod = multiply(P, {a: F(1)}, {b: F(1)})
                        assert all(type(c) is F and abs(c) == 1 for c in prod.values())
                        table.append([[int(c), m] for m, c in prod.items()])
                digest.update(json.dumps([name, lo, hi, basis, table]).encode() + b"\n")
                windows += 1
    assert windows == 171
    assert digest.hexdigest() == "0441a0fc791dac92b80e4f72889f4587d67c8d2e73f47a8e996d7d065f0869b1"


# Menichi's BV operator on the lens presentations, on the windows the benchmark
# probes use.
MENICHI_WINDOWS = [(3, 1, -3, 6), (3, 2, -3, 6), (3, 3, -3, 4), (5, 2, -5, 8)]


def test_lens_delta_entries():
    P = lens_ring(3, 2)
    delta = lens_delta(P, -3, 6, power=2)
    assert {P.mono_str(m): {P.mono_str(t): c for t, c in row.items()} for m, row in delta.items()} == {
        "a*u": {"1": 1}, "a*u*v": {"v": 1}, "a*u^2": {"u": 4}, "a*u^2*v": {"u*v": 4},
        "a*u^3": {"u^2": 9}, "a*u^3*v": {"u^2*v": 9}, "a*u^4": {"u^3": 16}, "a*u^4*v": {"u^3*v": 16},
    }
    assert all(type(c) is F for row in delta.values() for c in row.values())


@pytest.mark.parametrize("n,p,lo,hi", MENICHI_WINDOWS)
def test_bv_check_accepts_menichi_delta(n, p, lo, hi):
    P = lens_ring(n, p)
    rep = bv_check(graded_window_bv(P, lo, hi, lens_delta(P, lo, hi)))
    assert rep.ok, rep.failures
    assert rep.checked["antisym"] > 0 and rep.checked["jacobi"] > 0


@pytest.mark.parametrize("n,p,lo,hi", MENICHI_WINDOWS)
def test_bv_check_rejects_squared_menichi_delta(n, p, lo, hi):
    P = lens_ring(n, p)
    rep = bv_check(graded_window_bv(P, lo, hi, lens_delta(P, lo, hi, power=2)))
    assert not rep.ok
    assert rep.failures[0]["axiom"] == "jacobi"


def test_squared_menichi_delta_also_breaks_leibniz():
    P = lens_ring(3, 1)
    rep = bv_check(graded_window_bv(P, -3, 6, lens_delta(P, -3, 6, power=2)), max_failures=10**6)
    assert {f["axiom"] for f in rep.failures} == {"jacobi", "leibniz"}


CHECKED_KEYS = ("degree", "delta2", "antisym", "leibniz", "jacobi", "skipped")


def test_bv_check_counts_and_witnesses_are_pinned():
    P = lens_ring(3, 2)
    zero = bv_check(graded_window_bv(P, -3, 9))
    assert zero.ok
    assert list(zero.checked.items()) == list(zip(CHECKED_KEYS, (24, 24, 456, 7824, 7824, 6120)))
    menichi = bv_check(graded_window_bv(P, -3, 9, lens_delta(P, -3, 9)))
    assert menichi.ok
    assert list(menichi.checked.items()) == list(zip(CHECKED_KEYS, (24, 22, 356, 5112, 4272, 9774)))
    P1 = lens_ring(3, 1)
    rep = bv_check(graded_window_bv(P1, -3, 6, lens_delta(P1, -3, 6, power=2)), max_failures=10**6)
    assert Counter(f["axiom"] for f in rep.failures) == {"jacobi": 84, "leibniz": 75}
    assert rep.failures[:3] == [
        {"axiom": "jacobi", "witness": "jacobi fails at ((1, 0, 0),(1, 1, 0),(1, 2, 0))"},
        {"axiom": "leibniz", "witness": "{(1, 0, 0), (1, 1, 0)*(0, 1, 0)} fails the derivation rule"},
        {"axiom": "jacobi", "witness": "jacobi fails at ((1, 0, 0),(1, 1, 0),(0, 1, 0))"},
    ]


def _lens_window():
    return graded_window_bv(lens_ring(3, 2), -3, 6), True


def _lens_window_menichi():
    P = lens_ring(3, 2)
    return graded_window_bv(P, -3, 6, lens_delta(P, -3, 6)), True


def _dw_ring_s3():
    return ring_window_bv(dw_frobenius(catalog_group("S3"))), False


@pytest.mark.parametrize("make", [_lens_window, _lens_window_menichi, _dw_ring_s3])
def test_bv_check_multiplies_each_basis_pair_at_most_once(make):
    D, overflows = make()
    calls, overflowed = Counter(), set()
    mult = D.mult

    def counted(a, b):
        calls[a, b] += 1
        try:
            return mult(a, b)
        except WindowOverflow:
            overflowed.add((a, b))
            raise

    D.mult = counted
    rep = bv_check(D, max_failures=10**6)
    assert rep.ok and rep.checked["leibniz"] > 0
    assert calls and max(calls.values()) == 1
    assert bool(overflowed) == overflows


def test_bv_check_skips_only_where_the_elementwise_bracket_overflows():
    # {x, {y,y}} = {x, w1 - w2}: each basis bracket {x, wi} contains x*t, which
    # overflows, but Delta(w1 - w2) = t - t = 0, so the bracket itself is 0.
    # The Jacobi tuples (x, y, y) must be checked, not skipped.
    deg = {"x": 0, "y": 0, "m": 0, "w1": 1, "w2": 1, "t": 2}

    def mult(a, b):
        if (a, b) == ("x", "t"):
            raise WindowOverflow("x*t leaves the window")
        return {"m": F(1)} if (a, b) == ("y", "y") else {}

    delta = {"m": {"w1": F(1), "w2": F(-1)}, "w1": {"t": F(1)}, "w2": {"t": F(1)}}
    rep = bv_check(BVData(tuple(deg), deg.__getitem__, mult, delta, (0, 2)), max_failures=100)
    assert rep.ok
    assert list(rep.checked.items()) == list(zip(CHECKED_KEYS, (6, 4, 30, 184, 174, 50)))


def test_bv_check_skips_only_where_the_elementwise_left_bracket_overflows():
    # {{y,y}, x} = {w1 - w2, x}: each basis bracket {wi, x} contains Delta(wi)*x = t*x,
    # which overflows, but Delta(w1 - w2) = t - t = 0, so the bracket itself is 0.
    # The Jacobi tuples (y, y, x) must be checked, not skipped.
    deg = {"x": 0, "y": 0, "m": 0, "w1": 1, "w2": 1, "t": 2}

    def mult(a, b):
        if (a, b) == ("t", "x"):
            raise WindowOverflow("t*x leaves the window")
        return {"m": F(1)} if (a, b) == ("y", "y") else {}

    delta = {"m": {"w1": F(1), "w2": F(-1)}, "w1": {"t": F(1)}, "w2": {"t": F(1)}}
    D = BVData(tuple(deg), deg.__getitem__, mult, delta, (0, 2))
    one = {"y": F(1)}
    assert bracket(D, one, one, 0) == {"w1": F(1), "w2": F(-1)}
    assert bracket(D, {"w1": F(1), "w2": F(-1)}, {"x": F(1)}, 1) == {}
    for w in ("w1", "w2"):
        with pytest.raises(WindowOverflow):
            bracket(D, {w: F(1)}, {"x": F(1)}, 1)
    rep = bv_check(D, max_failures=100)
    assert rep.ok
    assert list(rep.checked.items()) == list(zip(CHECKED_KEYS, (6, 4, 30, 180, 174, 50)))


def test_bv_check_brackets_labels_outside_the_basis():
    # Delta(q) = r leaves the window, yet {p,p} = Delta(p*p) = r stays a bracket
    # (no product overflows), so {p, {p,p}} and {{p,p}, p} take r as an argument
    deg = {"p": 0, "q": 0, "r": 1}

    def mult(a, b):
        return {"q": F(1)} if (a, b) == ("p", "p") else {}

    make = lambda: BVData(("p", "q"), deg.__getitem__, mult, {"q": {"r": F(1)}}, (0, 0))  # noqa: E731
    assert bracket(make(), {"p": F(1)}, {"p": F(1)}, 0) == {"r": F(1)}
    for max_failures in (1, 10**6):
        got, want = bv_check(make(), max_failures), _oracle_bv_check(make(), max_failures)
        assert (got.ok, got.failures, got.checked) == (want.ok, want.failures, want.checked)
        assert list(got.checked.items()) == list(zip(CHECKED_KEYS, (2, 1, 4, 8, 8, 1)))


def test_bv_check_forms_no_product_for_a_zero_delta_coefficient():
    # Delta {x: {y: 0}} is Delta = 0, so the elementwise bracket forms no product
    # with y, even where that product leaves the window or y has the wrong degree
    P = lens_ring(3, 2)
    basis = basis_window(P, -3, 2)
    for x in basis:
        for y in basis:
            for max_failures in (1, 10**6):
                got = bv_check(graded_window_bv(P, -3, 2, {x: {y: F(0)}}), max_failures)
                want = _oracle_bv_check(graded_window_bv(P, -3, 2, {x: {y: F(0)}}), max_failures)
                assert (got.ok, got.failures, got.checked) == (want.ok, want.failures, want.checked), (x, y)


def test_bv_check_leaves_little_garbage():
    # an overflow kept as an exception object would tie the check's frame into
    # a reference cycle of thousands of objects per check; a check leaves about 35
    P = lens_ring(3, 2)
    bv_check(graded_window_bv(P, -3, 6))
    gc.collect()
    gc.disable()
    try:
        bv_check(graded_window_bv(P, -3, 6))
        found = gc.collect()
    finally:
        gc.enable()
    assert found < 100


def _oracle_bv_check(D, max_failures=1):
    """bv_check as it stood before its Jacobi loop read tabulated brackets.

    Basis brackets are tabulated, {x, e} is summed over e by linearity with an
    elementwise fallback, and every other bracket is computed elementwise.
    """
    rep = graded.BVReport(True)
    one = F(1)
    counts = rep.checked = {"degree": 0, "delta2": 0, "antisym": 0, "leibniz": 0, "jacobi": 0, "skipped": 0}

    def fail(kind, witness):
        rep.ok = False
        rep.failures.append({"axiom": kind, "witness": witness})

    lo, hi = D.window
    for b in D.basis:
        img = D.delta.get(b, {})
        for b2, c in img.items():
            if c and D.degree(b2) != D.degree(b) + 1:
                fail("delta-degree", f"Delta({b}) hits {b2}: degree {D.degree(b2)} != {D.degree(b) + 1}")
                if len(rep.failures) >= max_failures:
                    return rep
        counts["degree"] += 1
    for b in D.basis:
        if D.degree(b) + 2 > hi and any(D.delta.get(b, {}).values()):
            counts["skipped"] += 1
            continue
        if D.apply_delta(D.apply_delta({b: one})):
            fail("delta-squared", f"Delta^2({b}) != 0")
            if len(rep.failures) >= max_failures:
                return rep
        counts["delta2"] += 1

    brackets = {}

    def brk(x, y):
        if (x, y) not in brackets:
            try:
                brackets[x, y] = bracket(D, {x: one}, {y: one}, D.degree(x))
            except WindowOverflow:
                brackets[x, y] = None
        if brackets[x, y] is None:
            raise WindowOverflow("basis bracket leaves the window")
        return brackets[x, y]

    def brk_el(x, e, dx):
        out = {}
        try:
            for w, c in e.items():
                out = el_add(out, el_scale(brk(x, w), c))
        except WindowOverflow:
            if len(e) == 1:
                raise
            return bracket(D, {x: one}, e, dx)
        return out

    for x in D.basis:
        for y in D.basis:
            try:
                lhs = brk(x, y)
                rhs = el_scale(brk(y, x), -1 if ((D.degree(x) + 1) * (D.degree(y) + 1)) % 2 else 1)
            except WindowOverflow:
                counts["skipped"] += 1
                continue
            if el_add(lhs, rhs):
                fail("antisymmetry", f"{{{x},{y}}} != -(-1)^((|a|+1)(|b|+1)) {{{y},{x}}}")
                if len(rep.failures) >= max_failures:
                    return rep
            counts["antisym"] += 1
    for x in D.basis:
        dx = D.degree(x)
        for y in D.basis:
            dy = D.degree(y)
            for z in D.basis:
                try:
                    lhs = brk_el(x, D.product(y, z), dx)
                    t1 = D.mult_el(brk(x, y), {z: one})
                    t2 = el_scale(D.mult_el({y: one}, brk(x, z)), -1 if ((dx + 1) * dy) % 2 else 1)
                    rhs = el_add(t1, t2)
                except WindowOverflow:
                    counts["skipped"] += 1
                    continue
                if el_add(lhs, el_scale(rhs, -1)):
                    fail("leibniz", f"{{{x}, {y}*{z}}} fails the derivation rule")
                    if len(rep.failures) >= max_failures:
                        return rep
                counts["leibniz"] += 1
                try:
                    l2 = brk_el(x, brk(y, z), dx)
                    r1 = bracket(D, brk(x, y), {z: one}, dx + dy + 1)
                    r2 = el_scale(brk_el(y, brk(x, z), dy), -1 if ((dx + 1) * (dy + 1)) % 2 else 1)
                except WindowOverflow:
                    counts["skipped"] += 1
                    continue
                if el_add(l2, el_scale(el_add(r1, r2), -1)):
                    fail("jacobi", f"jacobi fails at ({x},{y},{z})")
                    if len(rep.failures) >= max_failures:
                        return rep
                counts["jacobi"] += 1
    return rep


# the benchmark's BV windows, one more lens window and the degree-0 ring Z(Q[S3]):
# (presentation, lo, hi, number of random cases); the lens windows admit Menichi's Delta
ORACLE_WINDOWS = [
    (lambda: lens_ring(3, 1), -3, 6, 12),
    (lambda: lens_ring(3, 2), -3, 2, 12),
    (lambda: lens_ring(3, 3), -3, 0, 12),
    (lambda: lens_ring(5, 2), -5, 4, 12),
    (lambda: sphere_quotient_ring(2), -2, 3, 12),
    (lambda: sphere_quotient_ring(3), -2, 1, 12),
    (lambda: lens_ring(3, 2), -3, 9, 4),
    (None, 0, 0, 12),
]


def _random_delta(rng, basis, degree, homogeneous):
    """A random Delta on basis; homogeneous ones often square to zero.

    A homogeneous Delta maps a random set of sources into the other labels one
    degree up; when it keeps to labels outside the sources, Delta^2 = 0 and the
    check reaches the Leibniz and Jacobi loops.  A degree-breaking one adds
    terms of either parity in the wrong degree.
    """
    coeff = lambda: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))  # noqa: E731
    sources = [b for b in basis if rng.random() < 0.4]
    closed = rng.random() < 0.7
    delta = {}
    for b in sources:
        targets = [t for t in basis if degree(t) == degree(b) + 1 and not (closed and t in sources)]
        for t in rng.sample(targets, min(len(targets), rng.randint(1, 2))):
            delta.setdefault(b, {})[t] = coeff()
    if not homogeneous:
        for _ in range(rng.randint(1, 3)):
            b, t = rng.choice(basis), rng.choice(basis)
            if degree(t) != degree(b) + 1:
                delta.setdefault(b, {})[t] = coeff()
    return delta


def _basis_bracket_kinds(D):
    """How many basis brackets {x,y} are empty, nonempty, or leave the window."""
    kinds = Counter()
    for x in D.basis:
        for y in D.basis:
            try:
                kinds["nonempty" if bracket(D, {x: F(1)}, {y: F(1)}, D.degree(x)) else "empty"] += 1
            except WindowOverflow:
                kinds["overflow"] += 1
    return kinds


@pytest.mark.parametrize("w", range(len(ORACLE_WINDOWS)))
def test_bv_check_matches_elementwise_oracle(w):
    make, lo, hi, cases = ORACLE_WINDOWS[w]
    rng = random.Random(1000 + w)
    if make is None:
        ring = dw_frobenius(catalog_group("S3"))
        build = lambda delta: ring_window_bv(ring, delta)  # noqa: E731
    else:
        P = make()
        build = lambda delta: graded_window_bv(P, lo, hi, delta)  # noqa: E731
    D0 = build(None)
    seen = Counter()
    for case in range(cases):
        homogeneous = case % 3 != 2
        delta = {} if case == 0 else _random_delta(rng, D0.basis, D0.degree, homogeneous)
        if case == 1 and make is not None and "u" in (name for name, _ in P.gens):
            delta = lens_delta(P, lo, hi)
        for max_failures in (1, 5, 10**6):
            got, want = bv_check(build(delta), max_failures), _oracle_bv_check(build(delta), max_failures)
            assert (got.ok, got.failures, got.checked) == (want.ok, want.failures, want.checked)
            seen[want.ok, bool(want.checked and want.checked["jacobi"])] += 1
    assert seen[True, True] > 0
    # Delta with a single source term, drawn after the cases above so that their
    # draws stay the same: most basis brackets are empty, a few are not, and
    # those sit beside products that overflow
    pairs = [(b, t) for b in D0.basis for t in D0.basis if D0.degree(t) == D0.degree(b) + 1]
    brackets = Counter()
    for _ in range(cases // 2 if pairs else 0):
        b, t = rng.choice(pairs)
        delta = {b: {t: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))}}
        for max_failures in (1, 5, 10**6):
            got, want = bv_check(build(delta), max_failures), _oracle_bv_check(build(delta), max_failures)
            assert (got.ok, got.failures, got.checked) == (want.ok, want.failures, want.checked)
        assert want.checked["jacobi"] > 0
        brackets.update(_basis_bracket_kinds(build(delta)))
    if pairs:  # lens(3,3) [-3,0] and sphere-quotient(3) [-2,1] have no product that overflows
        assert 0 < brackets["nonempty"] < brackets["empty"]
        assert bool(brackets["overflow"]) == bool(_basis_bracket_kinds(D0)["overflow"])


# one window per presentation ------------------------------------------------


def test_a_window_is_built_once_per_presentation(monkeypatch):
    calls = Counter()
    build = graded._basis_window

    def counted(P, lo, hi):
        calls[lo, hi] += 1
        return build(P, lo, hi)

    monkeypatch.setattr(graded, "_basis_window", counted)
    P = lens_ring(3, 2)
    bv_check(graded_window_bv(P, -3, 6))
    assert calls == {(-3, 6): 1}
    basis_window(P, -3, 6)
    D = graded_window_bv(P, -3, 6, lens_delta(P, -3, 6))
    assert calls == {(-3, 6): 1}
    # the products are shared too: the second check on the window multiplies nothing
    D.mult = lambda a, b: pytest.fail(f"{a} * {b} multiplied again")
    assert bv_check(D).ok
    graded_window_bv(P, -3, 2)
    basis_window(P, -3, 2)
    assert calls == {(-3, 6): 1, (-3, 2): 1}
    graded_window_bv(lens_ring(3, 2), -3, 6)  # a presentation built apart builds its own
    assert calls == {(-3, 6): 2, (-3, 2): 1}


def test_basis_window_returns_a_list_the_caller_may_mutate():
    P = lens_ring(3, 2)
    first = basis_window(P, -3, 6)
    want = list(first)
    first.pop()
    first.reverse()
    first.append((9, 9, 9))
    assert basis_window(P, -3, 6) == want
    assert graded_window_bv(P, -3, 6).basis == tuple(want)


@pytest.mark.parametrize(
    "P,lo,hi,message",
    [
        (lens_ring(3, 2), 2, 1, "empty degree window"),
        (GradedPresentation((("w", -2),), (None,)), -4, 0, "generator w has unbounded negative degree; window is infinite"),
    ],
)
def test_an_error_window_raises_on_every_call(P, lo, hi, message):
    for build in (basis_window, graded_window_bv, basis_window, graded_window_bv):
        with pytest.raises(GradedError) as e:
            build(P, lo, hi)
        assert type(e.value) is GradedError and str(e.value) == message
    assert P._windows == {}


def test_a_warmed_window_cache_leaves_eq_hash_and_repr_alone():
    warm, fresh = lens_ring(3, 2), lens_ring(3, 2)
    bv_check(graded_window_bv(warm, -3, 6, lens_delta(warm, -3, 6)))
    basis_window(warm, -3, 2)
    assert len(warm._windows) == 2 and fresh._windows == {}
    assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert {fresh: "fresh"}[warm] == "fresh"
    assert dataclasses.replace(warm)._windows == {}


def _reused_matches_fresh(P, make, lo, hi, deltas) -> bool:
    """True when bv_check on P's window, under each delta in turn, reports what it
    reports on the window of a presentation made afresh for each delta."""
    for delta in deltas:
        for max_failures in (1, 10**6):
            got = bv_check(graded_window_bv(P, lo, hi, delta), max_failures)
            want = bv_check(graded_window_bv(make(), lo, hi, delta), max_failures)
            if (got.ok, got.failures, got.checked) != (want.ok, want.failures, want.checked):
                return False
    return True


@pytest.mark.parametrize("w", range(6))  # the bv benchmark's six graded windows
def test_a_reused_window_checks_as_a_fresh_one(w):
    make, lo, hi, _ = ORACLE_WINDOWS[w]
    P, rng = make(), random.Random(3300 + w)
    basis = basis_window(P, lo, hi)
    deltas = [None] + [_random_delta(rng, basis, P.degree, case % 3 != 2) for case in range(6)]
    assert _reused_matches_fresh(P, make, lo, hi, deltas)


def test_a_reused_lens_window_checks_menichi_deltas_as_a_fresh_one():
    make = lambda: lens_ring(3, 2)  # noqa: E731
    P = make()
    deltas = [lens_delta(P, -3, 9), lens_delta(P, -3, 9, power=2), None, lens_delta(P, -3, 9)]
    assert _reused_matches_fresh(P, make, -3, 9, deltas)
    # negative control: a copy whose cached basis is one element short
    short = dataclasses.replace(P)
    basis = basis_window(P, -3, 9)[:-1]
    short._windows[-3, 9] = (tuple(basis), frozenset(basis), {})
    assert not _reused_matches_fresh(short, make, -3, 9, deltas)
