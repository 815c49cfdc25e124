import gc
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


def test_presentation_checks_graded_commutativity(monkeypatch):
    gens = (("a", 1), ("b", 3))
    GradedPresentation(gens, (None, None))
    # a sign that ignores the swap of two odd generators must refuse the build
    monkeypatch.setattr(graded, "_koszul_sign", lambda P, a, b: 1)
    with pytest.raises(GradedError, match="graded commutativity failed"):
        GradedPresentation(gens, (None, None))


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


def test_degree0_free_generator_rejected():
    with pytest.raises(GradedError):
        GradedPresentation((("x", 0),), (None,))


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


# Menichi's BV operator on the loop homology of odd spheres, extended to the
# lens presentation: Delta(a u^k v^j) = k u^(k-1) v^j (Comment. Math. Helv. 84,
# 2009).  The windows are the ones the benchmark probes use.
MENICHI_WINDOWS = [(3, 1, -3, 6), (3, 2, -3, 6), (3, 3, -3, 4), (5, 2, -5, 8)]


def menichi_delta(P, lo, hi, power=1):
    """Delta(a u^k v^j) = k^power u^(k-1) v^j on the window basis."""
    ia, iu = P.index("a"), P.index("u")
    delta = {}
    for mono in basis_window(P, lo, hi):
        k = mono[iu]
        if mono[ia] == 1 and k > 0:
            target = list(mono)
            target[ia], target[iu] = 0, k - 1
            delta[mono] = {tuple(target): F(k**power)}
    return delta


@pytest.mark.parametrize("n,p,lo,hi", MENICHI_WINDOWS)
def test_bv_check_accepts_menichi_delta(n, p, lo, hi):
    P = lens_ring(n, p)
    rep = bv_check(graded_window_bv(P, lo, hi, menichi_delta(P, lo, hi)))
    assert rep.ok, rep.failures
    assert rep.checked["antisym"] > 0 and rep.checked["jacobi"] > 0


@pytest.mark.parametrize("n,p,lo,hi", MENICHI_WINDOWS)
def test_bv_check_rejects_squared_menichi_delta(n, p, lo, hi):
    P = lens_ring(n, p)
    rep = bv_check(graded_window_bv(P, lo, hi, menichi_delta(P, lo, hi, power=2)))
    assert not rep.ok
    assert rep.failures[0]["axiom"] == "jacobi"


def test_squared_menichi_delta_also_breaks_leibniz():
    P = lens_ring(3, 1)
    rep = bv_check(graded_window_bv(P, -3, 6, menichi_delta(P, -3, 6, power=2)), max_failures=10**6)
    assert {f["axiom"] for f in rep.failures} == {"jacobi", "leibniz"}


CHECKED_KEYS = ("degree", "delta2", "antisym", "leibniz", "jacobi", "skipped")


def test_bv_check_counts_and_witnesses_are_pinned():
    P = lens_ring(3, 2)
    zero = bv_check(graded_window_bv(P, -3, 9))
    assert zero.ok
    assert list(zero.checked.items()) == list(zip(CHECKED_KEYS, (24, 24, 456, 7824, 7824, 6120)))
    menichi = bv_check(graded_window_bv(P, -3, 9, menichi_delta(P, -3, 9)))
    assert menichi.ok
    assert list(menichi.checked.items()) == list(zip(CHECKED_KEYS, (24, 22, 356, 5112, 4272, 9774)))
    P1 = lens_ring(3, 1)
    rep = bv_check(graded_window_bv(P1, -3, 6, menichi_delta(P1, -3, 6, power=2)), max_failures=10**6)
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
    return graded_window_bv(P, -3, 6, menichi_delta(P, -3, 6)), True


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
