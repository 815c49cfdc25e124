import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbistring.cyclo import Cyclo, cyclotomic_poly, euler_phi, mat_det, mat_solve


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_roots_of_unity():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        z = Cyclo.root(n, 1)
        assert z**n == Cyclo.one(n)
        # primitive: no smaller power is 1
        for k in range(1, n):
            assert z**k != Cyclo.one(n)


def test_field_arithmetic_random():
    rng = random.Random(0)
    for n in (3, 4, 5, 8, 12):
        phi = euler_phi(n)
        for _ in range(25):
            a = Cyclo(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(phi)])
            b = Cyclo(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(phi)])
            assert (a + b) - b == a
            assert a * b == b * a
            if a:
                assert a * a.inverse() == Cyclo.one(n)
            if b:
                assert (a / b) * b == a


def test_phase_embedding():
    z = Cyclo.from_phase(Fraction(1, 4), 4)
    assert z * z == Cyclo.rational(-1, 4)
    assert Cyclo.from_phase(Fraction(1, 2), 6) == Cyclo.root(6, 3)
    with pytest.raises(ValueError):
        Cyclo.from_phase(Fraction(1, 5), 4)


def test_lift_and_galois():
    a = Cyclo.root(3, 1)
    b = a.lift(12)
    assert b == Cyclo.root(12, 4)
    assert b.galois(5) == Cyclo.root(12, 20 % 12)
    assert (a + 1).lift(12) == b + 1


def test_rational_part_and_str():
    assert Cyclo.rational(Fraction(3, 2), 5).rational_part() == Fraction(3, 2)
    assert Cyclo.root(5, 1).rational_part() is None
    assert str(Cyclo.zero(5)) == "0"
    assert str(Cyclo.one(1)) == "1"
    assert "z" in str(Cyclo.root(5, 1))


def test_exact_linear_algebra():
    zero, one = Cyclo.zero(4), Cyclo.one(4)
    i = Cyclo.root(4, 1)
    m = [[one, i], [i, one]]
    eye = [[one, zero], [zero, one]]
    inv = mat_solve(m, eye, zero, one)
    prod = [
        [sum((m[r][k] * inv[k][c] for k in range(2)), zero) for c in range(2)]
        for r in range(2)
    ]
    assert prod == eye
    assert mat_det(m, zero, one) == one - i * i  # 1 - i^2 = 2
    assert mat_det([[one, one], [one, one]], zero, one) == zero


coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def cyclos(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12]))
    return Cyclo(n, draw(st.lists(coeff, min_size=euler_phi(n), max_size=euler_phi(n))))


@settings(max_examples=200, deadline=None)
@given(cyclos(), st.sampled_from([1, 2, 3, 4, 6]))
def test_lift_keeps_equality_and_hash(x, k):
    y = x.lift(k * x.level)
    assert y == x and x == y
    assert hash(y) == hash(x)
    assert len({x, y}) == 1


@settings(max_examples=100, deadline=None)
@given(coeff, st.sampled_from([1, 2, 4, 6, 8, 12]))
def test_rational_cyclo_hashes_like_its_fraction(q, n):
    x = Cyclo.rational(q, n)
    assert x == q and hash(x) == hash(q)
