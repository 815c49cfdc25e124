import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbistring.cyclo import Cyclo, _echelon_insert, _int_solve, _poly_divmod, cyclotomic_poly, euler_phi


def _poly_mul(a: list, b: list) -> list:
    """The product of two ascending coefficient lists: the oracle for polynomial products."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _frac_poly_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The remainder of a modulo b (nonzero leading coefficient) by long division in Q[x]."""
    a = list(a)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / b[-1]
        for i, x in enumerate(b):
            a[k + i] -= c * x
    return a[: len(b) - 1]


def mat_solve(a: list[list], rhs: list[list], zero, one):
    """Solve a * x = rhs by Gauss-Jordan over an exact field; a must be square invertible.

    The field oracle for the library's linear solves, over Fraction or Cyclo.
    """
    n = len(a)
    m = len(rhs[0]) if rhs else 0
    work = [list(a[i]) + list(rhs[i]) for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ArithmeticError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        inv = one / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [vr - f * vc for vr, vc in zip(work[r], work[col])]
    return [row[n : n + m] for row in work]


def mat_det(a: list[list], zero, one):
    """Determinant by dense Gaussian elimination over an exact field, Fraction or Cyclo.

    The field oracle for the library's rank tests.
    """
    n = len(a)
    work = [list(row) for row in a]
    det = one
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return zero
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = zero - det
        det = det * work[col][col]
        inv = one / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] * inv
                work[r] = [vr - f * vc for vr, vc in zip(work[r], work[col])]
    return det


def test_cyclotomic_polys():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(3) == (1, 1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    assert euler_phi(12) == 4


def test_cyclotomic_product_over_divisors():
    # x^n - 1 is the product of the d-th cyclotomic polynomials over d | n, and the n-th has degree phi(n)
    for n in range(1, 200):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _poly_mul(prod, list(cyclotomic_poly(d)))
        assert prod == [-1] + [0] * (n - 1) + [1]
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n) == _totient(n)


def test_poly_divmod_by_monic_integer_divisors():
    # a = q b + r with r of deg b integer entries, for random integer a and monic integer b
    rng = random.Random(20)
    for _ in range(3000):
        a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 15))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [1]
        q, r = _poly_divmod(a, b)
        assert len(r) == len(b) - 1
        assert all(type(c) is int for c in q + r)
        assert not any(_padd(_padd(_poly_mul(q, b), r), a, -1))


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


def test_int_solve_matches_field_oracle():
    # random integer systems up to 8x8 with 0-3 right-hand sides: a third are
    # products through an inner dimension below n (rank-deficient), and a third
    # of the entries are zero so that pivots must be searched for
    rng = random.Random(2024)

    def entry():
        return rng.choice([0, rng.randint(-9, 9), rng.randint(-10**6, 10**6)])

    singular = 0
    for trial in range(2400):
        n, m = rng.randint(1, 8), rng.randint(0, 3)
        if trial % 3:
            a = [[entry() for _ in range(n)] for _ in range(n)]
        else:
            r = rng.randint(0, n - 1)
            left = [[entry() for _ in range(r)] for _ in range(n)]
            right = [[entry() for _ in range(n)] for _ in range(r)]
            a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if r else [0] * n for row in left]
        rhs = [[entry() for _ in range(m)] for _ in range(n)]
        given = ([list(row) for row in a], [list(row) for row in rhs])
        try:
            want = mat_solve([[Fraction(c) for c in row] for row in a], rhs, Fraction(0), Fraction(1))
        except ArithmeticError:
            singular += 1
            with pytest.raises(ArithmeticError, match="^singular matrix$"):
                _int_solve(a, rhs)
        else:
            got = _int_solve(a, rhs)
            assert got == want and all(type(c) is Fraction for row in got for c in row)
        assert (a, rhs) == given
    assert 800 <= singular <= 1200


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


# differential test against Fraction polynomials reduced by long division ------

LEVELS = [1, 3, 8, 12, 16, 48]
small = st.fractions(min_value=-7, max_value=7, max_denominator=5)


def _oracle(n, poly):
    """Coefficients of poly(zeta_n) in the basis 1, ..., zeta^(phi-1)."""
    rem = _frac_poly_rem([Fraction(c) for c in poly], [Fraction(c) for c in cyclotomic_poly(n)])
    return rem + [Fraction(0)] * (euler_phi(n) - len(rem))


def _padd(a, b, sign=1):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + sign * (b[i] if i < len(b) else 0) for i in range(n)]


def _mobius(m):
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def _totient(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _oracle_hash(n, coeffs):
    # Tr(zeta^i)/phi(n) = mu(m)/phi(m) with m the order of zeta^i
    return hash(sum(a * Fraction(_mobius(n // gcd(n, i)), _totient(n // gcd(n, i))) for i, a in enumerate(coeffs)))


def _oracle_str(coeffs):
    terms = []
    for i, a in enumerate(coeffs):
        if a:
            mon = "" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if not mon:
                terms.append(str(a))
            elif a in (1, -1):
                terms.append(("-" if a < 0 else "") + mon)
            else:
                terms.append(f"{a}*{mon}")
    if not terms:
        return "0"
    return terms[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in terms[1:])


@st.composite
def polys(draw, n):
    """Dense, sparse (roots and monomials) and over-long coefficient lists."""
    kind = draw(st.sampled_from(["dense", "sparse", "long"]))
    if kind == "dense":
        return draw(st.lists(small, max_size=euler_phi(n)))
    if kind == "sparse":
        out = [Fraction(0)] * n
        for k in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)):
            out[k] += draw(st.sampled_from([Fraction(1), Fraction(-1), Fraction(3, 2)]))
        return out
    return draw(st.lists(small, min_size=n, max_size=n + 6))


@st.composite
def pairs(draw):
    n = draw(st.sampled_from(LEVELS))
    return n, draw(polys(n)), draw(polys(n))


@settings(max_examples=150, deadline=None)
@given(pairs())
def test_cyclo_matches_polynomial_oracle(case):
    n, p, q = case
    x, y = Cyclo(n, p), Cyclo(n, q)
    ox, oy = _oracle(n, p), _oracle(n, q)
    assert x.level == n and y.level == n
    assert x == Cyclo(n, ox) and str(x) == _oracle_str(ox)
    assert str(x + y) == _oracle_str(_oracle(n, _padd(p, q)))
    assert str(x - y) == _oracle_str(_oracle(n, _padd(p, q, -1)))
    assert str(x * y) == _oracle_str(_oracle(n, _poly_mul(p or [Fraction(0)], q or [Fraction(0)])))
    assert str(-x) == _oracle_str([-c for c in ox])
    assert (x == y) is (ox == oy) and (x != y) is (ox != oy)
    assert hash(x) == _oracle_hash(n, ox)
    assert repr(x) == f"Cyclo({n}, {_oracle_str(ox)})"
    if any(ox):
        # the inverse solves x * v = 1 in the oracle's coordinates
        phi = euler_phi(n)
        cols = [_oracle(n, _poly_mul(ox, [Fraction(0)] * j + [Fraction(1)])) for j in range(phi)]
        rhs = [[Fraction(int(i == 0))] for i in range(phi)]
        v = [row[0] for row in mat_solve([list(r) for r in zip(*cols)], rhs, Fraction(0), Fraction(1))]
        assert str(x.inverse()) == _oracle_str(v)
        assert x * x.inverse() == 1 and (y / x) * x == y
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    # the same value written with a multiple of the cyclotomic polynomial added
    shifted = _padd(p, _poly_mul([Fraction(c) for c in cyclotomic_poly(n)], q or [Fraction(1)]))
    z = Cyclo(n, shifted)
    assert z == x and hash(z) == hash(x) and str(z) == str(x)



@st.composite
def mixed(draw):
    n = draw(st.sampled_from(LEVELS))
    q = draw(st.one_of(st.integers(-9, 9), small))
    return n, draw(polys(n)), q


@settings(max_examples=150, deadline=None)
@given(mixed())
def test_cyclo_mixes_with_int_and_fraction(case):
    n, p, q = case
    x, ox = Cyclo(n, p), _oracle(n, p)
    shifted = [ox[0] + q] + ox[1:]
    assert str(x + q) == str(q + x) == _oracle_str(shifted)
    assert str(x - q) == _oracle_str([ox[0] - q] + ox[1:])
    assert str(q - x) == _oracle_str([q - ox[0]] + [-c for c in ox[1:]])
    assert str(x * q) == str(q * x) == _oracle_str([c * q for c in ox])
    assert (x == q) is (ox == _oracle(n, [q])) and (q == x) is (x == q)
    r = Cyclo.rational(q, n)
    assert r == q and hash(r) == hash(q) and hash(Cyclo(n, [q])) == hash(Fraction(q))
    assert r.rational_part() == q and type(r.rational_part()) is Fraction
    if q:
        assert str(x / q) == _oracle_str([c / q for c in ox])
    else:
        with pytest.raises(ZeroDivisionError):
            x / q
    if any(ox):
        assert (q / x) * x == q


@pytest.mark.parametrize(
    "make",
    [
        lambda: Cyclo(0, []),
        lambda: Cyclo(-3, [1]),
        lambda: Cyclo.zero(0),
        lambda: Cyclo.one(-1),
        lambda: Cyclo.rational(Fraction(1, 2), 0),
        lambda: Cyclo.root(0, 1),
        lambda: Cyclo.root(-4, 1),
        lambda: Cyclo.from_phase(Fraction(1, 2), 0),
        lambda: Cyclo.root(4, 1).lift(0),
        lambda: Cyclo.root(4, 1).lift(-4),
        lambda: Cyclo.root(4, 1).lift(6),
    ],
)
def test_bad_level_is_a_value_error(make):
    with pytest.raises(ValueError, match="level"):
        make()


def test_echelon_rank_matches_determinant_oracle():
    # random square matrices up to 8x8 over Q and Q(zeta_N): a third have two
    # zero entries in three, and a third are products through an inner
    # dimension below n (rank-deficient)
    rng = random.Random(2026)
    deficient = 0
    for trial in range(2100):
        n, level = rng.randint(1, 8), rng.choice([1, 3, 4, 5, 8, 12])
        zero, one = (Fraction(0), Fraction(1)) if level == 1 else (Cyclo.zero(level), Cyclo.one(level))

        def entry():
            if trial % 3 == 1 and rng.random() < 2 / 3:
                return zero
            if level == 1:
                return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            return Cyclo(level, [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(euler_phi(level))])

        if trial % 3 == 2:
            r = rng.randint(0, n - 1)
            left = [[entry() for _ in range(r)] for _ in range(n)]
            right = [[entry() for _ in range(n)] for _ in range(r)]
            a = [[sum((row[t] * right[t][j] for t in range(r)), zero) for j in range(n)] for row in left]
        else:
            a = [[entry() for _ in range(n)] for _ in range(n)]
        rows: dict = {}
        independent = [bool(_echelon_insert(rows, {j: c for j, c in enumerate(row) if c}, zero, one)) for row in a]
        assert all(independent) == (mat_det(a, zero, one) != zero)
        deficient += not all(independent)
        assert len(rows) == sum(independent)
        assert all(min(row) == p and row[p] == one for p, row in rows.items())
        # a combination of the rows already inserted lies in their span
        combo: dict = {}
        for row in a:
            c = entry()
            for j, x in enumerate(row):
                combo[j] = combo.get(j, zero) + c * x
        assert _echelon_insert(rows, {j: x for j, x in combo.items() if x}, zero, one) == {}
        assert len(rows) == sum(independent)
    assert 700 <= deficient <= 1400
