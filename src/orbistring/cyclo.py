"""Exact arithmetic in the cyclotomic fields Q(zeta_N), on integer numerators.

Elements are polynomials in zeta = exp(2*pi*i/N) of degree < phi(N), reduced
modulo the N-th cyclotomic polynomial and stored as integer numerators over
one positive common denominator, in lowest terms.  Products reduce through an
integer table of the powers of zeta; Fractions appear only where values enter
or leave (the constructor, rational_part, str) and in the solve of inverse.
Everything is immutable and hashable.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial: x^n - 1
    divided by the monic Phi_d for the proper divisors d of n.  Every division
    is exact, since x^n - 1 is the product of the Phi_d over all d | n."""
    if n < 1:
        raise ValueError("level must be positive")
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly, _ = _poly_divmod(poly, cyclotomic_poly(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


def _level(level) -> int:
    """A level as an int, or ValueError naming it."""
    try:
        n = operator.index(level)
    except TypeError:
        raise ValueError(f"level {level!r} is not an integer") from None
    if n < 1:
        raise ValueError(f"level {n} is not a positive integer")
    return n


@lru_cache(maxsize=None)
def _trace_weights(level: int) -> tuple[tuple[int, ...], int]:
    """Integers w_i and a scale s with Tr(zeta^i)/phi(level) = w_i / s, i < phi(level).

    zeta^i is a primitive m-th root of unity, m = level/gcd(level, i); the
    primitive m-th roots sum to mu(m), minus the subleading coefficient of
    the m-th cyclotomic polynomial, and each has the same trace.
    """
    out = []
    for i in range(euler_phi(level)):
        m = level // gcd(level, i)
        out.append(Fraction(-cyclotomic_poly(m)[-2], euler_phi(m)))
    scale = lcm(*(w.denominator for w in out))
    return tuple(w.numerator * (scale // w.denominator) for w in out), scale


@lru_cache(maxsize=None)
def _power_rows(level: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """zeta^k in the basis 1, ..., zeta^(phi-1) as sparse (index, coefficient)
    rows, for k < max(level, 2 phi - 1): enough for a product of two reduced
    elements and for every root of unity."""
    phi = euler_phi(level)
    mod = cyclotomic_poly(level)
    cur = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(max(level, 2 * phi - 1)):
        rows.append(tuple((i, c) for i, c in enumerate(cur) if c))
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:  # zeta^phi = -(mod[0] + ... + mod[phi-1] zeta^(phi-1))
            for i in range(phi):
                cur[i] -= top * mod[i]
    return tuple(rows)


def _reduce(level: int, work: list[int]) -> list[int]:
    """Integer coefficients of a polynomial in zeta_level, reduced to length phi(level)."""
    phi = euler_phi(level)
    rows = _power_rows(level)
    if len(work) > len(rows):  # zeta^level = 1
        folded = [0] * level
        for k, c in enumerate(work):
            folded[k % level] += c
        work = folded
    out = work[:phi] + [0] * (phi - len(work))
    for k in range(phi, len(work)):
        c = work[k]
        if c:
            for i, t in rows[k]:
                out[i] += c * t
    return out


_new = object.__new__
_set = object.__setattr__


def _make(level: int, num: list[int], den: int) -> "Cyclo":
    """The element num/den from reduced integer numerators and a positive denominator."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    out = _new(Cyclo)
    _set(out, "level", level)
    _set(out, "num", tuple(num))
    _set(out, "den", den)
    return out


@lru_cache(maxsize=None)
def _roots(level: int) -> tuple["Cyclo", ...]:
    """zeta^k for k < level."""
    phi = euler_phi(level)
    out = []
    for row in _power_rows(level)[:level]:
        num = [0] * phi
        for i, c in row:
            num[i] = c
        out.append(_make(level, num, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _root_index(level: int) -> dict[tuple[int, ...], int]:
    """k for the numerators of zeta^k, k < level."""
    return {r.num: k for k, r in enumerate(_roots(level))}


class Cyclo:
    """An element of Q(zeta_N): the numerators num over the denominator den."""

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: Iterable[Fraction | int]):
        level = _level(level)
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        made = _make(level, _reduce(level, num), den)
        _set(self, "level", level)
        _set(self, "num", made.num)
        _set(self, "den", made.den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Cyclo is immutable")

    # constructors ---------------------------------------------------------

    @staticmethod
    def zero(level: int = 1) -> "Cyclo":
        return Cyclo(level, [])

    @staticmethod
    def one(level: int = 1) -> "Cyclo":
        return Cyclo(level, [1])

    @staticmethod
    def rational(q: Fraction | int, level: int = 1) -> "Cyclo":
        return Cyclo(level, [q])

    @staticmethod
    def root(level: int, k: int) -> "Cyclo":
        """zeta_level ** k."""
        level = _level(level)
        return _roots(level)[k % level]

    @staticmethod
    def from_phase(q: Fraction, level: int) -> "Cyclo":
        """exp(2*pi*i*q) as an element of Q(zeta_level); q must have denominator dividing level."""
        level = _level(level)
        k = q * level
        if k.denominator != 1:
            raise ValueError(f"phase {q} does not live at level {level}")
        return _roots(level)[int(k) % level]

    # ring operations ------------------------------------------------------

    def _level_of(self, other: "Cyclo") -> int:
        if other.level != self.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        return self.level

    def __add__(self, other):
        if isinstance(other, Cyclo):
            level = self._level_of(other)
            da, db = self.den, other.den
            if da == db:
                return _make(level, [x + y for x, y in zip(self.num, other.num)], da)
            d = lcm(da, db)
            ma, mb = d // da, d // db
            return _make(level, [x * ma + y * mb for x, y in zip(self.num, other.num)], d)
        if isinstance(other, (int, Fraction)):
            q = other.denominator
            d = lcm(self.den, q)
            m = d // self.den
            num = [x * m for x in self.num]
            num[0] += other.numerator * (d // q)
            return _make(self.level, num, d)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _make(self.level, [-x for x in self.num], self.den)

    def __sub__(self, other):
        if isinstance(other, (Cyclo, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def _scale(self, p: int, q: int) -> "Cyclo":
        """self * p / q for integers p and q > 0."""
        return _make(self.level, [x * p for x in self.num], self.den * q)

    def __mul__(self, other):
        if isinstance(other, Cyclo):
            level = self._level_of(other)
            a, b = self.num, other.num
            n = len(a)
            bs = [(j, y) for j, y in enumerate(b) if y]
            prod = [0] * (2 * n - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in bs:
                        prod[i + j] += x * y
            rows = _power_rows(level)
            for k in range(2 * n - 2, n - 1, -1):
                c = prod.pop()
                if c:
                    for i, t in rows[k]:
                        prod[i] += c * t
            return _make(level, prod, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self._scale(other.numerator, other.denominator)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        # a rational multiple (g/den) zeta^k of a root of unity inverts by table
        g = gcd(*self.num)
        index = _root_index(self.level)
        for sign in (1, -1):
            k = index.get(tuple(sign * x // g for x in self.num))
            if k is not None:
                return _roots(self.level)[-k % self.level]._scale(sign * self.den, g)
        # else solve x y = 1 as M y = den e_0, column j of M the numerators of zeta^j num
        level, num = self.level, list(self.num)
        cols = [_reduce(level, [0] * j + num) for j in range(len(num))]
        rhs = [[self.den]] + [[0]] * (len(num) - 1)
        return Cyclo(level, [row[0] for row in _int_solve([list(r) for r in zip(*cols)], rhs)])

    def __truediv__(self, other):
        if isinstance(other, Cyclo):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("inverse of zero cyclotomic number")
            p, q = other.numerator, other.denominator
            return self._scale(-q, -p) if p < 0 else self._scale(q, p)
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclo.one(self.level)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # structure ------------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if isinstance(other, Cyclo):
            if other.level != self.level:
                m = lcm(self.level, other.level)
                return self.lift(m) == other.lift(m)
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.den == other.denominator and self.num[0] == other.numerator and not any(self.num[1:])
        return NotImplemented

    def __hash__(self):
        # the normalised trace Tr(x)/phi(N) does not depend on the level and
        # equals x when x is rational, so equal values hash alike
        weights, scale = _trace_weights(self.level)
        return hash(Fraction(sum(x * w for x, w in zip(self.num, weights)), self.den * scale))

    def galois(self, c: int) -> "Cyclo":
        """Apply the Galois automorphism zeta -> zeta**c (gcd(c, level) must be 1)."""
        if gcd(c, self.level) != 1:
            raise ValueError("not a Galois exponent")
        out = [0] * self.level
        for i, x in enumerate(self.num):
            out[(i * c) % self.level] += x
        return _make(self.level, _reduce(self.level, out), self.den)

    def lift(self, new_level: int) -> "Cyclo":
        """Reembed into Q(zeta_M) for a multiple M of the current level."""
        new_level = _level(new_level)
        if new_level == self.level:
            return self
        if new_level % self.level:
            raise ValueError("can only lift to a multiple of the level")
        m = new_level // self.level
        out = [0] * (len(self.num) * m)
        for i, x in enumerate(self.num):
            out[i * m] = x
        return _make(new_level, _reduce(new_level, out), self.den)

    def rational_part(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        return f"Cyclo({self.level}, {self})"

    def __str__(self):
        terms = []
        for i, x in enumerate(self.num):
            if not x:
                continue
            a = Fraction(x, self.den)
            if i == 0:
                terms.append(str(a))
            else:
                mon = "z" if i == 1 else f"z^{i}"
                if a == 1:
                    terms.append(mon)
                elif a == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{a}*{mon}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def _poly_divmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """The quotient and remainder of a by a monic integer b, ascending integer
    coefficients; the remainder has deg b entries."""
    a = list(a)
    d = len(b) - 1
    q = [0] * max(0, len(a) - d)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = a[k + d]
        if c:
            for i, x in enumerate(b):
                a[k + i] -= c * x
    return q, (a + [0] * d)[:d]


# primes, and exact linear algebra: a solve over the integers, rank by sparse
# echelon over Fraction or Cyclo, and its image over F_p


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin to the first 13 prime bases, which
    decides every n < 3.3 * 10^24 exactly (Sorenson & Webster, Math. Comp. 86,
    2017); every prime this package searches for is far below that."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_root(level: int, after: int) -> tuple[int, int]:
    """The least prime p > after with p = 1 (mod level), and a primitive
    level-th root of unity omega mod p.  omega is a root of the level-th
    cyclotomic polynomial mod p, so zeta -> omega maps Z[zeta_level] onto F_p
    as a ring homomorphism."""
    p = after + 1 + (-after) % level
    while not _is_prime(p):
        p += level
    primes = [q for q in range(2, level + 1) if level % q == 0 and _is_prime(q)]
    # F_p^* is cyclic, so some g gives an omega of order exactly level
    omegas = (pow(g, (p - 1) // level, p) for g in range(2, p))
    return p, next(w for w in omegas if all(pow(w, level // q, p) != 1 for q in primes))


def _int_solve(a: list[list[int]], rhs: list[list[int]]) -> list[list[Fraction]]:
    """Solve a * x = rhs, a square and integral, by fraction-free Gauss-Jordan
    (Bareiss, Math. Comp. 22, 1968): step k sets each row r but the pivot row to
    (p_k r - r_k row_k) / p_(k-1), p_k the k-th pivot, an exact division that
    only the columns right of k need.  The left block ends as p_(n-1) = +-det(a)
    times the identity, so each entry of x is Fraction(num, p_(n-1))."""
    n = len(a)
    work = [list(a[i]) + list(rhs[i]) for i in range(n)]
    prev = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise ArithmeticError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        p, tail = work[col][col], work[col][col + 1 :]
        for r, row in enumerate(work):
            if r != col:
                f = row[col]
                row[col + 1 :] = [(p * v - f * w) // prev for v, w in zip(row[col + 1 :], tail)]
        prev = p
    return [[Fraction(v, prev) for v in row[n:]] for row in work]


def _echelon_insert(rows: dict[int, dict], v: dict, zero, one) -> dict:
    """Reduce the sparse row v {index: coefficient}, in place, against echelon
    rows {pivot: row}, each row 1 at its least index, its pivot.  What is left,
    scaled to 1 at its least index, joins rows and is returned; {} means v lies
    in the span of rows.  Coefficients come from one exact field, Fraction or
    Cyclo, with the given zero and one."""
    for p in sorted(rows):
        if c := v.get(p):
            for k, r in rows[p].items():
                v[k] = v.get(k, zero) - c * r
    v = {k: c for k, c in v.items() if c}
    if v:
        inv = one / v[min(v)]
        rows[min(v)] = v = {k: c * inv for k, c in v.items()}
    return v


def _echelon_insert_mod(rows: dict[int, dict], v: dict, p: int) -> dict:
    """_echelon_insert over F_p: v's integer coefficients are read modulo the
    prime p, and v itself is left unchanged."""
    v = {k: c % p for k, c in v.items()}
    for piv in sorted(rows):
        if c := v.get(piv):
            for k, r in rows[piv].items():
                v[k] = (v.get(k, 0) - c * r) % p
    v = {k: c for k, c in v.items() if c}
    if v:
        inv = pow(v[min(v)], -1, p)
        rows[min(v)] = v = {k: c * inv % p for k, c in v.items()}
    return v
