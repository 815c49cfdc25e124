"""Exact arithmetic in the cyclotomic fields Q(zeta_N), with Fraction coefficients.

Elements are polynomials in zeta = exp(2*pi*i/N) of degree < phi(N), reduced
modulo the N-th cyclotomic polynomial.  Everything is immutable and hashable.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable


_F0 = Fraction(0)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("level must be positive")
    if n == 1:
        return (-1, 1)
    poly = [Fraction(-1)] + [_F0] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, [Fraction(c) for c in cyclotomic_poly(d)])
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(int(c) for c in poly)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    return len(cyclotomic_poly(n)) - 1


@lru_cache(maxsize=None)
def _trace_weights(level: int) -> tuple[Fraction, ...]:
    """Tr(zeta^i)/phi(level) for i < phi(level).

    zeta^i is a primitive m-th root of unity, m = level/gcd(level, i); the
    primitive m-th roots sum to mu(m), minus the subleading coefficient of
    the m-th cyclotomic polynomial, and each has the same trace.
    """
    out = []
    for i in range(euler_phi(level)):
        m = level // gcd(level, i)
        out.append(Fraction(-cyclotomic_poly(m)[-2], euler_phi(m)))
    return tuple(out)


def _reduce(level: int, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    """Reduce a polynomial in zeta_level modulo the cyclotomic polynomial."""
    phi = euler_phi(level)
    mod = cyclotomic_poly(level)
    work = list(coeffs)
    for k in range(len(work) - 1, phi - 1, -1):
        c = work[k]
        if c:
            work[k] = Fraction(0)
            for i in range(phi):
                work[k - phi + i] -= c * mod[i]
    work = work[:phi] + [Fraction(0)] * (phi - len(work))
    return tuple(work[:phi])


class Cyclo:
    """An element of Q(zeta_N)."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: Iterable[Fraction | int]):
        object.__setattr__(self, "level", int(level))
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(cs) > euler_phi(level):
            cs = list(_reduce(level, cs))
        cs += [_F0] * (euler_phi(level) - len(cs))
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Cyclo is immutable")

    @classmethod
    def _raw(cls, level: int, coeffs: tuple[Fraction, ...]) -> "Cyclo":
        # internal: coeffs already reduced, padded, and of Fraction type
        out = object.__new__(cls)
        object.__setattr__(out, "level", level)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    # constructors ---------------------------------------------------------

    @staticmethod
    def zero(level: int = 1) -> "Cyclo":
        return Cyclo(level, [])

    @staticmethod
    def one(level: int = 1) -> "Cyclo":
        return Cyclo(level, [Fraction(1)])

    @staticmethod
    def rational(q: Fraction | int, level: int = 1) -> "Cyclo":
        return Cyclo(level, [Fraction(q)])

    @staticmethod
    def root(level: int, k: int) -> "Cyclo":
        """zeta_level ** k."""
        k %= level
        return Cyclo(level, [Fraction(0)] * k + [Fraction(1)])

    @staticmethod
    def from_phase(q: Fraction, level: int) -> "Cyclo":
        """exp(2*pi*i*q) as an element of Q(zeta_level); q must have denominator dividing level."""
        k = q * level
        if k.denominator != 1:
            raise ValueError(f"phase {q} does not live at level {level}")
        return Cyclo.root(level, int(k))

    # ring operations ------------------------------------------------------

    def _coerce(self, other) -> "Cyclo":
        if isinstance(other, Cyclo):
            if other.level != self.level:
                raise ValueError(f"level mismatch: {self.level} vs {other.level}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.rational(other, self.level)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyclo._raw(self.level, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclo._raw(self.level, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Cyclo._raw(self.level, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        n = len(a)
        prod = [_F0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] += ai * bj
        if any(prod[n:]):
            return Cyclo._raw(self.level, _reduce(self.level, prod))
        return Cyclo._raw(self.level, tuple(prod[:n]))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclo":
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        mod = [Fraction(c) for c in cyclotomic_poly(self.level)]
        return Cyclo(self.level, _poly_inverse_mod(list(self.coeffs), mod))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

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
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.rational(other, self.level)
        if not isinstance(other, Cyclo):
            return NotImplemented
        if other.level != self.level:
            return self.lift(lcm(self.level, other.level)) == other.lift(lcm(self.level, other.level))
        return self.coeffs == other.coeffs

    def __hash__(self):
        # the normalised trace Tr(x)/phi(N) does not depend on the level and
        # equals x when x is rational, so equal values hash alike
        return hash(sum(a * w for a, w in zip(self.coeffs, _trace_weights(self.level)) if a))

    def galois(self, c: int) -> "Cyclo":
        """Apply the Galois automorphism zeta -> zeta**c (gcd(c, level) must be 1)."""
        if gcd(c, self.level) != 1:
            raise ValueError("not a Galois exponent")
        out = [Fraction(0)] * self.level
        for i, a in enumerate(self.coeffs):
            if a:
                out[(i * c) % self.level] += a
        return Cyclo(self.level, out)

    def lift(self, new_level: int) -> "Cyclo":
        """Reembed into Q(zeta_M) for a multiple M of the current level."""
        if new_level == self.level:
            return self
        if new_level % self.level:
            raise ValueError("can only lift to a multiple of the level")
        m = new_level // self.level
        out = [Fraction(0)] * (euler_phi(self.level) * m)
        for i, a in enumerate(self.coeffs):
            if a:
                out[i * m] += a
        return Cyclo(new_level, out)

    def rational_part(self) -> Fraction | None:
        """The value as a Fraction if it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __repr__(self):
        return f"Cyclo({self.level}, {self})"

    def __str__(self):
        terms = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
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


# polynomial helpers over Q ------------------------------------------------


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i in range(n):
        if i < len(a):
            out[i] += a[i]
        if i < len(b):
            out[i] -= b[i]
    return _poly_trim(out)


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    b = _poly_trim(list(b))
    if len(b) == 1 and not b[0]:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    for k in range(len(a) - len(b), -1, -1):
        c = a[k + len(b) - 1] / b[-1]
        if c:
            q[k] = c
            for i, bi in enumerate(b):
                a[k + i] -= c * bi
    return _poly_trim(q), _poly_trim(a)


def _poly_inverse_mod(a: list[Fraction], m: list[Fraction]) -> list[Fraction]:
    """b with a*b = 1 modulo m, by extended Euclid in Q[x]."""
    r0, r1 = m, a
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while any(r1):
        q, rem = _poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    r0 = _poly_trim(list(r0))
    if len(r0) != 1 or not r0[0]:
        raise ZeroDivisionError("not invertible modulo the polynomial")
    return [c / r0[0] for c in s0]


# generic exact linear algebra (works over Fraction or Cyclo) ---------------


def mat_solve(a: list[list], rhs: list[list], zero, one):
    """Solve a * x = rhs by Gauss-Jordan over an exact field; a must be square invertible."""
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
    """Determinant by fraction-free-ish Gaussian elimination over an exact field."""
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
