"""Graded-commutative algebra presentations and a Batalin-Vilkovisky axiom checker.

Supported relations are exactly what the shipped string-homology rings need:
odd generators square to zero automatically over Q, listed monomials may be
annihilated outright, and a degree-zero generator may be a root of unity
(x^p = 1).  These shapes admit unique normal forms without any completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import add, ge, mul
from typing import Callable, Iterable


class GradedError(ValueError):
    pass


class WindowOverflow(GradedError):
    """A product or operator left the configured degree window."""


Monomial = tuple[int, ...]
Element = dict  # Monomial -> coefficient
_ZERO = Fraction(0)  # multiply starts each sum here, so that every coefficient is a Fraction


@dataclass(frozen=True)
class GradedPresentation:
    """Generators with integer degrees, annihilated monomials, root-of-unity generators."""

    gens: tuple[tuple[str, int], ...]
    root_orders: tuple[int | None, ...]  # aligned with gens; p for x^p = 1
    zero_monomials: tuple[Monomial, ...] = ()

    def __post_init__(self):
        if (k := len(self.root_orders)) != (m := len(self.gens)):
            raise GradedError(f"root order count {k} does not match generator count {m}")
        for (name, deg), p in zip(self.gens, self.root_orders):
            if p is not None:
                if deg != 0:
                    raise GradedError(f"root-of-unity generator {name} must have degree 0")
                if p < 1:
                    raise GradedError(f"root order of {name} must be positive")
            if p is None and deg == 0:
                raise GradedError(f"free generator {name} of degree 0 makes windows infinite")
        n = len(self.gens)
        for z in self.zero_monomials:
            if len(z) != n or min(z, default=0) < 0:
                raise GradedError(f"zero monomial {tuple(z)} does not give one non-negative exponent per generator")
        # normal-form rules, derived once as attributes that are not fields (so ==, hash and repr read only
        # the fields), and set here, as a first write to the instance dict later slows every attribute read
        object.__setattr__(self, "_degs", degs := tuple(d for _, d in self.gens))
        object.__setattr__(self, "_rules", tuple((p, d % 2 == 1) for p, d in zip(self.root_orders, degs)))
        odd = [i for i, d in enumerate(degs) if d % 2]
        object.__setattr__(self, "_odd_pairs", tuple((i, j) for j in odd for i in odd if i > j))
        # Graded commutativity on generator pairs; odd exponents stay <= 1, so
        # it then holds for every pair of monomials and multiply need not recheck.
        for i in range(n):
            for j in range(i, n):
                a = tuple(int(k == i) for k in range(n))
                b = tuple(int(k == j) for k in range(n))
                ab, ba = _monomial_product(self, a, b), _monomial_product(self, b, a)
                if ab is None:
                    continue
                swap = -1 if (self.gens[i][1] * self.gens[j][1]) % 2 else 1
                if ab[0] != swap * ba[0]:
                    raise GradedError("graded commutativity failed; relations are inconsistent")

    def index(self, name: str) -> int:
        for i, (g, _) in enumerate(self.gens):
            if g == name:
                return i
        raise GradedError(f"unknown generator {name}")

    def degree(self, mono: Monomial) -> int:
        return sum(map(mul, mono, self._degs))

    def normal_monomial(self, mono: Iterable[int]) -> Monomial | None:
        """Reduced exponent vector, or None when the monomial is zero."""
        out = []
        for e, (p, odd) in zip(mono, self._rules, strict=True):
            if e < 0:
                raise GradedError("negative exponent")
            if p is not None:
                e %= p
            if e > 1 and odd:
                return None  # x odd: x*x = -x*x over Q
            out.append(e)
        mono_t = tuple(out)
        for z in self.zero_monomials:
            if all(map(ge, mono_t, z)):
                return None
        return mono_t

    def unit(self) -> Element:
        return {tuple(0 for _ in self.gens): Fraction(1)}

    def monomial(self, **powers: int) -> Element:
        mono = [0] * len(self.gens)
        for name, e in powers.items():
            mono[self.index(name)] = e
        nm = self.normal_monomial(mono)
        return {} if nm is None else {nm: Fraction(1)}

    def mono_str(self, mono: Monomial) -> str:
        parts = []
        for (name, _), e in zip(self.gens, mono):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts) if parts else "1"

    def element_str(self, x: Element) -> str:
        if not x:
            return "0"
        terms = []
        for mono in sorted(x, key=lambda m: (self.degree(m), m)):
            c = x[mono]
            ms = self.mono_str(mono)
            if c == 1 and ms != "1":
                terms.append(ms)
            elif ms == "1":
                terms.append(str(c))
            else:
                terms.append(f"{c}*{ms}")
        return " + ".join(terms).replace("+ -", "- ")

    def to_json(self) -> dict:
        rels = [self.mono_str(z) for z in self.zero_monomials]
        for (name, _), p in zip(self.gens, self.root_orders):
            if p is not None:
                rels.append(f"{name}^{p} = 1")
        return {
            "generators": [{"name": n, "degree": d} for n, d in self.gens],
            "relations": rels,
        }


def _monomial_product(P: GradedPresentation, a: Monomial, b: Monomial) -> tuple[int, Monomial] | None:
    """(sign, normal form) of a*b, or None when it is zero; b's odd generators commute leftwards past a's."""
    nm = P.normal_monomial(map(add, a, b))
    if nm is None:
        return None
    swaps = sum(b[j] * a[i] for i, j in P._odd_pairs)
    return (-1 if swaps % 2 else 1), nm


def multiply(P: GradedPresentation, x: Element, y: Element) -> Element:
    """Product in normal form."""
    out: Element = {}
    zero = _ZERO
    for ma, ca in x.items():
        for mb, cb in y.items():
            prod = _monomial_product(P, ma, mb)
            if prod is None:
                continue
            sign, nm = prod
            acc = out.get(nm, zero) + (ca * cb if sign > 0 else -ca * cb)
            if acc:
                out[nm] = acc
            else:
                out.pop(nm, None)
    return out


def el_add(x: Element, y: Element, c=1) -> Element:
    """x + c*y."""
    out = dict(x)
    for m, v in y.items():
        acc = out.get(m, 0) + c * v
        if acc:
            out[m] = acc
        else:
            out.pop(m, None)
    return out


def el_scale(x: Element, c) -> Element:
    return {m: v * c for m, v in x.items()} if c else {}


def basis_window(P: GradedPresentation, lo: int, hi: int) -> list[Monomial]:
    """All normal monomials with degree in [lo, hi], sorted by (degree, exponents).

    Within the caps every candidate is non-negative, below each root order and at most 1 on each odd generator,
    so normal_monomial leaves it as it is unless a zero monomial divides it: it is normal exactly when none does.
    """
    if lo > hi:
        raise GradedError("empty degree window")
    caps: list[int | None] = []
    for i, ((name, deg), (p, odd)) in enumerate(zip(P.gens, P._rules)):
        if p is not None:
            caps.append(p - 1)
        elif odd:
            caps.append(1)
        elif pure := [z[i] - 1 for z in P.zero_monomials if z[i] > 0 and not any(z[:i] + z[i + 1 :])]:
            caps.append(min(pure))
        elif deg > 0:
            caps.append(None)  # bounded by the window itself
        else:
            raise GradedError(f"generator {name} has unbounded negative degree; window is infinite")
    degs, zeros = P._degs, P.zero_monomials
    # the capped generators reach down to degree low, so a free one of degree d has e * d <= hi - low
    low = sum(min(0, d * cap) for d, cap in zip(degs, caps) if cap is not None)
    ranges = [range((hi - low) // d + 1 if cap is None else cap + 1) for d, cap in zip(degs, caps)]
    found = []
    for m in product(*ranges):
        deg = sum(map(mul, m, degs))
        if lo <= deg <= hi:
            for z in zeros:
                if all(map(ge, m, z)):
                    break
            else:
                found.append((deg, m))
    found.sort()
    return [m for _, m in found]


# shipped rings --------------------------------------------------------------


def lens_ring(n: int, p: int) -> GradedPresentation:
    """Loop homology of the odd lens space quotient: exterior a, polynomial u, root v."""
    if n % 2 == 0:
        raise GradedError("the sphere dimension must be odd")
    if n < 3:
        raise GradedError(
            f"the sphere dimension must be at least 3, got {n}: the loop homology of S^1 needs an invertible u of degree 0"
        )
    if p < 1:
        raise GradedError("the cyclic order must be positive")
    return GradedPresentation(
        (("a", -n), ("u", n - 1), ("v", 0)),
        (None, None, p),
    )


def sphere_quotient_ring(p: int) -> GradedPresentation:
    """Loop homology of the rotation quotient of the 2-sphere."""
    if p < 1:
        raise GradedError("the cyclic order must be positive")
    gens = (("b", 1), ("a", -2), ("v", 2), ("y", 0))
    zero = (
        (0, 2, 0, 0),  # a*a
        (1, 1, 0, 0),  # a*b
        (0, 1, 1, 0),  # a*v
    )
    return GradedPresentation(gens, (None, None, None, p), zero)


def lens_delta(P: GradedPresentation, lo: int, hi: int, power: int = 1) -> dict:
    """Delta(a u^k v^j) = k^power u^(k-1) v^j on the window basis of lens_ring(n, p): power=1 is
    Menichi's BV operator on odd spheres (Comment. Math. Helv. 84, 2009), power=2 a Delta that fails Jacobi."""
    return {(a, k, j): {(0, k - 1, j): Fraction(k**power)} for a, k, j in basis_window(P, lo, hi) if a and k}


# BV checker -----------------------------------------------------------------


@dataclass
class BVData:
    """A degree window of an algebra together with a candidate degree +1 operator.

    basis entries are opaque hashable labels; mult returns the product as a
    dict over basis labels or raises WindowOverflow when it leaves the window.
    delta maps basis labels to elements.  Products of basis labels are read
    through product, which calls mult once per pair for the life of the data.
    """

    basis: tuple
    degree: Callable
    mult: Callable
    delta: dict
    window: tuple[int, int]
    _products: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def product(self, a, b) -> Element:
        """mult(a, b), computed at most once per basis pair; do not mutate the result.

        An overflow is kept as its message and raised afresh on every lookup: a
        kept exception would tie the asking frame, through its traceback, into
        a reference cycle that only the garbage collector frees.
        """
        val = self._products.get((a, b))
        if val is None:
            try:
                val = self.mult(a, b)
            except WindowOverflow as e:
                val = str(e)
            self._products[a, b] = val
        if type(val) is str:
            raise WindowOverflow(val)
        return val

    def apply_delta(self, x: Element) -> Element:
        out: Element = {}
        for b, c in x.items():
            for b2, c2 in self.delta.get(b, {}).items():
                acc = out.get(b2, 0) + c * c2
                if acc:
                    out[b2] = acc
                else:
                    out.pop(b2, None)
        return out

    def mult_el(self, x: Element, y: Element) -> Element:
        out: Element = {}
        for bx, cx in x.items():
            for by, cy in y.items():
                for bz, cz in self.product(bx, by).items():
                    acc = out.get(bz, 0) + cx * cy * cz
                    if acc:
                        out[bz] = acc
                    else:
                        out.pop(bz, None)
        return out


def graded_window_bv(P: GradedPresentation, lo: int, hi: int, delta: dict | None = None) -> BVData:
    basis = tuple(basis_window(P, lo, hi))
    basis_set = set(basis)

    coeff = {1: Fraction(1), -1: Fraction(-1)}  # one Fraction per sign, shared by every product
    def mult(a: Monomial, b: Monomial):
        prod = _monomial_product(P, a, b)
        if prod is not None and prod[1] not in basis_set:
            raise WindowOverflow(f"product {P.mono_str(a)} * {P.mono_str(b)} leaves the window")
        return {} if prod is None else {prod[1]: coeff[prod[0]]}

    return BVData(basis, P.degree, mult, delta or {}, (lo, hi))


def ring_window_bv(ring, delta: dict | None = None) -> BVData:
    """Degree-0 window around a structure-constant algebra (sector rings)."""
    basis = tuple(range(ring.dim))

    def mult(i: int, j: int):
        return dict(ring.table.get((i, j), ()))

    return BVData(basis, lambda b: 0, mult, delta or {}, (0, 0))


def bracket(D: BVData, a: Element, b: Element, deg_a: int) -> Element:
    """{a,b} = (-1)^|a| Delta(a b) - (-1)^|a| Delta(a) b - a Delta(b)."""
    s = -1 if deg_a % 2 else 1
    t1 = el_scale(D.apply_delta(D.mult_el(a, b)), s)
    t2 = el_scale(D.mult_el(D.apply_delta(a), b), -s)
    t3 = el_scale(D.mult_el(a, D.apply_delta(b)), -1)
    return el_add(el_add(t1, t2), t3)


@dataclass
class BVReport:
    ok: bool
    failures: list = field(default_factory=list)
    checked: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"ok": self.ok, "failures": self.failures[:5], "checked": self.checked}


def bv_check(D: BVData, max_failures: int = 1) -> BVReport:
    """Verify the BV axioms on the window basis.

    The bracket has degree +1 and the axioms checked are: Delta raises degree
    by exactly 1, Delta^2 = 0, graded antisymmetry
    {a,b} = -(-1)^{(|a|+1)(|b|+1)} {b,a} (Getzler's convention), the Leibniz
    rule {a, bc} = {a,b}c + (-1)^{(|a|+1)|b|} b{a,c}, and graded Jacobi with
    the shifted signs.  Tuples whose products leave the window are skipped.

    After the degree and Delta^2 passes, so that a check failing there builds
    nothing, the basis products y*z and the basis brackets {x,y} are tabulated
    once per check, one row per basis element, with None for an overflow.
    Products go through D.product, so each basis pair is multiplied at most
    once for the life of D.  A bracket row is built from the product rows as
    {x,y} = s Delta(x y) - s Delta(x) y - x Delta(y), s = (-1)^|x|, over the
    terms b of Delta(x) and Delta(y) with a nonzero coefficient, and an entry
    is None exactly when x*y, some b*y or some x*b overflows: the elementwise
    bracket forms exactly these products, in the same order (apply_delta
    drops zero coefficients and forms none), so both overflow together and
    otherwise sum the same terms.  Every other bracket, such as {x,{y,z}} or
    {{x,y},z}, is summed from the bracket rows by linearity in each argument.
    Linearity in the first argument needs each of its terms to have the
    parity of the degree the bracket is taken at, as they do once Delta
    passed the degree check; otherwise, and whenever a summand overflows
    (terms may cancel), the bracket is computed elementwise.  So a tuple is
    skipped exactly when the elementwise bracket overflows.

    A sum with an empty argument ({x,y}, {x,z}, {y,z} or y*z) is skipped: it
    is empty and forms no product, so it cannot overflow, and the elementwise
    bracket with an empty argument is empty too (each of its three terms is a
    product with an empty factor, or Delta of one), so the rule above holds.
    """
    rep = BVReport(True)
    one = Fraction(1)
    counts = rep.checked = {"degree": 0, "delta2": 0, "antisym": 0, "leibniz": 0, "jacobi": 0, "skipped": 0}

    def fail(kind, witness) -> bool:
        """Record a failure; True when the check should stop."""
        rep.ok = False
        rep.failures.append({"axiom": kind, "witness": witness})
        return len(rep.failures) >= max_failures

    lo, hi = D.window
    for b in D.basis:
        img = D.delta.get(b, {})
        for b2, c in img.items():
            if c and D.degree(b2) != D.degree(b) + 1:
                if fail("delta-degree", f"Delta({b}) hits {b2}: degree {D.degree(b2)} != {D.degree(b) + 1}"):
                    return rep
        counts["degree"] += 1
    for b in D.basis:
        if D.degree(b) + 2 > hi and any(D.delta.get(b, {}).values()):
            counts["skipped"] += 1
            continue
        if D.apply_delta(D.apply_delta({b: one})):
            if fail("delta-squared", f"Delta^2({b}) != 0"):
                return rep
        counts["delta2"] += 1

    deg = {b: D.degree(b) for b in D.basis}
    parity = ({b for b in D.basis if not deg[b] % 2}, {b for b in D.basis if deg[b] % 2})
    unit = {b: {b: one} for b in D.basis}

    def or_none(fn, *args):
        """fn(*args), or None when it leaves the window."""
        try:
            return fn(*args)
        except WindowOverflow:
            return None

    products = {y: {z: or_none(D.product, y, z) for z in D.basis} for y in D.basis}
    deltas = {b: D.apply_delta(unit[b]) for b in D.basis}  # no zero coefficients

    def basis_bracket(x, y):
        """{x, y} from the product rows and Delta, or None when a product it forms overflows."""
        s, xy = (-1 if deg[x] % 2 else 1), products[x][y]
        if xy is None:
            return None
        out = {m: s * v for m, v in D.apply_delta(xy).items()}
        try:
            for b, c in deltas[x].items():
                out = el_add(out, D.product(b, y), -s * c)
            for b, c in deltas[y].items():
                out = el_add(out, D.product(x, b), -c)
        except WindowOverflow:
            return None
        return out

    brackets = {x: {y: basis_bracket(x, y) for y in D.basis} for x in D.basis}

    def brk_el(a, b, da):
        """{a, b} for elements a and b, summed from the bracket rows."""
        if not parity[da % 2].issuperset(a):  # a term of a outside the basis or of the other parity
            return bracket(D, a, b, da)
        out: Element = {}
        for u, cu in a.items():
            row = brackets[u]
            for w, cw in b.items():
                if w not in row:  # w lies outside the basis
                    row[w] = or_none(bracket, D, unit[u], {w: one}, deg[u])
                if row[w] is None:
                    if len(a) * len(b) == 1:  # the elementwise bracket forms exactly the same products
                        raise WindowOverflow(f"bracket {{{u}, {w}}} leaves the window")
                    return bracket(D, a, b, da)  # terms may cancel, so it may stay in the window
                for m, v in row[w].items():
                    acc = out.get(m, 0) + cu * cw * v
                    if acc:
                        out[m] = acc
                    else:
                        out.pop(m, None)
        return out

    # every computed element is free of zero coefficients, so != compares values
    for x in D.basis:
        for y in D.basis:
            lhs, rhs = brackets[x][y], brackets[y][x]
            if lhs is None or rhs is None:
                counts["skipped"] += 1
                continue
            rhs = el_scale(rhs, 1 if ((deg[x] + 1) * (deg[y] + 1)) % 2 else -1)
            if lhs != rhs and fail("antisymmetry", f"{{{x},{y}}} != -(-1)^((|a|+1)(|b|+1)) {{{y},{x}}}"):
                return rep
            counts["antisym"] += 1
    for x in D.basis:
        dx, ux, bx = deg[x], unit[x], brackets[x]
        for y in D.basis:
            xy = bx[y]
            if xy is None:  # every Leibniz tuple (x, y, z) is skipped, so no Jacobi one is tried
                counts["skipped"] += len(D.basis)
                continue
            dy, uy, by, py = deg[y], unit[y], brackets[y], products[y]
            leibniz_sign = -1 if ((dx + 1) * dy) % 2 else 1
            jacobi_sign = -1 if ((dx + 1) * (dy + 1)) % 2 else 1
            for z in D.basis:
                p, xz = py[z], bx[z]
                if p is None or xz is None:
                    counts["skipped"] += 1
                    continue
                if p or xy or xz:  # else every sum is over an empty element
                    try:
                        lhs = brk_el(ux, p, dx) if p else {}
                        t1 = D.mult_el(xy, unit[z]) if xy else {}
                        rhs = el_add(t1, D.mult_el(uy, xz), leibniz_sign) if xz else t1
                    except WindowOverflow:
                        counts["skipped"] += 1
                        continue
                    if lhs != rhs and fail("leibniz", f"{{{x}, {y}*{z}}} fails the derivation rule"):
                        return rep
                counts["leibniz"] += 1
                yz = by[z]
                if yz is None:
                    counts["skipped"] += 1
                    continue
                if yz or xy or xz:
                    try:
                        lhs = brk_el(ux, yz, dx) if yz else {}
                        t1 = brk_el(xy, unit[z], dx + dy + 1) if xy else {}
                        rhs = el_add(t1, brk_el(uy, xz, dy), jacobi_sign) if xz else t1
                    except WindowOverflow:
                        counts["skipped"] += 1
                        continue
                    if lhs != rhs and fail("jacobi", f"jacobi fails at ({x},{y},{z})"):
                        return rep
                counts["jacobi"] += 1
    return rep
