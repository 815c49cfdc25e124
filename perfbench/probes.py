"""Known-answer probes for three defects the roadmap records as confirmed.

They run once per traced run, outside the timed ops and with tracing off,
and report counts so a fix shows as a changed number rather than a changed
speed.  Today's answers:

- ``sector.morita.decided``: 0 of 3 point:Zn self-pairs (n = 5, 7, 8) are
  decided; each stops at a component of degree > 2 as inconclusive.
- ``graded.bv.known_good_accepted``: 0 of 4 lens windows accept Menichi's
  operator Delta(a u^k v^j) = k u^(k-1) v^j; each is rejected at the
  ``antisymmetry`` axiom because of a sign error in the checker.
- ``cyclo.eq_hash_agree``: 0 of 3 pairs of equal Cyclo values at different
  levels hash alike, so a set or dict keeps both.
"""

from __future__ import annotations

from fractions import Fraction

from orbistring import Cyclo, bv_check, catalog_group, graded_window_bv, lens_ring, morita_compare, point_gset
from orbistring.graded import basis_window

MORITA_SELF_PAIRS = ("Z5", "Z7", "Z8")
MENICHI_WINDOWS = ((3, 1, -3, 6), (3, 2, -3, 6), (3, 3, -3, 4), (5, 2, -5, 8))


def menichi_delta(P, lo: int, hi: int) -> dict:
    """Delta(a u^k v^j) = k u^(k-1) v^j on the window basis of lens_ring(n, p)."""
    ia, iu = P.index("a"), P.index("u")
    delta = {}
    for mono in basis_window(P, lo, hi):
        k = mono[iu]
        if mono[ia] == 1 and k > 0:
            target = list(mono)
            target[ia], target[iu] = 0, k - 1
            delta[mono] = {tuple(target): Fraction(k)}
    return delta


def run_probes() -> dict:
    decided = []
    for name in MORITA_SELF_PAIRS:
        X = point_gset(catalog_group(name))
        rep = morita_compare(X, X)
        decided.append(f"point:{name} {'decided' if rep.isomorphic is not None else 'inconclusive'}")
    accepted = []
    for n, p, lo, hi in MENICHI_WINDOWS:
        P = lens_ring(n, p)
        rep = bv_check(graded_window_bv(P, lo, hi, menichi_delta(P, lo, hi)))
        verdict = "accepted" if rep.ok else f"rejected at {rep.failures[0]['axiom']}"
        accepted.append(f"lens({n},{p}) [{lo},{hi}] {verdict}")
    pairs = (
        (Cyclo.one(1), Cyclo.one(4)),
        (Cyclo.rational(Fraction(1, 2), 1), Cyclo.rational(Fraction(1, 2), 6)),
        (Cyclo.root(4, 2), Cyclo.rational(-1, 1)),
    )
    agree = [a == b and hash(a) == hash(b) for a, b in pairs]
    return {
        "sector.morita.decided": sum(s.endswith(" decided") for s in decided),
        "graded.bv.known_good_accepted": sum(s.endswith(" accepted") for s in accepted),
        "cyclo.eq_hash_agree": sum(agree),
        "detail": decided + accepted + [f"Cyclo pair {i}: {'agree' if ok else 'disagree'}" for i, ok in enumerate(agree)],
    }
