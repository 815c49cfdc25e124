"""Acceptance suite: every criterion at its stated tolerance, one line per criterion.

All numerical checks are exact (rational and cyclotomic arithmetic); the time
limits are the stated budgets.  Criterion 10 re-runs the selftest CLI twice
and compares raw bytes, with each other and with a pinned sha256; the demos'
output is pinned the same way.
"""

import hashlib
import subprocess
import sys
import time
from pathlib import Path

import pytest

from orbistring import chords, gchords, graded, phases, sector
from orbistring import selftest as st
from orbistring.cli import main
from orbistring.groups import conjugacy_classes

SEED = 42
DEMOS = Path(__file__).resolve().parents[1] / "demos"
# sha256 of the stdout of `selftest --seed 42`, and of the demos' stdout in sorted order
SELFTEST_SHA256 = "d6b283bcb90875c5a488c836dfb2ed6f9689565eda839fc7c8e6dd19fa68e516"
DEMOS_SHA256 = "d7d7868314a6e729c44adf8c442c9e0556842b20594be9969e413d6dc6458923"

LIMITS = {
    # crit01 ran in 0.013-0.015 s and crit02 in 0.018-0.022 s in fresh processes
    # on a 2-CPU VM (crit_0N_*(42), alternating with the tree before the pairing
    # moved to the sparse echelon at 0.014-0.019 s and 0.018-0.021 s); 1 s
    # leaves room for the 2x host slowdown (perfbench/README.md)
    "criterion-01 dijkgraaf-witten-point": 1.0,
    "criterion-02 discrete-torsion": 1.0,
    # crit03 ran in 0.61-0.93 s in fresh processes on a 2-CPU VM once it built
    # each base ring once and commutative rings checked associativity on i < k
    # pairs (1.20-1.88 s before, alternating); 3 s leaves room for the 2x host
    # slowdown (perfbench/README.md)
    "criterion-03 cohomology-invariance": 3.0,
    # crit04 ran in 0.006-0.011 s in-process (crit_04_morita(42), fresh
    # processes, alternating with the field solve at 0.008-0.016 s) on a 2-CPU VM
    # once the Morita comparator ran on integers through one fraction-free solve;
    # 1 s leaves room for the 2x host slowdown (perfbench/README.md)
    "criterion-04 morita-invariance": 1.0,
    # crit05 ran in 1.50-1.71 s and crit06 in 0.36-0.50 s in-process on a 2-CPU VM
    # once diagrams kept integer ticks end to end (3.83-4.62 s and 0.93-1.19 s
    # before); 8 s and 3 s leave room for the 2x host slowdown (perfbench/README.md)
    "criterion-05 operad-axioms": 8.0,
    "criterion-06 g-graded-operad": 3.0,
    # crit07 ran in under 0.001 s and crit08 in 0.014-0.015 s in fresh processes
    # on a 2-CPU VM (alternating with the tree before the sparse echelon: under
    # 0.001 s and 0.014-0.028 s); 1 s leaves room for the 2x host slowdown
    # (perfbench/README.md)
    "criterion-07 holonomy-figure": 1.0,
    "criterion-08 lens-rings": 1.0,
    # crit09 ran in 0.03-0.05 s in a fresh process on a 2-CPU VM once the BV
    # checker read tabulated brackets in its Jacobi loop (0.05-0.12 s before);
    # 1 s leaves room for the 2x host slowdown (perfbench/README.md)
    "criterion-09 bv-checker": 1.0,
}


def _run(fn):
    t0 = time.monotonic()
    result = fn(SEED)
    elapsed = time.monotonic() - t0
    status = "PASS" if result.ok else "FAIL"
    print(f"{result.name}: {status} [{elapsed:.2f}s] ({result.detail})")
    limit = LIMITS.get(result.name)
    assert result.ok, f"{result.name}: {result.detail}"
    if limit is not None:
        assert elapsed < limit, f"{result.name} took {elapsed:.2f}s, budget {limit}s"
    return result


def test_criterion_01_dw_point_case():
    _run(st.crit_01_dw_point)


def test_criterion_02_discrete_torsion():
    _run(st.crit_02_discrete_torsion)


def test_criterion_03_cohomology_invariance():
    _run(st.crit_03_cohomology_invariance)


def test_criterion_04_morita_invariance():
    _run(st.crit_04_morita)


def test_criterion_05_operad_axioms():
    _run(st.crit_05_operad)


def test_criterion_06_g_graded_operad():
    _run(st.crit_06_g_operad)


def test_criterion_07_holonomy_figure():
    _run(st.crit_07_holonomy_figure)


def test_criterion_08_lens_rings():
    _run(st.crit_08_lens_rings)


def test_criterion_09_bv_checker():
    _run(st.crit_09_bv_checker)


def _with_table(ring, table=None, trace=None):
    """ring with its table or trace replaced, built without running its checks."""
    return sector.SectorRing(
        ring.labels, ring.level, table or ring.table, ring.unit_coords, trace or ring.trace, ring.meta
    )


def _bumped_constant(G):
    """dw_frobenius with the constant of e_1 e_1 at e_0 raised by 1 on S3."""
    ring = sector.dw_frobenius(G)
    if G.name != "S3":
        return ring
    row = dict(ring.table[1, 1])
    row[0] += 1
    return _with_table(ring, table={**ring.table, (1, 1): tuple(sorted(row.items()))})


def _zero_trace(G):
    """dw_frobenius with its trace set to 0, so that its pairing is 0."""
    return _with_table(sector.dw_frobenius(G), trace=(0,) * len(conjugacy_classes(G).classes))


@pytest.mark.parametrize(
    "dw_frobenius,detail",
    [
        (_bumped_constant, "S3: constants differ at (1,1)"),
        (_zero_trace, "Z1: degenerate pairing"),
    ],
)
def test_criterion_01_negative_controls(monkeypatch, dw_frobenius, detail):
    monkeypatch.setattr(st, "dw_frobenius", dw_frobenius)
    result = st.crit_01_dw_point(SEED)
    assert result.ok is False
    assert result.detail == detail


def _broken_torsion(alpha):
    """discrete_torsion with tau(g, k) moved by a third root of unity on S4,
    for the transposition g = (1,2) and a k that is no generator of S4."""
    tau = phases.discrete_torsion(alpha)
    G = alpha.group
    if G.name != "S4":
        return tau
    g, k = G.index_of_name("(1,2)"), G.index_of_name("(1,3)")
    assert k not in G.generators
    table = [list(row) for row in tau.tau]
    table[g][k] = table[g][k] * phases.Phase.of(1, 3)
    return phases.TorsionCocycle(G, tuple(map(tuple, table)))


@pytest.mark.parametrize(
    "name,patched,detail",
    [
        ("discrete_torsion", _broken_torsion, "S4: groupoid cocycle law fails"),
        (
            "twisted_center",
            lambda G, alpha: sector.twisted_center(G, phases.trivial_cocycle(G)),
            "nontrivial dim 4 != 1",
        ),
    ],
)
def test_criterion_02_negative_controls(monkeypatch, name, patched, detail):
    monkeypatch.setattr(st, name, patched)
    result = st.crit_02_discrete_torsion(SEED)
    assert result.ok is False
    assert result.detail == detail


def test_criterion_03_negative_control(monkeypatch):
    # a coboundary that drops the phase of element 1, so the twist differs from
    # the one the rescaling is built from
    def dropped(G, beta):
        return phases.coboundary(G, [phases.Phase.one() if g == 1 else b for g, b in enumerate(beta)])

    monkeypatch.setattr(st, "coboundary", dropped)
    result = st.crit_03_cohomology_invariance(SEED)
    assert result.ok is False
    assert result.detail == "Z2: rescaling fails at (1,1,0)"


@pytest.mark.parametrize(
    "verdict,detail",
    [
        (True, "Z2 vs Z3 not rejected"),
        (None, "[S3/Z2]: no separating probe found; inconclusive"),
    ],
)
def test_criterion_04_negative_controls(monkeypatch, verdict, detail):
    # a comparator that reports every pair with one verdict
    def patched(X, Y, seed=7):
        rep = sector.MoritaReport(1, 1, verdict, None)
        if verdict is None:
            rep.detail = "no separating probe found; inconclusive"
        return rep

    monkeypatch.setattr(st, "morita_compare", patched)
    result = st.crit_04_morita(SEED)
    assert result.ok is False
    assert result.detail == detail


def _first_two_swapped(parts):
    parts = list(parts)
    if len(parts) > 1:
        parts[0], parts[1] = parts[1], parts[0]
    return parts


def test_criterion_05_negative_control(monkeypatch):
    # a composition that plugs the first two parts into each other's slots
    monkeypatch.setattr(st, "compose", lambda base, parts: chords.compose(base, _first_two_swapped(parts)))
    result = st.crit_05_operad(SEED)
    assert result.ok is False
    assert result.detail == "associativity fails at 0"


def test_criterion_06_negative_control(monkeypatch):
    # the same swap where the two parts have the same outer holonomy, so that
    # the swapped composite still meets the matching contract
    def swapped(W, parts):
        same = len(parts) > 1 and parts[0].outer == parts[1].outer
        return gchords.g_compose(W, _first_two_swapped(parts) if same else parts)

    monkeypatch.setattr(st, "g_compose", swapped)
    result = st.crit_06_g_operad(SEED)
    assert result.ok is False
    assert result.detail == "Z2: associativity instance fails"


def _zero_lifts(md, G, outer, inner=None):
    """enumerate_gmd with every witness's lifts replaced by (0, 0)."""
    found = gchords.enumerate_gmd(md, G, outer, inner)
    return [gchords.GDiagram(W.base, G, W.outer, W.transports, (0, 0)) for W in found]


# crit07 rebuilds every lift of its witness for the sweep, so the witness's own
# lifts reach only the check of its inner holonomies, which runs after it
@pytest.mark.parametrize(
    "enumerate_gmd,detail",
    [
        (lambda md, G, outer, inner=None: gchords.enumerate_gmd(md, G, outer), "realized [0]"),
        (lambda md, G, outer, inner=None: [], "no decoration with ih=((2,3),(2,3))"),
        (_zero_lifts, "witness has ih=((2,3),(1,2))"),
    ],
)
def test_criterion_07_negative_controls(monkeypatch, enumerate_gmd, detail):
    monkeypatch.setattr(st, "enumerate_gmd", enumerate_gmd)
    result = st.crit_07_holonomy_figure(SEED)
    assert result.ok is False
    assert result.detail == detail


_LENS32 = graded.lens_ring(3, 2)
_MENICHI, _MENICHI_SQUARED = (graded.lens_delta(_LENS32, -3, 6, power) for power in (1, 2))


def _passes():
    """A passing report that counts no instance."""
    return graded.BVReport(True)


def _refuses():
    return graded.BVReport(False, [{"axiom": "patched", "witness": ""}])


@pytest.mark.parametrize(
    "fake,detail",
    [
        (lambda D: _passes(), "degree-violating Delta not caught"),
        (lambda D: _refuses() if D.window == (0, 0) else _passes(), "Z(Q[S3]) with Delta=0 fails"),
        (lambda D: _refuses() if D.window == (-3, 6) and not D.delta else _passes(), "lens(3,2) with Delta=0 fails"),
        (lambda D: _refuses() if D.delta == _MENICHI else None, "Menichi's Delta on lens(3,2) fails"),
        (lambda D: _passes() if D.delta == _MENICHI else None, "Menichi's Delta on lens(3,2) checks no bracket"),
        (lambda D: _passes() if D.delta == _MENICHI_SQUARED else None, "squared Menichi Delta not caught at jacobi"),
        (lambda D: _refuses() if D.delta == _MENICHI_SQUARED else None, "squared Menichi Delta not caught at jacobi"),
    ],
)
def test_criterion_09_negative_controls(monkeypatch, fake, detail):
    # a bv_check that answers with fake(D), or runs the real check where fake gives None
    def patched(D, max_failures=1):
        return fake(D) or graded.bv_check(D, max_failures)

    monkeypatch.setattr(st, "bv_check", patched)
    result = st.crit_09_bv_checker(SEED)
    assert result.ok is False
    assert result.detail == detail


def _wrong_u_times_u(P, x, y):
    """multiply with u * u corrupted to 0; every other product is exact."""
    return {} if x == y == P.monomial(u=1) else graded.multiply(P, x, y)


def test_criterion_08_negative_controls(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(st, "basis_window", lambda P, lo, hi: graded.basis_window(P, lo, hi)[:-1])
        result = st.crit_08_lens_rings(SEED)
    assert result.ok is False
    assert result.detail == "p=1 window ['a', 'a*u', '1', 'a*u^2', 'u', 'a*u^3']"
    monkeypatch.setattr(st, "multiply", _wrong_u_times_u)
    result = st.crit_08_lens_rings(SEED)
    assert result.ok is False
    assert result.detail == "(n,p)=(3,2) u-u fails"


def test_selftest_cli_fails_when_a_criterion_fails(monkeypatch, capsys):
    monkeypatch.setattr(st, "multiply", _wrong_u_times_u)
    code = main(["selftest", "--seed", str(SEED)])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert lines[7] == "criterion-08 lens-rings: FAIL ((n,p)=(3,2) u-u fails)"
    assert all(": PASS (" in line for line in lines[:7] + lines[8:9])
    assert lines[9:] == [f"selftest seed={SEED}: 8/9 PASS", "selftest failed"]


@pytest.mark.slow
def test_criterion_10_selftest_determinism():
    cmd = [sys.executable, "-m", "orbistring.cli", "selftest", "--seed", "42"]
    p1 = subprocess.run(cmd, capture_output=True, timeout=600)
    p2 = subprocess.run(cmd, capture_output=True, timeout=600)
    assert p1.returncode == 0, p1.stdout.decode()[-2000:]
    assert p1.stdout == p2.stdout and p1.stderr == p2.stderr
    # and byte-identical to the output the selftest has printed since its last change
    assert hashlib.sha256(p1.stdout).hexdigest() == SELFTEST_SHA256
    print("criterion-10 determinism: PASS (selftest --seed 42 twice is byte-identical)")


def test_demos_print_their_pinned_output():
    # the demos are the only callers of GradedPresentation.element_str and Phase.__str__
    out = b"".join(
        subprocess.run([sys.executable, str(demo)], capture_output=True, check=True, timeout=600).stdout
        for demo in sorted(DEMOS.glob("*.py"))
    )
    assert hashlib.sha256(out).hexdigest() == DEMOS_SHA256
