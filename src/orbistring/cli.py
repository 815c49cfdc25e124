"""Command-line entry point: one verb per library operation, JSON in and out.

Exit codes: 0 success, 1 domain error (error JSON on stderr), 2 usage error.
Identical inputs and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import chords, gchords, graded, groups, phases, sector
from .selftest import render_report, run_criteria


class UsageError(Exception):
    pass


def _load_json_arg(value: str):
    """Inline JSON, or @path / bare path to a JSON file."""
    text = value
    if value.startswith("@") or not value.lstrip().startswith(("{", "[")):
        path = value[1:] if value.startswith("@") else value
        try:
            text = Path(path).read_text()
        except OSError as e:
            raise UsageError(f"cannot read {path}: {e.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"unreadable JSON in {value!r}: {e}") from None


def _is_json_spec(spec: str) -> bool:
    """True for JSON given inline or by file (@path, a .json path), False for a catalog name."""
    return spec.startswith("@") or spec.endswith(".json") or spec.lstrip().startswith("{")


def resolve_group(spec: str) -> groups.FiniteGroup:
    """Inline JSON or a JSON file, else a catalog name: its <name>.json in
    ORBISTRING_CATALOG first, then the built-in catalog."""
    if _is_json_spec(spec):
        return groups.parse_group(_load_json_arg(spec))
    catalog_dir = os.environ.get("ORBISTRING_CATALOG")
    if catalog_dir:
        p = Path(catalog_dir) / f"{spec}.json"
        try:
            if p.exists():
                return groups.parse_group(_load_json_arg(f"@{p}"))
        except OSError as e:  # a name the file system refuses, such as one too long
            raise UsageError(f"cannot read {p}: {e.strerror}") from None
    return groups.catalog_group(spec)


def _resolve_cocycle(G: groups.FiniteGroup, spec: str) -> phases.TwoCocycle:
    if _is_json_spec(spec):
        return phases.parse_cocycle(_load_json_arg(spec), G)
    return phases.catalog_cocycle(G, spec)


def _resolve_gset(spec: str) -> groups.GSet:
    """point:NAME | self:NAME | coset:G:H | JSON file/inline."""
    if spec.startswith("point:"):
        return groups.point_gset(resolve_group(spec[6:]))
    if spec.startswith("self:"):
        return groups.translation_gset(resolve_group(spec[5:]))
    if spec.startswith("coset:"):
        fields = spec.split(":")
        if len(fields) != 3:
            raise UsageError(f"bad G-set {spec!r}; expected coset:G:H")
        _, gn, hn = fields
        G, H = groups.catalog_subgroup(gn, hn)
        return groups.coset_gset(G, H)
    return groups.parse_gset(_load_json_arg(spec), resolve_group)


def _element_index(G: groups.FiniteGroup, token: str) -> int:
    token = token.strip()
    if token.lstrip("-").isdigit():
        v = int(token)
        if not 0 <= v < G.order:
            raise UsageError(f"element index {v} out of range for {G.name}")
        return v
    return G.index_of_name(token)


def _render(payload: dict, fmt: str, rows=None, title: str | None = None) -> str:
    if fmt == "json" or rows is None:
        return json.dumps(payload, indent=2, sort_keys=True)
    headers, data = rows
    widths = [max(len(str(h)), *(len(str(r[i])) for r in data)) if data else len(str(h)) for i, h in enumerate(headers)]
    if fmt == "markdown":
        out = []
        if title:
            out.append(f"### {title}")
        out.append("| " + " | ".join(str(h) for h in headers) + " |")
        out.append("|" + "|".join("---" for _ in headers) + "|")
        for r in data:
            out.append("| " + " | ".join(str(v) for v in r) + " |")
        return "\n".join(out)
    out = []
    if title:
        out.append(title)
    out.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in data:
        out.append("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return "\n".join(out)


# subcommand handlers --------------------------------------------------------


def cmd_group(args) -> str:
    G = resolve_group(args.group)
    payload = groups.group_to_json(G)
    rows = (["index", "name", "inverse"], [[i, G.names[i], G.inv[i]] for i in range(G.order)])
    return _render(payload, args.format, rows, f"group {G.name} (order {G.order})")


def cmd_classes(args) -> str:
    G = resolve_group(args.group)
    data = groups.conjugacy_classes(G)
    payload = {
        "group": G.name,
        "classes": [list(c) for c in data.classes],
        "reps": list(data.reps),
        "centralizers": [list(c) for c in data.centralizers],
    }
    rows = (
        ["rep", "class", "class size", "centralizer order"],
        [
            [G.names[r], "{" + ",".join(G.names[x] for x in c) + "}", len(c), len(z)]
            for r, c, z in zip(data.reps, data.classes, data.centralizers)
        ],
    )
    return _render(payload, args.format, rows, f"conjugacy classes of {G.name}")


def _render_ring(ring: sector.SectorRing, fmt: str, title: str) -> str:
    payload = ring.to_json()
    return _render(payload, fmt, (["i", "j", "k", "coeff"], payload["structure"]), title)


def cmd_dw(args) -> str:
    G = resolve_group(args.group)
    ring = sector.dw_frobenius(G)
    return _render_ring(ring, args.format, f"Z(Q[{G.name}]) structure constants")


def cmd_torsion(args) -> str:
    G = resolve_group(args.group)
    alpha = _resolve_cocycle(G, args.cocycle)
    tau = phases.discrete_torsion(alpha)
    payload = phases.torsion_to_json(tau)
    den = payload["denominator"]
    rows = (
        ["g \\ h"] + list(G.names),
        [[G.names[g]] + [f"{payload['num'][g][h]}/{den}" for h in range(G.order)] for g in range(G.order)],
    )
    return _render(payload, args.format, rows, f"discrete torsion on {G.name} (phase q = num/den)")


def cmd_twisted_center(args) -> str:
    G = resolve_group(args.group)
    alpha = _resolve_cocycle(G, args.cocycle)
    ring = sector.twisted_center(G, alpha)
    return _render_ring(ring, args.format, f"twisted center of Q(zeta)[{G.name}]")


def cmd_string_ring(args) -> str:
    X = _resolve_gset(args.gset)
    ring = sector.orbifold_string_ring(X)
    return _render_ring(ring, args.format, "orbifold string ring")


def cmd_morita(args) -> str:
    X = _resolve_gset(args.left)
    Y = _resolve_gset(args.right)
    rep = sector.morita_compare(X, Y, seed=args.seed)
    return _render(rep.to_json(), args.format)


def cmd_validate(args) -> str:
    md = chords.parse_diagram(_load_json_arg(args.diagram))
    return _render(md.to_json(), args.format)


def cmd_compose(args) -> str:
    base = chords.parse_diagram(_load_json_arg(args.base))
    parts = [chords.parse_diagram(_load_json_arg(p)) for p in args.parts]
    return _render(chords.compose(base, parts).to_json(), args.format)


def cmd_cactus(args) -> str:
    md = chords.parse_diagram(_load_json_arg(args.diagram))
    return _render(chords.to_cactus(md).to_json(), args.format)


def cmd_uncactus(args) -> str:
    cac = chords.parse_cactus(_load_json_arg(args.cactus))
    return _render(chords.from_cactus(cac).to_json(), args.format)


def cmd_ih(args) -> str:
    W = gchords.from_gdiagram_json(_load_json_arg(args.gdiagram), resolve_group)
    ih = gchords.incoming_holonomy(W)
    payload = {"inner": list(ih), "inner_names": [W.group.names[h] for h in ih]}
    return _render(payload, args.format)


def cmd_oh(args) -> str:
    W = gchords.from_gdiagram_json(_load_json_arg(args.gdiagram), resolve_group)
    g = gchords.outgoing_holonomy(W)
    return _render({"outer": g, "outer_name": W.group.names[g]}, args.format)


def cmd_gcompose(args) -> str:
    W = gchords.from_gdiagram_json(_load_json_arg(args.base), resolve_group)
    parts = [gchords.from_gdiagram_json(_load_json_arg(p), resolve_group) for p in args.parts]
    return _render(gchords.g_compose(W, parts).to_json(), args.format)


def cmd_enumerate(args) -> str:
    md = chords.parse_diagram(_load_json_arg(args.diagram))
    G = resolve_group(args.group)
    outer = _element_index(G, args.outer)
    inner = None
    if args.inner is not None:
        tokens, depth, cur = [], 0, ""
        for ch in args.inner:
            if ch == "," and depth == 0:
                tokens.append(cur)
                cur = ""
                continue
            depth += ch == "("
            depth -= ch == ")"
            cur += ch
        tokens.append(cur)
        for i, t in enumerate(tokens, start=1):
            if not t.strip():
                raise UsageError(f"--inner entry {i} of {len(tokens)} is empty")
        inner = tuple(_element_index(G, t) for t in tokens)
        if len(inner) != md.n:
            raise UsageError(f"need {md.n} inner holonomies, got {len(inner)}")
    decs = gchords.enumerate_gmd(md, G, outer, inner, cap=args.cap)
    payload = {
        "count": len(decs),
        "outer": outer,
        "inner": list(inner) if inner is not None else None,
        "decorations": [W.to_json() for W in decs],
    }
    return _render(payload, args.format)


def _resolve_presentation(args) -> graded.GradedPresentation:
    if args.name == "lens":
        if args.n is None or args.p is None:
            raise UsageError("ring lens needs --n and --p")
        return graded.lens_ring(args.n, args.p)
    if args.name == "sphere-quotient":
        if args.p is None:
            raise UsageError("ring sphere-quotient needs --p")
        return graded.sphere_quotient_ring(args.p)
    raise UsageError(f"unknown ring {args.name!r} (expected lens or sphere-quotient)")


def _parse_window(spec: str) -> tuple[int, int]:
    try:
        lo, hi = spec.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad window {spec!r}; expected LO:HI") from None


def cmd_ring(args) -> str:
    P = _resolve_presentation(args)
    payload = P.to_json()
    lo, hi = _parse_window(args.window)
    basis, in_window, _ = graded._window(P, lo, hi)
    payload["window"] = [lo, hi]
    payload["basis"] = [{"monomial": P.mono_str(m), "degree": P.degree(m)} for m in basis]
    table = []
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            prod = graded._monomial_product(P, a, b)
            if prod is None:
                table.append([i, j, "0"])
            elif prod[1] in in_window:
                sign, m = prod
                table.append([i, j, P.mono_str(m) if sign == 1 else f"-1*{P.mono_str(m)}"])
    payload["products"] = table
    rows = (["i", "j", "product"], table)
    return _render(payload, args.format, rows, "multiplication over the window")


def _parse_delta(spec: str, basis: tuple) -> dict:
    """Delta from {"entries": [[from, to, coeff], ...]}, indices into the window basis."""
    data = _load_json_arg(spec)
    entries = data.get("entries", []) if isinstance(data, dict) else None
    if not isinstance(entries, list):
        raise UsageError('bad --delta; expected {"entries": [[from, to, coeff], ...]}')
    delta = {}
    for entry in entries:
        bad = f"bad --delta entry {json.dumps(entry)}"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise UsageError(f"{bad}; expected [from, to, coeff]")
        src, dst, coeff = entry
        try:
            i, j = int(str(src)), int(str(dst))
            num, _, den = str(coeff).partition("/")
            c = Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"{bad}; expected integer indices and a coefficient p or p/q") from None
        if not (0 <= i < len(basis) and 0 <= j < len(basis)):
            raise UsageError(f"{bad}; indices run from 0 to {len(basis) - 1}")
        row = delta.setdefault(basis[i], {})
        if basis[j] in row:
            raise UsageError(f"{bad}; repeats the (from, to) pair of an earlier entry")
        row[basis[j]] = c
    return delta


def cmd_bvcheck(args) -> str:
    if args.dw:
        for flag in ("name", "n", "p", "window", "delta"):
            if getattr(args, flag) is not None:
                raise UsageError(f"--{flag} applies to a presentation window, not to --dw")
        ring = sector.dw_frobenius(resolve_group(args.dw))
        D = graded.ring_window_bv(ring)
        basis_names = list(ring.labels)
    else:
        lo, hi = _parse_window("-6:6" if args.window is None else args.window)
        P = _resolve_presentation(args)
        D = graded.graded_window_bv(P, lo, hi)
        D.delta = _parse_delta(args.delta, D.basis) if args.delta else {}
        basis_names = [P.mono_str(m) for m in D.basis]
    rep = graded.bv_check(D)
    payload = rep.to_json()
    payload["basis"] = basis_names
    return _render(payload, args.format)


def cmd_selftest(args) -> str:
    results = run_criteria(args.seed)
    out = render_report(results, args.seed)
    if not all(r.ok for r in results):
        raise SystemExit(out + "\nselftest failed")
    return out


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="orbistring",
        description="Exact string topology of global quotient orbifolds: sector rings, "
        "discrete torsion, chord-diagram operads, and a BV axiom checker.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(func=fn)
        p.add_argument("--format", choices=["json", "table", "markdown"], default="json")
        return p

    p = add("group", cmd_group, help="emit a catalog or file-defined group")
    p.add_argument("--group", required=True)
    p = add("classes", cmd_classes, help="conjugacy classes and centralizers")
    p.add_argument("--group", required=True)
    p = add("dw", cmd_dw, help="the Frobenius algebra Z(Q[G]) on class sums")
    p.add_argument("--group", required=True)
    p = add("torsion", cmd_torsion, help="discrete torsion 1-cocycle of a 2-cocycle")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", required=True, help="catalog name (trivial, nontrivial) or JSON")
    p = add("twisted-center", cmd_twisted_center, help="twisted center over Q(zeta)")
    p.add_argument("--group", required=True)
    p.add_argument("--cocycle", required=True)
    p = add("string-ring", cmd_string_ring, help="orbifold string ring of a finite G-set")
    p.add_argument("--gset", required=True, help="point:G | self:G | coset:G:H | JSON")
    p = add("morita", cmd_morita, help="compare two orbifold string rings")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--seed", type=int, default=42)
    p = add("validate", cmd_validate, help="validate and canonicalize a marked chord diagram")
    p.add_argument("--diagram", required=True)
    p = add("compose", cmd_compose, help="operad composition of marked chord diagrams")
    p.add_argument("--base", required=True)
    p.add_argument("--parts", nargs="+", required=True)
    p = add("cactus", cmd_cactus, help="the cactus of a marked chord diagram class")
    p.add_argument("--diagram", required=True)
    p = add("uncactus", cmd_uncactus, help="the diagram class of a cactus")
    p.add_argument("--cactus", required=True)
    p = add("ih", cmd_ih, help="incoming (per-region) holonomies of a decorated diagram")
    p.add_argument("--gdiagram", required=True)
    p = add("oh", cmd_oh, help="outgoing holonomy of a decorated diagram")
    p.add_argument("--gdiagram", required=True)
    p = add("gcompose", cmd_gcompose, help="holonomy-matched composition of decorated diagrams")
    p.add_argument("--base", required=True)
    p.add_argument("--parts", nargs="+", required=True)
    p = add("enumerate", cmd_enumerate, help="all decorations of a base diagram")
    p.add_argument("--diagram", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--outer", required=True, help="element index or name")
    p.add_argument("--inner", help="comma-separated element indices or names")
    p.add_argument("--cap", type=int, default=1_000_000)
    p = add("ring", cmd_ring, help="a shipped graded ring presentation over a degree window")
    p.add_argument("--name", required=True, help="lens | sphere-quotient")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--window", default="-6:6")
    p = add("bvcheck", cmd_bvcheck, help="check the BV axioms for a candidate Delta")
    p.add_argument("--name", help="lens | sphere-quotient")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--dw", help="use Z(Q[GROUP]) in degree 0 instead of a presentation")
    p.add_argument("--window")  # a presentation's default is -6:6
    p.add_argument("--delta", help="JSON {entries: [[from,to,coeff],...]} over the window basis")
    p = add("selftest", cmd_selftest, help="run the full acceptance property suite")
    p.add_argument("--seed", type=int, default=42)
    return ap


DOMAIN_ERRORS = (
    groups.GroupError,
    phases.CocycleError,
    sector.SectorError,
    chords.DiagramError,
    chords.CactusError,
    gchords.HolonomyError,
    graded.GradedError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        out = args.func(args)
    except UsageError as e:
        print(json.dumps({"error": str(e), "kind": "usage"}), file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as e:
        payload = {"error": str(e), "kind": type(e).__name__}
        if getattr(e, "witness", None) is not None:
            payload["witness"] = str(e.witness)
        if getattr(e, "slot", None) is not None:
            payload["slot"] = e.slot
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return 1
    except SystemExit as e:
        print(str(e), file=sys.stderr)
        return 1
    try:
        print(out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`); as the signal module's note on SIGPIPE
        # advises, point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
