"""One benchmark process: set up a workload, then measure or trace it.

Started by run.py in a fresh interpreter, one per measurement, and never
imported.  Prints one JSON object as its last stdout line.

Modes:
  setup    import, generate the first cycle's inputs, warm up; report times
  measure  set up, then run whole cycles of ops until --seconds have passed,
           timing the reference loop (reference.py) before every op
  fixed    set up, then run the workload's trace cycles of ops; with
           --traced 1 under the tracer, followed by the known-answer probes
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MAX_REPORTED = 3  # failure texts passed back per run
REFERENCE_REPEATS = 25  # reference loops timed after set-up; the median scales setup_s

sys.path.insert(0, str(HERE))


def setup(workload_name: str, seed: int):
    """Import the package, build the first cycle of inputs and warm up; time each step."""
    sys.path.insert(0, str(SRC))
    import orbistring.cli  # noqa: F401  (the CLI import is what a user pays)

    if not Path(orbistring.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"orbistring was imported from {orbistring.cli.__file__}, not {SRC}")
    import workloads

    t1 = perf_counter()
    wl = workloads.WORKLOADS[workload_name](seed)
    first = [wl.op(i) for i in range(len(wl.slots))]
    t2 = perf_counter()
    warm = [run_op(op) for op in wl.warmup_ops()]
    warm_failures = [f"warm-up {r}" for _, ok, r in warm if not ok]
    t3 = perf_counter()
    from reference import reference_seconds

    refs = sorted(reference_seconds() for _ in range(REFERENCE_REPEATS))
    times = {
        "import_s": t1 - T_START,
        "inputs_s": t2 - t1,
        "warmup_s": t3 - t2,
        "setup_s": t3 - T_START,
        "reference_s": refs[len(refs) // 2],  # host speed right after set-up, for scaling
        "warmup_ops": len(warm),
        "warmup_failures": warm_failures,
        "numpy_imported": "numpy" in sys.modules,
    }
    return wl, first, times


def run_op(op, before=None, after=None):
    """Time op.call alone, then check its result.

    Returns (seconds, ok, result); when the op failed, result is a text
    saying why (the traceback when a call or check raised).
    """
    if before:
        before()
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception:  # a failed op is data, not a crash
        dt = perf_counter() - t0
        if after:
            after()
        return dt, False, f"{op.kind}: {traceback.format_exc()}"
    dt = perf_counter() - t0
    if after:
        after()
    try:
        ok = bool(op.check(result))
    except Exception:
        return dt, False, f"{op.kind} check: {traceback.format_exc()}"
    return dt, ok, result if ok else f"{op.kind}: wrong result {result!r:.300}"


def measure(wl, first, seconds: float) -> dict:
    """Run whole cycles until `seconds` of wall time have passed."""
    from reference import reference_seconds

    L = len(wl.slots)
    lat, ok_flags, failures, refs = [], [], [], []
    t_end = perf_counter() + seconds
    i = 0
    while True:
        op = first[i] if i < L else wl.op(i)
        refs.append(reference_seconds())
        dt, ok, result = run_op(op)
        lat.append(dt)
        ok_flags.append(int(ok))
        if not ok and len(failures) < MAX_REPORTED:
            failures.append(f"op {i} {result}")
        i += 1
        if i % L == 0 and perf_counter() >= t_end:
            break
    return {
        "latencies": lat,
        "ok": ok_flags,
        "refs": refs,
        "failures": failures,
        "cycle_len": L,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def fixed(wl, first, traced: bool) -> dict:
    """Run the workload's trace cycles of ops; under the tracer when `traced`."""
    import probes
    import tracer as tracer_mod
    from reference import reference_seconds
    import workloads
    from orbistring import chords

    tr = tracer_mod.Tracer()
    cache = chords.rep_diagram  # the lru_cache object, before any wrapping
    hits = misses = 0
    calls_before: dict[str, int] = {}
    if traced:
        tr.install(also=(workloads,))

    def on():
        nonlocal hits, misses
        info = cache.cache_info()
        hits -= info.hits
        misses -= info.misses
        if traced:
            calls_before.update((name, st.calls) for name, st in tr.stats.items())
        tr.active = traced

    def off():
        nonlocal hits, misses
        tr.active = False
        info = cache.cache_info()
        hits += info.hits
        misses += info.misses

    def calls_in_op(name: str) -> int:
        return tr.stats[name].calls - calls_before[name]

    L = len(wl.slots)
    lat, refs, failures = [], [], []
    for i in range(wl.trace_cycles * L):
        op = first[i] if i < L else wl.op(i)
        refs.append(reference_seconds())
        dt, ok, result = run_op(op, on, off)
        lat.append(dt)
        if not ok:
            failures.append(f"op {i} {result}")
        elif traced:
            wl.account(op, result, tr.count, calls_in_op)
    out = {"latencies": lat, "refs": refs, "cycle_len": L, "failed": len(failures),
           "failures": failures[:MAX_REPORTED],
           "rep_hits": hits, "rep_misses": misses}
    if traced:
        tr.uninstall()
        out["stats"] = {k: [s.calls, s.incl, s.self_s] for k, s in tr.stats.items()}
        out["layer_s"] = tr.layer_s
        out["errors"] = tr.errors
        out["counts"] = tr.counts
        out["probes"] = probes.run_probes()
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "fixed"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl, first, times = setup(args.workload, args.seed)
    out = {"setup": times}
    if args.mode == "measure":
        out.update(measure(wl, first, args.seconds))
    elif args.mode == "fixed":
        out.update(fixed(wl, first, bool(args.traced)))
    print(json.dumps(out))


if __name__ == "__main__":
    main()
