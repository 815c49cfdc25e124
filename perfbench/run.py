"""Benchmark for orbistring: four workloads, end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rings --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: rings, operad, g-operad, bv (README.md says why each exists).
Every measurement runs in a fresh single-threaded worker process (worker.py)
as a closed loop with one caller.  Human-readable lines come first; the last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics.

--trace 0 reports the end-to-end metrics: ops_per_s, op_p50_ms, op_p90_ms,
setup_s and peak_rss_mb.  Times are scaled to a quiet host by the reference
loop in reference.py; the unscaled figures are printed beside them.
--trace 1 runs the workload's trace cycles of ops twice, plain and under the
tracer, and reports the per-layer metrics, the tracing overhead and the
known-answer probes.

Seed 20261017 is held out: use it only to check a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
from reference import QUIET_S  # noqa: E402
WORKLOADS = ("rings", "operad", "g-operad", "bv")
HELD_OUT_SEED = 20261017
SETUP_SAMPLES = 7  # fresh interpreters timed for setup_s; the median is reported
WORKER_MARGIN_S = 150  # a worker's time limit: its --seconds plus this, for set-up and the last cycle


class BenchError(Exception):
    pass


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0, **extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode,
           "--seconds", str(seconds)]
    timeout = seconds + WORKER_MARGIN_S
    for k, v in extra.items():
        cmd += [f"--{k}", str(v)]
    env = dict(os.environ)
    # one thread per process; a fixed hash seed so traced counts repeat exactly
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} {mode} worker exceeded {timeout:g} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_head() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report_failures(texts: list[str]) -> None:
    for text in texts:
        print(f"failed op: {text}", file=sys.stderr)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def at_quiet_speed(latencies: list[float], refs: list[float], cycle_len: int) -> list[float]:
    """Each op's time scaled to a quiet host: t * QUIET_S / (median reference loop time of its cycle)."""
    scaled = []
    for start in range(0, len(latencies), cycle_len):
        speed = QUIET_S / statistics.median(refs[start:start + cycle_len])
        scaled += [t * speed for t in latencies[start:start + cycle_len]]
    return scaled


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    m = worker(workload, seed, "measure", seconds=seconds)
    setups = [worker(workload, seed, "setup")["setup"] for _ in range(SETUP_SAMPLES)]
    lat, L = m["latencies"], m["cycle_len"]
    all_setups = [m["setup"], *setups]
    report_failures(m["failures"] + [f for s in all_setups for f in s["warmup_failures"]])
    attempted = len(lat) + sum(s["warmup_ops"] for s in all_setups)
    failed = len(lat) - sum(m["ok"]) + sum(len(s["warmup_failures"]) for s in all_setups)
    scaled = at_quiet_speed(lat, m["refs"], L)
    p90 = statistics.quantiles(scaled, n=10)[-1]
    metrics = {
        "ops_per_s": metric(sum(m["ok"]) / sum(scaled), "1/s"),
        "op_p50_ms": metric(statistics.median(scaled) * 1e3, "ms"),
        "op_p90_ms": metric(p90 * 1e3, "ms"),
        "setup_s": metric(statistics.median(s["setup_s"] * QUIET_S / s["reference_s"] for s in setups), "s"),
        "peak_rss_mb": metric(m["peak_rss_mb"], "MB"),
    }
    slowdown = statistics.median(m["refs"]) / QUIET_S
    notes = [
        f"samples={len(lat)} ops in {len(lat) // L} cycles of {L}; beyond_p90={sum(x > p90 for x in scaled)}",
        f"ops_failed_ratio={(len(lat) - sum(m['ok'])) / len(lat):.6g} (base {len(lat)} ops attempted)",
        f"host slowdown (reference loop / quiet) median={slowdown:.3f}; unscaled: "
        f"ops_per_s={sum(m['ok']) / sum(lat):.6g} op_p50_ms={statistics.median(lat) * 1e3:.6g} "
        f"op_p90_ms={statistics.quantiles(lat, n=10)[-1] * 1e3:.6g} "
        f"setup_s={statistics.median(s['setup_s'] for s in setups):.6g}",
        f"numpy_imported={m['setup']['numpy_imported']}",
    ]
    return metrics, attempted, failed, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    plain = worker(workload, seed, "fixed", traced=0)
    t = worker(workload, seed, "fixed", traced=1)
    stats = t["stats"]

    def calls(name):
        return stats.get(name, [0, 0.0, 0.0])[0]

    def incl(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[1] for n in names)

    def self_s(*names):
        return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

    counts = t["counts"]
    verify = incl("sector.check_associative", "sector.check_unit", "sector.pairing_nondegenerate")
    instances = counts.get("graded.bv.instances", 0)
    skipped = counts.get("graded.bv.skipped", 0)
    hits, misses = t["rep_hits"], t["rep_misses"]
    n_ops = len(t["latencies"])
    values = {
        "cyclo.mul.calls": calls("cyclo.mul"),
        "cyclo.mul.s": incl("cyclo.mul"),
        "cyclo.inverse.calls": calls("cyclo.inverse"),
        "cyclo.inverse.s": incl("cyclo.inverse"),
        "cyclo.mat_det.s": incl("cyclo.mat_det"),
        "cyclo.mat_inverse.s": incl("cyclo.mat_inverse"),
        "sector.build.self_s": self_s("sector.twisted_center", "sector.dw_frobenius", "sector.orbifold_string_ring"),
        "sector.check_associative.s": incl("sector.check_associative"),
        "sector.check_unit.s": incl("sector.check_unit"),
        "sector.pairing_nondegenerate.s": incl("sector.pairing_nondegenerate"),
        "sector.verify_share": _ratio(verify, t["layer_s"]["sector"]),
        "sector.morita_compare.self_s": self_s("sector.morita_compare"),
        "groups.conjugacy_classes.calls": calls("groups.conjugacy_classes"),
        "groups.conjugacy_classes.s": incl("groups.conjugacy_classes"),
        "phases.coboundary.s": incl("phases.coboundary"),
        "phases.alpha_regular_reps.s": incl("phases.alpha_regular_reps"),
        "chords.validate_diagram.calls": calls("chords.validate_diagram"),
        "chords.validate_diagram.self_s": self_s("chords.validate_diagram"),
        "chords.compose.calls": calls("chords.compose"),
        "chords.compose.self_s": self_s("chords.compose"),
        "chords.region_walk.calls": calls("chords.region_walk"),
        "chords.region_walk.s": incl("chords.region_walk"),
        "chords.cactus.s": incl("chords.to_cactus", "chords.from_cactus"),
        "chords.rep_diagram.hits": hits,
        "chords.rep_diagram.misses": misses,
        "chords.rep_diagram.hit_ratio": _ratio(hits, hits + misses),
        "gchords.g_compose.calls": calls("gchords.g_compose"),
        "gchords.g_compose.self_s": self_s("gchords.g_compose"),
        "gchords.incoming_holonomy.calls": calls("gchords.incoming_holonomy"),
        "gchords.incoming_holonomy.s": incl("gchords.incoming_holonomy"),
        "gchords.enumerate_gmd.self_s": self_s("gchords.enumerate_gmd"),
        "gchords.enumerate.match_ratio": _ratio(
            counts.get("gchords.enumerate.matched", 0), counts.get("gchords.enumerate.tried", 0)
        ),
        "graded.multiply.calls": calls("graded.multiply"),
        "graded.multiply.s": incl("graded.multiply"),
        "graded.basis_window.s": incl("graded.basis_window"),
        "graded.bv_check.self_s": self_s("graded.bv_check"),
        "graded.bv.instances": instances,
        "graded.bv.skipped_ratio": _ratio(skipped, instances + skipped),
        "graded.multiply_per_instance": _ratio(calls("graded.multiply"), instances),
        "setup.import_s": plain["setup"]["import_s"],
        "setup.inputs_s": plain["setup"]["inputs_s"],
        "setup.warmup_s": plain["setup"]["warmup_s"],
        "trace.overhead_ratio": _ratio(
            sum(at_quiet_speed(t["latencies"], t["refs"], t["cycle_len"])),
            sum(at_quiet_speed(plain["latencies"], plain["refs"], plain["cycle_len"])),
        ) - 1,
        "ops_failed_ratio": _ratio(t["failed"], n_ops),
    }
    for layer, secs in t["layer_s"].items():
        values[f"{layer}.s"] = secs
    for layer, k in t["errors"].items():
        values[f"{layer}.errors"] = k
    for name in ("sector.morita.decided", "graded.bv.known_good_accepted", "cyclo.eq_hash_agree"):
        values[name] = t["probes"][name]
    metrics = {}
    for name, v in values.items():
        if name.endswith(("_s", ".s")):
            unit = "s"
        elif isinstance(v, int):
            unit = "count"
        else:
            unit = "ratio"
        metrics[name] = metric(v, unit)
    report_failures(plain["failures"] + t["failures"] + plain["setup"]["warmup_failures"] + t["setup"]["warmup_failures"])
    attempted = 2 * n_ops + plain["setup"]["warmup_ops"] + t["setup"]["warmup_ops"]
    failed = t["failed"] + plain["failed"] + len(plain["setup"]["warmup_failures"] + t["setup"]["warmup_failures"])
    notes = [f"numpy_imported={plain['setup']['numpy_imported']}"]
    notes += [f"probe: {line}" for line in t["probes"]["detail"]]
    return metrics, attempted, failed, notes


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        metrics, attempted, failed, notes = per_layer(workload, seed)
    else:
        metrics, attempted, failed, notes = end_to_end(workload, seed, seconds)
    print(f"== {workload} seed={seed} trace={trace}")
    for line in notes:
        print(f"   {line}")
    for name, m in metrics.items():
        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "orbistring" / "__init__.py").is_file():
        print(f"error: no orbistring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(
        f"# run: python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} "
        f"head={git_head()} seed={args.seed} held_out_seed={HELD_OUT_SEED} seconds={args.seconds}"
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_one(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        out = next(iter(results.values()))
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
