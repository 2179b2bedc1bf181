#!/usr/bin/env python3
"""Rockcress host-time benchmark.

Builds the perfbench package (the simulator libraries from ../src and
the rc_bench driver) into .bench_build/ at the repository root, then
runs one workload and prints its metrics:

    python3 perfbench/run.py --workload sim_long --seed 1 --seconds 25 --trace 0

Workloads: sim_long, short_runs, sweep, fuzz (see perfbench/README.md).
With --trace 0 the last stdout line reports every end-to-end metric of
BENCHMARK.json; with --trace 1 it reports every per-layer metric and
the spans go to .bench_build/trace/. Earlier lines carry the host stamp
and a summary. Simulated cycles are checked against
perfbench/expected_cycles.json; `--record` rewrites that file from the
current build after a deliberate change to the timing model.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "rc_bench"
EXPECTED = HERE / "expected_cycles.json"
WORKLOADS = ("sim_long", "short_runs", "sweep", "fuzz")
SETUP_PROBES = 6  # extra set-up-only processes; setup_s is the median
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "rc_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def run_driver(workload, seed, seconds, extra=()):
    """Run rc_bench once; return its last-line JSON."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ROCKCRESS_")}
    t0 = time.time()
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--t0", repr(t0), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          timeout=RUN_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"rc_bench exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def source_digest():
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=30)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_cycles(cycles, expected):
    """Each label's simulated cycles must equal the recorded value."""
    errors = []
    for label, got in sorted(cycles.items()):
        want = expected.get(label)
        if want != got:
            errors.append(f"{label}: simulated {got} cycles, expected {want}")
    return errors


def record():
    cycles = {}
    for workload in ("sim_long", "short_runs", "sweep"):
        res = run_driver(workload, 1, 0)
        if res["failed"]:
            raise BenchError(f"{workload}: {res['errors']}")
        cycles.update(res["cycles"])
    EXPECTED.write_text(json.dumps(cycles, indent=1, sort_keys=True) + "\n")
    log(f"recorded {len(cycles)} labels in {EXPECTED}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected_cycles.json from this build")
    args = ap.parse_args()
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    build()
    if args.record:
        record()
        return 0

    names = metric_names(args.trace == 1)
    expected = json.loads(EXPECTED.read_text())
    setups = [run_driver(args.workload, args.seed, args.seconds,
                         ["--setup-only"])["setup_s"]
              for _ in range(SETUP_PROBES)]
    extra = []
    if args.trace:
        spans = BUILD / "trace" / f"{args.workload}-seed{args.seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        extra = ["--spans", str(spans)]
    res = run_driver(args.workload, args.seed, args.seconds, extra)

    metrics = res["metrics"]
    setups.append(metrics["setup_s"]["value"])
    metrics["setup_s"]["value"] = statistics.median(setups)
    cycle_errors = check_cycles(res["cycles"], expected)
    failed = res["failed"] + len(cycle_errors)
    errors = res["errors"] + cycle_errors
    missing = [n for n in names if n not in metrics]
    if missing:
        errors.append(f"metrics not reported: {missing}")

    host = dict(res["host"], commit=commit(), source=source_digest(),
                python=sys.version.split()[0])
    print("host " + json.dumps(host, sort_keys=True))
    cases = metrics.get("cases")
    raw = metrics.get("raw_wall_s")
    print(f"{args.workload} seed {args.seed}: {res['passes']} passes, "
          + (f"{int(cases['value'])} cases, " if cases else "")
          + f"{res['attempted']} ops, {failed} failed"
          + (f", {raw['value']:.4f} s a pass as measured "
             f"({metrics['wall_s']['value']:.4f} s at reference speed)"
             if raw else "")
          + (f", spans in {extra[1]}" if extra else ""))
    if res["probe_metrics"]:
        print("from the 2dconv/NV probe, not this workload's operations: "
              + ", ".join(res["probe_metrics"]))
    for e in errors:
        print("error: " + e)
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
