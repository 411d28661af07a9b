#!/usr/bin/env python3
"""End-to-end benchmark of the Lunule simulator.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds T] [--trace 0|1]

Run from the repository root.  Builds perfbench/ (Release) against the
simulator sources in src/, runs one workload and prints every metric by
name with its unit; the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from the traced mirror of the tick loop).  Every run also
makes an untimed check pass under LUNULE_VALIDATE=1 on the seed and on a
held-out seed derived from it; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "lunule_perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The held-out seed is derived from --seed, so one argument fixes every
# input of a run, and never equals it.
HELDOUT_OFFSET = 1000003

# The timed measurement is split over this many processes.  On a shared VM
# one process's speed drifted as a whole (by its memory placement or its
# moment), so per-scenario medians over several processes are steadier.
TIMED_PROCESSES = 3

# Bytes; see harness().
MMAP_THRESHOLD = 65536

# Harness-only workload for perfbench/selftest.py; not in BENCHMARK.json.
SELFTEST_WORKLOAD = "tiny"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the harness; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def harness(args, validate=False):
    """Runs the harness; returns its JSON result, or None if it failed."""
    env = dict(os.environ)
    env.pop("LUNULE_VALIDATE", None)
    # A fixed mmap threshold serves every large block from fresh pages, as
    # in a new process; glibc's adaptive threshold instead recycles the
    # previous pass's heap, and pass times then depended on that history.
    env["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)
    if validate:
        env["LUNULE_VALIDATE"] = "1"
    proc = subprocess.run([HARNESS] + args, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"harness {' '.join(args)} exited {proc.returncode}")
        return None
    return json.loads(lines[-1])


def sum_of_medians(samples):
    """Sums, over scenarios, the median of each scenario's samples.

    `samples` holds one list of per-scenario times per pass.  A scenario's
    samples come from different moments of the run, so the sum averages
    slow host drift that a median of whole-pass sums would keep."""
    return sum(statistics.median(col) for col in zip(*samples))


def end_to_end(timed):
    """End-to-end metrics of the timed processes, keyed by name (value, unit)."""
    scen = timed[0]["scenarios"]
    passes = [p for t in timed for p in t["passes"]]
    served = sum(s["served"] for s in scen)
    sim_seconds = sum(s["end_tick"] for s in scen)
    wall = sum_of_medians([p["wall_s"] for p in passes])
    setup = sum_of_medians([p["setup_s"] for p in passes]
                           + [s for t in timed for s in t["setup_only_s"]])
    return {
        "wall_s": (wall, "s"),
        "sim_ops_per_s": (served / wall, "ops/host_s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(t["peak_rss_mb"] for t in timed), "MiB"),
        "sim_iops": (served / sim_seconds, "ops/sim_s"),
        "mean_if": (statistics.fmean(s["mean_if"] for s in scen), "ratio"),
    }


def per_layer(traced, spec):
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return {name: (traced["layers"][name], unit) for name, unit in units.items()}


def run(workload, seed, seconds, trace, spec):
    """Runs one workload; returns (checks, metrics, host facts)."""
    heldout = seed + HELDOUT_OFFSET
    common = ["--workload", workload, "--seed", str(seed)]
    if trace:
        spans = os.path.join(BUILD_DIR, f"spans-{workload}-{seed}.csv")
        measured = harness(common + ["--mode", "traced", "--spans", spans,
                                     "--seconds", str(seconds)])
        timed = [measured]
    else:
        timed = [harness(common + ["--mode", "timed",
                                   "--seconds", str(seconds / TIMED_PROCESSES)])
                 for _ in range(TIMED_PROCESSES)]
        measured = timed[0]
    if any(t is None for t in timed):
        raise RuntimeError("measured run failed")
    checks = [(c["name"], c["ok"]) for t in timed for c in t["checks"]]
    # Every timed process must model exactly what the first did.
    for t in timed[1:]:
        for a, b in zip(measured["scenarios"], t["scenarios"]):
            checks.append((f"process-identical {a['name']}",
                           a["digest"] == b["digest"]))
    checked = harness(common + ["--mode", "check", "--heldout-seed", str(heldout)],
                      validate=True)

    if checked is None:
        checks.append(("validated check pass completed", False))
    else:
        checks += [(c["name"], c["ok"]) for c in checked["checks"]]
        # The validated rerun must model exactly what the measured run did.
        for a, b in zip(measured["scenarios"], checked["scenarios"]):
            checks.append((f"validated-matches-measured {a['name']}",
                           a["digest"] == b["digest"]))
        checks.append(("validated-scenario-count",
                       len(measured["scenarios"]) == len(checked["scenarios"])))

    host = dict(measured["host"])
    host["seed"] = seed
    host["heldout_seed"] = heldout
    host["granted_workers"] = [s["granted_workers"] for s in measured["scenarios"]]
    if trace:
        metrics = per_layer(measured, spec)
        host["traced_passes"] = measured["traced_passes"]
    else:
        metrics = end_to_end(timed)
        host["timed_passes"] = [len(t["passes"]) for t in timed]
    return checks, metrics, host


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + [SELFTEST_WORKLOAD])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
        checks, metrics, host = run(args.workload, args.seed, args.seconds,
                                    args.trace, spec)
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: {e}")
        return 1

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        log(f"FAILED check: {name}")
    print(f"workload {args.workload}  seed {host['seed']}  "
          f"held-out seed {host['heldout_seed']}")
    print("host " + " ".join(f"{k}={v}" for k, v in sorted(host.items())
                              if k not in ("seed", "heldout_seed")))
    if host["build_type"] != "Release":
        print(f"WARNING: non-Release build ({host['build_type']}); "
              "timings are not comparable")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"check_fail_frac {len(failed) / len(checks):.6g} "
          f"({len(failed)} of {len(checks)} checks failed)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
