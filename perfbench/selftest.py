#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--quick]

Run from the repository root.  Checks that BENCHMARK.json parses and
follows the benchmark contract (keys, name and unit syntax, bounds), that
the harness builds, and that on the seconds-scale `tiny` workload every
correctness check passes, including the traced mirror matching the
untraced Simulation::run exactly.  It also checks that perfbench/run.py
prints a well-formed result line, and that it fails without a result when
the simulator sources are missing.  Without --quick it then runs every
BENCHMARK.json workload for one pass in both trace modes and checks that
each named metric appears (a few minutes).  Exits 0 when all pass.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in perfbench/
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

failures = []


def expect(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(all(PATH.fullmatch(p) and not p.startswith("/") and ".." not in p
               for p in spec["paths"]), "paths are relative and well-formed")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds is a whole number in [1, 60]")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and NAME.fullmatch(w["name"])
               and "\n" not in w["why"] and len(w["why"]) <= 200,
               f"workload {w['name']}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}
               and NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
               and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25,
               f"end-to-end metric {m['name']}")
        names.append(m["name"])
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"} and NAME.fullmatch(m["name"])
               and UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher"),
               f"per-layer metric {m['name']}")
        names.append(m["name"])
    expect(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is present, in s, lower-better, with the largest bound")


def check_metrics(workload, trace, metrics, spec):
    want = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    missing = [n for n in want if n not in metrics]
    bad = [n for n in want if n in metrics
           and not isinstance(metrics[n][0], (int, float))]
    expect(not missing and not bad and len(metrics) == len(want),
           f"{workload} --trace {trace}: every metric present and numeric"
           + (f" (missing {missing}, non-numeric {bad})" if missing or bad else ""))


def check_run(workload, trace, seconds, spec):
    checks, metrics, host = run.run(workload, 5, seconds, trace, spec)
    failed = [n for n, ok in checks if not ok]
    expect(not failed, f"{workload} --trace {trace}: {len(checks)} checks pass"
           + (f" (failed: {failed[:5]})" if failed else ""))
    check_metrics(workload, trace, metrics, spec)
    return checks, metrics, host


def check_result_line():
    proc = subprocess.run([sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
                           "--workload", run.SELFTEST_WORKLOAD, "--seed", "3",
                           "--seconds", "1", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    expect(proc.returncode == 0
           and set(result) == {"correct", "attempted", "failed", "metrics"}
           and result["correct"] is True and result["failed"] == 0
           and result["attempted"] >= 1
           and all(set(v) == {"value", "unit"} for v in result["metrics"].values()),
           "run.py prints a well-formed passing result line")


def check_fails_without_sources():
    """A tree holding only BENCHMARK.json and perfbench/ must fail cleanly."""
    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(run.SPEC, bare)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "paper-matrix", "--seed", "1", "--seconds", "1"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py fails without printing a result when src/ is missing")


def main():
    quick = "--quick" in sys.argv[1:]
    spec = run.load_spec()
    check_spec(spec)
    run.build()

    checks, _, host = check_run(run.SELFTEST_WORKLOAD, 0, 1, spec)
    fidelity = [ok for n, ok in checks if n.startswith("traced-matches-untraced")]
    expect(len(fidelity) >= 6 and all(fidelity),
           "traced mirror matches the untraced run on both seeds")
    expect(any(n.startswith("S1-matches-S") for n, _ in checks),
           "S=1 rerun compared with the sharded run")
    expect(host["build_type"] == "Release", "harness built as Release")
    check_run(run.SELFTEST_WORKLOAD, 1, 1, spec)
    check_result_line()
    check_fails_without_sources()

    if not quick:
        for w in spec["workloads"]:
            for trace in (0, 1):
                check_run(w["name"], trace, 0, spec)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
