#!/usr/bin/env python3
"""Turret search benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (a CMake package compiling ../src) into .bench_build/, then
runs the workload's attack search in a fresh process per repetition until
--seconds have been spent (at least MIN_REPS repetitions), checks the results
and prints, as its last stdout line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

  --trace 0  end-to-end metrics: medians over the untraced repetitions.
  --trace 1  per-layer metrics: one untraced reference repetition, then one
             traced repetition (decorated search + branch replay).

The workload names are those of BENCHMARK.json. Every search is a closed
batch job on 4 worker threads (capped at nproc). A repetition is an
"operation": `attempted` counts repetitions, `failed` those that crashed or
timed out. A failed repetition does not stop the run; the result then reads
correct=false with the counts. Branches the search itself quarantines are part
of its result and show in branch_ok_frac, not in `failed`.

Seeds: the seed goes to the scenario (SystemBuildOptions::seed /
PbftScenarioOptions::seed; 0 selects the system default, 42). The default seed
is 42; seed 7 is held out for re-checking claims.

The full record of a run (host and build, seed, per-repetition figures,
result digests) is written to .bench_build/results/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "perfbench_search")
# Metric names and units: --trace 0 reports `end_to_end`, --trace 1 `per_layer`.
SPEC = os.path.join(ROOT, "BENCHMARK.json")

DEFAULT_SEED = 42
MIN_REPS = 2
# A run must end within 180 s: no repetition starts after LAUNCH_DEADLINE_S,
# and each is killed at CHILD_DEADLINE_S.
LAUNCH_DEADLINE_S = 110.0
CHILD_DEADLINE_S = 170.0
# Each repetition times set-up (scenario build + discover) the same number of
# times on every workload; the first sample is cold (fresh process) and
# setup_s is the median of the warm ones of every repetition.

# Figures of the search result that must repeat exactly across repetitions.
EXACT = ("result_digest", "branches", "attacks_found", "failed_branches",
         "search_virtual_s", "first_attack_virtual_s")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures and builds the benchmark; False if that fails."""
    if not os.path.isfile(os.path.join(HERE, "CMakeLists.txt")):
        log("perfbench: CMakeLists.txt missing")
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    # A failed configure leaves a cache but no build system: configure again.
    if not any(os.path.isfile(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_search",
                   "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(cmd)}")
            log((proc.stdout + proc.stderr)[-4000:])
            return False
    return os.path.isfile(BINARY)


def child(args, deadline):
    """Runs perfbench_search once; its JSON record, or None if it failed."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        return None
    try:
        proc = subprocess.run([BINARY, *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        log("perfbench: repetition timed out")
        return None
    if proc.returncode != 0:
        log(f"perfbench: repetition exited {proc.returncode}: "
            f"{proc.stderr.strip()[-2000:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench: repetition printed no record")
        return None


def median(values):
    return statistics.median(values) if values else 0.0


def check_exact(reps, problems):
    for key in EXACT:
        seen = {json.dumps(r[key]) for r in reps}
        if len(seen) > 1:
            problems.append(f"{key} differs across repetitions: {sorted(seen)}")


def end_to_end(reps):
    return {
        "search_wall_s": median([r["search_wall_s"] for r in reps]),
        "branches_per_s": median(
            [r["branches"] / r["search_wall_s"] for r in reps]),
        "setup_s": median([s for r in reps for s in r["setup_s"][1:]]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "attacks_found": reps[0]["attacks_found"],
        "search_virtual_s": reps[0]["search_virtual_s"],
        "first_attack_virtual_s": reps[0]["first_attack_virtual_s"],
        "branch_ok_frac": 1.0 - reps[0]["failed_branches"] / reps[0]["branches"],
    }


def main():
    try:
        with open(SPEC) as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        log(f"perfbench: cannot read {SPEC}: {e}")
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 2
    start = time.monotonic()
    launch_deadline = start + LAUNCH_DEADLINE_S
    child_deadline = start + CHILD_DEADLINE_S

    search_args = ["--mode", "search", "--workload", a.workload,
                   "--seed", str(a.seed)]
    reps, attempted, failed = [], 0, 0
    # Traced runs need one untraced reference; untraced runs fill --seconds.
    want_seconds = 0.0 if a.trace else a.seconds
    want_reps = 1 if a.trace else MIN_REPS
    while (len(reps) < want_reps or time.monotonic() - start < want_seconds) \
            and time.monotonic() < launch_deadline:
        attempted += 1
        rec = child(search_args, child_deadline)
        if rec is None:
            failed += 1
            continue
        if not rec["host"]["build_valid"]:
            log(f"perfbench: invalid build for timing (sanitizer, coverage or "
                f"unoptimized): {json.dumps(rec['host'])}")
            return 3
        reps.append(rec)

    problems = []
    traced = None
    if reps and a.trace:
        attempted += 1
        traced = child(["--mode", "traced", "--workload", a.workload,
                        "--seed", str(a.seed)], child_deadline)
        if traced is None:
            failed += 1
    if failed:
        problems.append(f"{failed} of {attempted} repetitions failed")
    if not reps:
        problems.append("no repetition completed")

    if a.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    values = {}
    if reps:
        check_exact(reps, problems)
        if reps[0]["attacks_found"] <= 0:
            problems.append("the search found no attack")
        if not a.trace:
            values = end_to_end(reps)
    if traced is not None:
        if traced["result_digest"] != reps[0]["result_digest"]:
            problems.append("traced search result differs from the untraced one")
        problems.extend(traced["problems"])
        values = dict(traced["per_layer"])
        values["search.trace_overhead_frac"] = (
            traced["traced_search_wall_s"] / median(
                [r["search_wall_s"] for r in reps]) - 1.0)
    missing = sorted(set(units) - set(values))
    if missing and reps and not failed:
        problems.append("metrics missing: " + ", ".join(missing))

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = not problems
    digest = reps[0]["result_digest"] if reps else None
    host = reps[0]["host"] if reps else None
    record = {
        "workload": a.workload, "seed": a.seed, "trace": a.trace,
        "seconds": a.seconds, "result_digest": digest, "host": host,
        "attempted": attempted, "failed": failed, "repetitions": reps,
        "traced": traced, "problems": problems, "metrics": metrics,
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(
            RESULTS, f"{a.workload}-seed{a.seed}-trace{a.trace}.json"),
            "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {a.workload} seed {a.seed} trace {a.trace} "
          f"repetitions {len(reps)} attempted {attempted} failed {failed}")
    if reps:
        print(f"host nproc={host['nproc']} jobs={reps[0]['jobs']} "
              f"cpu=\"{host['cpu_model']}\" compiler={host['compiler']} "
              f"build={host['build_type']} "
              f"flags=\"{host['cxx_flags'].strip()}\"")
        print(f"result_digest {a.workload} {digest}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
