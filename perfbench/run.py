#!/usr/bin/env python3
"""Repository benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grep --seed 1 --seconds 10 --trace 0

Builds perfbench/perfbench_main.exe from source with dune (into
.bench_build), sets up and measures the workload in fresh processes for
--seconds (at least three times), and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics: medians over the processes.  With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 they are the
per-layer metrics, taken from a separate traced process at the same seed
(whose Chrome trace is written to .bench_build/perfbench/).

The simulator reads GRAYBOX_FAULTS, GRAYBOX_CRASH and GRAYBOX_DRIFT when a
plane is not passed explicitly (and other GRAYBOX_* variables elsewhere),
so the runner refuses to start while any GRAYBOX_* variable is set.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench_main.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Fewest fresh processes whose medians a run reports; the untraced runs
# a traced run is compared against (digest, tracing overhead) are this many.
MIN_ITERATIONS = 3


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def guard_environment():
    tainted = sorted(
        k for k, v in os.environ.items() if k.startswith("GRAYBOX_") and v.strip()
    )
    if tainted:
        fail("refusing to run with %s set: the benchmark's numbers must not "
             "depend on GRAYBOX_* variables" % ", ".join(tainted), code=2)


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH", code=3)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not at the root of a repository checkout (missing %s)" % needed, code=3)
    cmd = dune_command() + [
        "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
        # no shared cache: the benchmark reads and writes only its checkout
        "--cache=disabled", "-j", "2", "./perfbench/perfbench_main.exe",
    ]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed", code=3)


def run_exe(args):
    """Run the workload executable; return (digest, parsed last line)."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload process timed out: %s" % " ".join(args))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("workload process failed (exit %d): %s" % (proc.returncode, " ".join(args)))
    lines = proc.stdout.strip().splitlines()
    digests = [l.split()[2] for l in lines if l.startswith("digest ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("workload process printed no result: %s" % " ".join(args))
    return (digests[0] if digests else None), result


def measure(workload, seed, seconds):
    """Set up and measure in fresh processes until [seconds] have passed
    (at least MIN_ITERATIONS times).  Returns the digest and the
    per-process results; digest is None when the processes disagree."""
    results, digests = [], set()
    start = time.monotonic()
    while len(results) < MIN_ITERATIONS or time.monotonic() - start < seconds:
        digest, r = run_exe(["measure", "--workload", workload, "--seed", str(seed)])
        digests.add(digest)
        results.append(r)
    return (digests.pop() if len(digests) == 1 else None), results


def end_to_end(workload, seed, seconds):
    digest, results = measure(workload, seed, seconds)
    print("digest %s %s" % (workload, digest))
    first = results[0]
    attempted, failed = first["attempted"], first["failed"]
    if digest is None:
        # processes of one seed simulated different things
        failed += 1
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_mem_mb": statistics.median(r["peak_mem_mb"] for r in results),
        "sim_s": first["sim_s"],
        "ok_frac": 1.0 - failed / attempted,
    }
    return attempted, failed, metrics


def per_layer(workload, seed, seconds):
    plain_digest, plain = measure(workload, seed, 0)
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "trace-%s-%d.json" % (workload, seed))
    traced_digest, traced = run_exe(["trace", "--workload", workload, "--seed", str(seed),
                                     "--out", out])
    print("digest %s %s" % (workload, traced_digest))
    print("trace %s" % out)
    attempted, failed = traced["attempted"], traced["failed"]
    # the wrapper and the probes only observe: the traced run must
    # reproduce the untraced run, and the domain-pool runs each other
    if plain_digest is None or traced_digest != plain_digest:
        failed += 1
    if not traced["pool_digests_match"]:
        failed += 1
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_frac"] = (
        metrics["phase.run_s"] / statistics.median(r["wall_s"] for r in plain) - 1.0)
    return attempted, failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grep", "sort", "fleet", "layout"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    guard_environment()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e, code=3)
    build()
    if args.trace:
        attempted, failed, metrics = per_layer(args.workload, args.seed, args.seconds)
        declared = spec["per_layer"]
    else:
        attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds)
        declared = spec["end_to_end"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
