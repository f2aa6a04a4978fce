#!/usr/bin/env python3
"""Build and run the PCCS benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload dram-paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload serve-predict --spread 5
    python3 perfbench/run.py --selftest

The first run configures and builds the library and the benchmark into
.bench_build/ at the repository root (Release); later runs rebuild only
what changed. A single run prints a metric table, a settings line, and
as its last line one JSON object: the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["dram-paper", "serve-predict", "serve-mixed"]
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def die(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    """Configure once, then build `targets`; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("library sources not found under " + ROOT, 2)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", BUILD_JOBS,
                      "--target"] + targets)
        for cmd in steps:
            if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               env=env) != 0:
                die("build failed: " + " ".join(cmd))


def commit_id():
    """The git commit, or a digest of the sources outside a repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.check_output(
                ["git", "rev-parse", "HEAD"], cwd=ROOT,
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """(name, unit) pairs the result must carry, from BENCHMARK.json."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in spec[key]]


def run_one(workload, seed, seconds, trace, commit, echo=True):
    """Run one workload; return its parsed result (exits on failure)."""
    binary = os.path.join(BUILD, "perfbench")
    workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD)
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "1" if trace else "0",
             "--workdir", workdir, "--commit", commit],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        die("%s exited with code %d" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        die("%s printed no result line" % workload)
    want = expected_metrics(trace)
    if want is not None:
        got = [(k, v["unit"]) for k, v in result["metrics"].items()]
        if sorted(got) != sorted(want):
            sys.stderr.write(proc.stdout)
            die("%s: metrics differ from BENCHMARK.json" % workload)
    if echo:
        print("\n".join(lines))
    return result


def spread(values):
    """(median, (Q3 - Q1) / median), quartiles as statistics.quantiles."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spread", type=int, default=0, metavar="N",
                    help="run seeds seed..seed+N-1 and print each "
                         "metric's median and quartile spread")
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        sys.exit(subprocess.call([os.path.join(BUILD, "perfbench_selftest")]))
    if args.workload is None:
        ap.error("--workload is required")

    build(["perfbench"])
    commit = commit_id()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if args.spread <= 0 and len(workloads) == 1:
        run_one(workloads[0], args.seed, args.seconds, args.trace, commit)
        return

    runs = max(1, args.spread)
    summary = {}
    for w in workloads:
        values = {}
        units = {}
        for k in range(runs):
            t0 = time.time()
            res = run_one(w, args.seed + k, args.seconds, args.trace, commit,
                          echo=False)
            print("%s seed %d: %.1f s, correct %s" % (
                w, args.seed + k, time.time() - t0, res["correct"]),
                file=sys.stderr)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary[w] = {}
        print("== %s (%d run%s) ==" % (w, runs, "" if runs == 1 else "s"))
        print("%-36s %18s %8s  %s" % ("metric", "median", "spread", "unit"))
        for name, vals in values.items():
            med, spr = spread(vals)
            summary[w][name] = {"median": med, "spread": spr,
                                "unit": units[name], "values": vals}
            print("%-36s %18.6f %7.1f%%  %s" % (name, med, 100 * spr,
                                                 units[name]))
    print(json.dumps({"summary": summary}))


if __name__ == "__main__":
    main()
