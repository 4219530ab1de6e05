#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --check

Run it from the root of a qelect source tree. It builds perfbench/bench.exe
from source with dune into .bench_build/, runs it with the same arguments
and passes its report through. The last line of standard output is one JSON
object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per layer with --trace 1), checked here against BENCHMARK.json.
Result files, spans and self-time tables go to .bench_out/.

--check runs the benchmark's own tests instead. Exits non-zero, without a
result line, when the tree cannot be built or the run fails.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
OUT_DIR = ".bench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
WORKLOADS = ("frontier", "census", "campaign")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of the program's sources: the commit id of a tree without git."""
    h = hashlib.sha256()
    roots = ["dune-project", "lib", "bin", "perfbench"]
    for root in roots:
        paths = []
        if os.path.isfile(root):
            paths = [root]
        for d, dirs, files in os.walk(root):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def commit_id():
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    return source_digest()


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("no qelect source tree here (dune-project and lib/ are missing)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", "./perfbench/bench.exe"]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    with open("BENCHMARK.json") as f:
        doc = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [(m["name"], m["unit"]) for m in doc[key]]


def validate(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(res, dict) or sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are not correct/attempted/failed/metrics"
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(res["failed"], int):
        return "failed must be a whole number"
    got = res["metrics"]
    want = expected_metrics(trace)
    if sorted(got) != sorted(n for n, _ in want):
        return "metrics differ from BENCHMARK.json"
    for name, unit in want:
        m = got[name]
        v = m.get("value")
        if m.get("unit") != unit or not isinstance(v, (int, float)) or not math.isfinite(v):
            return "metric %s is malformed" % name
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true",
                    help="run the benchmark's own tests")
    args = ap.parse_args()
    if not args.check and (args.workload is None or args.seed is None or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    build()
    if args.check:
        try:
            r = subprocess.run([EXE, "check"], timeout=RUN_TIMEOUT_S * 2)
        except subprocess.TimeoutExpired:
            fail("check timed out")
        sys.exit(r.returncode)

    cmd = [EXE, "run", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--commit", commit_id()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.decode(errors="replace").splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("benchmark exited with code %d" % r.returncode)
    problem = validate(lines[-1], args.trace == 1)
    if problem:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(problem, code=3)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
