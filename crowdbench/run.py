#!/usr/bin/env python3
"""crowdbench: the Crowd-ML repository benchmark (see crowdbench/README.md).

Run from the repository root:

  python3 crowdbench/run.py --workload mnist-leader --seed 1 --seconds 20 --trace 0
  python3 crowdbench/run.py --workload all      # every workload, one command
  python3 crowdbench/run.py --selftest          # the benchmark's own tests
  python3 crowdbench/run.py --compare A.json B.json

A run builds crowdml-server and the generator from source (Release, into
$CARGO_TARGET_DIR or .bench_build), drives real server processes
open-loop, checks their outputs, prints every metric with its unit and
sample count, stores the full result with the host fingerprint under
.bench_results/, and prints one JSON object as its last line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["mnist-leader", "tiny-leader", "mnist-quorum"]
# Host properties two results must share before they may be compared.
HOST_KEYS = ["build_type", "nproc", "cpu_model", "cpu_flags", "kernel", "wal_fs"]
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("crowdbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configure (once) and build the generator and the server."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/CMakeLists.txt")):
        die("run from the root of a Crowd-ML checkout (no sources here)")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "crowdbench-build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j4", "--target", "crowdbench", "crowdml-server"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)
    return bdir


def cmake_build_type(bdir):
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_sha256():
    """Content hash of the sources the benchmark builds (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "crowdbench"]:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def fs_type(path):
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            if len(parts) >= 3 and (path == parts[1] or path.startswith(parts[1].rstrip("/") + "/")):
                if len(parts[1]) > len(best):
                    best, kind = parts[1], parts[2]
    return kind


def fingerprint(bdir, workdir, workload, seed):
    model, flags = "unknown", set()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name") and model == "unknown":
                model = line.split(":", 1)[1].strip()
            if line.startswith("flags") and not flags:
                flags = set(line.split(":", 1)[1].split())
    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "build_type": cmake_build_type(bdir),
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cpu_flags": sorted(flags & {"sha_ni", "pclmulqdq", "avx2"}),
        "kernel": os.uname().release,
        "wal_fs": fs_type(workdir),
        "workload": workload,
        "seed": seed,
    }


def run_workload(bdir, workload, seed, seconds, trace):
    workdir = ".bench_work"
    resdir = ".bench_results"
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(resdir, exist_ok=True)
    stem = os.path.join(resdir, "%s-s%d-t%d" % (workload, seed, trace))
    cmd = [os.path.join(bdir, "crowdbench"), "run", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--bin", os.path.join(bdir, "crowdml", "tools"), "--work", workdir]
    if trace:
        cmd += ["--spans", stem + "-spans.jsonl"]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("%s: run exceeded %d s" % (workload, RUN_TIMEOUT_S), 1)
    result = None
    for line in r.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or result is None:
        die("%s: generator failed (exit %d)" % (workload, r.returncode), 1)
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            declared = [m["name"] for m in json.load(f)["per_layer" if trace else "end_to_end"]]
        if sorted(declared) != sorted(result["metrics"]):
            die("%s: metrics differ from BENCHMARK.json: %s" % (
                workload, sorted(set(declared) ^ set(result["metrics"]))), 1)
    result["fingerprint"] = fingerprint(bdir, workdir, workload, seed)
    result["trace"] = trace
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    if result["correct"]:
        # The servers' WAL directories (tens of MB) only matter when a
        # check failed.
        shutil.rmtree(os.path.join(workdir, "%s-s%d" % (workload, seed)), ignore_errors=True)
    return result, stem + ".json"


def print_table(workload, result):
    print("%s: %s" % (workload, "outputs correct" if result["correct"] else "OUTPUTS WRONG"))
    for why in result["failures"]:
        print("  check failed: " + why)
    for group, title in (("metrics", "gated"), ("notes", "reported, not gated")):
        if result[group]:
            print("  %s:" % title)
        for name, m in result[group].items():
            pct = " (p%g)" % (100 * m["q"]) if m["q"] else ""
            print("    %-40s %14.4f %-7s n=%d%s" % (name, m["value"], m["unit"], m["n"], pct))
    fp = result["fingerprint"]
    print("  host: %s, %d cpus %s, kernel %s, %s build, WAL on %s; sha %s" % (
        fp["cpu_model"], fp["nproc"], "+".join(fp["cpu_flags"]), fp["kernel"],
        fp["build_type"], fp["wal_fs"], fp["git_sha"] or fp["source_sha256"][:16]))


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    fa, fb = a["fingerprint"], b["fingerprint"]
    diff = [k for k in HOST_KEYS + ["workload"] if fa.get(k) != fb.get(k)]
    if diff:
        die("refusing to compare: fingerprints differ in %s" % ", ".join(diff), 3)
    bounds = {}
    if os.path.isfile("BENCHMARK.json"):
        with open("BENCHMARK.json") as f:
            for m in json.load(f)["end_to_end"]:
                bounds[m["name"]] = (m["better"], m["bound"])
    print("%s: %s (seed %s) -> %s (seed %s)" % (
        fa["workload"], fa["git_sha"] or fa["source_sha256"][:16], fa["seed"],
        fb["git_sha"] or fb["source_sha256"][:16], fb["seed"]))
    for name, ma in list(a["metrics"].items()) + list(a["notes"].items()):
        mb = b["metrics"].get(name) or b["notes"].get(name)
        if mb is None:
            continue
        va, vb = ma["value"], mb["value"]
        change = (vb - va) / va if va else 0.0
        verdict = ""
        if name in bounds:
            better, bound = bounds[name]
            worse = change if better == "lower" else -change
            verdict = "WORSE beyond bound %.2f" % bound if worse > bound else "within bound"
        print("  %-40s %14.4f -> %14.4f %-7s %+7.1f%% %s" % (
            name, va, vb, ma["unit"], 100 * change, verdict))


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", default="all", help="one of %s, or all" % ", ".join(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args()

    if args.compare:
        compare(*args.compare)
        return
    bdir = build()
    if args.selftest:
        os.makedirs(".bench_work", exist_ok=True)
        r = subprocess.run([os.path.join(bdir, "crowdbench"), "selftest",
                            "--bin", os.path.join(bdir, "crowdml", "tools"),
                            "--work", ".bench_work"], timeout=600)
        sys.exit(r.returncode)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS for w in workloads):
        die("unknown workload %s" % args.workload)
    results = []
    for w in workloads:
        result, path = run_workload(bdir, w, args.seed, args.seconds, args.trace)
        print_table(w, result)
        print("  full result: " + path)
        results.append(result)
    last = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in results[-1]["metrics"].items()} if len(results) == 1 else {},
    }
    print(json.dumps(last))


if __name__ == "__main__":
    main()
