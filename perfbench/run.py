#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Builds perfbench/ (its own CMake project over the repo's cohort_core,
cohort_net and cohort_sim libraries, Release) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, and prints a provenance line followed, as
the last line, by the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list.  A per-layer metric whose layer the workload
does not exercise reads 0.  Exits 1 when an output check fails and 2 when
the benchmark cannot build or run; no result line is printed in the latter
case.
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("repository sources (CMakeLists.txt, src/) not found beside "
            "perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Build output goes to stderr: stdout carries only the result.
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            die("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over the sources the benchmark builds (stands in for the git
    SHA when the checkout is not a git repository)."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for d, dirs, files in os.walk(top):
            dirs[:] = sorted(x for x in dirs if not x.startswith("."))
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {a.workload!r}")
    expected = spec["per_layer" if a.trace == "1" else "end_to_end"]

    exe = build()
    try:
        run = subprocess.run(
            [exe, "--workload", a.workload, "--seed", str(a.seed),
             "--seconds", str(a.seconds), "--trace", a.trace],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or len(lines) < 2:
        die(f"benchmark program exited {run.returncode} without a result")
    info = json.loads(lines[-2])["info"]
    res = json.loads(lines[-1])

    sim = a.workload.startswith("sim-")
    info.update({
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "nproc": os.cpu_count(),
        "clusters": 4 if sim else 2,
        "memory_model": ("simulated NUMA (4 clusters)" if sim else
                         "UMA: real threads on one socket, clusters are "
                         "synthetic"),
    })
    print(json.dumps({"provenance": info}))

    produced = res["metrics"]
    metrics = {}
    for m in expected:
        if m["name"] not in produced and a.trace == "0":
            die(f"end-to-end metric {m['name']} missing")
        got = produced.pop(m["name"], {"value": 0, "unit": m["unit"]})
        if got["unit"] != m["unit"]:
            die(f"{m['name']}: unit {got['unit']!r}, declared {m['unit']!r}")
        metrics[m["name"]] = got
    if produced:
        die(f"metrics not declared in BENCHMARK.json: {sorted(produced)}")
    res["metrics"] = metrics
    print(json.dumps(res))
    sys.exit(0 if res["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
