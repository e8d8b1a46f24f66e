#!/usr/bin/env python3
"""Repo benchmark entry point: builds the benchmark binary from source, makes
the seeded inputs, and runs one workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under e2ebench/; nothing is written elsewhere.

--trace 0 prints every end-to-end metric; setup_s is the median over
SETUP_REPS + 1 fresh processes (the measured run's own set-up plus
SETUP_REPS set-up-only processes). --trace 1 prints every per-layer
metric. The last stdout line is the result object; a wrong answer, a
failed build or missing sources exit nonzero without one.

--self-test corrupts one known answer per workload and checks that the
run then fails, and that an uncorrupted run on a second seed passes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("module_load", "jit_patch", "service_mix")
SETUP_REPS = 10
BUILD_TIMEOUT_S = 850


class BenchError(Exception):
    pass


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, "e2ebench")


def run_logged(cmd, log, timeout):
    with open(log, "ab") as out:
        try:
            r = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                               timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        with open(log, "rb") as f:
            tail = f.read()[-4000:].decode(errors="replace")
        raise BenchError("failed: %s\n%s" % (" ".join(cmd), tail))


def build():
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    log = os.path.join(bdir, "build.log")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, errors="replace") as f:
            if ("CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE) not in f.read():
                shutil.rmtree(bdir)  # a build of another checkout
                os.makedirs(bdir)
    if not os.path.exists(cache):
        run_logged(["cmake", "-S", HERE, "-B", bdir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log, 300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", bdir, "--target", "rsbench", "-j", jobs],
               log, BUILD_TIMEOUT_S)
    return os.path.join(bdir, "rsbench")


def call(cmd, timeout):
    """Runs one benchmark process; returns its stdout lines."""
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if r.returncode != 0:
        raise BenchError("exit %d: %s" % (r.returncode, " ".join(cmd)))
    return r.stdout.decode().splitlines()


def gen(binary, workdir, workload, seed):
    path = os.path.join(workdir, "%s-%d.bin" % (workload, seed))
    call([binary, "gen", "--workload", workload, "--seed", str(seed),
          "--out", path], 170)
    return path


def untraced(binary, workdir, workload, seed, seconds):
    inp = gen(binary, workdir, workload, seed)
    setups = []
    for _ in range(SETUP_REPS):
        out = call([binary, "setup", "--workload", workload, "--input", inp,
                    "--workdir", workdir], 60)
        setups.append(float(out[-1].split()[1]))
    out = call([binary, "run", "--workload", workload, "--input", inp,
                "--seconds", str(seconds), "--workdir", workdir],
               seconds + 120)
    result = json.loads(out[-1])
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return out[:-1] + ["setup_samples_s: " + json.dumps(setups)], result


def traced(binary, workdir, workload, seed, seconds):
    inputs = [gen(binary, workdir, w, seed) for w in WORKLOADS]
    out = call([binary, "trace", "--workload", workload, "--inputs"] + inputs +
               ["--seconds", str(seconds), "--workdir", workdir],
               seconds + 150)
    return out[:-1], json.loads(out[-1])


def self_test(binary, workdir):
    ok = True
    for w in WORKLOADS:
        inp = gen(binary, workdir, w, 7)
        r = subprocess.run([binary, "run", "--workload", w, "--input", inp,
                            "--seconds", "1", "--workdir", workdir,
                            "--corrupt"], stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, timeout=120)
        printed = any(l.startswith("{") for l in r.stdout.decode().splitlines())
        failed = r.returncode == 3 and not printed
        print("%-12s corrupted answer -> exit %d, result printed: %s  [%s]" %
              (w, r.returncode, printed, "ok" if failed else "FAIL"))
        ok &= failed
        lines, res = untraced(binary, workdir, w, 7, 1)
        good = res["correct"] and len(res["metrics"]) == 6
        print("%-12s seed 7 clean run -> correct=%s metrics=%d  [%s]" %
              (w, res["correct"], len(res["metrics"]), "ok" if good else "FAIL"))
        ok &= good
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        ap.error("--workload is required")
    if not 1 <= a.seconds <= 120:
        ap.error("--seconds must be in [1, 120]")

    binary = build()
    workdir = os.path.join(build_dir(), "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        if a.self_test:
            return 0 if self_test(binary, workdir) else 1
        if a.trace:
            lines, result = traced(binary, workdir, a.workload, a.seed,
                                   a.seconds)
        else:
            lines, result = untraced(binary, workdir, a.workload, a.seed,
                                     a.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for l in lines:
        print(l)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("e2ebench: %s" % e, file=sys.stderr)
        sys.exit(2)
