#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run it from the repository root. The monitor's libraries (src/) and the
benchmark program (perfbench/src/) are configured and compiled into the
directory named by CARGO_TARGET_DIR (default .bench_build); later runs
only re-link what changed. Build output goes to stderr, so stdout ends
with the benchmark's one-line JSON result. A traced run (--trace 1) also
writes its spans to <build dir>/traces/<workload>-seed<n>.jsonl.

Exits 2 without a result when the sources or the toolchain are missing.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(os.getcwd(), d)


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: monitor sources (src/) not found\n")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "veridp_perfbench"])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
        except OSError as e:
            sys.stderr.write("perfbench: cannot run %s: %s\n" % (cmd[0], e))
            return None
        if rc != 0:
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return None
    exe = os.path.join(out, "veridp_perfbench")
    return exe if os.path.isfile(exe) else None


def main(argv):
    out = build_dir()
    exe = build(out)
    if exe is None:
        return 2
    args = list(argv)
    opts = dict(zip(args[0::2], args[1::2]))
    if opts.get("--trace") == "1" and "--trace-out" not in opts:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", os.path.join(
            traces, "%s-seed%s.jsonl" % (opts.get("--workload", "x"),
                                         opts.get("--seed", "0")))]
    sys.stdout.flush()
    return subprocess.run([exe] + args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
