#!/usr/bin/env python3
"""Build the ecms benchmark from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload array16 --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root and is incremental, so only the first run compiles. All other
arguments are passed to the benchmark binary; its last stdout line is the
JSON result. Build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    cmd = ["cmake", "-S", HERE, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) \
            and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = [cmd, ["cmake", "--build", build_dir, "--parallel", "3"]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            sys.stderr.write("perfbench: build step failed: %s\n"
                             % " ".join(step))
            sys.exit(2)
    return os.path.join(build_dir, "ecms_perfbench")


def value_of(args, flag):
    return args[args.index(flag) + 1] if flag in args[:-1] else None


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    # A path relative to the checkout keeps the serve socket path (at most
    # 107 bytes) short wherever the checkout lives.
    relative = os.path.relpath(os.path.abspath(target), ROOT)
    if not relative.startswith(".."):
        target = relative
    binary = build(os.path.join(target, "perfbench"))

    args = sys.argv[1:]
    workload = value_of(args, "--workload") or "none"
    seed = value_of(args, "--seed") or "0"
    scratch = os.path.join(target, "run-%d" % os.getpid())
    extra = ["--scratch", scratch]
    if "--digests" not in args:
        extra += ["--digests", os.path.join("perfbench", "digests.txt")]
    if "--trace-out" not in args:
        extra += ["--trace-out",
                  os.path.join(target, "spans-%s-%s.json" % (workload, seed))]
    try:
        proc = subprocess.run([binary] + args + extra)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
