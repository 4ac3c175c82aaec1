#!/usr/bin/env python3
"""Self-test of the benchmark command.

    python3 perfbench/selftest.py

1. Runs a tiny pass (--tiny: small arrays, one second) of every workload in
   BENCHMARK.json and of `campaign` (runnable, not listed there), untraced
   and traced, and checks that each exits 0, reports correct results,
   matches its recorded tiny digest, and prints exactly the metric names and
   units BENCHMARK.json declares.
2. Corrupts one recorded digest and checks that the run then fails (exit 1,
   "correct": false).

Exits 0 when every check holds.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.txt")


def run(args):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py")] + args,
                          cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def tiny_args(workload, trace, extra=()):
    return ["--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", trace, "--tiny"] + list(extra)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    for workload in [w["name"] for w in bench["workloads"]] + ["campaign"]:
        for trace in ("0", "1"):
            label = "%s --trace %s" % (workload, trace)
            proc = run(tiny_args(workload, trace))
            result = last_json(proc.stdout) if proc.returncode == 0 else None
            if result is None:
                failures.append("%s: exit %d\n%s" % (label, proc.returncode,
                                                     proc.stderr[-2000:]))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append("%s: result keys %s" % (label, sorted(result)))
            if result.get("correct") is not True or result.get("attempted", 0) < 1:
                failures.append("%s: not correct or nothing attempted" % label)
            if "matches the recorded digest" not in proc.stdout:
                failures.append("%s: no recorded tiny digest was checked" % label)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != declared[trace]:
                failures.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra or mis-united %s" % (
                                    label,
                                    sorted(set(declared[trace]) - set(units)),
                                    sorted(k for k in units
                                           if declared[trace].get(k) != units[k])))
            print("ok   %s" % label, flush=True)

    # A corrupted digest must fail the run.
    with open(DIGESTS) as f:
        lines = f.read().splitlines()
    key = "campaign tiny 1 "
    corrupt = os.path.join(ROOT, ".bench_build", "selftest-digests.txt")
    os.makedirs(os.path.dirname(corrupt), exist_ok=True)
    hits = [i for i, line in enumerate(lines) if line.startswith(key)]
    if not hits:
        failures.append("no '%s' digest recorded to corrupt" % key.strip())
    else:
        digest = lines[hits[0]].split()[-1]
        flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
        lines[hits[0]] = key + flipped
        with open(corrupt, "w") as f:
            f.write("\n".join(lines) + "\n")
        proc = run(tiny_args("campaign", "0", ["--digests", corrupt]))
        result = last_json(proc.stdout)
        if proc.returncode != 1 or not result or result.get("correct") is not False:
            failures.append("corrupted digest: expected exit 1 and correct=false, "
                            "got exit %d" % proc.returncode)
        else:
            print("ok   corrupted digest fails the run", flush=True)
        os.remove(corrupt)

    for f in failures:
        print("FAIL " + f)
    print("selftest: %d failure(s)" % len(failures))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
