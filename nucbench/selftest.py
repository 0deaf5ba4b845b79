#!/usr/bin/env python3
"""Self-tests of the benchmark, on small stand-ins (a few seconds each).

    python3 nucbench/selftest.py

1. Schema: every workload, untraced and traced, prints a last line with
   exactly the keys correct/attempted/failed/metrics, passes its checks, and
   reports exactly the metrics of BENCHMARK.json with their units.
2. Mutation: one flipped ν entry, or one altered nucleus, makes the run
   report failed operations on every workload.
"""

import json
import subprocess
import sys

SCALE = "0.1"


def run(workload, trace, mutate=None):
    cmd = [sys.executable, "nucbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", trace, "--scale", SCALE]
    if mutate:
        cmd += ["--mutate", mutate]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, f"{cmd} exited {out.returncode}:\n{out.stderr}"
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    spec = json.load(open("BENCHMARK.json"))
    units = {"0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
             "1": {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for w in (x["name"] for x in spec["workloads"]):
        for trace in ("0", "1"):
            r = run(w, trace)
            expect(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{w} trace={trace}: result keys")
            expect(r["correct"] is True and r["failed"] == 0 and r["attempted"] >= 1,
                   f"{w} trace={trace}: correct, {r['failed']}/{r['attempted']} failed")
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            expect(got == units[trace], f"{w} trace={trace}: metric names and units match BENCHMARK.json")
            expect(all(isinstance(v["value"], (int, float)) for v in r["metrics"].values()),
                   f"{w} trace={trace}: numeric values")
        for kind in ("nu", "nucleus"):
            r = run(w, "0", mutate=kind)
            expect(r["correct"] is False and r["failed"] > 0,
                   f"{w}: mutated {kind} gives {r['failed']}/{r['attempted']} failed")
    print(f"{len(failures)} failures")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
