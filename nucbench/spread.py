#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 nucbench/spread.py --workload krogan-mc --seeds 1-10 --seconds 20

Runs the benchmark once per seed and prints, for each metric, the median and
the distance between the first and third quartile as a share of the median
(`statistics.quantiles(values, n=4)`), next to the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default=None)
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for wl in a.workload:
        values, walls = {}, []
        for s in seeds(a.seeds):
            t0 = time.time()
            out = subprocess.run([sys.executable, "nucbench/run.py", "--workload", wl, "--seed", str(s),
                                  "--seconds", seconds, "--trace", a.trace],
                                 capture_output=True, text=True)
            walls.append(time.time() - t0)
            if out.returncode != 0:
                print(f"{wl} seed {s}: exit {out.returncode}\n{out.stderr}")
                ok = False
                continue
            r = json.loads(out.stdout.strip().splitlines()[-1])
            if not r["correct"] or r["failed"]:
                print(f"{wl} seed {s}: correct={r['correct']} failed={r['failed']}/{r['attempted']}")
                ok = False
            for k, v in r["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"{wl}: {len(walls)} runs, wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
        for k, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            b = bounds.get(k)
            flag = "" if b is None else ("  ok" if spread < b / 3 else ("  WIDE" if spread < b else "  OVER"))
            print(f"  {k:34s} median {med:12.6g}  iqr/median {spread:7.4f}  bound {b}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
