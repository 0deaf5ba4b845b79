#!/usr/bin/env python3
"""Build and run the nucleus-decomposition benchmark.

Run from the repository root:

    python3 nucbench/run.py --workload enwiki-peel --seed 0 --seconds 20 --trace 0

The first call compiles the program's sources (src/main/scala) together with
the benchmark's own (nucbench/src) into .bench_build/; later calls reuse the
classes while the sources are unchanged. One workload then runs in one
single-threaded JVM with a fixed heap and collector. The last line on stdout
is the result object {"correct", "attempted", "failed", "metrics"}; a
per-metric summary goes to stderr, and the run's record (environment,
per-pass values, digests, failures, spans) to .bench_build/runs/.

`--list` prints every metric of BENCHMARK.json with its unit and direction.
"""

import argparse
import glob
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
MAIN_SOURCES = os.path.join("src", "main", "scala")
EXPECTED = os.path.join(HERE, "expected-seed0.txt")

# Fixed so that collector behaviour, which moves pass times, is the same on
# every run; both are written to the run record.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:-UsePerfData"]
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"nucbench: {msg}", file=sys.stderr)
    sys.exit(2)


def jar_dir():
    """The directory of the Spark/Scala jars the root build compiles against."""
    home = os.environ.get("SPARK_HOME")
    if home and os.path.isdir(os.path.join(home, "jars")):
        return os.path.join(home, "jars")
    try:
        with open("build.sbt") as f:
            m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', f.read())
    except OSError:
        m = None
    if m and os.path.isdir(m.group(1)):
        return m.group(1)
    fail("no jar directory: set SPARK_HOME or name one in build.sbt's unmanagedBase")


def sources():
    files = sorted(glob.glob(os.path.join(MAIN_SOURCES, "**", "*.scala"), recursive=True))
    if not files:
        fail(f"no program sources under {MAIN_SOURCES}; run from the repository root")
    ours = sorted(glob.glob(os.path.join(HERE, "src", "*.scala")))
    return files + ours


def build():
    """Compile into .bench_build/classes unless the sources are unchanged."""
    jars = jar_dir()
    srcs = sources()
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    for jar in sorted(os.listdir(jars)):
        h.update(jar.encode())
    key = h.hexdigest()
    classes = os.path.join(BUILD, "classes")
    stamp = os.path.join(BUILD, "classes.key")
    classpath = os.pathsep.join(sorted(glob.glob(os.path.join(jars, "*.jar"))))
    if os.path.exists(stamp) and open(stamp).read() == key:
        return classes, classpath, key
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    compiler = [os.path.join(jars, f"scala-{n}-") for n in ("compiler", "library", "reflect")]
    compiler = [next(iter(sorted(glob.glob(p + "*.jar"))), None) for p in compiler]
    if None in compiler:
        fail(f"no Scala compiler jars in {jars}")
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "-nowarn", "-d", tmp, "-classpath", classpath] + srcs
    print(f"nucbench: compiling {len(srcs)} sources", file=sys.stderr)
    try:
        r = subprocess.run(cmd, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        fail("compilation timed out")
    if r.returncode != 0:
        fail("compilation failed")
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp, "w") as f:
        f.write(key)
    return classes, classpath, key


def revision(source_key):
    """git revision when the checkout is a repository, else the source digest."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10)
        if r.returncode == 0:
            return f"git:{r.stdout.strip()} src:{source_key[:16]}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return f"src:{source_key[:16]}"


def list_metrics():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        print(f"{group}:")
        for m in spec[group]:
            bound = f"  bound {m['bound']}" if "bound" in m else ""
            print(f"  {m['name']:34s} {m['unit']:6s} {m['better']:6s}{bound}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    ap.add_argument("--scale", type=float, default=1.0, help="stand-in size (self-tests use a small one)")
    ap.add_argument("--mutate", choices=["nu", "nucleus"], help="corrupt one output (self-test of the checks)")
    ap.add_argument("--list", action="store_true", help="list the metrics and exit")
    a = ap.parse_args()
    if a.list:
        list_metrics()
        return
    if not a.workload:
        ap.error("--workload is required")

    classes, classpath, key = build()
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    name = f"{a.workload}-seed{a.seed}-trace{a.trace}"
    name += "" if a.scale == 1.0 else f"-scale{a.scale}"
    name += f"-mutate-{a.mutate}" if a.mutate else ""
    record = os.path.join(BUILD, "runs", name + ".json")
    cmd = ["java"] + JVM_OPTS + [f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}",
           "-cp", classes + os.pathsep + classpath, "nucbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", a.trace, "--scale", repr(a.scale), "--expected", EXPECTED,
           "--record", record, "--revision", revision(key)]
    if a.mutate:
        cmd += ["--mutate", a.mutate]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"benchmark JVM exited with {proc.returncode}")
    result = json.loads(lines[-1])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
