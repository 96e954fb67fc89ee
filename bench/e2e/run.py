#!/usr/bin/env python3
"""Builds and runs libamo's end-to-end benchmark (bench/e2e, see README.md).

  python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1
      Builds amo_e2e (Release) under .bench_build/ when needed, runs one
      workload and prints, as the last line of stdout, one JSON object:
      {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
      holding every end-to-end metric of BENCHMARK.json (--trace 0) or every
      per-layer metric (--trace 1; 0 for a layer the workload never enters).

  python3 bench/e2e/run.py repeat [--repeat N] [--seed S] [--seconds T]
                                  [--trace] [--out FILE]
      Runs every workload N times (default 5), seeds S, S+1, ..., the
      workload order reversed every other round; prints the median and
      quartiles of each (metric, workload) and writes every run to FILE.

  python3 bench/e2e/run.py compare A.json B.json
      Compares two `repeat` files (A = parent, B = change) row by row
      against BENCHMARK.json's bounds: better, same, worse, or unresolved
      when the run-to-run spread is wider than the bound. Exit 1 if any row
      is worse.

Exit status: 0 on success; non-zero, with no result line, when the build
or the run fails (a checkout without the library sources fails at once).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "amo_e2e"
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("the library sources (CMakeLists.txt, src/) are not in " + str(ROOT))
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not (BUILD / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(ROOT / "bench" / "e2e"), "-B",
                            str(BUILD)] + generator,
                           check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", str(BUILD), "--target", "amo_e2e",
                        "-j", jobs], check=True, stdout=sys.stderr, env=env)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)


def run_workload(name, seed, seconds, traced, echo):
    """Runs amo_e2e once; returns (exit code, host record, {name: metric})."""
    tag = "%s-%d-%s" % (name, seed, "traced" if traced else "untraced")
    out = BUILD / (tag + ".json")
    if out.exists():
        out.unlink()
    cmd = [str(BINARY), "--workload=" + name, "--seed=%d" % seed,
           "--seconds=%s" % seconds, "--out=" + str(out),
           "--workdir=" + str(ROOT / ".bench_build" / "work")]
    if traced:
        cmd += ["--traced", "--trace-out=" + str(BUILD / (name + ".trace.json"))]
    env = dict(os.environ, TMPDIR=str(ROOT / ".bench_build" / "tmp"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (name, e))
    if echo:
        sys.stdout.write(proc.stdout)
    if not out.is_file():
        fail("%s: amo_e2e exited %d without a result" % (name, proc.returncode))
    records = json.loads(out.read_text())
    host = next(r for r in records if r["record"] == "host")
    metrics = {r["name"]: r for r in records if r["record"] == "metric"}
    return proc.returncode, host, metrics


def result_line(bench, host, metrics, traced):
    known = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name in metrics:
        if name not in known:
            fail("metric %s is not listed in BENCHMARK.json" % name)
    out = {}
    for m in bench["per_layer"] if traced else bench["end_to_end"]:
        got = metrics.get(m["name"])
        if got is None and not traced:
            fail("the run reported no %s" % m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail("%s: unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"] if got else 0.0,
                          "unit": m["unit"]}
    return {"correct": host["correct"], "attempted": host["attempted"],
            "failed": host["failed"], "metrics": out}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def repeat(argv):
    p = argparse.ArgumentParser(prog="run.py repeat")
    p.add_argument("--repeat", type=int, default=5)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=str(ROOT / ".bench_build" / "e2e-repeat.json"))
    args = p.parse_args(argv)
    bench = benchmark()
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    build()
    runs = []
    for i in range(args.repeat):
        for name in names if i % 2 == 0 else names[::-1]:
            code, host, metrics = run_workload(name, args.seed + i, seconds,
                                               args.trace, echo=False)
            line = result_line(bench, host, metrics, args.trace)
            print("%-14s seed %-4d correct=%s attempted=%d failed=%d"
                  % (name, args.seed + i, line["correct"], line["attempted"],
                     line["failed"]), file=sys.stderr)
            runs.append({"workload": name, "seed": args.seed + i, "exit": code,
                         "host": host, "result": line})
    Path(args.out).write_text(json.dumps(
        {"seconds": seconds, "traced": args.trace, "runs": runs}, indent=1))
    print("%-14s %-34s %14s %14s %14s %7s %s"
          % ("workload", "metric", "median", "q1", "q3", "spread", "unit"))
    for name in names:
        mine = [r["result"] for r in runs if r["workload"] == name]
        for metric, first in mine[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            print("%-14s %-34s %14.6g %14.6g %14.6g %6.1f%% %s"
                  % (name, metric, med, q1, q3, 100 * spread, first["unit"]))
    print("runs -> " + args.out)
    return 0 if all(r["exit"] == 0 for r in runs) else 1


def compare(argv):
    p = argparse.ArgumentParser(prog="run.py compare")
    p.add_argument("parent")
    p.add_argument("change")
    args = p.parse_args(argv)
    bench = benchmark()
    a = json.loads(Path(args.parent).read_text())["runs"]
    b = json.loads(Path(args.change).read_text())["runs"]
    worse = False
    print("%-14s %-18s %12s %12s %8s %8s %6s  %s"
          % ("workload", "metric", "parent", "change", "change", "spread",
             "bound", "verdict"))
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            def values(runs):
                return [r["result"]["metrics"][m["name"]]["value"]
                        for r in sorted(runs, key=lambda r: r["seed"])
                        if r["workload"] == w["name"]
                        and m["name"] in r["result"]["metrics"]]
            va, vb = values(a), values(b)
            if not va or not vb:
                continue
            sign = 1.0 if m["better"] == "higher" else -1.0
            qa, qb = quartiles(va), quartiles(vb)
            gain = sign * (qb[1] - qa[1]) / qa[1]  # > 0: the change is better
            spread = (qa[2] - qa[0]) / qa[1]
            pairs = list(zip(va, vb))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            if min(sign * y for y in vb) > max(sign * x for x in va):
                verdict = "better"
            elif max(sign * y for y in vb) < min(sign * x for x in va) and \
                    -gain > m["bound"]:
                verdict = "worse"
            elif spread > m["bound"]:
                verdict = "unresolved"
            elif -gain > m["bound"]:
                verdict = "worse"
            elif gain > spread and wins >= 0.9 * len(pairs):
                verdict = "better"
            else:
                verdict = "same"
            worse = worse or verdict == "worse"
            print("%-14s %-18s %12.6g %12.6g %7.1f%% %7.1f%% %5.0f%%  %s"
                  % (w["name"], m["name"], qa[1], qb[1], 100 * gain,
                     100 * spread, 100 * m["bound"], verdict))
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] == "repeat":
        return repeat(argv[1:])
    if argv and argv[0] == "compare":
        return compare(argv[1:])
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bench = benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail("unknown workload " + args.workload)
    build()
    code, host, metrics = run_workload(args.workload, args.seed, args.seconds,
                                       args.trace == 1, echo=True)
    print(json.dumps(result_line(bench, host, metrics, args.trace == 1)))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
