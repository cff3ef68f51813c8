#!/usr/bin/env python3
"""One-command runner for the colscore end-to-end benchmark.

Builds bench/e2e (Release, LTO) into bench/e2e/build, runs each workload in a
process of its own, checks the outputs, prints every metric by name with its
unit, and writes one result JSON. The last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics with --trace.

  python3 bench/e2e/run.py                          # all workloads, seed 1
  python3 bench/e2e/run.py --workload grid18 --seed 3 --seconds 10
  python3 bench/e2e/run.py --trace                  # traced replays
  python3 bench/e2e/run.py --sets 2                 # 2 sets x 10 seeds, agreement
  python3 bench/e2e/run.py --compare A.json B.json  # delta per workload x metric

Only the Python standard library is used.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
BUILD = HERE / "build"
BINARY = BUILD / "colscore_bench"
WORKLOADS = ["grid18", "grid18_t4", "sleeper2048", "churn4096"]
# Deterministic outputs of the suite workloads: identical on every run of
# one seed, so --sets requires them equal instead of within a bound.
EXACT = ["probes_total", "probes_honest_max", "err_honest_max", "err_honest_mean"]
# grid18 at seed 1 is the pinned grid of the BENCH_*.json records.
PINNED_PROBES_TOTAL = 38344765
RUN_TIMEOUT_S = 170
# With --sets K > 1, each set runs every workload on seeds SEED..SEED+9.
SEEDS_PER_SET = 10


def fail(message):
    sys.stderr.write(f"run.py: {message}\n")
    sys.exit(1)


def load_benchmark():
    path = REPO / "BENCHMARK.json"
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "--target", "colscore_bench", "-j", jobs],
    ]
    # The compiler's and LTO's temporary files stay inside the build tree.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, env=env)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail(f"build step failed: {' '.join(cmd)}")


def run_workload(workload, seed, seconds, trace):
    """One colscore_bench process; returns its report (a failure record if it
    produced none)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace", "--trace-out", str(traces / f"{workload}.trace.json")]
    record = None
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if lines:
            try:
                record = json.loads(lines[-1])
            except ValueError:
                pass
        why = f"colscore_bench exited {proc.returncode} without a report"
    except subprocess.TimeoutExpired:
        why = f"colscore_bench did not finish within {RUN_TIMEOUT_S} s"
    if record is None:
        record = {"workload": workload, "seed": seed, "attempted": 0, "failed": 1,
                  "failures": [why], "metrics": {}}
    elif proc.returncode != 0 and record["failed"] == 0:
        record["failed"] = 1
        record["failures"].append(f"colscore_bench exited {proc.returncode}")
    return record


def cross_checks(records):
    """Checks that span workloads: serial == 4-thread rows, and the pinned
    probe total."""
    problems = []
    timed = {(r.get("set", 0), r["seed"], r["workload"]): r
             for r in records if r.get("mode") == "timed" and r["failed"] == 0}
    for (s, seed, workload), r in sorted(timed.items()):
        if workload == "grid18_t4" and (s, seed, "grid18") in timed:
            serial = timed[(s, seed, "grid18")]["fingerprint"]
            if r["fingerprint"] != serial:
                problems.append(f"seed {seed}: grid18_t4 fingerprint "
                                f"{r['fingerprint']} != grid18 {serial}")
        if workload == "grid18" and seed == 1:
            probes = r["metrics"]["probes_total"]["value"]
            if probes != PINNED_PROBES_TOTAL:
                problems.append(f"grid18 seed 1: probes_total {probes:.0f} != "
                                f"pinned {PINNED_PROBES_TOTAL}")
    return problems


def print_record(record, wanted):
    header = f"== {record['workload']}  seed {record['seed']}  {record.get('mode', '?')}"
    print(f"{header}  attempted {record['attempted']}  failed {record['failed']}")
    metrics = record["metrics"]
    names = [n for n in wanted if n in metrics]
    names += sorted(n for n in metrics if n not in wanted)
    for name in names:
        m = metrics[name]
        mark = "*" if name in wanted else " "
        value = m["value"]
        if value is None:
            text = "null"
        elif float(value).is_integer():
            text = f"{value:.0f}"
        else:
            text = f"{value:.6g}"
        print(f" {mark}{name:<36} {text:>16} {m['unit']}")
    if record.get("fingerprint"):
        print(f"  fingerprint {record['fingerprint']}")
    for why in record.get("failures", []):
        print(f"  FAILED: {why}")


def result_line(records, wanted, extra_problems):
    """The benchmark's result object: one workload's metrics by name, or every
    workload's under '<workload>.<metric>'."""
    single = len(records) == 1
    metrics = {}
    missing = []
    for r in records:
        for name in wanted:
            m = r["metrics"].get(name)
            if m is None or m["value"] is None or not math.isfinite(m["value"]):
                missing.append(f"{r['workload']}.{name}")
                continue
            metrics[name if single else f"{r['workload']}.{name}"] = {
                "value": m["value"], "unit": m["unit"]}
    failed = sum(r["failed"] for r in records) + len(extra_problems)
    attempted = max(1, sum(r["attempted"] for r in records), failed)
    for name in missing:
        print(f"  FAILED: metric {name} missing from the report")
    correct = failed == 0 and not missing
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def agreement(records, spec, sets):
    """Per workload x metric: median and quartiles of every set. Fails when a
    later set's median differs from the first's by more than the bound, in
    either direction (DIFFER); when a set's spread exceeds the bound, so the
    benchmark cannot resolve a change of that size (UNRESOLVED); or when an
    exact metric changes. Bounds hold only for the workloads BENCHMARK.json
    tracks; another workload's timing verdict is printed as untracked."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    tracked = {w["name"] for w in spec["workloads"]}
    problems = []
    print(f"\n{'workload':<12} {'metric':<18} " +
          " ".join(f"{'set' + str(s) + ' median [q1, q3] spread':<44}"
                   for s in range(sets)) + " verdict")
    for workload in sorted({r["workload"] for r in records}, key=WORKLOADS.index):
        rows = [r for r in records if r["workload"] == workload]
        names = [n for n in list(bounds) + EXACT if n in rows[0]["metrics"]]
        for name in names:
            per_set = []
            for s in range(sets):
                vals = {r["seed"]: r["metrics"][name]["value"] for r in rows
                        if r["set"] == s and name in r["metrics"]}
                per_set.append(vals)
            if any(not v for v in per_set):
                problems.append(f"{workload}.{name}: missing in a set")
                continue
            cells, verdict = [], "ok"
            stats = [quartiles(list(v.values())) for v in per_set]
            for q1, q2, q3 in stats:
                spread = (q3 - q1) / q2 if q2 else float("inf")
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {spread:.3f}")
            if name in EXACT:
                if any(v != per_set[0] for v in per_set[1:]):
                    verdict = "CHANGED"
            else:
                bound = bounds[name]["bound"]
                base = stats[0][1]
                for q1, q2, q3 in stats:
                    if (q3 - q1) / q2 > bound:
                        verdict = f"UNRESOLVED>{bound}"
                for _, q2, _ in stats[1:]:
                    if abs((q2 - base) / base) > bound:
                        verdict = f"DIFFER>{bound}"
            if verdict != "ok" and name not in EXACT and workload not in tracked:
                verdict += " (untracked)"
            elif verdict != "ok":
                problems.append(f"{workload}.{name}: {verdict}")
            print(f"{workload:<12} {name:<18} " +
                  " ".join(f"{c:<44}" for c in cells) + f" {verdict}")
    return problems


def compare(path_a, path_b, spec):
    """One row per workload x metric: median of B against median of A, marked
    noise when the change stays within the metric's bound."""
    def medians(path):
        with open(path) as f:
            data = json.load(f)
        out = {}
        for r in data["records"]:
            for name, m in r["metrics"].items():
                out.setdefault((r["workload"], r.get("mode", "timed"), name),
                               []).append(m["value"])
        return {k: statistics.median(v) for k, v in out.items()}

    a, b = medians(path_a), medians(path_b)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print(f"{'workload':<12} {'metric':<36} {'A':>14} {'B':>14} {'delta':>9}  verdict")
    for key in sorted(set(a) & set(b), key=lambda k: (k[1], k[0], k[2])):
        workload, _, name = key
        va, vb = a[key], b[key]
        delta = (vb - va) / va if va else (0.0 if vb == va else math.inf)
        if name in bounds:
            better = bounds[name]["better"]
            worse = delta if better == "lower" else -delta
            if abs(delta) <= bounds[name]["bound"]:
                verdict = "noise"
            else:
                verdict = "WORSE" if worse > 0 else "better"
        elif name in EXACT:
            verdict = "same" if va == vb else "CHANGED"
        else:
            verdict = "-"
        print(f"{workload:<12} {name:<36} {va:>14.6g} {vb:>14.6g} "
              f"{delta:>+8.1%}  {verdict}")


def main():
    spec = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; every input of a workload derives from it")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measurement window per run")
    # BENCHMARK.json's command is invoked with an explicit "--trace 0" or
    # "--trace 1"; a bare --trace means 1.
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="traced replay: per-layer metrics")
    parser.add_argument("--sets", type=int, default=1,
                        help=f"run {SEEDS_PER_SET} seeds this many times and check "
                             "that the sets agree within BENCHMARK.json's bounds")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files and exit")
    parser.add_argument("--out", default=str(BUILD / "result.json"),
                        help="result JSON path")
    args = parser.parse_args()

    if args.compare:
        compare(args.compare[0], args.compare[1], spec)
        return 0
    runs = SEEDS_PER_SET if args.sets > 1 else 1
    if args.sets < 1 or args.seconds < 0:
        fail("--sets and --seconds must be positive")

    build()
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [m["name"] for m in spec[section]]
    workloads = [args.workload] if args.workload else WORKLOADS
    records = []
    for s in range(args.sets):
        for r in range(runs):
            for workload in workloads:
                record = run_workload(workload, args.seed + r, args.seconds, args.trace)
                record["set"] = s
                records.append(record)
                print_record(record, wanted)
                sys.stdout.flush()

    problems = cross_checks(records)
    if args.sets > 1:
        problems += agreement(records, spec, args.sets)
    for why in problems:
        print(f"FAILED: {why}")

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "sets": args.sets, "runs": runs, "records": records}, f, indent=1)
    print(f"result written to {args.out}")

    line = result_line(records, wanted, problems)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
