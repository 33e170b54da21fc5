#!/usr/bin/env python3
"""End-to-end benchmark of the EDN simulator.

Run one workload (from the repository root):

    python3 e2ebench/run.py --workload fabric_1m --seed 1 --seconds 10 --trace 0

The script builds the `edn_e2ebench` binary from source (`cargo build
--release --offline`, into `$CARGO_TARGET_DIR`, default `.bench_build`),
runs the workload in its own process, prints a readable summary and then,
as the last line of standard output, one JSON object:

    {"correct": true, "attempted": N, "failed": N, "metrics": {...}}

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json.
`--trace 1` splits the seconds between an untraced and a traced process
of the same workload, and reports the per-layer metrics from the traced
one plus `trace.overhead_pct`, the traced run's median unit time over the
untraced run's.

Tooling:

    python3 e2ebench/run.py collect --out runs.jsonl [--workloads a,b]
        [--seeds 1-10] [--seconds S] [--trace 0|1]
    python3 e2ebench/run.py compare OLD.jsonl NEW.jsonl
    python3 e2ebench/run.py summarize RUNS.jsonl [--json]

`collect` runs every workload x seed as a separate benchmark process,
appends each result to a JSON Lines file, and prints each metric's
median, quartiles and spread (`summarize` prints the same for an existing
file, or as JSON). `compare` prints two such result sets side
by side and flags every end-to-end metric whose median got worse by more
than its bound in BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"
# Every run must end within this many seconds, build excluded.
RUN_BUDGET_S = 170
BUILD_BUDGET_S = 880
# Section 5: RA-EDN(16,4,2,16) routes a random permutation in ~34.41 cycles.
PAPER_RAEDN_CYCLES = 34.41


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(SPEC_PATH) as f:
        return json.load(f)


def build():
    """Builds the benchmark binary; returns its path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                          timeout=BUILD_BUDGET_S)
    if proc.returncode != 0:
        raise SystemExit(f"e2ebench: build failed (exit {proc.returncode})")
    return target / "release" / "edn_e2ebench"


def run_process(exe, workload, seed, seconds, traced, deadline):
    """Runs one workload process; returns its parsed report."""
    scratch = RUN_DIR / f"{workload}-{os.getpid()}-{int(traced)}"
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--scratch", str(scratch)]
    if traced:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", "--spans", str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")]
    # The sweep harness copies EDN_* provenance variables into artifact
    # headers; the workloads' digests cover those bytes.
    env = {k: v for k, v in os.environ.items() if not k.startswith("EDN_")}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(1.0, deadline - time.monotonic()),
                              text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"e2ebench: {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def value(report, name):
    entry = report["metrics"].get(name)
    return None if entry is None else entry["value"]


def select(report, declared, fill_missing):
    """The declared metrics out of a report, with the declared units."""
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        entry = report["metrics"].get(name)
        if entry is None:
            if not fill_missing:
                raise SystemExit(f"e2ebench: report lacks metric {name}")
            # A layer this workload never calls.
            entry = {"value": 0, "unit": unit}
        if entry["unit"] != unit:
            raise SystemExit(f"e2ebench: {name} reported in {entry['unit']}, declared {unit}")
        metrics[name] = {"value": entry["value"], "unit": unit}
    return metrics


def summary_lines(workload, report, traced):
    metrics = report["metrics"]
    lines = [f"e2ebench {workload} seed={report['seed']} "
             f"({'traced' if traced else 'untraced'}): "
             f"{report['attempted']} units, {report['failed']} failed, "
             f"digest {report['digest']}"
             + (f" (pinned {report['expected_digest']})" if report["expected_digest"] else "")]
    for name, entry in metrics.items():
        lines.append(f"  {name:32s} {entry['value']:>18.6g} {entry['unit']}")
    if not traced:
        lines.append(f"  unit_ms_tail is p{value(report, 'unit_ms_tail_pct'):.1f} "
                     f"of {int(value(report, 'units'))} units; "
                     f"setup_s is the median of {int(value(report, 'setup_reps'))} set-ups")
    cycles = value(report, "sim.raedn_cycles_mean")
    if cycles is not None:
        lines.append(f"  RA-EDN(16,4,2,16) mean cycles {cycles:.2f} vs the paper's "
                     f"{PAPER_RAEDN_CYCLES} (simulated, not host time)")
    err = value(report, "sim.pa_abs_err_vs_eq4_max")
    if err is not None:
        lines.append(f"  max |simulated PA - Eq. 4| = {err:.4f}")
    if cycles is not None or err is not None:
        lines.append("  The model has never been checked against hardware: "
                     "the repository holds no measurements from a real machine.")
    for failure in report["failures"]:
        lines.append(f"  CHECK FAILED: {failure}")
    return lines


def bench(args):
    spec = load_spec()
    exe = build()
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        half = args.seconds / 2
        plain = run_process(exe, args.workload, args.seed, half, False, deadline)
        traced = run_process(exe, args.workload, args.seed, half, True, deadline)
        reports = [plain, traced]
        metrics = select(traced, spec["per_layer"], fill_missing=True)
        overhead = 100.0 * (value(traced, "unit_ms_p50") / value(plain, "unit_ms_p50") - 1.0)
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        for line in summary_lines(args.workload, plain, False) + summary_lines(args.workload, traced, True):
            print(line)
        print(f"  trace.overhead_pct {overhead:.3f} %")
    else:
        report = run_process(exe, args.workload, args.seed, args.seconds, False, deadline)
        reports = [report]
        metrics = select(report, spec["end_to_end"], fill_missing=False)
        for line in summary_lines(args.workload, report, False):
            print(line)
    result = {
        "correct": all(not r["failures"] and r["failed"] == 0 for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


# ---------------------------------------------------------------- tooling


def parse_seeds(text):
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_metric(path):
    """{(workload, trace): {metric: [values...]}} from a result set, and
    {metric: unit}."""
    table, units = {}, {"failed": "count"}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            key = (record["workload"], record["trace"])
            cell = table.setdefault(key, {})
            for name, entry in record["result"]["metrics"].items():
                cell.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            cell.setdefault("failed", []).append(record["result"]["failed"])
    return table, units


def bounds():
    spec = load_spec()
    return {m["name"]: m for m in spec["end_to_end"]}


def summarize(path, as_json=False):
    declared = bounds()
    table, units = by_metric(path)
    if as_json:
        out = {}
        for (workload, trace), cell in sorted(table.items()):
            for name, values in cell.items():
                q1, q2, q3 = quartiles(values)
                out.setdefault(workload, {})[name] = {
                    "median": q2, "q1": q1, "q3": q3, "runs": len(values),
                    "unit": units[name], "trace": trace}
        print(json.dumps(out, indent=1))
        return
    for (workload, trace), cell in sorted(table.items()):
        print(f"{workload} (trace {trace}):")
        for name, values in cell.items():
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / abs(q2) if q2 else 0.0
            note = ""
            if trace == 0 and name in declared:
                limit = declared[name]["bound"]
                note = f"bound {limit:.2f}, " + ("steady" if spread < limit / 3 else
                                                  "within bound" if spread <= limit else "TOO NOISY")
            print(f"  {name:32s} median {q2:>14.6g}  q1 {q1:>14.6g}  q3 {q3:>14.6g}  "
                  f"spread {spread:7.2%}  n={len(values)}  {note}")


def collect(args):
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in load_spec()["workloads"]]
    seconds = args.seconds or load_spec()["run_seconds"]
    with open(args.out, "a") as out:
        for workload in workloads:
            for seed in parse_seeds(args.seeds):
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    raise SystemExit(f"collect: {workload} seed {seed} exited {proc.returncode}")
                result = json.loads(lines[-1])
                log(f"collect: {workload} seed {seed}: correct={result['correct']}")
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace, "result": result}) + "\n")
                out.flush()
    summarize(args.out)


def compare(args):
    declared = bounds()
    (old, _), (new, _) = by_metric(args.old), by_metric(args.new)
    regressions = 0
    for key in sorted(set(old) | set(new)):
        workload, trace = key
        print(f"{workload} (trace {trace}):")
        for name in sorted(set(old.get(key, {})) | set(new.get(key, {}))):
            a, b = old.get(key, {}).get(name), new.get(key, {}).get(name)
            if not a or not b:
                print(f"  {name:32s} only in {'new' if b else 'old'}")
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            change = (b2 - a2) / abs(a2) if a2 else 0.0
            flag = ""
            if trace == 0 and name in declared:
                metric = declared[name]
                worse = change if metric["better"] == "lower" else -change
                spread = (a3 - a1) / abs(a2) if a2 else 0.0
                if worse > metric["bound"]:
                    flag = "REGRESSION"
                    regressions += 1
                elif spread > metric["bound"]:
                    flag = "unresolved (old spread exceeds bound)"
                else:
                    flag = "ok"
            print(f"  {name:32s} old {a2:>12.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"new {b2:>12.6g} [{b1:.6g}, {b3:.6g}]  {change:+8.2%}  {flag}")
    print(f"{regressions} regression(s) beyond the bounds in BENCHMARK.json")


def main(argv):
    if argv and argv[0] in ("collect", "compare", "summarize"):
        parser = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "collect":
            parser.add_argument("--out", required=True)
            parser.add_argument("--workloads", default="")
            parser.add_argument("--seeds", default="1-10")
            parser.add_argument("--seconds", type=int, default=0)
            parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
            collect(parser.parse_args(argv[1:]))
        elif argv[0] == "compare":
            parser.add_argument("old")
            parser.add_argument("new")
            compare(parser.parse_args(argv[1:]))
        else:
            parser.add_argument("path")
            parser.add_argument("--json", action="store_true")
            parsed = parser.parse_args(argv[1:])
            summarize(parsed.path, parsed.json)
        return
    parser = argparse.ArgumentParser(description="EDN end-to-end benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["fabric_1m", "pa_sweep", "resubmit_sessions", "sweep_replay"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    bench(parser.parse_args(argv))


if __name__ == "__main__":
    main(sys.argv[1:])
