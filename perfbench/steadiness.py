#!/usr/bin/env python3
"""Same-code steadiness report for the repository benchmark.

Runs every workload of BENCHMARK.json in two sets of ten runs on the
current commit, each run with another seed (1, 2, ...), and writes
perfbench/steadiness.md. For each end-to-end metric it gives the median,
first and third quartiles (Python's statistics.quantiles, n=4) and
spread, the distance between the quartiles as a share of the median,
against the metric's bound: steady below a third of the bound. It then
compares the two sets' medians as a second measurement of the same code
would be compared, in either direction: |second - first| over the
smaller of the two, against the bound, setup_s included.

Usage, from the root of the repository (about 30 minutes):

    python3 perfbench/steadiness.py
"""

import json
import statistics
import subprocess
import sys
import time

RUNS = 10
SETS = 2
OUT = "perfbench/steadiness.md"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return result, elapsed


def verdict(share, bound):
    if share < bound / 3:
        return "yes"
    return "within bound" if share <= bound else "NO"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = [w["name"] for w in bench["workloads"]]

    lines = [
        "# Same-code steadiness report",
        "",
        f"{SETS} sets of {RUNS} runs per workload, seeds 1..{SETS * RUNS} (a new seed every run), "
        f"--seconds {seconds}, --trace 0. spread = (q3 - q1) / median; "
        "steady: yes below a third of the bound, else within bound or NO. "
        "The benchmark contract exempts setup_s's spread, not its median shift.",
        "",
        "| set | workload | metric | unit | median | q1 | q3 | min | max | spread | bound | steady |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    raw = []
    medians = {}
    verdicts = []
    seed = 1
    for set_no in range(1, SETS + 1):
        for workload in workloads:
            values = {m["name"]: [] for m in metrics}
            run_secs = []
            for _ in range(RUNS):
                result, elapsed = run_once(workload, seed, seconds)
                run_secs.append(elapsed)
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
                print(f"set {set_no} {workload} seed {seed}: {elapsed:.1f} s "
                      + " ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()), file=sys.stderr)
                seed += 1
            for m in metrics:
                v = values[m["name"]]
                med = statistics.median(v)
                medians[(set_no, workload, m["name"])] = med
                q1, _, q3 = statistics.quantiles(v, n=4)
                spread = (q3 - q1) / med
                ok = verdict(spread, m["bound"])
                if m["name"] != "setup_s":
                    verdicts.append(ok)
                lines.append(f"| {set_no} | {workload} | {m['name']} | {m['unit']} | {med:.4f} | "
                             f"{q1:.4f} | {q3:.4f} | {min(v):.4f} | {max(v):.4f} | {spread:.4f} | "
                             f"{m['bound']} | {ok} |")
                raw.append(f"- set {set_no} {workload} {m['name']}: " + ", ".join(f"{x:.4f}" for x in v))
            raw.append(f"- set {set_no} {workload} run wall time (s, including build check): "
                       + ", ".join(f"{x:.1f}" for x in run_secs))
    lines += ["", f"Median shift, set {SETS} against set 1, |shift| = |last - first| / min(first, last):", "",
              "| workload | metric | set 1 | set 2 | shift | bound | ok |",
              "|---|---|---|---|---|---|---|"]
    for workload in workloads:
        for m in metrics:
            first = medians[(1, workload, m["name"])]
            last = medians[(SETS, workload, m["name"])]
            shift = abs(last - first) / min(first, last)
            ok = verdict(shift, m["bound"])
            verdicts.append(ok)
            lines.append(f"| {workload} | {m['name']} | {first:.4f} | {last:.4f} | {shift:.4f} | "
                         f"{m['bound']} | {ok} |")
    lines += ["", f"Verdict: {verdicts.count('yes')} of {len(verdicts)} checks below a third of "
              f"their bound, {verdicts.count('within bound')} within it, {verdicts.count('NO')} over it.",
              "", "Raw values in seed order:", ""] + raw
    report = "\n".join(lines) + "\n"
    print(report)
    with open(OUT, "w") as f:
        f.write(report)


if __name__ == "__main__":
    main()
