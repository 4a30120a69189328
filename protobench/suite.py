"""Run every workload over several seeds and report medians and spreads.

    python3 protobench/suite.py [--seeds 10] [--sets 1] [--trace] [--json FILE]

Runs ``protobench/run.py`` once per (set, seed, workload) over seeds
0..N-1 and every workload in BENCHMARK.json, interleaving the
workloads within each seed so that a slow phase of a shared machine hits all
of them alike. For every workload and end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(n=4)``) and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, plus the
fail ratio of the runs and checks and the (ungated) accuracy. With ``--sets 2`` it also compares the
second set's medians with the first's. With ``--trace`` it adds one traced
run per workload and set (seed 0) and checks that the exact counts
repeat between sets. Exits nonzero if any run failed, any spread exceeds
its bound or a second set is worse than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def invoke(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "protobench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    result["exit"] = proc.returncode
    for key in ("environment", "ungated"):
        found = [line for line in lines if line.startswith(key + ": ")]
        result[key] = json.loads(found[0].split(": ", 1)[1]) if found else {}
    if proc.returncode != 0:
        print("\n".join(line for line in lines if line.startswith("FAIL")) or proc.stderr[-2000:])
    return result


def summarize(values: list[float]) -> dict:
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return {"n": len(values), "values": values}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", default=None, help="write all results to this file")
    args = parser.parse_args()

    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    workloads = [w["name"] for w in declared["workloads"]]
    seeds = range(args.seeds)
    ok = True
    report = {"environment": None, "run_seconds": seconds, "sets": []}

    for set_idx in range(args.sets):
        runs = {w: [] for w in workloads}
        for seed in seeds:
            for w in workloads:
                result = invoke(w, seed, seconds, trace=False)
                runs[w].append(result)
                report["environment"] = report["environment"] or result["environment"]
                line = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                        if v["value"] is not None}
                print(f"set {set_idx + 1} seed {seed} {w}: exit {result['exit']} {line}",
                      flush=True)
        traced = {w: invoke(w, 0, seconds, trace=True) for w in workloads} \
            if args.trace else {}
        summary = {}
        for w in workloads:
            attempted = sum(r["attempted"] for r in runs[w])
            failed = sum(r["failed"] for r in runs[w])
            exits = sum(1 for r in runs[w] if r["exit"] != 0)
            ok &= failed == 0 and exits == 0
            summary[w] = {"fail_ratio": failed / attempted, "nonzero_exits": exits,
                          "metrics": {m["name"]: summarize([r["metrics"].get(m["name"], {})
                                                             .get("value") for r in runs[w]])
                                      for m in declared["end_to_end"]},
                          "avg_acc_last5": summarize([r["ungated"].get("avg_acc_last5")
                                                      for r in runs[w]])}
            if w in traced:
                ok &= traced[w]["exit"] == 0
                summary[w]["traced"] = {k: v["value"] for k, v in traced[w]["metrics"].items()}
        report["sets"].append(summary)

        print(f"\nset {set_idx + 1}: {len(seeds)} seeds x {len(workloads)} workloads, "
              f"run_seconds {seconds}")
        for w in workloads:
            s = summary[w]
            acc = s["avg_acc_last5"]
            print(f"{w}: fail_ratio = {s['fail_ratio']:.4g} ratio "
                  f"({s['nonzero_exits']} nonzero exits); avg_acc_last5 median "
                  f"{acc.get('median', float('nan')):.4f} q1 {acc.get('q1', float('nan')):.4f} "
                  f"q3 {acc.get('q3', float('nan')):.4f} ratio (not gated)")
            for m in declared["end_to_end"]:
                st = s["metrics"][m["name"]]
                if "median" not in st:
                    print(f"  {m['name']}: too few values ({st['n']})")
                    ok = False
                    continue
                steady = "steady" if st["spread"] < m["bound"] / 3 else (
                    "within bound" if st["spread"] <= m["bound"] else "TOO NOISY")
                ok &= st["spread"] <= m["bound"]
                print(f"  {m['name']:20s} median {st['median']:<12.6g} q1 {st['q1']:<12.6g} "
                      f"q3 {st['q3']:<12.6g} {m['unit']:6s} spread {st['spread']:.4f} "
                      f"bound {m['bound']} {steady}")

    if args.sets > 1:
        first, second = report["sets"][0], report["sets"][-1]
        print("\nsecond set against the first (worse by, as a share of the first median):")
        for w in workloads:
            for m in declared["end_to_end"]:
                a, b = first[w]["metrics"][m["name"]], second[w]["metrics"][m["name"]]
                if "median" not in a or "median" not in b:
                    continue
                worse = worse_by(a["median"], b["median"], m["better"])
                verdict = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
                ok &= worse <= m["bound"]
                print(f"  {w} {m['name']}: {worse:+.4f} (bound {m['bound']}) {verdict}")
            if args.trace:
                counts = [{k: v for k, v in s[w]["traced"].items() if isinstance(v, int)}
                          for s in (first, second)]
                same = counts[0] == counts[1] and bool(counts[0])
                ok &= same
                print(f"  {w} exact counts repeat between sets: {same}")

    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    print("\nall runs correct and every spread within its bound" if ok else "\nFAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
