"""protofed benchmark: one workload, measured end to end or traced per layer.

    python3 protobench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark writes the workload's config
from the files in ``configs/`` plus the seed, then runs every job in a fresh
child interpreter with the program imported from ``src`` and BLAS pinned to
one thread:

* five set-up-only children (import, config load, build_problem), then
* timed repetitions of the CLI command until ``--seconds`` is used up
  (at least the workload's ``min_reps``), then the untimed correctness gates.

With ``--trace 1`` the repetitions alternate untraced and traced runs, at
least two of each; the traced ones wrap the program's functions from
outside (see layers.py) and give the per-layer metrics. The ablate workload's
``PROTOFED_THREADS=1`` identity gate runs only then. The last stdout line is one JSON
object: correct, attempted, failed and the metrics named in BENCHMARK.json.
The exit code is 0 only when every run and every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    base: str  # config file the workload starts from
    command: str  # protofed CLI command
    threads: int  # PROTOFED_THREADS
    overrides: dict = field(default_factory=dict)  # keys replaced in the base config
    oracle: bool = False  # compare rounds.jsonl with tests/oracles.py::naive_fedavg_loop
    min_reps: int = 2  # timed repetitions even when they overrun --seconds


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "default-fedavg": Workload(
        "configs/default.txt",
        "run",
        1,
        {"rounds": "60", "gpcl_enabled": "false", "apa_enabled": "false", "mixup_mode": "off"},
        oracle=True,
    ),
    # Rounds trimmed from 30 to 3 so that one repetition of all 9 sub-runs
    # lasts about 8 s and a run takes the median of several.
    "skewed-ablate": Workload("configs/skewed.txt", "ablate", 2, {"rounds": "3"}, min_reps=3),
}

SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # every run of this script must end within 180 s
REQUIRED = ("src/protofed/cli.py", "tests/oracles.py", "configs/default.txt", "configs/skewed.txt")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def write_config(base: str, overrides: dict[str, str], path: Path) -> None:
    """Copy a key = value config, replacing the overridden keys."""
    kept = []
    for line in Path(base).read_text(encoding="utf-8").splitlines():
        key = line.split("=", 1)[0].strip()
        if "=" in line and not line.lstrip().startswith("#") and key in overrides:
            continue
        kept.append(line)
    kept += [f"{k} = {v}" for k, v in overrides.items()]
    path.write_text("\n".join(kept) + "\n", encoding="utf-8")


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(child_env: dict) -> dict:
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration', '')})",
        "git_sha": git_sha(),
        "threads": {k: child_env.get(k) for k in ("PROTOFED_THREADS",) + THREAD_VARS},
    }


class Bench:
    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.work = work
        self.out = work / "out"
        self.config = work / "config.txt"
        self.spans = work.parent / f"spans-{name}.tsv"
        overrides = {**self.workload.overrides, "seed": str(seed), "out_dir": self.out.as_posix()}
        write_config(self.workload.base, overrides, self.config)
        self.env = dict(os.environ, PROTOFED_THREADS=str(self.workload.threads))
        self.env.update({k: "1" for k in THREAD_VARS})
        src = str(Path("src").resolve())
        self.env["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
        self.start = time.perf_counter()
        self.attempted = 0
        self.problems: list[str] = []
        self.jobs = 0

    def check(self, ok: bool, problem: str) -> bool:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)
        return ok

    def child(self, job: str, trace: bool = False, threads: int | None = None) -> dict | None:
        """Run one job in a fresh interpreter; None (and a recorded failure)
        when it crashes, times out or reports a problem."""
        self.jobs += 1
        spec = {
            "job": job,
            "config": self.config.as_posix(),
            "command": self.workload.command,
            "out": self.out.as_posix(),
            "trace": trace,
            "spans": self.spans.as_posix(),
            "result": (self.work / f"result-{self.jobs}.json").as_posix(),
        }
        spec_path = self.work / f"spec-{self.jobs}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        if job == "rep":
            shutil.rmtree(self.out, ignore_errors=True)
        env = dict(self.env)
        if threads is not None:
            env["PROTOFED_THREADS"] = str(threads)
        remaining = DEADLINE_S - (time.perf_counter() - self.start)
        label = f"{job}{' traced' if trace else ''}"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                env=env, capture_output=True, text=True, timeout=max(remaining, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.check(False, f"{label}: no result before the {DEADLINE_S:.0f} s deadline")
            return None
        result_path = Path(spec["result"])
        if proc.returncode != 0 or not result_path.is_file():
            tail = proc.stderr.strip().splitlines()[-3:]
            self.check(False, f"{label}: child exited {proc.returncode}: {' | '.join(tail)}")
            return None
        result = json.loads(result_path.read_text(encoding="utf-8"))
        ok = self.check(not result["problems"], f"{label}: " + "; ".join(result["problems"]))
        return result if ok else None


def median(values):
    return statistics.median(values) if values else float("nan")


def measure(bench: Bench, seconds: float, trace: bool) -> tuple[dict, dict, float]:
    """Run set-ups, repetitions and gates; return the end-to-end values, the
    per-layer values and the accuracy."""
    self_test = tracer.self_test()
    bench.check(not self_test, "; ".join(self_test))

    setups = [bench.child("setup") for _ in range(SETUP_SAMPLES)]
    setups = [s for s in setups if s is not None]

    # Untraced/traced pattern in trace mode: U T U T ..., so that
    # trace.overhead_s compares medians of equally many runs of each kind.
    pattern = [False, True] if trace else [False]
    reps: list[tuple[bool, dict]] = []
    rep_start = time.perf_counter()
    while True:
        traced = pattern[len(reps) % len(pattern)]
        result = bench.child("rep", trace=traced)
        if result is None:
            break
        reps.append((traced, result))
        print(f"rep {len(reps)}{' traced' if traced else ''}: run_s={result['run_s']:.3f} "
              f"setup_s={result['setup_s']:.3f} peak_rss_mb={result['peak_rss_mb']:.1f}")
        per_rep = (time.perf_counter() - rep_start) / len(reps)
        need = max(bench.workload.min_reps, 2 * len(pattern))
        if len(reps) >= need and len(reps) % len(pattern) == 0 \
                and (time.perf_counter() - rep_start) + per_rep > seconds:
            break

    plain = [r for t, r in reps if not t]
    traced = [r for t, r in reps if t]
    if reps:
        first = reps[0][1]["digests"]
        for i, (_, r) in enumerate(reps[1:], start=2):
            bench.check(r["digests"] == first,
                        f"rep {i}: artifacts differ from rep 1 ({diff_keys(first, r['digests'])})")

    t1_run_s = None
    if reps and bench.workload.oracle:
        bench.child("oracle")
    # Once per set of runs: the traced run also needs this run's time for
    # cli.pool.speedup, and skipping it elsewhere keeps the untraced runs short.
    if reps and trace and bench.workload.threads > 1:
        single = bench.child("rep", threads=1)
        if single is not None:
            t1_run_s = single["run_s"]
            bench.check(single["digests"] == first,
                        "PROTOFED_THREADS=1 artifacts differ from PROTOFED_THREADS="
                        f"{bench.workload.threads} ({diff_keys(first, single['digests'])})")

    e2e = {
        "setup_s": median([s["setup_s"] for s in setups] + [r["setup_s"] for _, r in reps]),
        "run_s": median([r["run_s"] for r in plain]),
        "sample_steps_per_s": median([r["sample_steps"] / r["run_s"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    per_layer: dict = {}
    if traced:
        per_layer = layer_values(bench, traced, e2e, t1_run_s)
    return e2e, per_layer, reps[0][1]["avg_acc_last5"] if reps else float("nan")


def diff_keys(a: dict, b: dict) -> str:
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(keys[:5]) + (" ..." if len(keys) > 5 else "")


def layer_values(bench: Bench, traced: list[dict], e2e: dict, t1_run_s) -> dict:
    runs = [r["layers"] for r in traced]
    for r, metrics in zip(traced, runs):
        files = r["digests"].values()
        metrics["cli.artifacts.files"] = len(files)
        metrics["cli.artifacts.bytes"] = sum(size for size, _ in files)
    counts = layers.exact_counts(runs[0])
    for i, metrics in enumerate(runs[1:], start=2):
        other = layers.exact_counts(metrics)
        bench.check(other == counts,
                    f"traced rep {i}: exact counts differ ({diff_keys(counts, other)})")
    for r in traced:
        bench.check(not r["count_errors"], f"count functions failed: {r['count_errors']}")
    out = {k: (v if k in counts else median([m[k] for m in runs])) for k, v in runs[0].items()}
    # Both are medians of at least two runs, but the host's speed drifts in
    # phases longer than a run, so this difference is indicative only.
    out["trace.overhead_s"] = out["trace.traced_run_s"] - e2e["run_s"]
    out["trace.absent"] = len(traced[0]["absent"])
    out["cli.pool.speedup"] = t1_run_s / e2e["run_s"] if t1_run_s else 0.0
    if traced[0]["absent"]:
        print("absent (no longer defined by the program): " + ", ".join(traced[0]["absent"]))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED + ("BENCHMARK.json",) if not Path(p).is_file()]
    if missing:
        print(f"not a protofed checkout (missing {', '.join(missing)}); "
              "run from the repository root", file=sys.stderr)
        return 2
    declared = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = Path(".bench_work") / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        print("environment: " + json.dumps(environment(bench.env), sort_keys=True))
        e2e, per_layer, acc = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(bench.problems)
    for problem in bench.problems:
        print(f"FAIL {problem}")
    print(f"workload {args.workload} seed {args.seed}: {bench.attempted} runs and checks, "
          f"{failed} failed")
    # Reported but not gated: fail_ratio reads 0 when healthy, and
    # avg_acc_last5 is deterministic per seed, so its spread over seeds is
    # the workload's own seed-to-seed variation, not measurement noise.
    ungated = {"fail_ratio": failed / bench.attempted, "avg_acc_last5": acc}
    print(f"  fail_ratio = {ungated['fail_ratio']:.4g} ratio")
    print(f"  avg_acc_last5 = {acc:.6g} ratio")
    print("ungated: " + json.dumps(ungated))
    values = per_layer if args.trace else e2e
    metrics = {}
    for m in wanted:
        value = values.get(m["name"], float("nan"))
        finite = isinstance(value, int) or value == value and abs(value) != float("inf")
        metrics[m["name"]] = {"value": value if finite else None, "unit": m["unit"]}
        print(f"  {m['name']} = {value:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
