"""One benchmark job in a fresh interpreter: ``python3 protobench/child.py SPEC``.

SPEC is a JSON file written by run.py with the keys ``job`` (setup, rep or
oracle), ``config``, ``command`` (run or ablate), ``out``, ``trace``,
``spans`` and ``result``. The job writes its findings as JSON to
``result``. The working directory is the checkout root and the program is
imported from ``src``; the timed section is the CLI command exactly as a
user would run it.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import time
from pathlib import Path

import layers


def setup(config: str) -> dict:
    """Time the import, the config load and build_problem."""
    t0 = time.perf_counter()
    from protofed import cli, federation
    from protofed.config import load_config

    cfg = load_config(config)
    clients, _, _ = federation.build_problem(cfg)
    return {
        "setup_s": time.perf_counter() - t0,
        "train_samples": sum(len(c.data) for c in clients),
        "cfg": cfg,
        "cli": cli,
        "federation": federation,
    }


def digest_tree(root: Path) -> dict[str, list]:
    """relative path -> [size, sha256] for every file under root."""
    out = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        out[path.relative_to(root).as_posix()] = [len(data), hashlib.sha256(data).hexdigest()]
    return out


def check_run_dir(sub: Path, rounds: int) -> tuple[float, list[str]]:
    """Check one run directory's outputs against each other; return the
    summary accuracy and any problems found."""
    problems = []
    for name in ("config.resolved.json", "rounds.jsonl", "summary.json", "model.bin"):
        if not (sub / name).is_file():
            problems.append(f"{sub}: {name} missing")
    if problems:
        return math.nan, problems
    summary = json.loads((sub / "summary.json").read_text(encoding="utf-8"))
    lines = (sub / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    reports = [json.loads(line) for line in lines]
    if len(reports) != rounds:
        problems.append(f"{sub}: {len(reports)} rounds written, {rounds} configured")
    tail = reports[-min(5, len(reports)):]
    expected = sum(r["average_accuracy"] for r in tail) / len(tail) if tail else math.nan
    if summary["average_accuracy"] != expected:
        problems.append(f"{sub}: summary accuracy {summary['average_accuracy']!r} != "
                        f"mean of the last rounds {expected!r}")
    for r in reports:
        if not all(math.isfinite(v) for v in r["losses"].values()):
            problems.append(f"{sub}: non-finite loss in round {r['round']}")
            break
    return summary["average_accuracy"], problems


def check_outputs(out: Path, command: str, rounds: int) -> tuple[float, int, list[str]]:
    """Return (avg_acc_last5, sub-runs, problems). For ablate, every
    ablation.csv row must agree with its sub-run's summary.json."""
    if command == "run":
        acc, problems = check_run_dir(out, rounds)
        return acc, 1, problems
    table = out / "ablation.csv"
    if not table.is_file():
        return math.nan, 0, [f"{table} missing"]
    lines = table.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    col = header.index("avg_acc_last5")
    problems, accs = [], []
    for row in rows:
        acc, sub_problems = check_run_dir(out / f"{row[0]}_{row[1]}", rounds)
        problems += sub_problems
        if f"{acc:.17g}" != row[col]:
            problems.append(f"ablation.csv row {row[0]}_{row[1]}: {row[col]} != summary {acc!r}")
        accs.append(float(row[col]))
    if not rows:
        problems.append("ablation.csv has no rows")
    return (sum(accs) / len(accs) if accs else math.nan), len(rows), problems


def rep(spec: dict) -> dict:
    s = setup(spec["config"])
    cfg, cli = s["cfg"], s["cli"]
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer, {"federation": s["federation"], "cli": cli})
    t0, cpu0 = time.perf_counter(), time.process_time()
    code = cli.main([spec["command"], "--config", spec["config"]])
    run_s = time.perf_counter() - t0
    run_cpu_s = time.process_time() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = Path(spec["out"])
    acc, subruns, problems = check_outputs(out, spec["command"], cfg.rounds)
    if code != 0:
        problems.insert(0, f"protofed {spec['command']} exited {code}")
    result = {
        "setup_s": s["setup_s"],
        "run_s": run_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "sample_steps": s["train_samples"] * cfg.epochs * cfg.rounds * subruns,
        "avg_acc_last5": acc,
        "digests": digest_tree(out),
        "problems": problems,
    }
    if tracer is not None:
        tracer.write_spans(spec["spans"])
        result["layers"] = layers.span_metrics(tracer.layer_totals(), tracer.counts(), run_s,
                                              run_cpu_s)
        result["absent"] = tracer.absent
        result["count_errors"] = tracer.count_errors
    return result


def oracle(spec: dict) -> dict:
    """Compare rounds.jsonl with the independent FedAvg loop, bitwise: the
    CLI writes json.dumps(report, sort_keys=True), and float repr round-trips
    exactly, so equal lines mean equal bits."""
    sys.path.insert(0, "tests")
    from oracles import naive_fedavg_loop
    from protofed.config import load_config

    reports = naive_fedavg_loop(load_config(spec["config"]))
    written = (Path(spec["out"]) / "rounds.jsonl").read_text(encoding="utf-8").splitlines()
    expected = [json.dumps(r.to_json_dict(), sort_keys=True) for r in reports]
    problems = []
    if len(written) != len(expected):
        problems.append(f"{len(written)} rounds written, {len(expected)} from the oracle")
    for i, (got, want) in enumerate(zip(written, expected)):
        if got != want:
            problems.append(f"round {i} differs from naive_fedavg_loop")
            break
    return {"problems": problems}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    if spec["job"] == "setup":
        s = setup(spec["config"])
        result = {"setup_s": s["setup_s"], "problems": []}
    elif spec["job"] == "rep":
        result = rep(spec)
    else:
        result = oracle(spec)
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
