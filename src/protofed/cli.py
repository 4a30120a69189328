"""Command-line front end: run / sweep / ablate / dump-embeddings / gen-data.

Every JSON artifact is written here; each artifact is a deterministic
function of (config, seed): no timestamps, sorted keys, fixed float
formatting. Exit codes: 0 success, 2 configuration error, 3 runtime error.
PROTOFED_THREADS sets how many worker processes run the sub-runs of a sweep
or an ablation (default 1: all in this process); it never changes results.
The workers are bare os.fork children of this process, so a value above 1
needs a platform with fork. Sweep and ablate share one sub-run worker,
_train, which trains a bundle of configs in lockstep
(federation.run_experiments), trains a config that several sub-runs share
once and copies its artifacts, and never raises. It is the one place a
failure is isolated: a bundle of several configs stops at its first failure
and trains again one config at a time. A failed sweep value becomes an
error row, and a failed ablation exits 3 only once every distinct config
has run, so the output tree is the same at any thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import os
import pickle
import shutil
import sys
from pathlib import Path

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    bundle_key,
    load_config,
    load_sweep,
    sweep_dir_name,
    validate_config,
)
from .datagen import SampleSet, load_csv, save_csv
from .federation import ExperimentResult, run_experiments, synthetic_domains
from .model import forward, load_params, save_params
from .numerics import STREAM_DATA, keyed_rng
from .prototypes import PrototypeSet


def _threads() -> int:
    raw = os.environ.get("PROTOFED_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"PROTOFED_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError("PROTOFED_THREADS must be >= 1")
    return value


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_json(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_resolved(cfg: ExperimentConfig) -> None:
    """cfg.out_dir/config.resolved.json: every field (a tuple as a list), no nulls."""
    _write_json(dataclasses.asdict(cfg), Path(cfg.out_dir) / "config.resolved.json")


def save_prototypes_json(pset: PrototypeSet, path) -> None:
    _write_json(pset.to_json_dict(), path)


def _write_table(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _map_subruns(worker, items: list) -> list:
    """[worker(item) for item in items], run by PROTOFED_THREADS processes
    forked from this one when that is above 1; rows come back in input order.

    Workers pull item indices from one task pipe, in input order, and pickle
    their rows back through their own pipes. The bare fork is safe: no other
    thread runs here (OpenBLAS stops its own at fork), stdio is flushed first,
    workers leave by os._exit, and all are reaped before this returns or raises.
    A fork-context ProcessPoolExecutor ran skewed-ablate 16% slower, +1.1 MB RSS."""
    threads = _threads()
    if threads == 1:
        return [worker(item) for item in items]
    if not hasattr(os, "fork"):
        raise ConfigError("PROTOFED_THREADS above 1 needs os.fork, which this platform lacks")
    sys.stdout.flush()
    sys.stderr.flush()
    task_read, task_write = os.pipe()
    workers = []  # (pid, read end of its result pipe)
    try:
        for _ in range(min(threads, len(items))):
            result_read, result_write = os.pipe()
            if (pid := os.fork()) == 0:  # a worker: it leaves only through os._exit
                try:
                    for fd in (task_write, result_read, *(fd for _, fd in workers)):
                        os.close(fd)
                    done = {}
                    while chunk := os.read(task_read, 4):
                        index = int.from_bytes(chunk, "little")
                        done[index] = worker(items[index])
                    with open(result_write, "wb") as pipe:
                        pickle.dump(done, pipe)
                    os._exit(0)
                except Exception:  # traceback to stderr, exit status to the parent
                    sys.excepthook(*sys.exc_info())
                finally:
                    os._exit(1)
            os.close(result_write)
            workers.append((pid, result_read))
        for index in range(len(items)):  # 4 bytes <= PIPE_BUF: no read splits an index
            os.write(task_write, index.to_bytes(4, "little"))
    finally:
        os.close(task_read)
        os.close(task_write)
        outputs = []
        for _, fd in workers:
            with open(fd, "rb") as pipe:
                outputs.append(pipe.read())
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid, _ in workers]
    for (pid, _), code in zip(workers, codes):
        if code != 0:  # a worker exits 0 only once all its rows are written
            how = f"signal {-code}" if code < 0 else f"exit status {code}"
            raise RuntimeError(f"sub-run worker {pid} ended by {how} without all its rows")
    rows = {index: row for output in outputs for index, row in pickle.loads(output).items()}
    return [rows[index] for index in range(len(items))]


def _write_round(fh, report) -> None:
    fh.write(json.dumps(report.to_json_dict(), sort_keys=True) + "\n")
    fh.flush()


def execute_run(cfgs: list[ExperimentConfig]) -> list[ExperimentResult]:
    """Run one bundle of experiments (federation.run_experiments) and write
    rounds.jsonl, summary.json, config.resolved.json, model.bin and
    prototypes.json into each one's out_dir. Returns each config's result;
    the first failure, in training or in a write, raises, and a failed
    bundle's rounds.jsonl files keep the rounds before the failure."""
    with contextlib.ExitStack() as files:
        callbacks = []  # each config's rounds.jsonl writer
        for cfg in cfgs:
            Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
            write_resolved(cfg)
            fh = files.enter_context(open(Path(cfg.out_dir) / "rounds.jsonl", "w",
                                          encoding="utf-8"))
            callbacks.append(functools.partial(_write_round, fh))
        results = run_experiments(cfgs, callbacks)
    for cfg, result in zip(cfgs, results):
        out_dir = Path(cfg.out_dir)
        _write_json(result.summary, out_dir / "summary.json")
        save_params(result.final_params, out_dir / "model.bin")
        save_prototypes_json(result.final_generalized, out_dir / "prototypes.json")
    return results


def cmd_run(args) -> int:
    execute_run([load_config(args.config, seed=args.seed, out_dir=args.out)])
    return 0


def _acc_columns(num_domains: int) -> list[str]:
    return [f"acc_domain_{d}" for d in range(num_domains)]


def _summary_row(summary: dict, num_domains: int) -> list[str]:
    per_domain = summary["per_domain_accuracy"]
    cells = [_fmt(per_domain.get(str(d), float("nan"))) for d in range(num_domains)]
    return [_fmt(summary["average_accuracy"])] + cells


def _train(bundle: list[tuple[ExperimentConfig, list[Path]]]) -> list[dict | str]:
    """Train one bundle of distinct valid configs, each into the first of its
    directories, and return each one's summary, or the error message it
    fails with; never raises, so every sub-run runs at any PROTOFED_THREADS.
    Each other directory gets its own config.resolved.json and byte copies
    of the rest. A bundle of several configs that fails anywhere trains
    again one config at a time, rewriting their directories, so each config
    ends exactly as it does alone; only a failing bundle trains twice."""
    try:
        results = execute_run([dataclasses.replace(cfg, out_dir=str(dirs[0]))
                               for cfg, dirs in bundle])
        for cfg, dirs in bundle:
            for sub_dir in dirs[1:]:
                sub_dir.mkdir(parents=True, exist_ok=True)
                write_resolved(dataclasses.replace(cfg, out_dir=str(sub_dir)))
                for name in ("rounds.jsonl", "summary.json", "model.bin", "prototypes.json"):
                    shutil.copyfile(dirs[0] / name, sub_dir / name)
        return [result.summary for result in results]
    except Exception as exc:  # the command decides what a failed sub-run means
        if len(bundle) == 1:
            return [str(exc)]
    return [row for item in bundle for row in _train([item])]


def _cost_rank(cfg: ExperimentConfig) -> tuple:
    """Measured cost order: APA with input, feature, then no mixup; GPCL
    adds. A bundle ranks as its dearest config."""
    mixup = {"feature": 1, "input": 2}.get(cfg.mixup_mode, 0) if cfg.apa_enabled else 0
    return (cfg.apa_enabled, mixup, cfg.gpcl_enabled)


def _train_all(configs: list[ExperimentConfig], dirs: list[Path]) -> list[dict | str]:
    """_train's result, or the validation error, for each config, in input
    order. Configs with the same repr (unlike ==, it keeps 0.0 and -0.0
    apart, as config.resolved.json does) train once, copied to the others'
    directories. The valid ones train in bundles (config.bundle_key) of at
    most ceil(distinct configs / PROTOFED_THREADS), so one config's seeds
    still fill every worker, dearest bundle first (ties in input order), so
    no worker idles at the end while another trains."""
    groups: dict[str, tuple[ExperimentConfig, list[Path]]] = {}
    for cfg, sub_dir in zip(configs, dirs):
        groups.setdefault(repr(cfg), (cfg, []))[1].append(sub_dir)
    results: dict[str, dict | str] = {}
    keyed: dict[str, list[str]] = {}  # bundle key -> its configs' reprs
    for key, (cfg, _) in groups.items():
        try:
            validate_config(cfg)
        except ConfigError as exc:
            results[key] = str(exc)
        else:
            keyed.setdefault(bundle_key(cfg), []).append(key)
    cap = -(-len(groups) // _threads())
    bundles = [keys[i : i + cap] for keys in keyed.values() for i in range(0, len(keys), cap)]
    bundles.sort(key=lambda keys: max(_cost_rank(groups[key][0]) for key in keys), reverse=True)
    rows = _map_subruns(_train, [[groups[key] for key in keys] for keys in bundles])
    for keys, bundle_rows in zip(bundles, rows):
        results.update(zip(keys, bundle_rows))
    return [results[repr(cfg)] for cfg in configs]


def cmd_sweep(args) -> int:
    param, values, base = load_sweep(args.config, seed=args.seed, out_dir=args.out)
    out_root = Path(base.out_dir)
    out_root.mkdir(parents=True, exist_ok=True)
    configs = [dataclasses.replace(base, **{param: value}) for value in values]
    results = _train_all(configs, [out_root / sweep_dir_name(param, value) for value in values])

    rows = []
    for value, result in zip(values, results):
        if isinstance(result, str):  # record and keep sweeping
            cells = [""] * (1 + base.num_domains) + [f"error: {result}"]
        else:
            cells = _summary_row(result, base.num_domains) + ["ok"]
        rows.append([param, _fmt(value)] + cells)
    header = ["param", "value", "avg_acc_last5"] + _acc_columns(base.num_domains) + ["status"]
    _write_table(out_root / "sweep.csv", header, rows)
    return 0


ABLATION_VARIANTS = [
    # (group, variant, overrides)
    ("components", "gpcl_off_apa_off", {"gpcl_enabled": False, "apa_enabled": False}),
    ("components", "gpcl_on_apa_off", {"gpcl_enabled": True, "apa_enabled": False}),
    ("components", "gpcl_off_apa_on", {"gpcl_enabled": False, "apa_enabled": True}),
    ("components", "gpcl_on_apa_on", {"gpcl_enabled": True, "apa_enabled": True}),
    ("aggregator", "average", {"aggregator_mode": "average"}),
    ("aggregator", "reweight", {"aggregator_mode": "reweight"}),
    ("mixup", "off", {"mixup_mode": "off"}),
    ("mixup", "input", {"mixup_mode": "input"}),
    ("mixup", "feature", {"mixup_mode": "feature"}),
]


def cmd_ablate(args) -> int:
    base = load_config(args.config, seed=args.seed, out_dir=args.out)
    out_root = Path(base.out_dir)
    configs = [dataclasses.replace(base, **over) for _, _, over in ABLATION_VARIANTS]
    dirs = [out_root / f"{g}_{v}" for g, v, _ in ABLATION_VARIANTS]
    out_root.mkdir(parents=True, exist_ok=True)
    # each group holds the base's own setting, so the base config is trained once
    results = _train_all(configs, dirs)
    for sub_dir, result in zip(dirs, results):
        if isinstance(result, str):
            raise RuntimeError(f"sub-run {sub_dir.name}: {result}")

    rows = []
    for (group, variant, _), cfg, summary in zip(ABLATION_VARIANTS, configs, results):
        switches = [str(cfg.gpcl_enabled).lower(), str(cfg.apa_enabled).lower()]
        rows.append(
            [group, variant, *switches, cfg.aggregator_mode, cfg.mixup_mode]
            + _summary_row(summary, base.num_domains)
        )
    header = ["group", "variant", "gpcl", "apa", "aggregator", "mixup", "avg_acc_last5"]
    _write_table(out_root / "ablation.csv", header + _acc_columns(base.num_domains), rows)
    return 0


def cmd_dump_embeddings(args) -> int:
    params = load_params(args.checkpoint)
    data = load_csv(args.data)
    features = forward(params, data.x).acts[-1]  # raises if the input widths differ
    save_csv(SampleSet(features, data.labels, data.domains), args.out)
    return 0


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config, seed=args.seed)
    domain_data = synthetic_domains(cfg, keyed_rng(cfg.seed, STREAM_DATA))
    merged = SampleSet(
        np.concatenate([domain_data[d].x for d in sorted(domain_data)]),
        np.concatenate([domain_data[d].labels for d in sorted(domain_data)]),
        np.concatenate([domain_data[d].domains for d in sorted(domain_data)]),
    )
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_csv(merged, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protofed",
        description="Deterministic prototype-based federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("run", cmd_run, "run one experiment"),
        ("sweep", cmd_sweep, "run a hyperparameter sweep"),
        ("ablate", cmd_ablate, "run the component/aggregator/mixup ablations"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.set_defaults(func=func)

    dump_p = sub.add_parser("dump-embeddings", help="export features for external projection")
    dump_p.add_argument("--checkpoint", required=True, help="model checkpoint (model.bin)")
    dump_p.add_argument("--data", required=True, help="samples CSV")
    dump_p.add_argument("--out", required=True, help="output CSV path")
    dump_p.set_defaults(func=cmd_dump_embeddings)

    gen_p = sub.add_parser("gen-data", help="write the synthetic dataset as CSV")
    gen_p.add_argument("--config", required=True, help="flat key=value config file")
    gen_p.add_argument("--out", required=True, help="output CSV path")
    gen_p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
    gen_p.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a diverging run's numpy warnings would only precede its one-line error
        with np.errstate(all="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # one error line per message line: a malformed CSV names each bad row
        print("error: " + str(exc).replace("\n", "\nerror: "), file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
