"""Where the traced run wraps the program, and how spans become metrics.

Each target is a function looked up through a module namespace at call
time: ``protofed.federation`` for everything the round loop calls and
``protofed.cli`` for the command layer. The span name is
``<layer>.<function>``, and it is the prefix of the per-layer metrics in
BENCHMARK.json. Count functions read exact work counts from a call's
arguments and return value, as a tuple in the order of their keys.
"""

from __future__ import annotations

import math


def _forward_rows(args, result):
    return (int(args[1].shape[0]),)


def _beta_draws(args, result):
    _, partners = result
    return (int((partners >= 0).sum()),)


def _local_steps(args, result):
    state, cfg = args[0], args[3]
    n = len(state.data)
    return (cfg.epochs * math.ceil(n / min(cfg.batch_size, n)),)


def _reweight_fallbacks(args, result):
    per_class = result[1].per_class
    return (sum(1 for c in per_class.values() if c.fallback), len(per_class))


def _eval_rows(args, result):
    return (sum(len(ts) for ts in args[1].values()),)


# (namespace, attribute, span name, (count function, count keys) or None,
#  starts a new run id)
TARGETS = [
    ("federation", "build_problem", "federation.build_problem", None, False),
    ("federation", "make_domains", "datagen.make_domains", None, False),
    ("federation", "partition", "datagen.partition", None, False),
    ("federation", "run_round", "federation.run_round", None, False),
    ("federation", "local_update", "federation.local_update", (_local_steps, ("steps",)), False),
    ("federation", "aggregate_params", "federation.aggregate_params", None, False),
    ("federation", "evaluate", "federation.evaluate", (_eval_rows, ("rows",)), False),
    ("federation", "forward", "model.forward", (_forward_rows, ("rows",)), False),
    ("federation", "backward", "model.backward", None, False),
    ("federation", "sgd_step", "model.sgd_step", None, False),
    ("federation", "cross_entropy", "losses.cross_entropy", None, False),
    ("federation", "gpcl_loss", "losses.gpcl_loss", None, False),
    ("federation", "apa_loss", "losses.apa_loss", None, False),
    ("federation", "mixup_pairs", "prototypes.mixup_pairs", (_beta_draws, ("beta_draws",)), False),
    ("federation", "mix_rows", "prototypes.mix_rows", None, False),
    ("federation", "local_prototypes", "prototypes.local_prototypes", None, False),
    ("federation", "reweight", "prototypes.reweight", (_reweight_fallbacks, ("fallbacks", "classes")), False),
    ("federation", "ema_update", "prototypes.ema_update", None, False),
    ("federation", "average_prototypes", "prototypes.average_prototypes", None, False),
    ("federation", "initial_mean", "prototypes.initial_mean", None, False),
    ("cli", "execute_run", "cli.execute_run", None, True),
    ("cli", "write_resolved", "cli.write_resolved", None, False),
    ("cli", "save_params", "cli.save_params", None, False),
    ("cli", "save_prototypes_json", "cli.save_prototypes_json", None, False),
]

WRITE_SPANS = ("cli.write_resolved", "cli.save_params", "cli.save_prototypes_json")


def install(tracer, namespaces: dict) -> None:
    for namespace, attr, name, count, new_run in TARGETS:
        tracer.install(namespaces[namespace], attr, name, count, new_run)


def count_keys() -> list[str]:
    return [f"{name}.{key}" for _, _, name, count, _ in TARGETS if count for key in count[1]]


def span_metrics(totals: dict, counts: dict, run_s: float, run_cpu_s: float) -> dict[str, float]:
    """Metrics of one traced repetition that come from its own spans.

    Span fields: ``<span>.calls``, ``<span>.self_s`` and ``<span>.s`` (total
    duration) for every target; ``<span>.<key>`` for every exact count.
    Span durations are thread CPU seconds, so the unattributed time is taken
    from the command's process CPU time (``run_cpu_s``), and the sub-run
    overlap is CPU seconds spent in sub-runs per wall second (``run_s``).
    """
    out: dict[str, float] = {}
    for _, _, name, _, _ in TARGETS:
        row = totals.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.s"] = row["total_s"]
    out.update({key: counts.get(key, 0) for key in count_keys()})
    classes = counts.get("prototypes.reweight.classes", 0)
    fallbacks = counts.get("prototypes.reweight.fallbacks", 0)
    out["prototypes.reweight.fallback_ratio"] = fallbacks / classes if classes else 0.0
    out["cli.write.self_s"] = sum(out[f"{name}.self_s"] for name in WRITE_SPANS)
    out["cli.subrun.overlap"] = out["cli.execute_run.s"] / run_s
    out["trace.unattributed_s"] = run_cpu_s - sum(row["self_s"] for row in totals.values())
    out["trace.traced_run_s"] = run_s
    out["trace.traced_cpu_s"] = run_cpu_s
    return out


def exact_counts(metrics: dict) -> dict[str, int]:
    """The integer counters that must repeat exactly between repetitions."""
    return {k: v for k, v in metrics.items() if isinstance(v, int)}
