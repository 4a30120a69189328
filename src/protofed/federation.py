"""The federated round loop: broadcast, local updates, aggregation, evaluation.

The loop runs a bundle: experiments whose configs differ only in
config.PER_RUN_FIELDS; one experiment is the bundle of one. Runs of one seed
share one build_problem, their clients' RNG streams included. Each round
trains every run's clients from its broadcast global model and generalized
prototypes; then, per run and in client-id order, the server aggregates the
parameters by dataset size, rebuilds the prototypes and evaluates.

Clients of equal dataset size share a batch schedule, so each size block,
over all runs, trains as one (G, P) stack (the leading client axis of
model.py) ordered (run, client id). Each step runs forward, CE, mixup, APA,
backward and SGD once over the stack, and GPCL once per run over its rows.
Each distinct stream draws once per epoch (its batch order, then mixup
pairs in step order) and its other members replay the draws. Each run's
draws and arithmetic are therefore exactly those of training it alone.
A failure in any run stops the whole bundle and raises; the CLI then trains
each of the bundle's configs again alone (cli._train).

With GPCL, APA and mixup all disabled the loop degrades to plain FedAvg and
is required to match a minimal independent FedAvg implementation bitwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import PER_RUN_FIELDS, ExperimentConfig, bundle_key
from .datagen import SampleSet, load_csv, make_domains, partition, split_by_domain
from .losses import (
    GpclTargets, LossBreakdown, apa_loss, cross_entropy, gpcl_loss, gpcl_targets, total_loss
)
from .model import ModelParams, backward, forward, init_params, sgd_step
from .numerics import STREAM_DATA, STREAM_INIT, keyed_rng
from .prototypes import (
    PrototypeSet,
    average_prototypes,
    ema_update,
    local_prototypes,
    mix_rows,
    mixup_pairs,
    reweight,
)

# Largest batch cross-entropy a local step may report before the run is
# declared diverged. A working model's batch CE starts near log K (1.6 for
# the 5-class configs; no config in configs/ goes above 2.9) and, however
# wrong, grows only with the logit gap; past 1e6 the weights have blown up
# (lr = 1e6 reaches 3.6e78 by round 1 while every term stays finite). CE is
# the one term every mode computes; GPCL is bounded by log K + 2 / tau by
# construction, and APA overflows to inf.
MAX_STEP_CE = 1e6


@dataclass
class ClientState:
    client_id: int
    data: SampleSet
    rng: np.random.Generator


@dataclass
class ServerState:
    round: int
    global_params: ModelParams
    generalized: PrototypeSet | None


@dataclass
class Run:
    """One experiment of a bundle as the round loop holds it. Its clients
    (and their streams) are shared with the bundle's other runs of its seed."""

    cfg: ExperimentConfig
    clients: list[ClientState]
    test_sets: dict[int, SampleSet]
    server: ServerState


@dataclass
class RoundReport:
    round: int
    per_domain_accuracy: dict[int, float]
    average_accuracy: float
    losses: LossBreakdown  # mean of the clients' mean training losses

    def to_json_dict(self) -> dict:
        out = asdict(self)  # losses as a dict too; writers sort the keys
        out["per_domain_accuracy"] = {str(k): v for k, v in self.per_domain_accuracy.items()}
        return out


def _apa_targets(
    params: ModelParams,
    features: np.ndarray,
    xb: np.ndarray,
    yb: np.ndarray,
    pairs: tuple[np.ndarray, np.ndarray] | None,
    cfg: ExperimentConfig,
) -> PrototypeSet:
    """Per-batch augmented prototypes of every client in a stacked block,
    as one (G, K, d) set, under the configured mixup mode; pairs are the
    step's (G, B) gammas and partners (None when mixup is off).

    off: plain per-batch class means. feature: mix cached features across
    classes. input: mix raw inputs, then one gradient-free stacked forward.
    """
    if pairs is None:
        rows = features
    elif cfg.mixup_mode == "feature":
        rows = mix_rows(features, *pairs)
    else:
        rows = forward(params, mix_rows(xb, *pairs)).acts[-1]
    return local_prototypes(rows, yb, cfg.num_classes)


def _bad_term(ce: float, gpcl: float, apa: float) -> str | None:
    """Why a client's step losses end the run (the first failing term), or
    None when they do not."""
    if math.isfinite(ce) and ce > MAX_STEP_CE:
        return f"ce loss is {ce:g}, above MAX_STEP_CE = {MAX_STEP_CE:g}"
    for term, value in (("ce", ce), ("gpcl", gpcl), ("apa", apa)):
        if not math.isfinite(value):
            return f"{term} loss is {value}"
    return None


def _train_block(
    runs: list[Run], block: list[tuple[int, ClientState]], targets: list[GpclTargets | None]
) -> tuple[tuple | None, ModelParams, np.ndarray]:
    """The whole local update of one size block, listed as (run, client) in
    (run, client id) order, as one (G, P) stack written in place. Returns
    the block's first failure, (epoch, step, client id, message) or None,
    the (G, P) parameters and the (3, G) mean CE, GPCL and APA (garbage
    after a failure). Each epoch the first member on each stream draws its
    batch order and, when APA mixes, the epoch's pairs in one call over the
    full batches and one for a short last batch. The first failing step
    ends the block; of its failing rows, the first in (run, client id) order
    is reported.
    """
    cfg = runs[0].cfg  # every setting the stack reads is the bundle's
    owner, clients = [r for r, _ in block], [c for _, c in block]
    num, n = len(block), len(clients[0].data)
    batch_size = min(cfg.batch_size, n)
    steps, full = math.ceil(n / batch_size), n // batch_size
    first: dict[int, int] = {}  # stream (a client object) -> its index among the streams
    stream = np.array([first.setdefault(id(c), len(first)) for c in clients])
    drawers = np.unique(stream, return_index=True)[1]  # each stream's first member
    rngs = [clients[j].rng for j in drawers]
    step_rngs = [r for r in rngs for _ in range(full)]  # stream-major, one per full batch
    spans = {r: slice(owner.index(r), num - owner[::-1].index(r)) for r in dict.fromkeys(owner)}
    contrasted = [(rows, targets[r], runs[r].cfg.tau) for r, rows in spans.items()
                  if targets[r] is not None]
    shapes = runs[0].server.global_params.shapes
    params = ModelParams(np.stack([runs[r].server.global_params.flat for r in owner]), shapes)
    grads = ModelParams(np.empty_like(params.flat), shapes)
    # the members' (G, n, in) inputs and (G, n) labels, refilled in place
    # each epoch in that epoch's batch order
    xs = np.empty((num, n) + clients[0].data.x.shape[1:])
    ys = np.empty((num, n), dtype=np.int64)
    zero_features = np.zeros((num, batch_size, params.feature_dim))  # read-only
    sums = np.zeros((3, num))
    for epoch in range(cfg.epochs):
        for j in drawers:
            perm = clients[j].rng.permutation(n)
            xs[j], ys[j] = clients[j].data.x[perm], clients[j].data.labels[perm]
        if len(drawers) < num:
            xs[:], ys[:] = xs[drawers[stream]], ys[drawers[stream]]
        pairs = [None] * steps
        if cfg.apa_enabled and cfg.mixup_mode != "off":
            drawn = ys[drawers]
            full_ys = drawn[:, : full * batch_size].reshape(len(drawers) * full, batch_size)
            gammas, partners = (a.reshape(len(drawers), full, -1)[stream]
                                for a in mixup_pairs(full_ys, step_rngs, cfg.alpha))
            pairs[:full] = [(gammas[:, s], partners[:, s]) for s in range(full)]
            if full < steps:
                last = mixup_pairs(drawn[:, full * batch_size :], rngs, cfg.alpha)
                pairs[full] = tuple(a[stream] for a in last)
        for step in range(steps):
            batch = slice(step * batch_size, (step + 1) * batch_size)
            xb, yb = xs[:, batch], ys[:, batch]
            trace = forward(params, xb)
            h = trace.acts[-1]
            ce, d_logits = cross_entropy(trace.logits_2d, yb)
            d_features = zero_features[:, : h.shape[1]]
            gpcl = apa = np.zeros(num)
            if contrasted:  # each run's own call over its rows, zeros in the others'
                gpcl, g = np.zeros(num), np.zeros_like(h)
                for rows, run_targets, tau in contrasted:
                    gpcl[rows], g[rows] = gpcl_loss(h[rows], yb[rows], run_targets, tau)
                d_features = np.add(d_features, g, out=g)
            if cfg.apa_enabled:
                p_tilde = _apa_targets(params, h, xb, yb, pairs[step], cfg)
                apa, g = apa_loss(h, yb, p_tilde)
                d_features = np.add(d_features, g, out=g)
            # a finite sum means finite terms; only a failing step is searched
            if not (np.isfinite(ce + gpcl + apa).all() and ce.max() <= MAX_STEP_CE):
                for j, (_, c) in enumerate(block):
                    why = _bad_term(float(ce[j]), float(gpcl[j]), float(apa[j]))
                    if why is not None:  # None: sound, or finite terms whose sum overflows
                        where = f"client {c.client_id}, local step {epoch * steps + step}"
                        return (epoch, step, c.client_id, f"{where}: {why}"), params, sums
            backward(params, trace, d_logits, d_features, out=grads)
            sgd_step(params, grads, cfg.lr, cfg.weight_decay, out=params)
            sums += (ce, gpcl, apa)
    return None, params, sums / (cfg.epochs * steps)


def local_updates(runs: list[Run]) -> list[tuple[ModelParams, list[PrototypeSet], np.ndarray]]:
    """Train each run's global model on its clients, one size block over all
    runs at a time, then compute each client's local prototypes over its
    full dataset. Returns per run, in client-id order, the (M, P) trained
    parameters, the M prototype sets and the (3, M) mean CE, GPCL and APA.
    A failing step (a non-finite term or a CE above MAX_STEP_CE) raises one
    FloatingPointError naming the round, client, local step (counted across
    epochs) and term of the first failure over all blocks: the earliest
    epoch, then step, then the lowest failing client id.

    Each client's batch size is clamped to its dataset. A failure is
    reported over all blocks: the other blocks finish their update first.
    """
    ordered = [sorted(run.clients, key=lambda c: c.client_id) for run in runs]
    blocks: dict[int, list[tuple[int, int]]] = {}  # dataset size -> (run, client position)
    for r, clients in enumerate(ordered):
        for i, c in enumerate(clients):
            if len(c.data) == 0:
                raise ValueError(f"client {c.client_id} has no data")
            blocks.setdefault(len(c.data), []).append((r, i))
    # GPCL's prototype matrix and norms are constants for the whole update
    targets = [
        gpcl_targets(run.server.generalized)
        if run.cfg.gpcl_enabled and run.server.generalized is not None else None
        for run in runs
    ]
    shapes = runs[0].server.global_params.shapes
    params = [np.empty((len(c), runs[0].server.global_params.flat.size)) for c in ordered]
    means = [np.empty((3, len(c))) for c in ordered]
    failures = []
    for members in blocks.values():
        block = [(r, ordered[r][i]) for r, i in members]
        failure, block_params, block_means = _train_block(runs, block, targets)
        if failure is not None:
            failures.append(failure)
        for j, (r, i) in enumerate(members):
            params[r][i], means[r][:, i] = block_params.flat[j], block_means[:, j]
    if failures:
        raise FloatingPointError(f"round {runs[0].server.round}, {min(failures)[-1]}")

    results = []
    for run, clients, flat, run_means in zip(runs, ordered, params, means):
        # one client at a time: stacking every client's full dataset would
        # hold M times the activations for a forward that runs once a round
        protos = []
        for row, c in zip(flat, clients):
            h = forward(ModelParams(row, shapes), c.data.x).acts[-1]
            protos.append(local_prototypes(h, c.data.labels, run.cfg.num_classes))
        results.append((ModelParams(flat, shapes), protos, run_means))
    return results


def aggregate_params(client_params: ModelParams, sample_counts: list[int]) -> ModelParams:
    """Elementwise average of the (M, P) stack's rows weighted by
    |D_m| / sum|D_m|, summed row by row in order."""
    counts = np.asarray(sample_counts, dtype=np.float64)
    if counts.shape != client_params.flat.shape[:1]:
        raise ValueError("one sample count per client row required")
    if counts.size == 0:
        raise ValueError("nothing to aggregate")
    if np.any(counts <= 0):
        raise ValueError("sample counts must be positive")
    weights = counts / counts.sum()
    acc = weights[0] * client_params.flat[0]
    for w, row in zip(weights[1:], client_params.flat[1:]):
        acc = acc + w * row
    return ModelParams(acc, client_params.shapes)


def evaluate(params: ModelParams, test_sets: dict[int, SampleSet]) -> dict[int, float]:
    """Per-domain top-1 accuracy, domains ascending; argmax ties resolve to
    the lowest class index."""
    per_domain: dict[int, float] = {}
    for dom in sorted(test_sets):
        ts = test_sets[dom]
        if len(ts) == 0:
            raise ValueError(f"empty test set for domain {dom}")
        logits = forward(params, ts.x).logits_2d
        preds = np.argmax(logits, axis=1)
        per_domain[dom] = float(np.mean(preds == ts.labels))
    return per_domain


def run_round(runs: list[Run]) -> list[tuple[ServerState, RoundReport]]:
    """One synchronous communication round of every run of a bundle: the
    local updates, then per run the server's half (aggregation, the
    generalized prototypes, evaluation) and the report. Returns per run its
    next server state and report; any run's error raises (a non-finite loss,
    or a CE above MAX_STEP_CE, is local_updates' FloatingPointError)."""
    if not all(run.clients for run in runs):
        raise ValueError("no clients")
    results = []
    for run, (params, prototype_sets, means) in zip(runs, local_updates(runs)):
        cfg, server = run.cfg, run.server
        counts = [len(c.data) for c in sorted(run.clients, key=lambda c: c.client_id)]
        new_global = aggregate_params(params, counts)
        if cfg.aggregator_mode == "reweight":
            fresh, _ = reweight(prototype_sets)
            generalized = ema_update(fresh, server.generalized, cfg.beta)
        elif cfg.aggregator_mode == "average":
            generalized = average_prototypes(prototype_sets)
        else:
            raise ValueError(f"unknown aggregator mode {cfg.aggregator_mode!r}")

        accuracy = evaluate(new_global, run.test_sets)
        # Python's row-order sum: np.mean would sum pairwise, other bits from M = 8
        mean_losses = total_loss(*(sum(row.tolist()) / len(row) for row in means))
        # the average accuracy is the unweighted mean over domains
        average = sum(accuracy.values()) / len(accuracy)
        report = RoundReport(server.round, accuracy, average, mean_losses)
        results.append((ServerState(server.round + 1, new_global, generalized), report))
    return results


def synthetic_domains(cfg: ExperimentConfig, rng: np.random.Generator) -> dict[int, SampleSet]:
    """The configured synthetic domains, drawn from rng (the seed's data
    stream); build_problem and the gen-data command share this data step."""
    return make_domains(
        cfg.num_classes,
        cfg.num_domains,
        cfg.input_dim,
        cfg.per_class_count,
        rng,
        noise_sigma=cfg.data_noise,
        anchor_scale=cfg.data_anchor_scale,
        shift=cfg.data_shift,
    )


def build_problem(
    cfg: ExperimentConfig,
) -> tuple[list[ClientState], dict[int, SampleSet], ModelParams]:
    """Materialize data, splits, initial model and per-client RNG streams."""
    rng_data = keyed_rng(cfg.seed, STREAM_DATA)
    if cfg.csv_path:
        domain_data = split_by_domain(
            load_csv(cfg.csv_path, cfg.input_dim, cfg.num_classes, cfg.num_domains)
        )
    else:
        domain_data = synthetic_domains(cfg, rng_data)
    counts = {dom: count for dom, count in enumerate(cfg.clients_per_domain) if count > 0}
    client_data, test_sets = partition(domain_data, counts, cfg.sampling_rate, rng_data)
    theta0 = init_params(keyed_rng(cfg.seed, STREAM_INIT), list(cfg.arch), cfg.num_classes)
    clients = [ClientState(i, data, keyed_rng(cfg.seed, i)) for i, data in enumerate(client_data)]
    return clients, test_sets, theta0


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    summary: dict
    final_params: ModelParams
    final_generalized: PrototypeSet


def summarize(reports: list[RoundReport]) -> dict:
    """Mean per-domain and average accuracy over the final five rounds."""
    window = min(5, len(reports))
    tail = reports[-window:]
    domains = sorted(tail[0].per_domain_accuracy)
    per_domain = {
        str(dom): sum(r.per_domain_accuracy[dom] for r in tail) / window
        for dom in domains
    }
    return {
        "rounds_total": len(reports),
        "summary_window": window,
        "per_domain_accuracy": per_domain,
        "average_accuracy": sum(r.average_accuracy for r in tail) / window,
    }


def run_experiments(cfgs: list[ExperimentConfig], round_callbacks=None) -> list[ExperimentResult]:
    """Run a bundle (see the module docstring): per config, in order, its
    ExperimentResult. The first failure of any run, a round callback's
    included, stops the whole bundle and raises; a bundle of one raises its
    config's own failure. round_callbacks, one per config or None, each get
    that run's reports as its rounds finish."""
    if len({bundle_key(cfg) for cfg in cfgs}) > 1:
        raise ValueError(f"a bundle's configs may differ only in {', '.join(PER_RUN_FIELDS)}")
    callbacks = round_callbacks or [None] * len(cfgs)
    problems: dict[int, tuple] = {}  # seed -> its build_problem, shared by its runs
    runs = []
    for cfg in cfgs:
        if cfg.seed not in problems:
            problems[cfg.seed] = build_problem(cfg)
        clients, test_sets, theta0 = problems[cfg.seed]
        runs.append(Run(cfg, clients, test_sets, ServerState(0, theta0, None)))
    reports: list[list[RoundReport]] = [[] for _ in runs]
    for _ in range(cfgs[0].rounds if runs else 0):
        for i, (server, report) in enumerate(run_round(runs)):
            runs[i].server = server
            reports[i].append(report)
            if callbacks[i] is not None:
                callbacks[i](report)
    return [ExperimentResult(r, summarize(r), run.server.global_params, run.server.generalized)
            for run, r in zip(runs, reports)]
