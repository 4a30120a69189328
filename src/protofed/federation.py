"""The federated round loop: broadcast, local updates, aggregation, evaluation.

One round broadcasts the global model and the current generalized prototypes,
trains every client on it (each client owns its RNG stream), then
aggregates parameters by dataset-size weighting and rebuilds the generalized
prototypes. Client results are always reduced in client-id order, so round
output does not depend on the order of the client list. Any client failure
aborts the round.

Clients train in lockstep: their parameters form one (M, P) array (the
leading client axis of model.py), and at every local step the clients whose
current batch has the same length run one stacked forward, cross-entropy,
backward and SGD step. With synthetic data every client holds the same
number of samples, so all clients form one group at every step; with CSV
data of unequal domains, clients whose batches differ in length (or that
have no batches left this epoch) step in separate groups, and a group of one
is simply M = 1. GPCL, the per-batch class means, mixup's row mixing and
APA run stacked over the group too; only the mixup draws go client by
client, each from its own stream in row order. Each client's random draws
and arithmetic are therefore exactly those of training it alone.

With GPCL, APA and mixup all disabled the loop degrades to plain FedAvg and
is required to match a minimal independent FedAvg implementation bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ExperimentConfig
from .datagen import (
    CsvSchema,
    PartitionPlan,
    SampleSet,
    load_csv,
    make_domains,
    partition,
    split_by_domain,
)
from .losses import LossBreakdown, apa_loss, cross_entropy, gpcl_loss, gpcl_targets, total_loss
from .model import ModelParams, backward, forward, init_params, sgd_step
from .numerics import STREAM_DATA, STREAM_INIT, Rng
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
    domain_id: int
    data: SampleSet
    rng: Rng


@dataclass
class ServerState:
    round: int
    global_params: ModelParams
    generalized: PrototypeSet | None


@dataclass
class RoundReport:
    round: int
    per_domain_accuracy: dict[int, float]
    average_accuracy: float
    losses: LossBreakdown  # mean of the clients' mean training losses

    def to_json_dict(self) -> dict:
        return {
            "round": self.round,
            "per_domain_accuracy": {str(k): v for k, v in sorted(self.per_domain_accuracy.items())},
            "average_accuracy": self.average_accuracy,
            "losses": self.losses.as_dict(),
        }


@dataclass
class LocalUpdateResult:
    params: ModelParams
    prototypes: PrototypeSet
    losses: LossBreakdown  # mean over this client's batch steps


@dataclass
class EvalResult:
    per_domain_accuracy: dict[int, float]
    average_accuracy: float


def _apa_targets(
    params: ModelParams,
    features: np.ndarray,
    xb: np.ndarray,
    yb: np.ndarray,
    rngs: list[Rng],
    cfg: ExperimentConfig,
) -> PrototypeSet:
    """Per-batch augmented prototypes of every client in a stacked group,
    as one (G, K, d) set, under the configured mixup mode.

    off: plain per-batch class means. feature: mix cached features across
    classes. input: mix raw inputs and run one fresh (gradient-free) stacked
    forward. Mixup pairs are drawn from each client's own stream, in row
    order; the mixing itself runs on the whole group.
    """
    k = cfg.num_classes
    if cfg.mixup_mode == "off":
        return local_prototypes(features, yb, k)
    pairs = [mixup_pairs(y, rng, cfg.alpha) for y, rng in zip(yb, rngs)]
    gammas, partners = np.stack([g for g, _ in pairs]), np.stack([p for _, p in pairs])
    if cfg.mixup_mode == "feature":
        return local_prototypes(mix_rows(features, gammas, partners), yb, k)
    mixed_h = forward(params, mix_rows(xb, gammas, partners)).acts[-1]
    return local_prototypes(mixed_h, yb, k)


def _bad_term(ce: float, gpcl: float, apa: float) -> str | None:
    """Why a client's step losses end the run (the first failing term), or
    None when they do not."""
    if math.isfinite(ce) and ce > MAX_STEP_CE:
        return f"ce loss is {ce:g}, above MAX_STEP_CE = {MAX_STEP_CE:g}"
    for term, value in (("ce", ce), ("gpcl", gpcl), ("apa", apa)):
        if not math.isfinite(value):
            return f"{term} loss is {value}"
    return None


def _step_groups(shuffled, step: int, batch_size: int):
    """The stacked groups of one lockstep step: (members, (G, L, in) inputs,
    (G, L) labels) for each batch length L, from per-block shuffled data.
    A block's members share a size and so a batch schedule; blocks whose
    current batches have equal length are concatenated, and a block with
    no batch left at this step sits it out. Members therefore come block by
    block, not in client-id order, even when a group holds every client."""
    groups: dict[int, tuple[list[int], list, list]] = {}
    for members, xs, ys in shuffled:
        bs = min(batch_size, ys.shape[1])
        batch = slice(step * bs, (step + 1) * bs)
        length = ys[0, batch].size
        if length:
            group = groups.setdefault(length, ([], [], []))
            group[0].extend(members)
            group[1].append(xs[:, batch])
            group[2].append(ys[:, batch])
    for members, x_parts, y_parts in groups.values():
        if len(x_parts) == 1:
            yield members, x_parts[0], y_parts[0]
        else:
            yield members, np.concatenate(x_parts), np.concatenate(y_parts)


def local_updates(
    clients: list[ClientState],
    global_params: ModelParams,
    generalized: PrototypeSet | None,
    cfg: ExperimentConfig,
) -> list[LocalUpdateResult]:
    """Train the received global model on every client's data in lockstep
    (see the module docstring), then compute each client's local prototypes
    over its full dataset with its final model, one client at a time.
    Results come in client-id order.

    Per step, each group runs stacked: forward and CE; GPCL against the
    generalized prototypes (skipped while none exist yet; their matrix and
    norms are prepared once per call); APA against per-batch augmented
    prototypes (class means of plain or mixed rows); backward and SGD.
    Each epoch every client draws its batch order from its own stream; its
    batch size is clamped to its dataset. A non-finite loss term, or a CE
    above MAX_STEP_CE, raises FloatingPointError naming the client, its
    local step (counted from 0 across epochs) and the term: at the first
    failing step, for the lowest failing client id.
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    for c in ordered:
        if len(c.data) == 0:
            raise ValueError(f"client {c.client_id} has no data")
    num = len(ordered)
    shapes = global_params.shapes
    # every client's model, one per row; each group gathers its members'
    # rows and writes them back after its step
    current = ModelParams(np.repeat(global_params.flat[None, :], num, axis=0), shapes)
    # Clients of equal size share a batch schedule: one block of them per size.
    blocks: dict[int, list[int]] = {}
    for m, c in enumerate(ordered):
        blocks.setdefault(len(c.data), []).append(m)
    per_epoch = [math.ceil(len(c.data) / min(cfg.batch_size, len(c.data))) for c in ordered]
    # GPCL's prototype matrix and norms are constants for the whole update
    targets = gpcl_targets(generalized) if cfg.gpcl_enabled and generalized is not None else None
    ce_sum, gpcl_sum, apa_sum = np.zeros(num), np.zeros(num), np.zeros(num)
    # per block: its members' (G, n, in) inputs and (G, n) labels, refilled
    # in place each epoch in that epoch's batch order
    shuffled = [
        (
            members,
            np.empty((len(members), n) + ordered[members[0]].data.x.shape[1:]),
            np.empty((len(members), n), dtype=np.int64),
        )
        for n, members in blocks.items()
    ]

    for epoch in range(cfg.epochs):
        for members, xs, ys in shuffled:
            for j, m in enumerate(members):
                perm = ordered[m].rng.permutation(xs.shape[1])
                xs[j] = ordered[m].data.x[perm]
                ys[j] = ordered[m].data.labels[perm]
        for step in range(max(per_epoch)):
            failures = []
            for members, xb, yb in _step_groups(shuffled, step, cfg.batch_size):
                params = ModelParams(current.flat[members], shapes)
                trace = forward(params, xb)
                h = trace.acts[-1]
                ce, d_logits = cross_entropy(trace.logits_2d, yb)
                d_features = np.zeros_like(h)
                gpcl = apa = np.zeros(len(members))
                if targets is not None:
                    gpcl, g = gpcl_loss(h, yb, targets, cfg.tau)
                    d_features += g
                if cfg.apa_enabled:
                    rngs = [ordered[m].rng for m in members]
                    p_tilde = _apa_targets(params, h, xb, yb, rngs, cfg)
                    apa, g = apa_loss(h, yb, p_tilde, cfg.apa_class_mean)
                    d_features += g
                for j, m in enumerate(members):
                    why = _bad_term(float(ce[j]), float(gpcl[j]), float(apa[j]))
                    if why is not None:
                        cid = ordered[m].client_id
                        where = f"client {cid}, local step {epoch * per_epoch[m] + step}"
                        failures.append((cid, f"{where}: {why}"))
                if failures:
                    continue
                grads = backward(params, trace, d_logits, d_features)
                current.flat[members] = sgd_step(params, grads, cfg.lr, cfg.weight_decay).flat
                ce_sum[members] += ce
                gpcl_sum[members] += gpcl
                apa_sum[members] += apa
            if failures:
                raise FloatingPointError(min(failures)[1])

    results = []
    for m, c in enumerate(ordered):
        # one client at a time: stacking every client's full dataset would
        # hold M times the activations for a forward that runs once a round
        params = ModelParams(current.flat[m], shapes)
        h = forward(params, c.data.x).acts[-1]
        protos = local_prototypes(h, c.data.labels, cfg.num_classes)
        steps = cfg.epochs * per_epoch[m]
        mean = total_loss(*(float(s[m] / steps) for s in (ce_sum, gpcl_sum, apa_sum)))
        results.append(LocalUpdateResult(params, protos, mean))
    return results


def aggregate_params(
    client_params: list[ModelParams], sample_counts: list[int]
) -> ModelParams:
    """Elementwise average weighted by |D_m| / sum|D_m|, reduced in list order
    on the flat parameter vectors."""
    if not client_params:
        raise ValueError("nothing to aggregate")
    counts = np.asarray(sample_counts, dtype=np.float64)
    if counts.shape != (len(client_params),):
        raise ValueError("one sample count per client required")
    if np.any(counts <= 0):
        raise ValueError("sample counts must be positive")
    weights = counts / counts.sum()
    shapes = client_params[0].shapes
    acc = weights[0] * client_params[0].flat
    for w, params in zip(weights[1:], client_params[1:]):
        if params.shapes != shapes:
            raise ValueError("client parameter shapes do not match")
        acc = acc + w * params.flat
    return ModelParams(acc, shapes)


def evaluate(params: ModelParams, test_sets: dict[int, SampleSet]) -> EvalResult:
    """Per-domain top-1 accuracy; argmax ties resolve to the lowest class
    index; the average is the unweighted mean over domains."""
    per_domain: dict[int, float] = {}
    for dom in sorted(test_sets):
        ts = test_sets[dom]
        if len(ts) == 0:
            raise ValueError(f"empty test set for domain {dom}")
        logits = forward(params, ts.x).logits_2d
        preds = np.argmax(logits, axis=1)
        per_domain[dom] = float(np.mean(preds == ts.labels))
    avg = sum(per_domain.values()) / len(per_domain)
    return EvalResult(per_domain, avg)


def run_round(
    server: ServerState,
    clients: list[ClientState],
    test_sets: dict[int, SampleSet],
    cfg: ExperimentConfig,
) -> tuple[ServerState, RoundReport]:
    """One synchronous communication round. A non-finite loss, or a CE above
    MAX_STEP_CE, aborts it with a FloatingPointError that names the round,
    client, local step and term."""
    if not clients:
        raise ValueError("no clients")
    ordered = sorted(clients, key=lambda c: c.client_id)
    try:
        results = local_updates(ordered, server.global_params, server.generalized, cfg)
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {server.round}, {exc}") from exc

    new_global = aggregate_params(
        [r.params for r in results], [len(c.data) for c in ordered]
    )
    prototype_sets = [r.prototypes for r in results]
    if cfg.aggregator_mode == "reweight":
        mu = average_prototypes(prototype_sets)
        fresh, _ = reweight(prototype_sets, mu)
        if cfg.ema_enabled and server.generalized is not None:
            generalized = ema_update(fresh, server.generalized, cfg.beta)
        else:
            generalized = fresh
    elif cfg.aggregator_mode == "average":
        generalized = average_prototypes(prototype_sets)
    else:
        raise ValueError(f"unknown aggregator mode {cfg.aggregator_mode!r}")

    ev = evaluate(new_global, test_sets)
    mean_losses = total_loss(
        sum(r.losses.ce for r in results) / len(results),
        sum(r.losses.gpcl for r in results) / len(results),
        sum(r.losses.apa for r in results) / len(results),
    )
    report = RoundReport(server.round, ev.per_domain_accuracy, ev.average_accuracy, mean_losses)
    return ServerState(server.round + 1, new_global, generalized), report


def synthetic_domains(cfg: ExperimentConfig, rng: Rng) -> dict[int, SampleSet]:
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
    rng_data = Rng(cfg.seed, STREAM_DATA)
    if cfg.csv_path:
        schema = CsvSchema(cfg.input_dim, cfg.num_classes, cfg.num_domains)
        domain_data = split_by_domain(load_csv(cfg.csv_path, schema))
    else:
        domain_data = synthetic_domains(cfg, rng_data)
    plan = PartitionPlan(
        {dom: count for dom, count in enumerate(cfg.clients_per_domain) if count > 0},
        cfg.sampling_rate,
    )
    splits, test_sets = partition(domain_data, plan, rng_data)
    theta0 = init_params(Rng(cfg.seed, STREAM_INIT), list(cfg.arch), cfg.num_classes)
    clients = [
        ClientState(s.client_id, s.domain, s.data, Rng(cfg.seed, s.client_id))
        for s in splits
    ]
    return clients, test_sets, theta0


@dataclass
class ExperimentResult:
    reports: list[RoundReport]
    summary: dict
    final_params: ModelParams
    final_generalized: PrototypeSet | None


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


def run_experiment(cfg: ExperimentConfig, round_callback=None) -> ExperimentResult:
    """Run the configured number of rounds and summarize the tail."""
    clients, test_sets, theta0 = build_problem(cfg)
    server = ServerState(0, theta0, None)
    reports: list[RoundReport] = []
    for _ in range(cfg.rounds):
        server, report = run_round(server, clients, test_sets, cfg)
        reports.append(report)
        if round_callback is not None:
            round_callback(report)
    return ExperimentResult(reports, summarize(reports), server.global_params, server.generalized)
