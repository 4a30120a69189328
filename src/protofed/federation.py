"""The federated round loop: broadcast, local updates, aggregation, evaluation.

One round broadcasts the global model and the current generalized prototypes,
runs every client's local update in client-id order (each client owns its
RNG stream), then aggregates parameters by dataset-size weighting and
rebuilds the generalized prototypes. Client results are always reduced in
client-id order, so round output does not depend on the order of the client
list. Any client failure aborts the round.

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
from .losses import LossBreakdown, apa_loss, cross_entropy, gpcl_loss, total_loss
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


@dataclass
class ClientState:
    client_id: int
    domain_id: int
    data: SampleSet
    params: ModelParams
    rng: Rng


@dataclass
class ServerState:
    round: int
    global_params: ModelParams
    generalized: PrototypeSet | None
    beta: float
    aggregator_mode: str
    ema_enabled: bool


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
    rng: Rng,
    cfg: ExperimentConfig,
) -> PrototypeSet:
    """Per-batch augmented prototypes under the configured mixup mode.

    off: plain per-batch class means. feature: mix cached features across
    classes. input: mix raw inputs and run a fresh (gradient-free) forward.
    """
    if cfg.mixup_mode == "off":
        return local_prototypes(features, yb)
    gammas, partners = mixup_pairs(yb, rng, cfg.alpha)
    if cfg.mixup_mode == "feature":
        return local_prototypes(mix_rows(features, gammas, partners), yb)
    mixed_x = mix_rows(xb, gammas, partners)
    return local_prototypes(forward(params, mixed_x).acts[-1], yb)


def local_update(
    state: ClientState,
    global_params: ModelParams,
    generalized: PrototypeSet | None,
    cfg: ExperimentConfig,
) -> LocalUpdateResult:
    """Train the received global model on the client's data, then compute
    local prototypes over the full dataset with the final model.

    Per batch: forward, CE on the logits, GPCL against the generalized
    prototypes (skipped while none exist yet), APA against per-batch
    augmented prototypes, one SGD step. Batch size is clamped to the dataset.
    A non-finite loss term raises FloatingPointError naming the client, the
    local step (counted from 0 across epochs) and the term.
    """
    params = global_params
    n = len(state.data)
    if n == 0:
        raise ValueError(f"client {state.client_id} has no data")
    bs = min(cfg.batch_size, n)
    use_gpcl = cfg.gpcl_enabled and generalized is not None

    ce_sum = gpcl_sum = apa_sum = 0.0
    steps = 0
    for _ in range(cfg.epochs):
        order = state.rng.permutation(n)
        for start in range(0, n, bs):
            idx = order[start : start + bs]
            xb = state.data.x[idx]
            yb = state.data.labels[idx]
            trace = forward(params, xb)
            h = trace.acts[-1]
            ce, d_logits = cross_entropy(trace.logits_2d, yb)
            d_features = np.zeros_like(h)
            gpcl = apa = 0.0
            if use_gpcl:
                gpcl, g = gpcl_loss(h, yb, generalized, cfg.tau)
                d_features += g
            if cfg.apa_enabled:
                p_tilde = _apa_targets(params, h, xb, yb, state.rng, cfg)
                apa, g = apa_loss(h, yb, p_tilde, cfg.apa_class_mean)
                d_features += g
            for term, value in (("ce", ce), ("gpcl", gpcl), ("apa", apa)):
                if not math.isfinite(value):
                    raise FloatingPointError(
                        f"client {state.client_id}, local step {steps}: {term} loss is {value}"
                    )
            grads = backward(params, trace, d_logits, d_features)
            params = sgd_step(params, grads, cfg.lr, cfg.weight_decay)
            ce_sum += ce
            gpcl_sum += gpcl
            apa_sum += apa
            steps += 1

    final_features = forward(params, state.data.x).acts[-1]
    protos = local_prototypes(final_features, state.data.labels)
    mean = total_loss(ce_sum / steps, gpcl_sum / steps, apa_sum / steps)
    return LocalUpdateResult(params, protos, mean)


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
    """One synchronous communication round. A non-finite loss aborts it with
    a FloatingPointError that names the round, client, local step and term."""
    if not clients:
        raise ValueError("no clients")
    ordered = sorted(clients, key=lambda c: c.client_id)
    try:
        results = [
            local_update(c, server.global_params, server.generalized, cfg) for c in ordered
        ]
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {server.round}, {exc}") from exc

    new_global = aggregate_params(
        [r.params for r in results], [len(c.data) for c in ordered]
    )
    prototype_sets = [r.prototypes for r in results]
    if server.aggregator_mode == "reweight":
        mu = average_prototypes(prototype_sets)
        fresh, _ = reweight(prototype_sets, mu)
        if server.ema_enabled and server.generalized is not None:
            generalized = ema_update(fresh, server.generalized, server.beta)
        else:
            generalized = fresh
    elif server.aggregator_mode == "average":
        generalized = average_prototypes(prototype_sets)
    else:
        raise ValueError(f"unknown aggregator mode {server.aggregator_mode!r}")

    for client, result in zip(ordered, results):
        client.params = result.params

    ev = evaluate(new_global, test_sets)
    mean_losses = total_loss(
        sum(r.losses.ce for r in results) / len(results),
        sum(r.losses.gpcl for r in results) / len(results),
        sum(r.losses.apa for r in results) / len(results),
    )
    report = RoundReport(server.round, ev.per_domain_accuracy, ev.average_accuracy, mean_losses)
    new_server = ServerState(
        server.round + 1,
        new_global,
        generalized,
        server.beta,
        server.aggregator_mode,
        server.ema_enabled,
    )
    return new_server, report


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
        ClientState(s.client_id, s.domain, s.data, theta0, Rng(cfg.seed, s.client_id))
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
    clients, test_sets, _ = build_problem(cfg)
    server = ServerState(
        0, clients[0].params, None, cfg.beta, cfg.aggregator_mode, cfg.ema_enabled
    )
    reports: list[RoundReport] = []
    for _ in range(cfg.rounds):
        server, report = run_round(server, clients, test_sets, cfg)
        reports.append(report)
        if round_callback is not None:
            round_callback(report)
    return ExperimentResult(reports, summarize(reports), server.global_params, server.generalized)
