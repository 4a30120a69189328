"""The federated round loop: broadcast, local updates, aggregation, evaluation.

One round broadcasts the global model and the current generalized prototypes,
trains every client on it (each client owns its RNG stream), then
aggregates parameters by dataset-size weighting and rebuilds the generalized
prototypes. Client results are always reduced in client-id order, so round
output does not depend on the order of the client list. Any client failure
aborts the round.

Clients of equal dataset size share a batch schedule, so each such size
block trains as one (G, P) parameter stack (the leading client axis of
model.py), its members in client-id order: every local step runs one
stacked forward, cross-entropy, GPCL, row mixing, per-batch class means,
APA, backward and SGD step, the last two written in place into parameter
and gradient stacks allocated once per block. Mixup pairing runs once per
epoch, after the members' permutations, for all their steps (mixup_pairs);
only its draws are per member and step, each from the member's own stream
in step order (a step's gammas, then its partner ranks). With synthetic data
every client holds the same number of samples, so there is one block; CSV
data with unequal domains gives one block per size, and a block of one is
simply G = 1. Each client's random draws and arithmetic are therefore
exactly those of training it alone.

A round's uploads take one form: every block's (G, P) stack is written into
one (M, P) parameter stack and its (3, G) loss means into one (3, M) array,
rows in client-id order, beside the M clients' local prototype sets. The
server averages the stack's rows (aggregate_params) and the loss rows in
row order, as Python sums them.

With GPCL, APA and mixup all disabled the loop degrades to plain FedAvg and
is required to match a minimal independent FedAvg implementation bitwise.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExperimentConfig
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
    block: list[ClientState],
    global_params: ModelParams,
    targets: GpclTargets | None,
    cfg: ExperimentConfig,
) -> tuple[tuple | None, ModelParams | None, np.ndarray | None]:
    """The whole local update of one block of equal-size clients, listed in
    client-id order, as one (G, P) stack. Returns the block's first failure
    as (epoch, step within the epoch, client id, message) and two Nones, or
    None, the (G, P) parameters and the (3, G) mean CE, GPCL and APA of each
    member.

    Per step the stack runs forward and CE; GPCL against the generalized
    prototypes (targets, skipped while None); APA against per-batch
    augmented prototypes (class means of plain or mixed rows); the checks;
    backward and SGD. Each epoch every member draws its batch order from its
    own stream, then, when APA mixes, the epoch's pairs in one call over the
    full batches (member-major rows, each member's stream once per row) and
    one for a short last batch. A failing step ends the block at once; the
    stacks are allocated once and written in place, global_params only read.
    """
    num, n = len(block), len(block[0].data)
    batch_size = min(cfg.batch_size, n)
    steps, full = math.ceil(n / batch_size), n // batch_size
    rngs = [c.rng for c in block]
    step_rngs = [r for r in rngs for _ in range(full)]  # member-major, one per full batch
    params = ModelParams(np.repeat(global_params.flat[None, :], num, axis=0), global_params.shapes)
    grads = ModelParams(np.empty_like(params.flat), params.shapes)
    # the members' (G, n, in) inputs and (G, n) labels, refilled in place
    # each epoch in that epoch's batch order
    xs = np.empty((num, n) + block[0].data.x.shape[1:])
    ys = np.empty((num, n), dtype=np.int64)
    zero_features = np.zeros((num, batch_size, params.feature_dim))  # read-only
    sums = np.zeros((3, num))
    for epoch in range(cfg.epochs):
        for j, c in enumerate(block):
            perm = c.rng.permutation(n)
            xs[j] = c.data.x[perm]
            ys[j] = c.data.labels[perm]
        pairs = [None] * steps
        if cfg.apa_enabled and cfg.mixup_mode != "off":
            full_ys = ys[:, : full * batch_size].reshape(num * full, batch_size)
            gammas, partners = mixup_pairs(full_ys, step_rngs, cfg.alpha)
            gammas, partners = gammas.reshape(num, full, -1), partners.reshape(num, full, -1)
            pairs[:full] = [(gammas[:, s], partners[:, s]) for s in range(full)]
            if full < steps:
                pairs[full] = mixup_pairs(ys[:, full * batch_size :], rngs, cfg.alpha)
        for step in range(steps):
            batch = slice(step * batch_size, (step + 1) * batch_size)
            xb, yb = xs[:, batch], ys[:, batch]
            trace = forward(params, xb)
            h = trace.acts[-1]
            ce, d_logits = cross_entropy(trace.logits_2d, yb)
            d_features = zero_features[:, : h.shape[1]]
            gpcl = apa = np.zeros(num)
            if targets is not None:
                gpcl, g = gpcl_loss(h, yb, targets, cfg.tau)
                d_features = np.add(d_features, g, out=g)
            if cfg.apa_enabled:
                p_tilde = _apa_targets(params, h, xb, yb, pairs[step], cfg)
                apa, g = apa_loss(h, yb, p_tilde)
                d_features = np.add(d_features, g, out=g)
            # a finite sum means finite terms; only a failing step is searched client by client
            if not (np.isfinite(ce + gpcl + apa).all() and ce.max() <= MAX_STEP_CE):
                for j, c in enumerate(block):  # the lowest failing client id first
                    why = _bad_term(float(ce[j]), float(gpcl[j]), float(apa[j]))
                    if why is not None:
                        where = f"client {c.client_id}, local step {epoch * steps + step}"
                        return (epoch, step, c.client_id, f"{where}: {why}"), None, None
            backward(params, trace, d_logits, d_features, out=grads)
            sgd_step(params, grads, cfg.lr, cfg.weight_decay, out=params)
            sums += (ce, gpcl, apa)
    return None, params, sums / (cfg.epochs * steps)


def local_updates(
    clients: list[ClientState],
    global_params: ModelParams,
    generalized: PrototypeSet | None,
    cfg: ExperimentConfig,
) -> tuple[ModelParams, list[PrototypeSet], np.ndarray]:
    """Train the received global model on every client's data, one size
    block at a time (see the module docstring), then compute each client's
    local prototypes over its full dataset with its final model, one client
    at a time. Returns, in client-id order, the (M, P) trained parameters,
    the M local prototype sets and the (3, M) mean CE, GPCL and APA of each
    client over its batch steps.

    Each client's batch size is clamped to its dataset. A non-finite loss
    term, or a CE above MAX_STEP_CE, raises FloatingPointError naming the
    client, its local step (counted from 0 across epochs) and the term: at
    the first failing step, for the lowest failing client id, over all
    blocks (the other blocks finish their update first).
    """
    ordered = sorted(clients, key=lambda c: c.client_id)
    blocks: dict[int, list[int]] = {}  # dataset size -> positions in ordered
    for i, c in enumerate(ordered):
        if len(c.data) == 0:
            raise ValueError(f"client {c.client_id} has no data")
        blocks.setdefault(len(c.data), []).append(i)
    # GPCL's prototype matrix and norms are constants for the whole update
    targets = gpcl_targets(generalized) if cfg.gpcl_enabled and generalized is not None else None
    params = ModelParams(np.empty((len(ordered), global_params.flat.size)), global_params.shapes)
    means = np.empty((3, len(ordered)))
    failures = []
    for rows in blocks.values():
        block = [ordered[i] for i in rows]
        failure, block_params, block_means = _train_block(block, global_params, targets, cfg)
        if failure is not None:
            failures.append(failure)
            continue
        params.flat[rows], means[:, rows] = block_params.flat, block_means
    if failures:
        raise FloatingPointError(min(failures)[-1])

    # one client at a time: stacking every client's full dataset would hold
    # M times the activations for a forward that runs once a round
    protos = []
    for row, c in zip(params.flat, ordered):
        h = forward(ModelParams(row, params.shapes), c.data.x).acts[-1]
        protos.append(local_prototypes(h, c.data.labels, cfg.num_classes))
    return params, protos, means


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
        params, prototype_sets, means = local_updates(
            ordered, server.global_params, server.generalized, cfg
        )
    except FloatingPointError as exc:
        raise FloatingPointError(f"round {server.round}, {exc}") from exc

    new_global = aggregate_params(params, [len(c.data) for c in ordered])
    if cfg.aggregator_mode == "reweight":
        fresh, _ = reweight(prototype_sets)
        generalized = ema_update(fresh, server.generalized, cfg.beta)
    elif cfg.aggregator_mode == "average":
        generalized = average_prototypes(prototype_sets)
    else:
        raise ValueError(f"unknown aggregator mode {cfg.aggregator_mode!r}")

    accuracy = evaluate(new_global, test_sets)
    # Python's row-order sum: np.mean would sum pairwise, other bits from M = 8
    mean_losses = total_loss(*(sum(row.tolist()) / len(ordered) for row in means))
    # the average accuracy is the unweighted mean over domains
    average = sum(accuracy.values()) / len(accuracy)
    report = RoundReport(server.round, accuracy, average, mean_losses)
    return ServerState(server.round + 1, new_global, generalized), report


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
