"""Deliberately naive, independently coded reference implementations.

These exist only to validate the optimized library paths and never ship with
the package. Everything here favors obvious scalar loops over speed; the
federated oracle reuses the library's model/data primitives but re-codes the
training loop, aggregation and evaluation from scratch.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from protofed.config import ExperimentConfig
from protofed.datagen import make_domains, partition
from protofed.federation import RoundReport
from protofed.losses import (
    LossBreakdown,
    apa_loss,
    cross_entropy,
    gpcl_loss,
    gpcl_targets,
)
from protofed.model import (
    ModelParams,
    backward,
    forward,
    init_params,
    params_from_layers,
    sgd_step,
)
from protofed.numerics import EPS_NORM, STREAM_DATA, STREAM_INIT, keyed_rng
from protofed.prototypes import PrototypeSet


@dataclass(frozen=True)
class Prototype:
    vector: np.ndarray
    support: int


@dataclass
class DictPrototypeSet:
    """Class id -> (centroid vector, contributing item count): the sparse
    reading of a dense PrototypeSet that the per-client oracles work on."""

    entries: dict[int, Prototype]

    def classes(self) -> list[int]:
        return sorted(self.entries)

    def vector(self, class_id: int) -> np.ndarray:
        return self.entries[class_id].vector

    def support(self, class_id: int) -> int:
        return self.entries[class_id].support

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def to_dense(self, num_classes: int | None = None) -> PrototypeSet:
        """The dense (K, d) set with these classes present; K defaults to
        one past the largest class id."""
        k = max(self.entries) + 1 if num_classes is None else num_classes
        dim = next(iter(self.entries.values())).vector.shape[0]
        vectors = np.zeros((k, dim))
        support = np.zeros(k, dtype=np.int64)
        for c, proto in self.entries.items():
            vectors[c] = proto.vector
            support[c] = proto.support
        return PrototypeSet(vectors, support)


def as_dict_set(pset: PrototypeSet) -> DictPrototypeSet:
    """The present classes of a dense (K, d) set, as a DictPrototypeSet."""
    present = np.flatnonzero(pset.present)
    return DictPrototypeSet(
        {int(k): Prototype(pset.vectors[k], int(pset.support[k])) for k in present}
    )


def gpcl_one_batch(h, y, targets, tau: float) -> tuple[float, np.ndarray]:
    """gpcl_loss of a single (B, d) batch, run as a stack of one."""
    loss, grad = gpcl_loss(np.asarray(h)[None], np.asarray(y)[None], targets, tau)
    return float(loss[0]), grad[0]


def apa_one_batch(h, y, p_tilde: PrototypeSet):
    """apa_loss of a single (B, d) batch against a (K, d) set, run as a
    stack of one; returns (float loss, (B, d) gradient)."""
    stacked = PrototypeSet(p_tilde.vectors[None], p_tilde.support[None])
    loss, grad = apa_loss(np.asarray(h)[None], np.asarray(y)[None], stacked)
    return float(loss[0]), grad[0]


@dataclass
class OracleReport:
    max_abs_deviation: float
    max_rel_deviation: float
    case_count: int


def dump_repro(path, payload: dict) -> None:
    """Serialize a failing instance so it can be replayed by hand."""

    def default(obj):
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer, np.floating)):
            return obj.item()
        raise TypeError(f"cannot serialize {type(obj)}")

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=default)


def naive_reweight(client_sets: list[PrototypeSet]) -> dict[int, list[float]]:
    """Scalar-loop transliteration of the mean + distance-reweighting scheme.

    Shares no arithmetic with the library: means, distances and weighted sums
    are all explicit per-coordinate loops.
    """
    classes = sorted({int(k) for cs in client_sets for k in np.flatnonzero(cs.support > 0)})
    out: dict[int, list[float]] = {}
    for k in classes:
        vecs = [list(cs.vectors[k]) for cs in client_sets if cs.support[k] > 0]
        dim = len(vecs[0])
        mu = [0.0] * dim
        for v in vecs:
            for i in range(dim):
                mu[i] += v[i]
        for i in range(dim):
            mu[i] /= len(vecs)
        dists = []
        for v in vecs:
            acc = 0.0
            for i in range(dim):
                diff = v[i] - mu[i]
                acc += diff * diff
            dists.append(acc)
        total = math.fsum(dists)
        if total < 1e-12:
            weights = [1.0 / len(vecs)] * len(vecs)
        else:
            weights = [d / total for d in dists]
        g = [0.0] * dim
        for w, v in zip(weights, vecs):
            for i in range(dim):
                g[i] += w * v[i]
        out[k] = g
    return out


def cosine_similarity(u, v) -> float:
    """u.v / (max(|u|, eps) * max(|v|, eps)), clamped to [-1, 1], for two
    vectors of equal nonzero dimension; the per-pair reading of the cosine
    matrix inside the GPCL loss."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("expected 1-D vectors")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    if u.size == 0:
        raise ValueError("vectors must have dimension >= 1")
    denom = max(float(np.linalg.norm(u)), EPS_NORM) * max(float(np.linalg.norm(v)), EPS_NORM)
    return float(np.clip(float(np.dot(u, v)) / denom, -1.0, 1.0))


def _as_features(features, labels) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if h.ndim != 2:
        raise ValueError("features must be a (N, d) array")
    if y.shape != (h.shape[0],):
        raise ValueError("labels must be a (N,) array matching features")
    return h, y


def naive_local_prototypes(features, labels) -> DictPrototypeSet:
    """Per-class arithmetic mean of the feature rows; support = class count.
    One client, one class at a time: the oracle of the padded
    prototypes.local_prototypes."""
    h, y = _as_features(features, labels)
    if h.shape[0] == 0:
        raise ValueError("cannot build prototypes from an empty feature set")
    entries = {}
    for k in np.unique(y):
        rows = h[y == k]
        entries[int(k)] = Prototype(rows.mean(axis=0), rows.shape[0])
    return DictPrototypeSet(entries)


def naive_mixup_pairs(labels, seed: int, stream: int, alpha: float) -> tuple[list, list]:
    """Replay of prototypes.mixup_pairs' documented draw order, one scalar
    draw at a time from a fresh Philox generator keyed (seed, stream):
    every sample's gamma in row order, then every sample's partner rank in
    row order, the rank indexing an explicit list of the sample's
    other-class rows sorted by (label, row). A sample without such rows
    keeps gamma 1.0 and partner -1 and draws nothing."""
    y = [int(v) for v in labels]
    n = len(y)
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    by_label = sorted(range(n), key=lambda j: (y[j], j))
    pools = [[j for j in by_label if y[j] != y[i]] for i in range(n)]
    gammas, partners = [1.0] * n, [-1] * n
    for i in range(n):
        if pools[i]:
            gammas[i] = min(max(float(gen.beta(alpha, alpha)), 5e-324), 1.0 - 2**-53)
    for i in range(n):
        if pools[i]:
            partners[i] = pools[i][int(gen.integers(0, len(pools[i])))]
    return gammas, partners


def _check_batch(rows, labels) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError("expected a nonempty (B, n) array")
    if y.shape != (a.shape[0],):
        raise ValueError("labels must match the batch size")
    return a, y


def _cosine_matrix(h: np.ndarray, protos: np.ndarray):
    """Pairwise cosine similarities with the norm floor; returns the raw
    (unclamped) matrix plus the floored norms needed for the Jacobian."""
    nh = np.maximum(np.linalg.norm(h, axis=1), EPS_NORM)
    ng = np.maximum(np.linalg.norm(protos, axis=1), EPS_NORM)
    sims = (h @ protos.T) / (nh[:, None] * ng[None, :])
    return sims, nh, ng


def naive_gpcl_loss(
    features, labels, generalized: DictPrototypeSet, tau: float
) -> tuple[float, np.ndarray]:
    """GPCL of one client's batch against a DictPrototypeSet, one sample's
    positive at a time: the oracle of the stacked dense losses.gpcl_loss."""
    h, y = _check_batch(features, labels)
    if tau <= 0:
        raise ValueError("tau must be > 0")
    if len(generalized) == 0:
        raise ValueError("generalized prototype set is empty")
    classes = generalized.classes()
    pos_index = {k: i for i, k in enumerate(classes)}
    missing = sorted({int(v) for v in y} - set(classes))
    if missing:
        raise ValueError(f"labels {missing} have no generalized prototype")

    protos = np.stack([generalized.vector(k) for k in classes])
    sims_raw, nh, ng = _cosine_matrix(h, protos)
    sims = np.clip(sims_raw, -1.0, 1.0)

    b = h.shape[0]
    pos = np.array([pos_index[int(v)] for v in y])
    z = sims / tau
    shifted = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    loss = float(np.mean(lse - shifted[np.arange(b), pos]))

    softmax = np.exp(shifted - lse[:, None])
    dsim = softmax.copy()
    dsim[np.arange(b), pos] -= 1.0
    dsim /= b * tau
    dsim[np.abs(sims_raw) > 1.0] = 0.0  # clamp region: flat

    # d s_ik / d h_i = p_k / (|h| |p_k|) - s_ik * h_i / |h|^2 on the interior;
    # when the norm floor binds, |h| is constant and the second term vanishes.
    grad = (dsim / ng[None, :]) @ protos / nh[:, None]
    interior = (np.linalg.norm(h, axis=1) >= EPS_NORM).astype(np.float64)
    grad -= ((dsim * sims_raw).sum(axis=1) * interior / nh**2)[:, None] * h
    return loss, grad


def naive_apa_loss(features, labels, p_tilde: DictPrototypeSet) -> tuple[float, np.ndarray]:
    """APA of one client's batch against a DictPrototypeSet, one sample at a
    time: the oracle of the stacked dense losses.apa_loss."""
    h, y = _check_batch(features, labels)
    b, d = h.shape
    grad = np.zeros_like(h)
    counted = np.array([int(v) in p_tilde for v in y])
    if not counted.any():
        return 0.0, grad
    targets = np.stack([p_tilde.vector(int(v)) if c else np.zeros(d) for v, c in zip(y, counted)])
    diff = (h - targets) * counted[:, None]
    loss = float((diff * diff).sum() / b)
    grad = 2.0 * diff / b
    return loss, grad


def finite_diff_grad(loss_fn, point: np.ndarray, step: float) -> np.ndarray:
    """Central differences (f(x+he) - f(x-he)) / 2h, coordinate by coordinate."""
    if step <= 0:
        raise ValueError("step must be > 0")
    point = np.asarray(point, dtype=np.float64)
    grad = np.zeros_like(point)
    flat = point.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn(point)
        flat[i] = orig - step
        lo = loss_fn(point)
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * step)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Vector-norm relative error |a - f| / max(|a|, |f|)."""
    a = np.asarray(analytic).reshape(-1)
    f = np.asarray(numeric).reshape(-1)
    denom = max(float(np.linalg.norm(a)), float(np.linalg.norm(f)), 1e-300)
    return float(np.linalg.norm(a - f)) / denom


def total_objective(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    generalized: PrototypeSet | None,
    p_tilde: PrototypeSet | None,
    tau: float,
) -> float:
    """CE + GPCL + APA with both prototype sets held fixed (stop-gradient)."""
    trace = forward(params, x)
    loss, _ = cross_entropy(trace.logits_2d, y)
    h = trace.acts[-1]
    if generalized is not None:
        loss += gpcl_one_batch(h, y, gpcl_targets(generalized), tau)[0]
    if p_tilde is not None:
        loss += apa_one_batch(h, y, p_tilde)[0]
    return loss


def analytic_total_grads(
    params: ModelParams,
    x: np.ndarray,
    y: np.ndarray,
    generalized: PrototypeSet | None,
    p_tilde: PrototypeSet | None,
    tau: float,
):
    trace = forward(params, x)
    h = trace.acts[-1]
    _, d_logits = cross_entropy(trace.logits_2d, y)
    d_features = np.zeros_like(h)
    if generalized is not None:
        d_features += gpcl_one_batch(h, y, gpcl_targets(generalized), tau)[1]
    if p_tilde is not None:
        d_features += apa_one_batch(h, y, p_tilde)[1]
    return backward(params, trace, d_logits, d_features)


def _layer_arrays(params: ModelParams) -> list[np.ndarray]:
    """W0, b0, ..., Wc, bc as separate arrays, read layer by layer."""
    return [a for layer in params.extractor + [params.classifier] for a in layer]


def naive_fedavg_loop(cfg: ExperimentConfig) -> list[RoundReport]:
    """Minimal FedAvg: CE-only local SGD, dataset-size-weighted averaging,
    per-domain argmax evaluation. Re-codes the loop, aggregation and eval;
    reuses the library's model/data primitives so the degenerate federation
    mode must match it bitwise.
    """
    rng_data = keyed_rng(cfg.seed, STREAM_DATA)
    domain_data = make_domains(
        cfg.num_classes,
        cfg.num_domains,
        cfg.input_dim,
        cfg.per_class_count,
        rng_data,
        noise_sigma=cfg.data_noise,
        anchor_scale=cfg.data_anchor_scale,
        shift=cfg.data_shift,
    )
    allocation = {dom: count for dom, count in enumerate(cfg.clients_per_domain) if count > 0}
    client_data, test_sets = partition(domain_data, allocation, cfg.sampling_rate, rng_data)
    global_params = init_params(keyed_rng(cfg.seed, STREAM_INIT), list(cfg.arch), cfg.num_classes)
    client_rngs = [keyed_rng(cfg.seed, client_id) for client_id in range(len(client_data))]

    reports = []
    for round_idx in range(cfg.rounds):
        trained: list[ModelParams] = []
        ce_means: list[float] = []
        for client_id, data in enumerate(client_data):
            params = global_params
            n = len(data)
            bs = min(cfg.batch_size, n)
            ce_sum = 0.0
            steps = 0
            for _ in range(cfg.epochs):
                order = client_rngs[client_id].permutation(n)
                for start in range(0, n, bs):
                    idx = order[start : start + bs]
                    trace = forward(params, data.x[idx])
                    ce, d_logits = cross_entropy(trace.logits_2d, data.labels[idx])
                    grads = backward(params, trace, d_logits, np.zeros_like(trace.acts[-1]))
                    params = sgd_step(params, grads, cfg.lr, cfg.weight_decay)
                    ce_sum += ce
                    steps += 1
            trained.append(params)
            ce_means.append(ce_sum / steps)

        counts = np.asarray([len(data) for data in client_data], dtype=np.float64)
        weights = counts / counts.sum()
        acc_arrays = [weights[0] * a for a in _layer_arrays(trained[0])]
        for w, params in zip(weights[1:], trained[1:]):
            for j, a in enumerate(_layer_arrays(params)):
                acc_arrays[j] = acc_arrays[j] + w * a
        global_params = params_from_layers(list(zip(acc_arrays[::2], acc_arrays[1::2])))

        per_domain = {}
        for dom in sorted(test_sets):
            ts = test_sets[dom]
            logits = forward(global_params, ts.x).logits_2d
            preds = np.argmax(logits, axis=1)
            hits = int((preds == ts.labels).sum())
            per_domain[dom] = hits / len(ts)
        avg = sum(per_domain.values()) / len(per_domain)
        mean_ce = sum(ce_means) / len(ce_means)
        reports.append(
            RoundReport(
                round_idx,
                per_domain,
                avg,
                LossBreakdown(mean_ce, 0.0, 0.0, mean_ce + 0.0 + 0.0),
            )
        )
    return reports
