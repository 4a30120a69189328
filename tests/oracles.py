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
from protofed.datagen import PartitionPlan, make_domains, partition
from protofed.federation import RoundReport
from protofed.losses import LossBreakdown, apa_loss, cross_entropy, gpcl_loss
from protofed.model import (
    ModelParams,
    backward,
    forward,
    init_params,
    params_from_layers,
    sgd_step,
)
from protofed.numerics import EPS_NORM, STREAM_DATA, STREAM_INIT, Rng
from protofed.prototypes import PrototypeSet


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
    classes = sorted({k for cs in client_sets for k in cs.entries})
    out: dict[int, list[float]] = {}
    for k in classes:
        vecs = [list(cs.vector(k)) for cs in client_sets if k in cs]
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
        loss += gpcl_loss(h, y, generalized, tau)[0]
    if p_tilde is not None:
        loss += apa_loss(h, y, p_tilde)[0]
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
        d_features += gpcl_loss(h, y, generalized, tau)[1]
    if p_tilde is not None:
        d_features += apa_loss(h, y, p_tilde)[1]
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
    rng_data = Rng(cfg.seed, STREAM_DATA)
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
    plan = PartitionPlan(
        {dom: count for dom, count in enumerate(cfg.clients_per_domain) if count > 0},
        cfg.sampling_rate,
    )
    splits, test_sets = partition(domain_data, plan, rng_data)
    global_params = init_params(Rng(cfg.seed, STREAM_INIT), list(cfg.arch), cfg.num_classes)
    client_rngs = {s.client_id: Rng(cfg.seed, s.client_id) for s in splits}

    reports = []
    for round_idx in range(cfg.rounds):
        trained: list[ModelParams] = []
        ce_means: list[float] = []
        for split in splits:
            params = global_params
            n = len(split.data)
            bs = min(cfg.batch_size, n)
            ce_sum = 0.0
            steps = 0
            for _ in range(cfg.epochs):
                order = client_rngs[split.client_id].permutation(n)
                for start in range(0, n, bs):
                    idx = order[start : start + bs]
                    trace = forward(params, split.data.x[idx])
                    ce, d_logits = cross_entropy(trace.logits_2d, split.data.labels[idx])
                    grads = backward(params, trace, d_logits, np.zeros_like(trace.acts[-1]))
                    params = sgd_step(params, grads, cfg.lr, cfg.weight_decay)
                    ce_sum += ce
                    steps += 1
            trained.append(params)
            ce_means.append(ce_sum / steps)

        counts = np.asarray([len(s.data) for s in splits], dtype=np.float64)
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
