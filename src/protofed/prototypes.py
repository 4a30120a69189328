"""Prototype constructions, client- and server-side.

Clients build per-class feature centroids (plain and MixUp-augmented); the
server combines the uploaded centroids into generalized prototypes via the
per-class client mean, distance-based reweighting, and an EMA across rounds.
The per-class client mean alone is the plain averaging aggregator of the
ablation baseline.

Classes missing from some clients are averaged over the clients that do have
them; zero-vector placeholders would drag means toward the origin and invent
distance mass, so absent classes are simply skipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, sample_beta, sq_l2_distance

# Below this total distance the reweighting denominator carries no signal and
# weights fall back to uniform.
DEGENERATE_DISTANCE = 1e-12

@dataclass(frozen=True)
class Prototype:
    vector: np.ndarray
    support: int


@dataclass
class PrototypeSet:
    """Class id -> (centroid vector, contributing item count)."""

    entries: dict[int, Prototype]

    def classes(self) -> list[int]:
        return sorted(self.entries)

    def vector(self, class_id: int) -> np.ndarray:
        return self.entries[class_id].vector

    def support(self, class_id: int) -> int:
        return self.entries[class_id].support

    @property
    def dim(self) -> int:
        return next(iter(self.entries.values())).vector.shape[0]

    def __contains__(self, class_id: int) -> bool:
        return class_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def to_json_dict(self) -> dict:
        return {
            str(k): {"vector": [float(x) for x in p.vector], "support": int(p.support)}
            for k, p in sorted(self.entries.items())
        }


@dataclass
class ClassReweight:
    """Reweighting diagnostics for one class."""

    clients: list[int]  # positions in the client_sets argument
    distances: np.ndarray
    weights: np.ndarray
    fallback: bool  # uniform weights used because distances were degenerate


@dataclass
class ReweightReport:
    per_class: dict[int, ClassReweight]


def _as_features(features, labels) -> tuple[np.ndarray, np.ndarray]:
    h = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if h.ndim != 2:
        raise ValueError("features must be a (N, d) array")
    if y.shape != (h.shape[0],):
        raise ValueError("labels must be a (N,) array matching features")
    return h, y


def local_prototypes(features, labels) -> PrototypeSet:
    """Per-class arithmetic mean of the feature rows; support = class count."""
    h, y = _as_features(features, labels)
    if h.shape[0] == 0:
        raise ValueError("cannot build prototypes from an empty feature set")
    entries = {}
    for k in np.unique(y):
        rows = h[y == k]
        entries[int(k)] = Prototype(rows.mean(axis=0), rows.shape[0])
    return PrototypeSet(entries)


def mixup_pairs(labels, rng: Rng, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw (gamma, partner index) for every sample in input order.

    The partner is uniform over samples with a different label. Samples with
    no cross-class partner get partner -1 and gamma 1.0 and consume no draws,
    so the draw sequence is a pure function of the label layout.
    """
    y = np.asarray(labels, dtype=np.int64)
    n = y.shape[0]
    gammas = np.ones(n)
    partners = np.full(n, -1, dtype=np.int64)
    idx = np.arange(n)
    pools = {int(k): idx[y != k] for k in np.unique(y)}
    for i in range(n):
        pool = pools[int(y[i])]
        if pool.size == 0:
            continue
        gammas[i] = sample_beta(rng, alpha)
        partners[i] = pool[rng.integers(pool.size)]
    return gammas, partners


def mix_rows(rows: np.ndarray, gammas: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """Apply mixup pairs to the rows of an array; partner -1 keeps the row."""
    mixed = rows.copy()
    has = partners >= 0
    g = gammas[has][:, None]
    mixed[has] = g * rows[has] + (1.0 - g) * rows[partners[has]]
    return mixed


def average_prototypes(client_sets: list[PrototypeSet]) -> PrototypeSet:
    """Unweighted per-class mean over the clients that possess the class;
    support counts contributing clients. It is the mean that reweight()
    measures distances from, and on its own the plain averaging aggregator."""
    if not client_sets:
        raise ValueError("need at least one client prototype set")
    all_classes = sorted({k for cs in client_sets for k in cs.entries})
    entries = {}
    for k in all_classes:
        vecs = [cs.vector(k) for cs in client_sets if k in cs]
        entries[k] = Prototype(np.mean(np.stack(vecs), axis=0), len(vecs))
    return PrototypeSet(entries)


def reweight(
    client_sets: list[PrototypeSet], mu: PrototypeSet
) -> tuple[PrototypeSet, ReweightReport]:
    """Distance-reweighted combination: per class, clients further from the
    per-class mean get proportionally more weight.

    Weights are d_m / sum(d_m); when the distances are degenerate (all
    contributing prototypes coincide with the mean, including the
    single-client case) they fall back to uniform and the report flags it.
    """
    if not client_sets:
        raise ValueError("need at least one client prototype set")
    entries = {}
    report: dict[int, ClassReweight] = {}
    all_classes = sorted({k for cs in client_sets for k in cs.entries})
    for k in all_classes:
        if k not in mu:
            raise ValueError(f"class {k} present in client sets but missing from mean")
        contrib = [(m, cs.vector(k)) for m, cs in enumerate(client_sets) if k in cs]
        mu_k = mu.vector(k)
        dists = np.array([sq_l2_distance(p, mu_k) for _, p in contrib])
        total = float(dists.sum())
        if total < DEGENERATE_DISTANCE:
            weights = np.full(len(contrib), 1.0 / len(contrib))
            fallback = True
        else:
            weights = dists / total
            fallback = False
        stacked = np.stack([p for _, p in contrib])
        g_k = (weights[:, None] * stacked).sum(axis=0)
        entries[k] = Prototype(g_k, len(contrib))
        report[k] = ClassReweight([m for m, _ in contrib], dists, weights, fallback)
    return PrototypeSet(entries), ReweightReport(report)


def ema_update(
    g_new: PrototypeSet, g_prev: PrototypeSet | None, beta: float
) -> PrototypeSet:
    """beta * g_new + (1 - beta) * g_prev per class; classes absent from the
    previous set (or a missing previous set entirely) pass through unchanged."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if g_prev is None:
        return g_new
    entries = {}
    for k, proto in g_new.entries.items():
        if k in g_prev:
            blended = beta * proto.vector + (1.0 - beta) * g_prev.vector(k)
            entries[k] = Prototype(blended, proto.support)
        else:
            entries[k] = proto
    return PrototypeSet(entries)


def save_prototypes_json(pset: PrototypeSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(pset.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")

