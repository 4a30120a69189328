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

from dataclasses import dataclass

import numpy as np

from .numerics import check_batch, sample_beta

# Below this total distance the reweighting denominator carries no signal and
# weights fall back to uniform.
DEGENERATE_DISTANCE = 1e-12


@dataclass
class PrototypeSet:
    """Class-indexed centroids: row k of vectors (K, d) is class k's and
    support[k] its item (or client) count. A class is present when its
    support is positive; an absent class's row is zero. Per-batch sets of a
    size block's stacked clients carry a leading axis: (G, K, d) and (G, K)."""

    vectors: np.ndarray
    support: np.ndarray

    @property
    def present(self) -> np.ndarray:
        return self.support > 0

    def to_json_dict(self) -> dict:
        return {
            str(k): {"vector": [float(x) for x in self.vectors[k]], "support": int(self.support[k])}
            for k in np.flatnonzero(self.present)
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


def local_prototypes(features, labels, num_classes: int) -> PrototypeSet:
    """Per-class arithmetic mean of the feature rows; support = class count.

    Takes one batch, (N, d) features with (N,) labels, or a stack of G
    batches, (G, N, d) with (G, N), and returns the matching (K, d) or
    (G, K, d) set. One unbuffered ``np.add.at`` adds the rows into their
    (member, class) sums in row order from +0.0, as numpy's own axis-0 sum
    does, so for d >= 2 the result is bitwise ``h[y == k].mean(axis=0)``
    (numpy sums a single column pairwise; validate_config rejects d = 1).
    ``np.add.reduceat`` over the label-sorted rows differs in the last bits.
    """
    h, y = check_batch(features, labels, num_classes)
    hs, ys = (h, y) if h.ndim == 3 else (h[None], y[None])
    d = h.shape[-1]
    cells = (ys + num_classes * np.arange(len(ys))[:, None]).reshape(-1)  # flat (member, class)
    counts = np.bincount(cells, minlength=len(ys) * num_classes).reshape(len(ys), num_classes)
    sums = np.zeros(counts.shape + (d,))
    # one flat index per element, as numpy's fast add.at path is the 1-D one
    np.add.at(sums.reshape(-1), (cells[:, None] * d + np.arange(d)).reshape(-1), hs.reshape(-1))
    present = counts[..., None] > 0
    vectors = np.divide(sums, counts[..., None], out=np.zeros_like(sums), where=present)
    return PrototypeSet(vectors, counts) if h.ndim == 3 else PrototypeSet(vectors[0], counts[0])


def mixup_pairs(labels, rngs, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Draw (gamma, partner index) for every sample of a block: (G, n) labels,
    a batch per row, with one Generator per row, or one (n,) batch with one
    Generator. A Generator may recur: a block's update passes an epoch's
    full batches, each member's in step order with its Generator on each.

    The partner is uniform over the rows of the same batch with another
    label. Only the draws are per row, from its own Generator in row order:
    all n gammas from ``sample_beta(rng, alpha, n)``, then all n partner
    ranks, ``rng.integers(pool_sizes)``, a rank counting the batch's rows of
    other classes in stable label-sorted order. The bookkeeping (class
    counts, own-class offsets, sort, partner lookup) runs once for the whole
    call. A batch of one class has no partner: its samples get partner -1
    and gamma 1.0 and its Generator draws nothing, so each row's draws are a
    pure function of its labels.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    y = np.asarray(labels, dtype=np.int64)
    ys, rngs = (y, rngs) if y.ndim == 2 else (y[None], [rngs])
    g, n = ys.shape
    k = int(ys.max()) + 1
    cells = ys + k * np.arange(g)[:, None]  # flat index of each (row, label)
    counts = np.bincount(cells.reshape(-1), minlength=g * k).reshape(g, k)
    own = counts.reshape(-1)[cells]
    start = (np.cumsum(counts, axis=1) - counts).reshape(-1)[cells]
    mixes = np.count_nonzero(counts, axis=1) >= 2
    pools = n - own
    gammas, ranks = np.ones((g, n)), np.zeros((g, n), dtype=np.int64)
    for j in np.flatnonzero(mixes):
        gammas[j] = sample_beta(rngs[j], alpha, n)
        ranks[j] = rngs[j].integers(pools[j])
    # skip the own class at [start, start + own); a partnerless row reads row 0, gets -1
    pos = np.where(mixes[:, None], ranks + own * (ranks >= start), 0)
    order = np.argsort(ys, axis=1, kind="stable")
    partners = np.where(mixes[:, None], order.reshape(-1)[pos + n * np.arange(g)[:, None]], -1)
    return (gammas, partners) if y.ndim == 2 else (gammas[0], partners[0])


def mix_rows(rows: np.ndarray, gammas: np.ndarray, partners: np.ndarray) -> np.ndarray:
    """Apply mixup pairs to the rows of a batch (B, n), or of a stack of
    batches (G, B, n) with (G, B) pairs: ``gamma*row + (1-gamma)*partner``,
    the partner a row of the same batch. Partner -1 (a one-class batch) must
    come with gamma 1.0, as mixup_pairs gives it: the row mixes with itself,
    and ``1.0*x + 0.0*x`` keeps the bits of every finite x, -0.0 included."""
    b = rows.shape[-2]
    mates = np.where(partners >= 0, partners, np.arange(b))
    batch_start = b * np.arange(partners.size // b).reshape(partners.shape[:-1] + (1,))
    g = gammas[..., None]
    return g * rows + (1.0 - g) * rows.reshape(-1, rows.shape[-1])[mates + batch_start]


def _class_means(client_sets: list[PrototypeSet]):
    """The per-class client mean, one local_prototypes pass over the (R, d)
    vectors of every present (client, class) pair in client-major order, and
    those rows with each one's (R,) client position and (R,) class."""
    owners, classes = np.nonzero(np.stack([cs.present for cs in client_sets]))
    rows = np.stack([cs.vectors for cs in client_sets])[owners, classes]
    return local_prototypes(rows, classes, client_sets[0].vectors.shape[0]), rows, owners, classes


def average_prototypes(client_sets: list[PrototypeSet]) -> PrototypeSet:
    """Unweighted per-class mean over the clients that possess the class;
    support counts contributing clients. The plain averaging aggregator. An
    empty list, or sets holding no class at all, raise ValueError; no run
    builds either, as each client set comes from at least one sample row."""
    return _class_means(client_sets)[0]


def reweight(client_sets: list[PrototypeSet]) -> tuple[PrototypeSet, ReweightReport]:
    """Distance-reweighted combination: per class, clients further from the
    per-class client mean (average_prototypes' bits) get proportionally more
    weight; d_m is the squared L2 distance from it.

    Weights are d_m / sum(d_m); when the distances are degenerate (all
    contributing prototypes coincide with the mean, including the
    single-client case) they fall back to uniform and the report flags it.
    """
    means, rows, owners, classes = _class_means(client_sets)
    out = np.zeros_like(means.vectors)
    report: dict[int, ClassReweight] = {}
    for k in np.flatnonzero(means.present):
        stacked = rows[classes == k]
        dists = np.array([np.dot(diff, diff) for diff in stacked - means.vectors[k]])
        total = float(dists.sum())
        fallback = total < DEGENERATE_DISTANCE
        weights = np.full(len(stacked), 1.0 / len(stacked)) if fallback else dists / total
        out[k] = (weights[:, None] * stacked).sum(axis=0)
        report[int(k)] = ClassReweight(owners[classes == k].tolist(), dists, weights, fallback)
    return PrototypeSet(out, means.support), ReweightReport(report)


def ema_update(
    g_new: PrototypeSet, g_prev: PrototypeSet | None, beta: float
) -> PrototypeSet:
    """beta * g_new + (1 - beta) * g_prev per class. A class absent from the
    previous set (or a missing previous set entirely) passes through from
    g_new; a class absent from g_new is carried forward from g_prev
    unchanged, so no class the clients were trained against disappears."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError("beta must lie in [0, 1]")
    if g_prev is None:
        return g_new
    new, prev = g_new.present[:, None], g_prev.present[:, None]
    blended = beta * g_new.vectors + (1.0 - beta) * g_prev.vectors
    vectors = np.where(new, np.where(prev, blended, g_new.vectors), g_prev.vectors)
    return PrototypeSet(vectors, np.where(g_new.present, g_new.support, g_prev.support))
