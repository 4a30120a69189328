"""The three client-side loss terms and their gradients.

Every loss takes a stack of batches with a leading client axis, (G, B, ·),
and returns (per-batch array, gradient array), each batch's part bitwise
that of the batch alone; cross-entropy also takes a single (B, K) batch
and then returns a float. Prototype arguments are constants: no gradient
flows into the generalized prototypes (server-supplied) or into the
augmented prototypes (recomputed per batch and used as alignment targets).
The total objective is the plain unweighted sum of the three terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EPS_NORM, check_batch
from .prototypes import PrototypeSet


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    gpcl: float
    apa: float
    total: float


def total_loss(ce: float, gpcl: float, apa: float) -> LossBreakdown:
    """Unweighted sum; disabled terms arrive here as exact zeros."""
    for v in (ce, gpcl, apa):
        if not np.isfinite(v):
            raise ValueError("loss terms must be finite")
    return LossBreakdown(ce, gpcl, apa, ce + gpcl + apa)


def _softmax_xent(z: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """-log softmax(z)[target] per row over the last axis, and its unscaled
    gradient softmax(z) - onehot(target); each caller applies its own scale."""
    picks = target.reshape(-1) + z.shape[-1] * np.arange(target.size)  # flat z[..., target]
    top = z[..., 0]  # the row max: a fold is exact, and cheaper than z.max(-1) at few classes
    for col in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., col])
    shifted = z - top[..., None]
    lse = np.log(np.exp(shifted).sum(axis=-1))
    grad = np.exp(shifted - lse[..., None])
    grad.reshape(-1)[picks] -= 1.0
    return lse - shifted.reshape(-1)[picks].reshape(target.shape), grad


def cross_entropy(logits, labels) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean -log softmax(z)[y] over the batch; grad rows (softmax - onehot)/B.

    (B, K) logits with (B,) labels give a float loss. A leading client axis,
    (M, B, K) with (M, B) labels, gives an (M,) array of per-client losses,
    each bitwise the loss of that client's batch alone.
    """
    z, y = check_batch(logits, labels, np.shape(logits)[-1])
    b = z.shape[-2]
    rows, grad = _softmax_xent(z, y)
    loss = rows.sum(axis=-1) / b
    return (float(loss) if z.ndim == 2 else loss), grad / b


@dataclass(frozen=True)
class GpclTargets:
    """The generalized prototypes as GPCL reads them, prepared once per
    local update (they are constants there)."""

    protos: np.ndarray  # (C, d): the present prototypes, in class order
    norms: np.ndarray  # (C,): their norms, floored at EPS_NORM
    row_of: np.ndarray  # (K,): each class id's row in protos, -1 if absent


def gpcl_targets(generalized: PrototypeSet) -> GpclTargets:
    present = generalized.present
    if not present.any():
        raise ValueError("generalized prototype set is empty")
    protos = generalized.vectors[present]
    norms = np.maximum(np.linalg.norm(protos, axis=1), EPS_NORM)
    return GpclTargets(protos, norms, np.where(present, np.cumsum(present) - 1, -1))


def _cosine_matrix(h: np.ndarray, protos: np.ndarray, ng: np.ndarray):
    """Pairwise cosine similarities with the norm floor, for one batch or a
    stack; ng are the prototypes' floored norms. Returns the raw (unclamped)
    matrix plus the feature norms, raw and floored, that the Jacobian needs."""
    norms = np.sqrt(np.add.reduce(h * h, -1))  # np.linalg.norm's own formula, without its checks
    nh = np.maximum(norms, EPS_NORM)
    return (h @ protos.T) / (nh[..., None] * ng), norms, nh


def gpcl_loss(features, labels, targets: GpclTargets, tau: float):
    """Contrastive pull toward the same-class generalized prototype.

    Softmax over cosine similarities to every generalized prototype at
    temperature tau; the positive is the prototype of the sample's own class.
    Prototypes are constants; the gradient w.r.t. each feature goes through
    the cosine-similarity Jacobian. Takes (G, B, d) features with (G, B)
    labels and returns the (G,) losses and the (G, B, d) gradient.
    """
    h, y = check_batch(features, labels, targets.row_of.size, stacked=True)
    if tau <= 0:
        raise ValueError("tau must be > 0")
    pos = targets.row_of[y]
    if (pos < 0).any():
        missing = sorted({int(v) for v in y[pos < 0]})
        raise ValueError(f"labels {missing} have no generalized prototype")
    protos, ng = targets.protos, targets.norms
    sims_raw, norms, nh = _cosine_matrix(h, protos, ng)
    sims = np.minimum(np.maximum(sims_raw, -1.0), 1.0)  # np.clip's bits, cheaper

    rows, dsim = _softmax_xent(sims / tau, pos)
    loss = np.add.reduce(rows, -1) / h.shape[-2]  # np.mean's sum and division
    dsim /= h.shape[-2] * tau
    dsim[np.abs(sims_raw) > 1.0] = 0.0  # clamp region: flat

    # d s_ik / d h_i = p_k / (|h| |p_k|) - s_ik * h_i / |h|^2 on the interior;
    # when the norm floor binds, |h| is constant and the second term vanishes.
    grad = (dsim / ng) @ protos / nh[..., None]
    interior = (norms >= EPS_NORM).astype(np.float64)
    grad -= ((dsim * sims_raw).sum(axis=-1) * interior / nh**2)[..., None] * h
    return loss, grad


def apa_loss(features, labels, p_tilde: PrototypeSet):
    """Squared-L2 pull toward the augmented prototype of the sample's class.

    Per-sample mean (1/B) sum_i |h_i - p~_{y_i}|^2, samples whose class has
    no augmented prototype contributing zero. Takes (G, B, d) features with
    (G, B) labels and a (G, K, d) set; returns the (G,) losses and the
    (G, B, d) gradient.
    """
    h, y = check_batch(features, labels, p_tilde.vectors.shape[-2], stacked=True)
    b, k = h.shape[-2], p_tilde.vectors.shape[-2]
    rows = y + k * np.arange(len(y))[:, None]  # each sample's row of the (G * K, d) set
    counted = p_tilde.present.reshape(-1)[rows][..., None]
    diff = (h - p_tilde.vectors.reshape(-1, h.shape[-1])[rows]) * counted
    loss = (diff * diff).reshape(len(h), -1).sum(axis=-1) / b
    # a batch with no counted sample has an exactly zero gradient
    grad = np.where(counted.any(axis=-2, keepdims=True), 2.0 * diff / b, 0.0)
    return loss, grad
