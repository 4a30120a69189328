"""The three client-side loss terms and their gradients.

Every loss returns (scalar, per-sample gradient array). Prototype arguments
are treated as constants: no gradient flows into the generalized prototypes
(server-supplied) or into the augmented prototypes (recomputed per batch and
used as alignment targets). The total objective is the plain unweighted sum
of the three terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import EPS_NORM
from .prototypes import PrototypeSet


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    gpcl: float
    apa: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return {"ce": self.ce, "gpcl": self.gpcl, "apa": self.apa, "total": self.total}


def total_loss(ce: float, gpcl: float, apa: float) -> LossBreakdown:
    """Unweighted sum; disabled terms arrive here as exact zeros."""
    for v in (ce, gpcl, apa):
        if not np.isfinite(v):
            raise ValueError("loss terms must be finite")
    return LossBreakdown(ce, gpcl, apa, ce + gpcl + apa)


def _check_batch(rows, labels) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise ValueError("expected a nonempty (B, n) array")
    if y.shape != (a.shape[0],):
        raise ValueError("labels must match the batch size")
    return a, y


def cross_entropy(logits, labels) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean -log softmax(z)[y] over the batch; grad rows (softmax - onehot)/B.

    (B, K) logits with (B,) labels give a float loss. A leading client axis,
    (M, B, K) with (M, B) labels, gives an (M,) array of per-client losses,
    each bitwise the loss of that client's batch alone.
    """
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if z.ndim not in (2, 3) or z.shape[-2] == 0:
        raise ValueError("expected a nonempty (B, K) or (M, B, K) array")
    if y.shape != z.shape[:-1]:
        raise ValueError("labels must match the batch size")
    k = z.shape[-1]
    if y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must lie in [0, {k})")
    b = z.shape[-2]
    picks = y.reshape(-1) + k * np.arange(y.size)  # flat index of each z[..., y]
    shifted = z - z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    loss = (lse - shifted.reshape(-1)[picks].reshape(y.shape)).sum(axis=-1) / b
    grad = np.exp(shifted - lse[..., None])
    grad.reshape(-1)[picks] -= 1.0
    return (float(loss) if z.ndim == 2 else loss), grad / b


def _cosine_matrix(h: np.ndarray, protos: np.ndarray):
    """Pairwise cosine similarities with the norm floor; returns the raw
    (unclamped) matrix plus the floored norms needed for the Jacobian."""
    nh = np.maximum(np.linalg.norm(h, axis=1), EPS_NORM)
    ng = np.maximum(np.linalg.norm(protos, axis=1), EPS_NORM)
    sims = (h @ protos.T) / (nh[:, None] * ng[None, :])
    return sims, nh, ng


def gpcl_loss(
    features, labels, generalized: PrototypeSet, tau: float
) -> tuple[float, np.ndarray]:
    """Contrastive pull toward the same-class generalized prototype.

    Softmax over cosine similarities to every generalized prototype at
    temperature tau; the positive is the prototype of the sample's own class.
    Prototypes are constants; the gradient w.r.t. each feature goes through
    the cosine-similarity Jacobian.
    """
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


def apa_loss(
    features, labels, p_tilde: PrototypeSet, class_mean: bool = False
) -> tuple[float, np.ndarray]:
    """Squared-L2 pull toward the augmented prototype of the sample's class.

    Default reading: per-sample mean (1/B) sum_i |h_i - p~_{y_i}|^2, samples
    whose class has no augmented prototype contributing zero. The alternative
    class-mean reading (sum over classes of |mean_k(h) - p~_k|^2) is kept for
    comparison behind the flag.
    """
    h, y = _check_batch(features, labels)
    b, d = h.shape
    grad = np.zeros_like(h)

    if class_mean:
        loss = 0.0
        for k in np.unique(y):
            if int(k) not in p_tilde:
                continue
            mask = y == k
            mean_k = h[mask].mean(axis=0)
            diff = mean_k - p_tilde.vector(int(k))
            loss += float(np.dot(diff, diff))
            grad[mask] = 2.0 * diff / mask.sum()
        return loss, grad

    counted = np.array([int(v) in p_tilde for v in y])
    if not counted.any():
        return 0.0, grad
    targets = np.stack([p_tilde.vector(int(v)) if c else np.zeros(d) for v, c in zip(y, counted)])
    diff = (h - targets) * counted[:, None]
    loss = float((diff * diff).sum() / b)
    grad = 2.0 * diff / b
    return loss, grad
