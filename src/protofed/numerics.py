"""Seeded randomness, the norm floor, the squared-distance kernel and the
batch check shared by every module.

Vectors and matrices are plain float64 numpy arrays throughout the package;
nothing here wraps them. The RNG is counter-based (Philox) keyed by
(seed, stream) so that per-client streams stay independent and bitwise
reproducible regardless of how client work is scheduled.
"""

from __future__ import annotations

import math

import numpy as np

# Floor applied to vector norms so zero features cannot produce NaN.
EPS_NORM = 1e-12

# Streams 0..M-1 are reserved for clients (stream = client index). Everything
# else draws from the offsets below so sequences never collide.
STREAM_DATA = 2**32
STREAM_INIT = 2**32 + 1


class Rng:
    """Deterministic random source keyed by (seed, stream).

    Distinct (seed, stream) pairs give independent sequences; an identical
    pair with an identical call sequence reproduces identical draws. Instances
    are single-owner: never share one across concurrent tasks.
    """

    def __init__(self, seed: int, stream: int = 0):
        if seed < 0 or stream < 0:
            raise ValueError("seed and stream must be nonnegative")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, stream={self.stream})"

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        if size is None and low == 0.0 and high == 1.0:
            return self._gen.random()  # fast scalar path, same value stream
        return self._gen.uniform(low, high, size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def integers(self, high: int, size=None):
        """Draw from [0, high)."""
        return self._gen.integers(0, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)


def _check_pair(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("expected 1-D vectors")
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape[0]} vs {v.shape[0]}")
    return u, v


def sq_l2_distance(u, v) -> float:
    """Squared Euclidean distance sum_i (u_i - v_i)^2."""
    u, v = _check_pair(u, v)
    diff = u - v
    return float(np.dot(diff, diff))


def check_batch(
    rows, labels, num_classes: int, stacked: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """A batch (B, n) or a stack of batches (G, B, n), only the latter when
    stacked, with matching labels in [0, num_classes)."""
    a = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if a.ndim not in (2, 3) or a.shape[-2] == 0:
        raise ValueError("expected a nonempty (B, n) or (G, B, n) array")
    if stacked and a.ndim != 3:
        raise ValueError("expected a stack of batches (G, B, n)")
    if y.shape != a.shape[:-1]:
        raise ValueError("labels must match the batch size")
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return a, y


def _sample_gamma(rng: Rng, alpha: float) -> float:
    """Marsaglia-Tsang gamma draw; alpha < 1 goes through the alpha+1 boost."""
    gen = rng._gen
    if alpha < 1.0:
        # X = Gamma(alpha + 1) * U^(1/alpha); U drawn in (0, 1].
        g = _sample_gamma(rng, alpha + 1.0)
        u = 1.0 - gen.random()
        return g * u ** (1.0 / alpha)
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = gen.standard_normal()
        t = 1.0 + c * x
        if t <= 0.0:
            continue
        v = t * t * t
        u = 1.0 - gen.random()  # (0, 1], keeps log(u) finite
        if u < 1.0 - 0.0331 * x * x * x * x:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_beta(rng: Rng, alpha: float) -> float:
    """One draw from the symmetric Beta(alpha, alpha), via two gamma draws."""
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    g1 = _sample_gamma(rng, alpha)
    g2 = _sample_gamma(rng, alpha)
    total = g1 + g2
    if total <= 0.0:  # both underflowed to zero; symmetric midpoint
        return 0.5
    out = g1 / total
    # keep the contract of an open (0, 1) interval even under underflow
    return min(max(out, 5e-324), 1.0 - 2**-53)
