"""Seeded randomness, the norm floor and the batch check shared by every
module.

Vectors and matrices are plain float64 numpy arrays throughout the package;
nothing here wraps them. Draws come from numpy Generators over the
counter-based Philox, keyed by (seed, stream) so that per-client streams
stay independent and bitwise reproducible regardless of how client work is
scheduled.
"""

from __future__ import annotations

import numpy as np

# Floor applied to vector norms so zero features cannot produce NaN.
EPS_NORM = 1e-12

# Streams 0..M-1 are reserved for clients (stream = client index). Everything
# else draws from the offsets below so sequences never collide.
STREAM_DATA = 2**32
STREAM_INIT = 2**32 + 1


def keyed_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """A Philox Generator keyed by (seed, stream). Distinct pairs give
    independent sequences; an identical pair with an identical call sequence
    reproduces identical draws. Generators are single-owner: never share one
    across concurrent tasks."""
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative")
    key = np.array([int(seed), int(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    if y.view(np.uint64).max() >= num_classes:  # a negative label reads as >= 2**63
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return a, y


def sample_beta(rng: np.random.Generator, alpha: float, size=None):
    """Draws from the symmetric Beta(alpha, alpha), as mixup_pairs' gammas:
    one float, or an array of the given size, clamped to the open interval
    (0, 1); numpy's can be exactly 1.0 (about 8% of them at alpha = 0.05)."""
    if alpha <= 0.0:
        raise ValueError("alpha must be > 0")
    return np.minimum(np.maximum(rng.beta(alpha, alpha, size), 5e-324), 1.0 - 2**-53)
