"""Client network: MLP feature extractor plus linear classifier.

Forward/backward are hand-rolled on float64 numpy so that gradients can be
validated against finite differences to tight tolerance. Parameters are
treated as immutable values: sgd_step returns fresh arrays.

The feature extractor applies ReLU after every layer except the last, so
features stay signed (prototype means and cosine similarity need negative
components as much as positive ones).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .numerics import Rng

_MAGIC = b"PFLM"
_VERSION = 1


@dataclass
class ModelParams:
    """Weights/biases of the extractor layers plus the classifier head.

    extractor: list of (W, b) with W shaped (out, in); classifier is the
    final (K, d) linear map. Arrays are float64 and never mutated in place.
    """

    extractor: list[tuple[np.ndarray, np.ndarray]]
    classifier: tuple[np.ndarray, np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.extractor[0][0].shape[1]

    @property
    def feature_dim(self) -> int:
        return self.extractor[-1][0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.classifier[0].shape[0]

    def arrays(self) -> list[np.ndarray]:
        """All parameter arrays in a fixed order (extractor W,b ... then classifier W,b)."""
        out: list[np.ndarray] = []
        for w, b in self.extractor:
            out.extend((w, b))
        out.extend(self.classifier)
        return out


@dataclass
class ModelGrads:
    """Gradients, shape-congruent with ModelParams."""

    extractor: list[tuple[np.ndarray, np.ndarray]]
    classifier: tuple[np.ndarray, np.ndarray]

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in self.extractor:
            out.extend((w, b))
        out.extend(self.classifier)
        return out


@dataclass
class ForwardTrace:
    """Cached activations from one forward pass, consumed by backward().

    Batched internally; `features`/`logits` mirror the rank of the input
    (1-D in, 1-D out).
    """

    x: np.ndarray  # (B, input_dim)
    pre: list[np.ndarray] = field(default_factory=list)  # per-layer pre-activations
    acts: list[np.ndarray] = field(default_factory=list)  # per-layer outputs
    logits_2d: np.ndarray = None
    squeezed: bool = False

    @property
    def features(self) -> np.ndarray:
        h = self.acts[-1]
        return h[0] if self.squeezed else h

    @property
    def logits(self) -> np.ndarray:
        return self.logits_2d[0] if self.squeezed else self.logits_2d


def init_params(rng: Rng, arch: list[int], num_classes: int) -> ModelParams:
    """Glorot-uniform weights, zero biases.

    arch lists the layer widths input -> hidden... -> feature_dim; it needs at
    least two entries (one linear layer).
    """
    if len(arch) < 2:
        raise ValueError("architecture needs at least [input_dim, feature_dim]")
    if any(w <= 0 for w in arch):
        raise ValueError("layer widths must be positive")
    if num_classes < 2:
        raise ValueError("need at least 2 classes")

    def glorot(out_dim: int, in_dim: int) -> tuple[np.ndarray, np.ndarray]:
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        w = rng.uniform(-limit, limit, size=(out_dim, in_dim))
        return w, np.zeros(out_dim)

    extractor = [glorot(arch[i + 1], arch[i]) for i in range(len(arch) - 1)]
    classifier = glorot(num_classes, arch[-1])
    return ModelParams(extractor, classifier)


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Run extractor + classifier; accepts a single vector or a (B, in) batch."""
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 1
    x2 = np.atleast_2d(x)
    if x2.shape[1] != params.input_dim:
        raise ValueError(
            f"input dim {x2.shape[1]} does not match model input {params.input_dim}"
        )
    trace = ForwardTrace(x=x2, squeezed=squeezed)
    a = x2
    last = len(params.extractor) - 1
    for i, (w, b) in enumerate(params.extractor):
        z = a @ w.T + b
        trace.pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        trace.acts.append(a)
    wc, bc = params.classifier
    trace.logits_2d = a @ wc.T + bc
    return trace


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    dl_dlogits: np.ndarray,
    dl_dfeatures: np.ndarray,
) -> ModelGrads:
    """Exact reverse-mode gradients of the scalar loss whose partials at the
    logits and at the features are the two given arrays (summed over the batch).
    """
    dz = np.atleast_2d(np.asarray(dl_dlogits, dtype=np.float64))
    dh = np.atleast_2d(np.asarray(dl_dfeatures, dtype=np.float64))
    h = trace.acts[-1]
    if dz.shape != trace.logits_2d.shape:
        raise ValueError("dl_dlogits shape does not match trace logits")
    if dh.shape != h.shape:
        raise ValueError("dl_dfeatures shape does not match trace features")

    wc, _ = params.classifier
    g_wc = dz.T @ h
    g_bc = dz.sum(axis=0)

    g = dz @ wc + dh  # gradient w.r.t. the feature layer output
    ext_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.extractor)
    for i in range(len(params.extractor) - 1, -1, -1):
        a_in = trace.acts[i - 1] if i > 0 else trace.x
        ext_grads[i] = (g.T @ a_in, g.sum(axis=0))
        if i > 0:
            w_i, _ = params.extractor[i]
            g = (g @ w_i) * (trace.pre[i - 1] > 0.0)
    return ModelGrads(ext_grads, (g_wc, g_bc))


def sgd_step(
    params: ModelParams, grads: ModelGrads, lr: float, weight_decay: float
) -> ModelParams:
    """p <- p - lr * (g + weight_decay * p), applied to weights and biases alike.
    lr = 0 is the identity (useful for frozen-model probes)."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if weight_decay < 0:
        raise ValueError("weight_decay must be >= 0")

    def step(p: np.ndarray, g: np.ndarray) -> np.ndarray:
        return p - lr * (g + weight_decay * p)

    extractor = [
        (step(w, gw), step(b, gb))
        for (w, b), (gw, gb) in zip(params.extractor, grads.extractor)
    ]
    wc, bc = params.classifier
    gwc, gbc = grads.classifier
    return ModelParams(extractor, (step(wc, gwc), step(bc, gbc)))


def zero_grads(params: ModelParams) -> ModelGrads:
    return ModelGrads(
        [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.extractor],
        (np.zeros_like(params.classifier[0]), np.zeros_like(params.classifier[1])),
    )


def params_to_bytes(params: ModelParams) -> bytes:
    """Flat little-endian f64 blob with a shape header; classifier is the last layer."""
    layers = list(params.extractor) + [params.classifier]
    head = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<I", len(layers))]
    for w, _ in layers:
        head.append(struct.pack("<II", w.shape[0], w.shape[1]))
    body = []
    for w, b in layers:
        body.append(np.ascontiguousarray(w, dtype="<f8").tobytes())
        body.append(np.ascontiguousarray(b, dtype="<f8").tobytes())
    return b"".join(head) + b"".join(body)


def params_from_bytes(blob: bytes) -> ModelParams:
    """Parse a checkpoint. A blob cut short of, or running past, the length
    its header implies raises ValueError naming the byte offset."""
    if blob[:4] != _MAGIC:
        raise ValueError("not a model checkpoint (bad magic)")

    def require(end: int, exact: bool = False) -> None:
        if len(blob) < end or (exact and len(blob) > end):
            what = "truncated" if len(blob) < end else "has trailing bytes"
            raise ValueError(
                f"checkpoint {what} at byte offset {min(len(blob), end)} "
                f"({len(blob)} bytes, header implies {end})"
            )

    require(12)
    version, n_layers = struct.unpack_from("<II", blob, 4)
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if n_layers == 0:
        raise ValueError("checkpoint layer count at byte offset 8 is 0")
    off = 12 + 8 * n_layers
    require(off)
    shapes = [struct.unpack_from("<II", blob, 12 + 8 * i) for i in range(n_layers)]
    for (o1, _), (_, i2) in zip(shapes[:-1], shapes[1:]):
        if o1 != i2:
            raise ValueError("checkpoint layer shapes do not chain")
    require(off + sum(8 * (out_d * in_d + out_d) for out_d, in_d in shapes), exact=True)
    layers = []
    for out_d, in_d in shapes:
        w = np.frombuffer(blob, dtype="<f8", count=out_d * in_d, offset=off)
        off += out_d * in_d * 8
        b = np.frombuffer(blob, dtype="<f8", count=out_d, offset=off)
        off += out_d * 8
        layers.append((w.reshape(out_d, in_d).astype(np.float64), b.astype(np.float64)))
    return ModelParams(layers[:-1], layers[-1])


def save_params(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
