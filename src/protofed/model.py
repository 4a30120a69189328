"""Client network: MLP feature extractor plus linear classifier.

Forward/backward are hand-rolled on float64 numpy so that gradients can be
validated against finite differences to tight tolerance. Parameters are
treated as values: backward and sgd_step return fresh arrays, or write into
out=, which only a size block's update passes, for its own stacks.

All parameters live in one flat float64 vector in the order W0, b0, W1, b1,
..., Wc, bc (extractor layers, then the classifier; each W of shape
(out, in), row-major). Gradients, the SGD step, FedAvg aggregation and the
model.bin body all use this one layout, so each is a single array operation;
a checkpoint is the header (magic, version, layer count, each (out, in))
followed by the vector's bytes.

Leading client axis: the flat vector may also be an (M, P) stack holding M
clients' models, one per row. Every layer view, activation and gradient then
gains that leading axis (x is (M, B, in), logits (M, B, K)), and
forward/backward/sgd_step act on all M clients at once. Matmuls go through
`@` on swapped axes, which numpy evaluates slice by slice with the same
kernel as the 2-D call, and batch sums reduce axis -2; so row m of a stacked
result is bitwise the 2-D result for client m alone (np.einsum would not be).

The feature extractor applies ReLU after every layer except the last, so
features stay signed (prototype means and cosine similarity need negative
components as much as positive ones).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

_MAGIC = b"PFLM"
_VERSION = 1


def _flat_size(shapes) -> int:
    return sum(out_d * in_d + out_d for out_d, in_d in shapes)


class ModelParams:
    """Every weight and bias of the extractor layers and the classifier head,
    held in one C-contiguous float64 vector, or in an (M, P) stack of them.

    shapes lists each linear layer's (out, in), the classifier last. flat
    holds W0, b0, W1, b1, ..., Wc, bc with each W row-major, which is the body
    of a model.bin checkpoint; an (M, P) flat holds one such vector per
    client. extractor (a list of (W, b)) and classifier ((Wc, bc)) are views
    into flat, built once here, with flat's leading axis in front. Only an
    out= argument is ever written (see above); gradients use the same type
    and layout.
    """

    def __init__(self, flat: np.ndarray, shapes) -> None:
        self.flat = np.ascontiguousarray(flat, dtype=np.float64)
        self.shapes = tuple(map(tuple, shapes))
        size = _flat_size(self.shapes)
        if self.flat.ndim not in (1, 2) or self.flat.shape[-1] != size:
            raise ValueError(
                f"flat parameter vector has shape {self.flat.shape}, layer shapes imply "
                f"({size},) or (M, {size})"
            )
        lead = self.flat.shape[:-1]
        layers = []
        off = 0
        for out_d, in_d in self.shapes:
            w = self.flat[..., off : off + out_d * in_d].reshape(*lead, out_d, in_d)
            off += out_d * in_d
            layers.append((w, self.flat[..., off : off + out_d]))
            off += out_d
        self.extractor: list[tuple[np.ndarray, np.ndarray]] = layers[:-1]
        self.classifier: tuple[np.ndarray, np.ndarray] = layers[-1]

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def feature_dim(self) -> int:
        return self.shapes[-2][0]


def _same_layout(a: ModelParams, b: ModelParams) -> bool:
    return a.shapes == b.shapes and a.flat.shape == b.flat.shape


def params_from_layers(layers: list[tuple[np.ndarray, np.ndarray]]) -> ModelParams:
    """Pack per-layer (W, b) pairs, classifier last, into one ModelParams."""
    flat = np.concatenate([a for w, b in layers for a in (w.reshape(-1), b)])
    return ModelParams(flat, [w.shape for w, _ in layers])


@dataclass
class ForwardTrace:
    """Cached activations from one forward pass, consumed by backward().
    Always batched: acts[-1] is the (B, feature_dim) feature block, or
    (M, B, feature_dim) for stacked parameters."""

    x: np.ndarray  # (B, input_dim) or (M, B, input_dim)
    acts: list[np.ndarray] = field(default_factory=list)  # per-layer outputs
    logits_2d: np.ndarray = None


def init_params(rng: np.random.Generator, arch: list[int], num_classes: int) -> ModelParams:
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

    layers = [glorot(arch[i + 1], arch[i]) for i in range(len(arch) - 1)]
    layers.append(glorot(num_classes, arch[-1]))
    return params_from_layers(layers)


def forward(params: ModelParams, x: np.ndarray) -> ForwardTrace:
    """Run extractor + classifier on a (B, in) batch; a single vector is
    treated as a batch of one. Stacked (M, P) parameters take an (M, B, in)
    stack of batches, client m's batch in row m."""
    lead = params.flat.shape[:-1]
    xa = np.asarray(x, dtype=np.float64)
    if not lead:
        xa = np.atleast_2d(xa)
    if xa.ndim != len(lead) + 2 or xa.shape[:-2] != lead:
        raise ValueError(f"input of shape {xa.shape} does not match {len(lead)} client axes")
    if xa.shape[-1] != params.input_dim:
        raise ValueError(
            f"input dim {xa.shape[-1]} does not match model input {params.input_dim}"
        )
    trace = ForwardTrace(x=xa)
    a = xa
    last = len(params.extractor) - 1
    for i, (w, b) in enumerate(params.extractor):
        z = a @ w.swapaxes(-1, -2)
        z += b[..., None, :]
        a = z if i == last else np.maximum(z, 0.0)
        trace.acts.append(a)
    wc, bc = params.classifier
    trace.logits_2d = a @ wc.swapaxes(-1, -2)
    trace.logits_2d += bc[..., None, :]
    return trace


def backward(
    params: ModelParams,
    trace: ForwardTrace,
    dl_dlogits: np.ndarray,
    dl_dfeatures: np.ndarray,
    out: ModelParams | None = None,
) -> ModelParams:
    """Exact reverse-mode gradients of the scalar loss whose partials at the
    logits and at the features are the two given arrays (summed over the batch),
    in the parameters' flat layout. Stacked parameters give each client's
    gradient in its own row. out, when given, receives the gradients.
    """
    dz = np.asarray(dl_dlogits, dtype=np.float64)
    dh = np.asarray(dl_dfeatures, dtype=np.float64)
    h = trace.acts[-1]
    if dz.shape != trace.logits_2d.shape:
        raise ValueError("dl_dlogits shape does not match trace logits")
    if dh.shape != h.shape:
        raise ValueError("dl_dfeatures shape does not match trace features")

    if out is not None and not _same_layout(out, params):
        raise ValueError("out does not match the parameters")
    # written in place through the layer views of one flat array
    grads = ModelParams(np.empty_like(params.flat), params.shapes) if out is None else out
    wc, _ = params.classifier
    np.matmul(dz.swapaxes(-1, -2), h, out=grads.classifier[0])
    np.add.reduce(dz, -2, out=grads.classifier[1])  # np.sum's own reduction

    g = dz @ wc  # gradient w.r.t. the feature layer output
    g += dh
    for i in range(len(params.extractor) - 1, -1, -1):
        a_in = trace.acts[i - 1] if i > 0 else trace.x
        g_w, g_b = grads.extractor[i]
        np.matmul(g.swapaxes(-1, -2), a_in, out=g_w)
        np.add.reduce(g, -2, out=g_b)
        if i > 0:
            w_i, _ = params.extractor[i]
            # layer i - 1 is a hidden ReLU layer: max(z, 0) > 0 exactly when z > 0
            g = (g @ w_i) * (trace.acts[i - 1] > 0.0)
    return grads


def sgd_step(
    params: ModelParams, grads: ModelParams, lr: float, weight_decay: float,
    out: ModelParams | None = None,
) -> ModelParams:
    """p <- p - lr * (g + weight_decay * p), applied to weights and biases alike
    (and to every client row of stacked parameters). lr = 0 is the identity
    (useful for frozen-model probes). out, when given (params itself too),
    receives the result."""
    if lr < 0:
        raise ValueError("lr must be >= 0")
    if weight_decay < 0:
        raise ValueError("weight_decay must be >= 0")
    if not _same_layout(grads, params) or (out is not None and not _same_layout(out, params)):
        raise ValueError("gradient shapes or out do not match the parameters")
    out = ModelParams(np.empty_like(params.flat), params.shapes) if out is None else out
    np.subtract(params.flat, lr * (grads.flat + weight_decay * params.flat), out=out.flat)
    return out


def params_to_bytes(params: ModelParams) -> bytes:
    """Magic, version, layer count and each layer's (out, in) as little-endian
    u32, then the flat vector as little-endian f64. One model only: stacked
    (M, P) parameters are rejected."""
    if params.flat.ndim != 1:
        raise ValueError(
            f"a checkpoint holds one model, got parameters of shape {params.flat.shape}"
        )
    head = [_MAGIC, struct.pack("<II", _VERSION, len(params.shapes))]
    head.extend(struct.pack("<II", out_d, in_d) for out_d, in_d in params.shapes)
    return b"".join(head) + params.flat.astype("<f8", copy=False).tobytes()


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
    if n_layers < 2:
        raise ValueError(
            f"checkpoint layer count at byte offset 8 is {n_layers}, "
            "need at least one extractor layer and the classifier"
        )
    off = 12 + 8 * n_layers
    require(off)
    shapes = [struct.unpack_from("<II", blob, 12 + 8 * i) for i in range(n_layers)]
    for (o1, _), (_, i2) in zip(shapes[:-1], shapes[1:]):
        if o1 != i2:
            raise ValueError("checkpoint layer shapes do not chain")
    count = _flat_size(shapes)
    require(off + 8 * count, exact=True)
    flat = np.frombuffer(blob, dtype="<f8", count=count, offset=off).astype(np.float64)
    return ModelParams(flat, shapes)


def save_params(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(params_to_bytes(params))


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        return params_from_bytes(fh.read())
