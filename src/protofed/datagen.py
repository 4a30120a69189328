"""Synthetic multi-domain data with label-aligned, feature-skewed domains.

Every domain shares the same balanced label marginal; what differs is an
affine transform (paired-coordinate rotations, anisotropic scaling, bias)
applied to shared class anchors, plus Gaussian noise. Domain 0 always keeps
the identity transform so single-domain runs degrade to a plain Gaussian
mixture.

Also holds client partitioning (per-domain holdout then per-client sampling,
returning plain SampleSets) and the `x0..x{n-1},label,domain` CSV format
used to move data in and out of the simulator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

TEST_FRACTION = 0.2


@dataclass
class SampleSet:
    """Columnar batch of samples; the unit all training/eval code consumes."""

    x: np.ndarray  # (N, input_dim) float64
    labels: np.ndarray  # (N,) int64
    domains: np.ndarray  # (N,) int64

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def input_dim(self) -> int:
        return self.x.shape[1]

    def take(self, idx: np.ndarray) -> "SampleSet":
        return SampleSet(self.x[idx], self.labels[idx], self.domains[idx])


def _transform(
    points: np.ndarray, angles: np.ndarray, scales: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Scale, rotate coordinate pairs (0,1), (2,3), ... by angles, then shift
    by bias (no noise)."""
    out = points * scales
    for p, theta in enumerate(angles):
        i, j = 2 * p, 2 * p + 1
        c, s = math.cos(theta), math.sin(theta)
        xi = out[:, i].copy()
        xj = out[:, j].copy()
        out[:, i] = c * xi - s * xj
        out[:, j] = s * xi + c * xj
    return out + bias


def make_domains(
    num_classes: int,
    num_domains: int,
    input_dim: int,
    per_class_count: int,
    rng: np.random.Generator,
    noise_sigma: float = 0.3,
    anchor_scale: float = 2.0,
    shift: float = 1.0,
) -> dict[int, SampleSet]:
    """Balanced per-domain datasets: shared class anchors, per-domain affine
    transform, spherical Gaussian noise. Labels are exactly balanced, so the
    label marginal matches across domains by construction.

    Domain 0 keeps the identity transform (zero angles, unit scales, zero
    bias); every other domain draws rotation angles, log-uniform scales and
    a bias whose magnitudes grow with `shift`. Draw order: the anchors, then
    each domain's angles, scales and bias, then each domain's noise."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if num_domains < 1:
        raise ValueError("need at least 1 domain")
    if input_dim < 2:
        raise ValueError("need input_dim >= 2")
    if per_class_count < 1:
        raise ValueError("need at least 1 sample per class")
    if noise_sigma < 0:
        raise ValueError("noise sigma must be >= 0")

    anchors = rng.standard_normal((num_classes, input_dim)) * anchor_scale
    n_pairs = input_dim // 2
    transforms = [(np.zeros(n_pairs), np.ones(input_dim), np.zeros(input_dim))]
    for dom in range(1, num_domains):
        angles = rng.uniform(-math.pi / 5, math.pi / 5, size=n_pairs) * shift
        scales = np.exp(rng.uniform(-0.25, 0.25, size=input_dim) * shift)
        if np.any(scales <= 0):
            raise ValueError(f"domain {dom}: shift {shift:g} underflows a scale to 0")
        bias = rng.standard_normal(input_dim) * (0.8 * shift / math.sqrt(input_dim))
        transforms.append((angles, scales, bias))

    centered = np.repeat(anchors, per_class_count, axis=0)
    out: dict[int, SampleSet] = {}
    for dom, transform in enumerate(transforms):
        labels = np.repeat(np.arange(num_classes, dtype=np.int64), per_class_count)
        x = _transform(centered, *transform)
        if noise_sigma > 0:
            x = x + noise_sigma * rng.standard_normal(x.shape)
        out[dom] = SampleSet(x, labels, np.full(len(labels), dom, dtype=np.int64))
    return out


def partition(
    domain_data: dict[int, SampleSet],
    clients_per_domain: dict[int, int],
    sampling_rate: float,
    rng: np.random.Generator,
) -> tuple[list[SampleSet], dict[int, SampleSet]]:
    """Hold out the test fraction of each domain, then let each client draw
    floor(rate * pool) samples from its domain's training pool without
    replacement. Clients of the same domain draw independently.

    Returns the clients' data in client-id order (a client's id is its
    position; domains ascending) and each domain's test set."""
    if not 0.0 < sampling_rate <= 1.0:
        raise ValueError("sampling_rate must lie in (0, 1]")
    if sum(clients_per_domain.values()) < 1:
        raise ValueError("plan allocates no clients")
    for dom in clients_per_domain:
        if dom not in domain_data:
            raise ValueError(f"plan references missing domain {dom}")
    clients: list[SampleSet] = []
    test_sets: dict[int, SampleSet] = {}
    for dom in sorted(clients_per_domain):
        data = domain_data[dom]
        n = len(data)
        perm = rng.permutation(n)
        n_test = int(TEST_FRACTION * n)
        test_sets[dom] = data.take(perm[:n_test])
        pool = data.take(perm[n_test:])
        n_draw = int(sampling_rate * len(pool))
        if n_test == 0:
            raise ValueError(f"domain {dom}: {n} rows leave no test split")
        if n_draw < 1:
            raise ValueError(
                f"domain {dom}: sampling rate {sampling_rate} yields an empty client"
            )
        for _ in range(clients_per_domain[dom]):
            idx = rng.choice(len(pool), n_draw, replace=False)
            clients.append(pool.take(np.sort(idx)))
    return clients, test_sets


def _header(input_dim: int) -> list[str]:
    return [f"x{i}" for i in range(input_dim)] + ["label", "domain"]


def save_csv(samples: SampleSet, path) -> None:
    """Write `x0..x{n-1},label,domain` rows; reals carry 17 significant digits
    so a reload reproduces the doubles exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(samples.input_dim))
        for i in range(len(samples)):
            row = [f"{v:.17g}" for v in samples.x[i]]
            row.append(str(int(samples.labels[i])))
            row.append(str(int(samples.domains[i])))
            writer.writerow(row)


def _parse_row(row: list[str], header: list[str], bounds: dict[str, float]) -> list:
    """A data row's features, then its label and domain. A ValueError names
    the row's first fault: its column count, or the first cell that does
    not parse, is a non-finite feature, or is a label or domain outside
    [0, its bound)."""
    if len(row) != len(header):
        raise ValueError(f"{len(row)} columns, expected {len(header)}")
    values = []
    for name, cell in zip(header, row):
        try:
            value = int(cell) if name in bounds else float(cell)
        except ValueError:
            raise ValueError(f"{name} {cell!r} does not parse") from None
        if name not in bounds and not math.isfinite(value):
            raise ValueError(f"{name} is {value}, not finite")
        if name in bounds and not 0 <= value < bounds[name]:  # exact for any int
            raise ValueError(f"{name} {value} outside [0, {bounds[name]})")
        values.append(value)
    return values


def load_csv(
    path, input_dim: int | None = None, num_classes: float = math.inf,
    num_domains: float = math.inf,
) -> SampleSet:
    """Parse a samples CSV. A malformed one raises ValueError with one line
    per bad row, naming the file, the row's line and its first fault, and a
    last line naming every bad row's line: ``malformed rows (lines 3, 7)``.
    A None input_dim is unchecked, as are labels and domains by default."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: header row required") from None
        dim = len(header) - 2
        if dim < 1 or header != _header(dim):
            raise ValueError(f"bad header {header!r}; expected x0..x{{n-1}},label,domain")
        if input_dim is not None and dim != input_dim:
            raise ValueError(f"header has {dim} feature columns, expected {input_dim}")

        bounds = {"label": num_classes, "domain": num_domains}
        rows, faults = [], {}  # line -> its first fault
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append(_parse_row(row, header, bounds))
            except ValueError as exc:
                faults[line_no] = f"{path}: line {line_no}: {exc}"
    if faults:
        lines = ", ".join(map(str, faults))
        raise ValueError("\n".join([*faults.values(), f"malformed rows (lines {lines})"]))
    return SampleSet(  # a header-only file gives (0, dim) features
        np.array([row[:dim] for row in rows], dtype=np.float64).reshape(-1, dim),
        np.array([row[dim] for row in rows], dtype=np.int64),
        np.array([row[dim + 1] for row in rows], dtype=np.int64),
    )


def split_by_domain(samples: SampleSet) -> dict[int, SampleSet]:
    return {
        int(dom): samples.take(np.flatnonzero(samples.domains == dom))
        for dom in np.unique(samples.domains)
    }
