"""Experiment configuration: defaults, flat key=value parsing, validation.

Config files are plain text, one `key = value` per line, `#` comments.
Parsing is strict: unknown keys are rejected so a typo in an ablation config
cannot silently run the wrong experiment. Every field has a documented
default, so an empty config is a valid experiment.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Invalid configuration; the CLI maps this to exit code 2."""


@dataclass
class ExperimentConfig:
    rounds: int = 30  # communication rounds (desk-scale default)
    epochs: int = 10  # local epochs per round
    batch_size: int = 32
    lr: float = 0.01
    weight_decay: float = 1e-5
    tau: float = 0.07  # contrastive temperature
    alpha: float = 0.4  # Beta(alpha, alpha) mixup concentration
    beta: float = 0.99  # EMA decay for generalized prototypes; 1.0 turns the EMA off
    aggregator_mode: str = "reweight"  # reweight | average
    gpcl_enabled: bool = True
    apa_enabled: bool = True
    mixup_mode: str = "feature"  # off | input | feature
    arch: tuple[int, ...] = (16, 32, 16)  # input, hidden..., feature width
    num_classes: int = 5
    num_domains: int = 4
    per_class_count: int = 200  # per class, per domain (synthetic data)
    clients_per_domain: tuple[int, ...] = (3, 2, 1, 2)
    sampling_rate: float = 0.5  # fraction of the domain pool each client draws
    data_noise: float = 0.3  # within-domain Gaussian noise sigma
    data_anchor_scale: float = 2.0
    data_shift: float = 1.0  # strength of the per-domain affine skew
    csv_path: str = ""  # nonempty switches data source from synthetic to CSV
    seed: int = 0
    out_dir: str = "runs/default"

    @property
    def input_dim(self) -> int:
        return self.arch[0]


_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _split_list(raw: str) -> list[str]:
    """The stripped elements of a comma-separated list, none for a blank raw;
    an empty one (`16,,8`) raises, as dropping it would run another config."""
    parts = [p.strip() for p in raw.split(",")] if raw.strip() else []
    if "" in parts:
        raise ValueError("empty list element")
    return parts


def _parse_value(name: str, raw: str):
    field = _FIELDS[name]
    raw = raw.strip()
    try:
        # under `from __future__ import annotations` every field.type is a string
        if field.type == "int":
            return int(raw)
        if field.type == "float":
            return float(raw)
        if field.type == "bool":
            low = raw.lower()
            if low in ("true", "false"):
                return low == "true"
            raise ValueError("expected true or false")
        if field.type.startswith("tuple"):
            return tuple(int(p) for p in _split_list(raw))
        return raw
    except ValueError as exc:
        raise ConfigError(f"{name}: cannot parse {raw!r} ({exc})") from None


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; blank lines and # comments are skipped."""
    out: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def build_config(
    raw: dict[str, str], seed: int | None = None, out_dir: str | None = None
) -> ExperimentConfig:
    """The config that raw's values describe, with a command-line seed or
    out_dir in place of the file's. The file's values are validated before
    the override, so a bad value fails even when the override replaces it,
    and the result is validated after it."""
    unknown = sorted(set(raw) - set(_FIELDS))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")
    cfg = ExperimentConfig(**{name: _parse_value(name, val) for name, val in raw.items()})
    validate_config(cfg)
    overrides = {"seed": seed, "out_dir": out_dir}
    cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    problems: list[str] = []

    def check(ok: bool, msg: str):
        if not ok:
            problems.append(msg)

    check(cfg.rounds >= 1, "rounds must be >= 1")
    check(cfg.epochs >= 1, "epochs must be >= 1")
    check(cfg.batch_size >= 1, "batch_size must be >= 1")
    check(cfg.lr > 0, "lr must be > 0")
    check(cfg.weight_decay >= 0, "weight_decay must be >= 0")
    check(cfg.tau > 0, "tau must be > 0")
    check(cfg.alpha > 0, "alpha must be > 0")
    check(0.0 <= cfg.beta <= 1.0, "beta must lie in [0, 1]")
    check(
        cfg.aggregator_mode in ("reweight", "average"),
        "aggregator_mode must be reweight or average",
    )
    check(
        cfg.mixup_mode in ("off", "input", "feature"),
        "mixup_mode must be off, input or feature",
    )
    check(len(cfg.arch) >= 2, "arch needs at least input and feature widths")
    check(all(w >= 1 for w in cfg.arch), "arch widths must be positive")
    # at feature width 1 every cosine similarity is +-1, so GPCL is degenerate
    check(len(cfg.arch) < 2 or cfg.arch[-1] >= 2, "arch feature width (last entry) must be >= 2")
    # the synthetic generator rotates coordinate pairs; a CSV may hold one column
    check(
        bool(cfg.csv_path) or len(cfg.arch) < 2 or cfg.arch[0] >= 2,
        "arch input width (first entry) must be >= 2 for synthetic data",
    )
    check(cfg.num_classes >= 2, "num_classes must be >= 2")
    check(cfg.num_domains >= 1, "num_domains must be >= 1")
    check(cfg.per_class_count >= 1, "per_class_count must be >= 1")
    check(
        len(cfg.clients_per_domain) == cfg.num_domains,
        "clients_per_domain needs one entry per domain",
    )
    check(all(c >= 0 for c in cfg.clients_per_domain), "client counts must be >= 0")
    check(sum(cfg.clients_per_domain) >= 1, "need at least one client")
    check(0.0 < cfg.sampling_rate <= 1.0, "sampling_rate must lie in (0, 1]")
    check(cfg.data_noise >= 0, "data_noise must be >= 0")
    check(cfg.data_anchor_scale > 0, "data_anchor_scale must be > 0")
    check(cfg.data_shift >= 0, "data_shift must be >= 0")
    check(0 <= cfg.seed < 2**64, "seed must lie in [0, 2**64)")  # keyed_rng packs it as uint64
    # the checks above bound these from below only, so inf would pass them
    for name in ("lr", "weight_decay", "tau", "alpha", "data_noise", "data_anchor_scale",
                 "data_shift"):
        check(math.isfinite(getattr(cfg, name)), f"{name} must be finite")
    if problems:
        raise ConfigError("; ".join(problems))


def load_config(path, seed: int | None = None, out_dir: str | None = None) -> ExperimentConfig:
    return build_config(parse_kv_text(Path(path).read_text(encoding="utf-8")), seed, out_dir)


SWEEPABLE = ("tau", "alpha", "beta")


def load_sweep(
    path, seed: int | None = None, out_dir: str | None = None
) -> tuple[str, list[float], ExperimentConfig]:
    """(param, values, base) of a sweep file: a regular config plus
    `sweep_param` and `sweep_values`. The base takes seed and out_dir as
    load_config does."""
    raw = parse_kv_text(Path(path).read_text(encoding="utf-8"))
    param = raw.pop("sweep_param", None)
    values_raw = raw.pop("sweep_values", None)
    if param is None or values_raw is None:
        raise ConfigError("sweep config requires sweep_param and sweep_values")
    if param not in SWEEPABLE:
        raise ConfigError(f"sweep_param must be one of {', '.join(SWEEPABLE)}")
    try:
        parts = _split_list(values_raw)
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"sweep_values: {exc}") from None
    if not parts:
        raise ConfigError("sweep_values must be a nonempty comma-separated list")
    seen: dict[str, str] = {}
    for text_value, value in zip(parts, values):
        name = sweep_dir_name(param, value)
        if name in seen:
            raise ConfigError(
                f"sweep_values {seen[name]} and {text_value} both write sub-run directory {name}"
            )
        seen[name] = text_value
    return param, values, build_config(raw, seed, out_dir)


def sweep_dir_name(param: str, value: float) -> str:
    """Name of the sub-run directory a sweep writes for one value."""
    return f"{param}_{value:g}"


# The fields a bundle's runs may differ in: the seed picks data and streams,
# only GPCL reads gpcl_enabled and tau, only the server aggregator_mode and
# beta, and out_dir is the command's. Every other field keys the bundle, a
# new field included.
PER_RUN_FIELDS = ("seed", "gpcl_enabled", "tau", "aggregator_mode", "beta", "out_dir")


def bundle_key(cfg: ExperimentConfig) -> str:
    """Configs with equal keys train as one bundle
    (federation.run_experiments). The repr keeps 0.0 and -0.0 apart, as the
    arithmetic does."""
    return repr([getattr(cfg, name) for name in _FIELDS if name not in PER_RUN_FIELDS])
