"""Shared fixtures and configs; the million-draw Beta samples are computed
once per session and reused by the unit tests and the acceptance suite."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from protofed.config import load_config
from protofed.federation import run_experiments
from protofed.numerics import keyed_rng, sample_beta

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# Desk-scale benchmark: K=5, D=4, 8 clients split 3/2/1/2, half the pool each.
BENCHMARK = load_config(CONFIGS / "default.txt")

# Heavily skewed variant: domain 0 holds 5 of 8 clients (see the config file).
SKEWED_VARIANT = load_config(CONFIGS / "skewed.txt")


def run_experiment(cfg, round_callback=None):
    """One config trained alone, the bundle of one: its ExperimentResult."""
    [result] = run_experiments([cfg], [round_callback])
    return result


@pytest.fixture(scope="session")
def beta_draws():
    """alpha -> one million Beta(alpha, alpha) draws at a fixed seed."""
    cache: dict[float, np.ndarray] = {}

    def get(alpha: float, n: int = 1_000_000) -> np.ndarray:
        if alpha not in cache:
            cache[alpha] = sample_beta(keyed_rng(123, 7), alpha, n)
        return cache[alpha]

    return get


@pytest.fixture(scope="session")
def fedavg_pair():
    """(federation degenerate-mode reports, naive FedAvg oracle reports) on
    the benchmark config, same seed."""
    from oracles import naive_fedavg_loop

    cfg = replace(
        BENCHMARK, gpcl_enabled=False, apa_enabled=False, mixup_mode="off", seed=0
    )
    fed = run_experiment(cfg)
    naive = naive_fedavg_loop(cfg)
    return fed.reports, naive
