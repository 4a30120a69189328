#!/usr/bin/env python3
"""Aggregator and component study on a heavily skewed client allocation.

Domain 0 holds 5 of 8 clients; the remaining domains get one client each.
For each seed this compares distance-reweighted prototype aggregation against
plain averaging (both with the full method) and the {GPCL, APA} on/off grid
against the FedAvg baseline, reporting average and worst-domain accuracy.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from protofed.config import load_config
from protofed.federation import run_experiment

SKEWED = load_config(Path(__file__).resolve().parents[1] / "configs" / "skewed.txt")


def worst(summary: dict) -> float:
    return min(float(v) for v in summary["per_domain_accuracy"].values())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=5)
    args = parser.parse_args()

    arms = {
        "fedavg": dict(gpcl_enabled=False, apa_enabled=False, mixup_mode="off"),
        "gpcl-only": dict(gpcl_enabled=True, apa_enabled=False),
        "apa-only": dict(gpcl_enabled=False, apa_enabled=True),
        "full/reweight": {},
        "full/average": dict(aggregator_mode="average"),
    }
    print("seed  arm            avg_last5  worst-domain")
    wins = {"rw>=av": 0, "worst rw>=av": 0, "full>=fedavg": 0}
    t0 = time.time()
    for seed in range(args.seeds):
        results = {}
        for label, overrides in arms.items():
            res = run_experiment(replace(SKEWED, seed=seed, **overrides))
            results[label] = res.summary
            print(
                f"{seed:4d}  {label:<14} {res.summary['average_accuracy']:.4f}     "
                f"{worst(res.summary):.4f}"
            )
        wins["rw>=av"] += (
            results["full/reweight"]["average_accuracy"]
            >= results["full/average"]["average_accuracy"]
        )
        wins["worst rw>=av"] += worst(results["full/reweight"]) >= worst(results["full/average"])
        wins["full>=fedavg"] += (
            results["full/reweight"]["average_accuracy"] >= results["fedavg"]["average_accuracy"]
        )
    print(f"\ndirectional wins over {args.seeds} seeds: {wins}  [{time.time() - t0:.0f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
