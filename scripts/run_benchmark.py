#!/usr/bin/env python3
"""Paired desk-scale comparison: full prototype method vs plain FedAvg.

Runs the default synthetic benchmark (K=5, D=4, 8 clients split 3/2/1/2)
for a handful of seeds and prints final-5-round accuracies side by side.
"""

import argparse
import time
from dataclasses import replace
from pathlib import Path

from protofed.config import load_config
from protofed.federation import run_experiment


def main() -> int:
    base = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.txt")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=3, help="number of paired seeds")
    parser.add_argument("--rounds", type=int, default=base.rounds)
    parser.add_argument("--epochs", type=int, default=base.epochs)
    args = parser.parse_args()

    base = replace(base, rounds=args.rounds, epochs=args.epochs)
    print(f"benchmark: K={base.num_classes} D={base.num_domains} "
          f"clients={base.clients_per_domain} T={base.rounds} R={base.epochs}")
    print("seed   method     avg_last5  per-domain")
    for seed in range(args.seeds):
        for label, overrides in (
            ("protos", {}),
            ("fedavg", dict(gpcl_enabled=False, apa_enabled=False, mixup_mode="off")),
        ):
            t0 = time.time()
            res = run_experiment(replace(base, seed=seed, **overrides))
            s = res.summary
            domains = "  ".join(
                f"{k}:{v:.3f}" for k, v in sorted(s["per_domain_accuracy"].items())
            )
            print(
                f"{seed:4d}   {label}    {s['average_accuracy']:.4f}    {domains}"
                f"   [{time.time() - t0:.1f}s]"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
