#!/usr/bin/env python3
"""Write the reference artifacts into OUT and print their sha256 digests.

Runs, with this checkout's protofed CLI:
  run      --config configs/default.txt   --out OUT/run
  ablate   --config configs/skewed.txt    --out OUT/ablate  (PROTOFED_THREADS=2)
  sweep    --config configs/sweep_tau.txt --out OUT/sweep   (PROTOFED_THREADS=2)
  sweep    --config configs/sweep_beta.txt --out OUT/sweep_beta  (PROTOFED_THREADS=2)
  gen-data --config configs/default.txt   --out OUT/gen-data/data.csv
  run      --config OUT/multiblock/config.txt --out OUT/multiblock/run
  run      --config OUT/multiblock/input.txt  --out OUT/multiblock/input
then prints `sha256  relative/path` for every file they wrote, sorted by path.
The last two runs train on OUT/multiblock/data.csv, the gen-data CSV with
every third row of domain 1 dropped, so its clients fall into two size
blocks (synthetic data always gives one) of 267 and 400 rows, whose last
batches hold 11 and 16 rows. The second of them sets mixup_mode = input,
the only digest run that mixes inputs with a short last batch. The beta
sweep's four values, the limits 0 and 1.0 among them, differ only on the
server, so its runs train as one bundle and share every draw. Each output
(OUT/run, OUT/ablate, OUT/sweep, OUT/sweep_beta, OUT/gen-data,
OUT/multiblock) is removed first; nothing else under OUT is touched.

Artifacts record their output directory (config.resolved.json), so two
checkouts compare byte for byte only when both write into the same OUT:

  python scripts/artifact_digests.py /tmp/out > a.txt   # in checkout A
  python scripts/artifact_digests.py /tmp/out > b.txt   # in checkout B
  diff a.txt b.txt
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

COMMANDS = [
    # (command, config, output under OUT, PROTOFED_THREADS); a config under
    # multiblock/ is written into OUT first (write_multiblock_inputs)
    ("run", "configs/default.txt", "run", "1"),
    ("ablate", "configs/skewed.txt", "ablate", "2"),
    ("sweep", "configs/sweep_tau.txt", "sweep", "2"),
    ("sweep", "configs/sweep_beta.txt", "sweep_beta", "2"),
    ("gen-data", "configs/default.txt", "gen-data/data.csv", "1"),
    ("run", "multiblock/config.txt", "multiblock/run", "1"),
    ("run", "multiblock/input.txt", "multiblock/input", "1"),
]
# the multi-block run: domain 1 (clients 3 and 4 of configs/default.txt's
# allocation) loses every third of its rows
DROP_DOMAIN, DROP_EVERY = "1", 3
MULTIBLOCK_CONFIG = "rounds = 5\nepochs = 5\ncsv_path = {csv}\n"
MULTIBLOCK_INPUT = "mixup_mode = input\n"


def write_multiblock_inputs(out: Path) -> None:
    """OUT/multiblock/data.csv and the config.txt and input.txt that train
    on it."""
    lines = (out / "gen-data/data.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    kept, seen = lines[:1], 0
    for line in lines[1:]:
        if line.rstrip("\n").rsplit(",", 1)[1] == DROP_DOMAIN:
            seen += 1
            if seen % DROP_EVERY == 0:
                continue
        kept.append(line)
    (out / "multiblock").mkdir()
    (out / "multiblock/data.csv").write_text("".join(kept), encoding="utf-8")
    config = MULTIBLOCK_CONFIG.format(csv=out / "multiblock/data.csv")
    (out / "multiblock/config.txt").write_text(config, encoding="utf-8")
    (out / "multiblock/input.txt").write_text(config + MULTIBLOCK_INPUT, encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("out", type=Path, help="output directory")
    args = parser.parse_args()

    out = args.out.resolve()
    roots = list(dict.fromkeys(out / Path(target).parts[0] for _, _, target, _ in COMMANDS))
    for root in roots:
        shutil.rmtree(root, ignore_errors=True)
    src = str(REPO / "src")
    pythonpath = os.environ.get("PYTHONPATH")
    for command, config, target, threads in COMMANDS:
        if config.startswith("multiblock/"):
            if not (out / "multiblock").exists():
                write_multiblock_inputs(out)
            config = str(out / config)
        env = dict(
            os.environ,
            PYTHONPATH=src if not pythonpath else f"{src}{os.pathsep}{pythonpath}",
            PROTOFED_THREADS=threads,
        )
        argv = [sys.executable, "-m", "protofed", command, "--config", config]
        code = subprocess.run(argv + ["--out", str(out / target)], cwd=REPO, env=env).returncode
        if code != 0:
            print(f"{command} --config {config} exited {code}", file=sys.stderr)
            return code

    for path in sorted(p for root in roots for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
