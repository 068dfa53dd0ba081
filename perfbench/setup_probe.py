"""Set-up probe for `setup_s`: a fresh interpreter imports what `objslam run`
imports, loads one scene's dataset and prior table, and prints ``ready`` and
the speed factor sampled meanwhile (see speed.py).

Usage: python3 perfbench/setup_probe.py DATASET_DIR PRIORS_CSV
"""

import sys
from pathlib import Path

from speed import SpeedSampler

if __name__ == "__main__":
    with SpeedSampler() as sampler:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import objslam.cli  # noqa: F401
        from objslam.dataset import load_dataset
        from objslam.priors import parse_prior_csv

        load_dataset(sys.argv[1])
        parse_prior_csv(Path(sys.argv[2]).read_text())
    print(f"ready {sampler.factor!r}", flush=True)
