"""Print the SHA-256 and path of every file a fixed set of runs writes.

    PYTHONPATH=src python tests/output_hashes.py OUTDIR

Run it on two checkouts and compare the printed lines: equal lines mean a
change kept every output byte. It writes, under OUTDIR:

- ``sim/``: ``objslam simulate -o sim --set scene.n_objects=8
  --set sim.sigma_px=2.0``;
- ``run-incremental/``, ``run-batch/``: ``objslam run`` on that dataset in
  each mode, with its prior CSV;
- ``eval-<mode>/``: ``objslam evaluate`` of each run's map, with
  ``-o report.json --iou-csv iou_series.csv``;
- ``scenes/``: the 8 seed-0 scenes of ``perfbench/workloads.make_scenes``,
  and ``<workload>/sceneN/``: each scene mapped by ``pipeline.run_to_files``
  with that benchmark workload's config.

Each line is ``<sha256>  <path relative to OUTDIR>``, sorted by path. The
script reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from objslam import cli, pipeline  # noqa: E402

import workloads  # noqa: E402

SCENES = 8


def objslam(*argv: str) -> None:
    """One CLI command, its standard output dropped; RuntimeError unless it
    exits 0."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"objslam {' '.join(argv)} exited {code}")


def write_outputs(out: Path) -> None:
    sim = out / "sim"
    objslam("simulate", "-o", str(sim), "--set", "scene.n_objects=8", "--set", "sim.sigma_px=2.0")
    for mode in ("incremental", "batch"):
        run = out / f"run-{mode}"
        objslam("run", "--dataset", str(sim), "--priors", str(sim / "priors.csv"),
                "-o", str(run), "--set", f"mode={mode}")
        report = out / f"eval-{mode}"
        report.mkdir()
        objslam("evaluate", "--map", str(run / "map.json"), "--dataset", str(sim),
                "-o", str(report / "report.json"), "--iou-csv", str(report / "iou_series.csv"))
    scenes, _ = workloads.make_scenes(0, SCENES, out / "scenes")
    for name, workload in workloads.WORKLOADS.items():
        cfg = workload.run_config()
        for scene in scenes:
            paths = dataclasses.replace(
                cfg.paths, dataset=str(scene.directory), priors_csv=str(scene.priors_csv),
                output_dir=str(out / name / scene.directory.name),
            )
            pipeline.run_to_files(dataclasses.replace(cfg, paths=paths))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    out = Path(argv[0])
    write_outputs(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
