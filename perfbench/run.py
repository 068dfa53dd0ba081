"""objslam benchmark: map simulated desk scenes and report what a user sees.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

An operation maps one scene end to end: load its files, `run_slam`, write the
map and check it (see checker.py). With ``--trace 0`` the run maps whole
rounds of the workload's scenes until S seconds have passed and prints the
end-to-end metrics; with ``--trace 1`` it maps the first scene untraced and
then traced, and prints the per-layer metrics of the traced run. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics. See README.md for the workloads and metrics.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the dense systems (n <= ~300) gain
# nothing from more, and a second thread only adds noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from checker import CheckResult, check_map, check_repeat  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracer import Tracer, collecting_solves, install, layer_metrics, span_cost  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


@dataclass
class Mapped:
    """One mapped scene. Times are at the reference speed: the wall time
    `wall_s` times the `speed` factor sampled while run_slam ran."""

    run_s: float
    wall_s: float
    speed: float
    map_bytes: bytes
    reported: dict
    solves: list
    check: CheckResult

    @property
    def iou(self) -> list:
        return [o[2] for o in self.reported["objects"]]


def map_scene(scene, cfg, map_path: Path, timings=None) -> Mapped:
    """One operation: load, run_slam, write the map, check it."""
    from objslam import dataset, pipeline, priors

    data = dataset.load_dataset(scene.directory)
    table = priors.parse_prior_csv(scene.priors_csv.read_text())
    solves: list = []
    with collecting_solves(solves), SpeedSampler() as sampler:
        t0 = time.perf_counter()
        estimate, report, _ = pipeline.run_slam(cfg, data, table, timings)
        wall_s = time.perf_counter() - t0
    pipeline.write_map_json(estimate, map_path)
    raw = map_path.read_bytes()
    reported = {
        "tp": report.tp, "fp": report.fp, "fn": report.fn, "ate": report.ate,
        "objects": [(o.est_index, o.gt_index, o.iou, o.centroid_error, o.size_error)
                    for o in report.objects],
    }
    costs = [(r.initial_cost, r.final_cost) for r in solves]
    check = check_map(json.loads(raw), scene.truth, reported, costs, cfg.mode)
    speed = sampler.factor
    return Mapped(speed * wall_s, wall_s, speed, raw, reported, costs, check)


def prefix_map(scene, cfg, n_frames: int, map_path: Path) -> bytes:
    """The map written for the first `n_frames` frames of a scene."""
    import workloads
    from objslam import dataset, pipeline, priors

    data = workloads.prefix(dataset.load_dataset(scene.directory), n_frames)
    table = priors.parse_prior_csv(scene.priors_csv.read_text())
    estimate, _, _ = pipeline.run_slam(cfg, data, table)
    pipeline.write_map_json(estimate, map_path)
    return map_path.read_bytes()


def determinism_probe(scene, cfg, work: Path) -> list[str]:
    """Map the first frames of a scene twice; the maps must be identical. It
    also warms the code paths and lazy imports before anything is timed."""
    import workloads

    maps = [prefix_map(scene, cfg, workloads.PROBE_FRAMES, work / f"probe{i}.json")
            for i in range(2)]
    return check_repeat(*maps, "determinism probe")


def units(kind: str) -> dict:
    """Metric name to unit, from the benchmark's definition file."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def setup_seconds(scene) -> float:
    """Median over fresh interpreters of process start until the dataset and
    priors are loaded, at the reference speed the probe sampled."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(scene.directory),
             str(scene.priors_csv)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            wall_s = time.perf_counter() - t0
            proc.wait(timeout=120)
        word, _, speed = line.partition(" ")
        if word != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        times.append(wall_s * float(speed))
    return statistics.median(times)


def report(correct: bool, attempted: int, failed: int, values: dict, kind: str) -> None:
    """Print the result line; every metric `kind` defines must have a value."""
    metrics = {k: {"value": values[k], "unit": u} for k, u in units(kind).items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def log_scene(scene, m: Mapped) -> None:
    c = m.check
    mean = (lambda xs: sum(xs) / len(xs) if xs else float("nan"))
    print(f"scene {scene.index} seed={scene.scene_seed} run_s={m.run_s:.3f} "
          f"wall_s={m.wall_s:.3f} speed={m.speed:.3f} "
          f"tp={c.tp} fp={c.fp} fn={c.fn} iou={mean(m.iou):.4f} "
          f"centroid_err_m={mean(c.centroid_err):.5f} size_err_m={mean(c.size_err):.5f} "
          f"ate_m={c.ate:.5f}" + ("" if c.ok else f" PROBLEMS: {c.problems}"))


def run_untraced(workload, seed: int, seconds: float, work: Path) -> int:
    import workloads

    scenes, unplaced = workloads.make_scenes(seed, workload.scenes_per_round, work)
    if unplaced:
        print(f"left out scene seeds the simulator cannot place: {unplaced}")
    cfg = workload.run_config()
    problems = determinism_probe(scenes[0], cfg, work)
    setup_s = setup_seconds(scenes[0])

    attempted = failed = 0
    first_maps: dict[int, bytes] = {}
    ok: list[tuple[int, Mapped]] = []
    t_start = time.perf_counter()
    for round_no in itertools.count():
        for scene in scenes:
            attempted += 1
            try:
                m = map_scene(scene, cfg, work / f"map{scene.index}.json")
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            m.check.problems += check_repeat(
                first_maps.setdefault(scene.index, m.map_bytes), m.map_bytes,
                f"scene {scene.index}")
            if round_no == 0 or not m.check.ok:
                log_scene(scene, m)
            if m.check.ok:
                ok.append((round_no, m))
            else:
                failed += 1
        if time.perf_counter() - t_start >= seconds:
            break
    for p in problems:
        print(p, file=sys.stderr)
    if not ok:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    first_round = [m for r, m in ok if r == 0]
    values = {
        "setup_s": setup_s,
        "run_s": statistics.median(m.run_s for _, m in ok),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "objects_mapped": statistics.mean(m.check.tp for m in first_round),
        "mean_iou": statistics.mean(v for m in first_round for v in m.iou),
    }
    report(not problems, attempted, failed, values, "end_to_end")
    return 0


def run_traced(workload, seed: int, work: Path) -> int:
    import workloads

    scenes, _ = workloads.make_scenes(seed, 1, work)
    scene, cfg = scenes[0], workload.run_config()
    problems = determinism_probe(scene, cfg, work)
    plain = map_scene(scene, cfg, work / "plain.json")
    log_scene(scene, plain)
    timings: dict = {}
    with Tracer() as tr:
        seen = install(tr)
        traced = map_scene(scene, cfg, work / "traced.json", timings=timings)
    problems += check_repeat(plain.map_bytes, traced.map_bytes, "traced run")
    for p in problems + plain.check.problems + traced.check.problems:
        print(p, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.npz"
    tr.write(trace_path)
    print(f"spans written to {trace_path.relative_to(ROOT)}")

    values = layer_metrics(tr, seen, timings)
    layer_units = units("per_layer")
    for k, v in values.items():
        if layer_units[k] == "s":
            values[k] = v * traced.speed
    c = traced.check
    values.update({
        "evaluation.centroid_err_m": statistics.mean(c.centroid_err),
        "evaluation.size_err_m": statistics.mean(c.size_err),
        "evaluation.ate_m": c.ate,
        "trace.untraced_run_s": plain.run_s,
        "trace.traced_run_s": traced.run_s,
        "trace.overhead_ratio": traced.run_s / plain.run_s - 1.0,
        "trace.span_cost_us": 1e6 * span_cost(),
    })
    failed = int(not plain.check.ok) + int(not traced.check.ok)
    report(not problems, 2, failed, values, "per_layer")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "objslam" / "__init__.py").is_file():
        print(f"perfbench: no objslam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads

    import objslam

    if Path(objslam.__file__).resolve().parent != ROOT / "src" / "objslam":
        print(f"perfbench: imported objslam from {objslam.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = OUT / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            return run_traced(workload, args.seed, work)
        return run_untraced(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
