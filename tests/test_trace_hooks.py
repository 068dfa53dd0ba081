"""The benchmark's trace hooks against this package.

``perfbench/tracer.py`` wraps objslam's public calls by name from outside.
Traced on a small simulated scene, the calls it patches must still be the
ones the pipeline reaches, and closing the tracer must put every patched
attribute back. The test only reads ``perfbench/``.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import scipy.linalg

from objslam import factors, geometry, pipeline
from objslam.config import load_run_config
from objslam.dataset import load_dataset
from objslam.priors import parse_prior_csv

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _namespaces() -> list:
    """Every namespace the tracer may patch: the objslam modules, the
    classes whose methods it wraps, and scipy.linalg."""
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("objslam") and m]
    classes = [geometry.Pose, geometry.Quadric, factors.Factor, factors.OdometryFactor,
               factors.BBoxFactor, factors.SizePriorFactor, factors.OrientationPriorFactor,
               factors.CentroidPriorFactor]
    return modules + classes + [scipy.linalg]


def _changed(snapshot: list[dict]) -> list[str]:
    """Attributes that differ from the snapshot, by identity."""
    out = []
    for owner, before in zip(_namespaces(), snapshot):
        now = vars(owner)
        for key in set(before) | set(now):
            if key not in before or key not in now or now[key] is not before[key]:
                out.append(f"{owner.__name__}.{key}")
    return out


def test_install_traces_run_slam_and_close_restores(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # write nothing there
    tracer = importlib.import_module("tracer")
    cfg = load_run_config(overrides=[
        "scene.n_objects=3", "scene.n_frames=6", "mode=incremental",
        f"paths.output_dir={tmp_path}",
    ])
    data_dir = pipeline.run_simulate(cfg)
    dataset = load_dataset(data_dir)
    table = parse_prior_csv((data_dir / "priors.csv").read_text())

    snapshot = [dict(vars(owner)) for owner in _namespaces()]
    tr = tracer.Tracer()
    try:
        seen = tracer.install(tr)
        patched = _changed(snapshot)
        assert "objslam.pipeline.run_slam" in patched
        assert "Pose.retract" in patched and "BBoxFactor.jacobian_at" in patched
        # The tracer still wraps the short-term tracker's stub by name.
        assert "objslam.association.track_frame" in patched
        pipeline.run_slam(cfg, dataset, table)
        metrics = tracer.layer_metrics(tr, seen, {})
    finally:
        tr.close()
    assert metrics["optimizer.lm_iterations"] > 0
    # The LM loop reaches the scoring pass and the factorization by the
    # names the tracer counts: every solve scores its start and each
    # accepted step was a scored trial.
    assert metrics["optimizer.cost_evals"] >= (
        metrics["optimizer.lm_iterations"] + metrics["optimizer.solve_calls"]
    )
    assert metrics["optimizer.cholesky_calls"] > 0
    # Association reaches its weight function by the name the tracer patches.
    assert metrics["association.long_term_calls"] > 0
    assert metrics["association.weight_evals"] > 0
    # No run reaches the short-term tracker's stub.
    assert metrics["association.track_calls"] == 0
    assert metrics["geometry.project_rows"] > 0
    assert _changed(snapshot) == []
