"""Spans and counts around objslam's public calls, recorded from outside.

`Tracer` replaces functions and methods with wrappers that record a span
(name, start, end, parent) in memory, and puts every original back when it
closes. `install` picks the calls of each layer and the counts the
per-layer metrics need. A layer's self time is the time of its spans minus
the part their child spans cover.
"""

from __future__ import annotations

import builtins
import inspect
import io
import json
import os
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("dataset", "priors", "pipeline", "association", "optimizer", "factors",
          "geometry", "evaluation")
FACTOR_KINDS = ("odometry", "bbox", "size_prior", "orientation_prior", "centroid")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._undo: list = []

    def wrap(self, fn, name: str, after=None):
        """`fn` recording one span per call; `after(args, kwargs, result)`
        runs once the span has ended."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter
        stack, name_id, parent = self._stack, self.name_id, self.parent
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, value)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Trace `owner.attr`, a module function or a class's method."""
        self._set(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def patch_function(self, module, attr: str, name: str, after=None, body=None) -> None:
        """Trace a module function and every alias of it that an objslam
        module bound with ``from module import name``. The span runs `body`
        in its place when given."""
        original = getattr(module, attr)
        traced = self.wrap(body or original, name, after)
        for mod_name, mod in sorted(sys.modules.items()):
            if not mod_name.startswith("objslam") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, traced)

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total time and self time per span name."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        n = len(self.names)
        return {
            name: {
                "calls": int(calls),
                "total_s": float(total),
                "self_s": float(own),
            }
            for name, calls, total, own in zip(
                self.names,
                np.bincount(a["name_id"], minlength=n),
                np.bincount(a["name_id"], weights=dur, minlength=n),
                np.bincount(a["name_id"], weights=self_time, minlength=n),
            )
        }

    def outermost_total(self, prefix: str) -> float:
        """Time in spans named `prefix`* whose parent is not such a span."""
        a = self.arrays()
        ids = [i for i, n in enumerate(self.names) if n.startswith(prefix)]
        mine = np.isin(a["name_id"], ids)
        parent_mine = np.zeros_like(mine)
        has_parent = a["parent"] >= 0
        parent_mine[has_parent] = mine[a["parent"][has_parent]]
        top = mine & ~parent_mine
        return float(np.sum(a["end"][top] - a["start"][top]))

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
        path.with_suffix(".json").write_text(
            json.dumps({"spans": self.summary(), "counts": dict(self.counts),
                        "maxima": dict(self.maxima)}, indent=1, sort_keys=True) + "\n"
        )


def span_cost(n: int = 50_000) -> float:
    """Seconds one traced call adds to a call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    t1 = time.perf_counter()
    for _ in range(n):
        traced()
    t2 = time.perf_counter()
    return ((t2 - t1) - (t1 - t0)) / n


@contextmanager
def _counting_reads(counts: Counter, key: str):
    """Count the size of every file opened for reading while active."""
    real_open, real_io_open = builtins.open, io.open

    def counting_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if not any(c in mode for c in "wax+"):
            counts[key] += os.fstat(f.fileno()).st_size
        return f

    builtins.open = io.open = counting_open
    try:
        yield
    finally:
        builtins.open, io.open = real_open, real_io_open


@contextmanager
def collecting_solves(reports: list):
    """Append the SolveReport of every solve the pipeline runs to `reports`.
    Reads no clock, so it leaves the untraced timings alone."""
    from objslam import pipeline

    originals = {n: getattr(pipeline, n) for n in ("solve_batch", "solve_incremental")}

    def collector(fn):
        def collect(*args, **kwargs):
            result = fn(*args, **kwargs)
            reports.append(result[1])
            return result
        return collect

    try:
        for n, fn in originals.items():
            setattr(pipeline, n, collector(fn))
        yield reports
    finally:
        for n, fn in originals.items():
            setattr(pipeline, n, fn)


def install(tr: Tracer) -> dict:
    """Trace the public calls of every layer. Returns a dict that receives
    the factor graph the pipeline builds."""
    import scipy.linalg

    from objslam import association, dataset, evaluation, factors, geometry
    from objslam import optimizer, pipeline, priors

    seen: dict = {}
    counts, maxima = tr.counts, tr.maxima

    load = dataset.load_dataset

    def load_counting_bytes(path):
        with _counting_reads(counts, "dataset.bytes_read"):
            return load(path)

    tr.patch_function(dataset, "load_dataset", "dataset.load_dataset",
                      body=load_counting_bytes)
    tr.patch_function(priors, "parse_prior_csv", "priors.parse_prior_csv")
    tr.patch_function(pipeline, "run_slam", "pipeline.run_slam")

    def tracked(args, kwargs, result):
        counts["association.detections"] += len(args[1])

    tr.patch_function(association, "track_frame", "association.track_frame", tracked)
    tr.patch_function(association, "associate_long_term", "association.associate_long_term")
    tr.patch_function(association, "association_weight", "association.association_weight")
    tr.patch_function(association, "solve_lsap", "association.solve_lsap")

    keyframe_sig = inspect.signature(optimizer.add_keyframe)

    def keyframe_added(args, kwargs, result):
        bound = keyframe_sig.bind(*args, **kwargs).arguments
        counts["association.matched"] += len(bound["associations"].matches)
        counts["association.keyframe_detections"] += len(bound["detections"])
        seen["graph"] = bound["graph"]

    def solved(args, kwargs, result):
        report = result[1]
        counts["optimizer.lm_iterations"] += report.iterations
        counts["optimizer.converged_solves"] += int(report.converged)

    def factored(args, kwargs, result):
        maxima["optimizer.max_dim"] = max(maxima["optimizer.max_dim"], len(args[0]))

    tr.patch_function(optimizer, "add_keyframe", "optimizer.add_keyframe", keyframe_added)
    tr.patch_function(optimizer, "solve_batch", "optimizer.solve_batch", solved)
    tr.patch_function(optimizer, "solve_incremental", "optimizer.solve_incremental", solved)
    tr.patch_function(optimizer, "cost_breakdown", "optimizer.cost_breakdown")
    tr.patch(scipy.linalg, "cho_factor", "optimizer.cho_factor", factored)
    tr.patch(scipy.linalg, "cho_solve", "optimizer.cho_solve")

    for cls in (factors.OdometryFactor, factors.BBoxFactor, factors.SizePriorFactor,
                factors.OrientationPriorFactor, factors.CentroidPriorFactor):
        def skipped(args, kwargs, result, key=f"factors.{cls.kind}.skipped"):
            if result is None:
                counts[key] += 1

        tr.patch(cls, "jacobian_at", f"factors.{cls.kind}.jacobian", skipped)
        tr.patch(cls, "residual_at", f"factors.{cls.kind}.residual", skipped)

    def projected(args, kwargs, result):
        counts["geometry.project_rows"] += len(args[0])

    tr.patch_function(geometry, "project_bbox_batch", "geometry.project_bbox_batch", projected)
    for cls in (geometry.Pose, geometry.Quadric):
        tr.patch(cls, "__post_init__", f"geometry.{cls.__name__}.validate")
        tr.patch(cls, "retract", f"geometry.{cls.__name__}.retract")

    for fn in ("evaluate_map", "iou_error_series", "ate_rmse", "box_iou_3d"):
        tr.patch_function(evaluation, fn, f"evaluation.{fn}")
    return seen


def layer_metrics(tr: Tracer, seen: dict, stage_timings: dict[str, float]) -> dict[str, float]:
    """Per-layer metric values from one traced scene."""
    s = tr.summary()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def calls(name):
        return s.get(name, zero)["calls"]

    def total(*names):
        return sum(s.get(n, zero)["total_s"] for n in names)

    c = tr.counts
    trials = calls("optimizer.cho_factor")
    m: dict[str, float] = {
        "dataset.load_s": total("dataset.load_dataset"),
        "dataset.bytes_read": c["dataset.bytes_read"],
        "priors.parse_s": total("priors.parse_prior_csv"),
    }
    for stage in ("track", "associate", "add_keyframe", "solve", "evaluate"):
        m[f"pipeline.{stage}_s"] = stage_timings.get(stage, 0.0)
    m.update({
        "association.track_calls": calls("association.track_frame"),
        "association.long_term_calls": calls("association.associate_long_term"),
        "association.weight_evals": calls("association.association_weight"),
        "association.weight_s": total("association.association_weight"),
        "association.lsap_calls": calls("association.solve_lsap"),
        "association.detections": c["association.detections"],
        "association.match_ratio": c["association.matched"]
        / max(c["association.keyframe_detections"], 1),
        "optimizer.solve_calls": calls("optimizer.solve_batch")
        + calls("optimizer.solve_incremental"),
        "optimizer.solve_s": total("optimizer.solve_batch", "optimizer.solve_incremental"),
        "optimizer.lm_iterations": c["optimizer.lm_iterations"],
        "optimizer.cost_evals": calls("optimizer.cost_breakdown"),
        "optimizer.cost_eval_s": tr.outermost_total("optimizer.cost_breakdown"),
        "optimizer.step_accept_ratio": c["optimizer.lm_iterations"] / max(trials, 1),
        "optimizer.converged_solves": c["optimizer.converged_solves"],
        "optimizer.cholesky_calls": trials,
        "optimizer.cholesky_s": total("optimizer.cho_factor", "optimizer.cho_solve"),
        "optimizer.max_dim": tr.maxima["optimizer.max_dim"],
    })
    kinds = seen["graph"].counts_by_kind() if "graph" in seen else {}
    for k in FACTOR_KINDS:
        m[f"factors.{k}.count"] = kinds.get(k, 0)
        m[f"factors.{k}.jacobian_calls"] = calls(f"factors.{k}.jacobian")
        m[f"factors.{k}.jacobian_s"] = tr.outermost_total(f"factors.{k}.jacobian")
        m[f"factors.{k}.residual_calls"] = calls(f"factors.{k}.residual")
        m[f"factors.{k}.residual_s"] = tr.outermost_total(f"factors.{k}.residual")
        m[f"factors.{k}.skipped"] = c[f"factors.{k}.skipped"]
    m.update({
        "geometry.project_calls": calls("geometry.project_bbox_batch"),
        "geometry.project_rows": c["geometry.project_rows"],
        "geometry.project_s": tr.outermost_total("geometry.project_bbox_batch"),
        "geometry.pose_inits": calls("geometry.Pose.validate"),
        "geometry.quadric_inits": calls("geometry.Quadric.validate"),
        "geometry.validate_s": total("geometry.Pose.validate", "geometry.Quadric.validate"),
        "geometry.retract_calls": calls("geometry.Pose.retract")
        + calls("geometry.Quadric.retract"),
        "geometry.retract_s": tr.outermost_total("geometry.Pose.retract")
        + tr.outermost_total("geometry.Quadric.retract"),
        "evaluation.evaluate_s": tr.outermost_total("evaluation."),
        "evaluation.iou_calls": calls("evaluation.box_iou_3d"),
        "evaluation.iou_s": total("evaluation.box_iou_3d"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for n, v in s.items()
                                   if n.startswith(layer + "."))
    m["trace.spans"] = len(tr.start)
    return m
