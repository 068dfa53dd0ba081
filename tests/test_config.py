from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from objslam import optimizer
from objslam.association import AssociationResult
from objslam.config import (
    CameraConfig,
    ConfigError,
    Flags,
    NoiseConfig,
    Paths,
    RunConfig,
    SceneConfig,
    apply_overrides,
    build_run_config,
    load_run_config,
)
from objslam.dataset import Detection
from objslam.geometry import BoundingBox2D, CameraIntrinsics, Pose
from objslam.optimizer import BBOX_HUBER_MULTIPLIER, FactorGraph, GraphValues, add_keyframe
from objslam.priors import OrientationClass, PriorRecord, PriorTable
from objslam.simulator import SimConfig


class TestDefaults:
    def test_empty_document_gives_defaults(self):
        cfg = build_run_config({})
        assert cfg == RunConfig()
        assert cfg.mode == "incremental"
        assert cfg.flags.size_prior and cfg.flags.orientation_prior

    def test_none_document_gives_defaults(self):
        assert build_run_config(None) == RunConfig()

    def test_no_path_gives_defaults(self):
        assert load_run_config() == RunConfig()


class TestSections:
    def test_nested_sections_parse(self):
        cfg = build_run_config(
            {
                "mode": "batch",
                "match_threshold": 0.25,
                "paths": {"dataset": "d", "output_dir": "o"},
                "noise": {"bbox_sigma_px": 2.5},
                "flags": {"size_prior": False},
                "solver": {"max_iterations": 17},
                "scene": {"n_objects": 4, "area": [1.5, 0.9]},
            }
        )
        assert cfg.mode == "batch"
        assert cfg.match_threshold == 0.25
        assert cfg.paths.dataset == "d"
        assert cfg.noise.bbox_sigma_px == 2.5
        assert not cfg.flags.size_prior
        assert cfg.solver.max_iterations == 17
        assert cfg.scene.area == (1.5, 0.9)
        # untouched sections keep their defaults
        assert cfg.camera.fx == 500.0

    def test_null_section_is_defaults(self):
        cfg = build_run_config({"noise": None})
        assert cfg.noise == NoiseConfig()

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match=r"\[noise\]"):
            build_run_config({"noise": {"bbox_sigma": 1.0}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="top-level"):
            build_run_config({"velocity": 3})

    @pytest.mark.parametrize("document", [{1: 2, "velocity": 3}, {"solver": {1: 2, "step": 3}}])
    def test_unknown_keys_of_mixed_types_rejected(self, document):
        # YAML keys need not be strings; sorting 1 with "velocity" raised a
        # TypeError, which the CLI reports as a runtime error.
        with pytest.raises(ConfigError, match=r"unknown .*\['1', '(velocity|step)'\]"):
            build_run_config(document)

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            build_run_config({"flags": [1, 2]})

    def test_invalid_section_value_rejected(self):
        with pytest.raises(ConfigError, match=r"\[noise\]"):
            build_run_config({"noise": {"bbox_sigma_px": -1.0}})

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError, match="mode"):
            build_run_config({"mode": "online"})


class TestValidation:
    def test_camera_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            CameraConfig(fx=0.0)

    def test_scene_rejects_negative_frames(self):
        with pytest.raises(ValueError):
            SceneConfig(n_frames=-1)

    def test_scene_rejects_bad_area(self):
        with pytest.raises(ValueError):
            SceneConfig(area=(2.0, 0.0))

    def test_noise_rejects_zero_sigma(self):
        with pytest.raises(ValueError):
            NoiseConfig(odom_sigma_rot=0.0)

    def test_match_threshold_positive(self):
        with pytest.raises(ValueError):
            RunConfig(match_threshold=0.0)

    @pytest.mark.parametrize(
        "override",
        [
            "noise.odom_sigma_trans=.nan",
            "camera.fx=.nan",
            "scene.radius=.nan",
            "sim.sigma_px=.inf",
            "noise.bbox_sigma_px=.nan",
            "noise.odom_sigma_rot=.nan",
            "sim.sigma_depth=.nan",
            "match_threshold=.nan",
            "scene.area=[2.0, .nan]",
        ],
    )
    def test_non_finite_numbers_rejected(self, override):
        # Range checks written `x <= 0` pass NaN.
        with pytest.raises(ConfigError, match=override.split("=")[0]):
            load_run_config(overrides=[override])


def _settings_types(cls) -> list:
    """cls and every settings type reachable through its sections."""
    sections = [
        f.default_factory for f in dataclasses.fields(cls)
        if f.default_factory is not dataclasses.MISSING
    ]
    return [cls] + [t for section in sections for t in _settings_types(section)]


SETTINGS_TYPES = _settings_types(RunConfig) + [CameraIntrinsics]
# Every settings type but CameraIntrinsics builds from its defaults alone.
REQUIRED = {CameraIntrinsics: {"fx": 500.0, "fy": 500.0, "cx": 320.0, "cy": 240.0}}


def _build(cls, name, value):
    return cls(**{**REQUIRED.get(cls, {}), name: value})


def _fields_typed(*annotations) -> list:
    return [
        (cls, f.name)
        for cls in SETTINGS_TYPES
        for f in dataclasses.fields(cls)
        if f.type in annotations
    ]


def _ids(pairs) -> list[str]:
    return [f"{cls.__name__}.{name}" for cls, name in pairs]


FLOAT_FIELDS = _fields_typed("float")
INT_FIELDS = _fields_typed("int", "int | None")
BOOL_FIELDS = _fields_typed("bool")
STR_FIELDS = _fields_typed("str", "str | None")
# scene.area holds two floats; RunConfig's sections are settings types of their own.
AREA_FIELDS = _fields_typed("tuple[float, float]")
SECTION_FIELDS = [
    (RunConfig, f.name) for f in dataclasses.fields(RunConfig)
    if f.default_factory is not dataclasses.MISSING
]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS, ids=_ids(FLOAT_FIELDS))
def test_settings_types_reject_non_finite_floats(cls, name, value):
    # Built directly, not through build_run_config: a NaN slips past range
    # checks written `x <= 0`, and a NaN damping never ends the solver's
    # escalation loop.
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        _build(cls, name, value)


@pytest.mark.parametrize(
    "value", [2.5, 2.0, True, "2"], ids=["fraction", "float", "bool", "string"]
)
@pytest.mark.parametrize("cls,name", INT_FIELDS, ids=_ids(INT_FIELDS))
def test_settings_types_reject_non_integers(cls, name, value):
    # A float would be truncated or fail deep inside a run, and a bool would
    # pass for 1.
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        _build(cls, name, value)


@pytest.mark.parametrize("value", [True, False, "2.0"], ids=["true", "false", "string"])
@pytest.mark.parametrize("cls,name", FLOAT_FIELDS, ids=_ids(FLOAT_FIELDS))
def test_float_fields_reject_non_numbers(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a number"):
        _build(cls, name, value)


@pytest.mark.parametrize("value", ["false", "true", 0, None], ids=["false", "true", "int", "null"])
@pytest.mark.parametrize("cls,name", BOOL_FIELDS, ids=_ids(BOOL_FIELDS))
def test_bool_fields_reject_non_bools(cls, name, value):
    # A quoted "false" is truthy: taken as is, it would leave a prior on.
    with pytest.raises(ValueError, match=f"{name} must be true or false"):
        _build(cls, name, value)


@pytest.mark.parametrize("value", [5, True, ["a"]], ids=["int", "bool", "list"])
@pytest.mark.parametrize("cls,name", STR_FIELDS, ids=_ids(STR_FIELDS))
def test_str_fields_reject_non_strings(cls, name, value):
    with pytest.raises(ValueError, match=f"{name} must be a string"):
        _build(cls, name, value)


@pytest.mark.parametrize(
    "value,problem",
    [
        ((2.0, "1"), "must be a number"),
        ([float("-inf"), 1.0], "must be finite"),
        (2.0, "must be a list"),
        ("21", "must be a list"),
    ],
)
def test_area_entries_follow_the_float_rule(value, problem):
    # Bool and NaN entries from a document are in TestValidation and the CLI.
    with pytest.raises(ValueError, match=f"area {problem}"):
        SceneConfig(area=value)


def test_float_fields_are_all_covered():
    # Every field of every settings type is checked above by its annotation,
    # so a field with an annotation the rule does not read shows here.
    typed = FLOAT_FIELDS + INT_FIELDS + BOOL_FIELDS + STR_FIELDS + AREA_FIELDS + SECTION_FIELDS
    every = [(cls, f.name) for cls in SETTINGS_TYPES for f in dataclasses.fields(cls)]
    assert sorted(_ids(typed)) == sorted(_ids(every))
    assert len(SETTINGS_TYPES) == 9


def test_int_fields_are_all_covered():
    # Each int and bool field takes a value of its own type, and None where
    # its annotation admits it.
    for cls, name in INT_FIELDS:
        assert getattr(_build(cls, name, 3), name) == 3
    assert SimConfig(max_observations_per_object=None).max_observations_per_object is None
    for cls, name in BOOL_FIELDS:
        assert getattr(_build(cls, name, False), name) is False
    assert Paths(dataset=None, output_dir="o").output_dir == "o"


class TestOverrides:
    def test_dotted_override_types(self):
        doc = apply_overrides(
            {},
            [
                "solver.max_iterations=50",
                "flags.size_prior=false",
                "noise.bbox_sigma_px=1.5",
                "mode=batch",
                "paths.dataset=runs/a",
            ],
        )
        cfg = build_run_config(doc)
        assert cfg.solver.max_iterations == 50
        assert cfg.flags.size_prior is False
        assert cfg.noise.bbox_sigma_px == 1.5
        assert cfg.mode == "batch"
        assert cfg.paths.dataset == "runs/a"

    def test_override_wins_over_file_value(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("mode: batch\nnoise:\n  bbox_sigma_px: 9.0\n")
        cfg = load_run_config(p, ["noise.bbox_sigma_px=3.0"])
        assert cfg.mode == "batch"
        assert cfg.noise.bbox_sigma_px == 3.0

    def test_override_into_empty_section(self, tmp_path):
        # "solver:" with nothing under it loads as None, an empty section.
        p = tmp_path / "run.yaml"
        p.write_text("mode: batch\nsolver:\n")
        cfg = load_run_config(p, ["solver.max_iterations=5"])
        assert cfg.mode == "batch"
        assert cfg.solver == dataclasses.replace(RunConfig().solver, max_iterations=5)

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides({}, ["solver.max_iterations"])

    def test_empty_key_component_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            apply_overrides({}, ["solver.=3"])

    def test_descending_into_scalar_rejected(self):
        with pytest.raises(ConfigError, match="non-mapping"):
            apply_overrides({"mode": "batch"}, ["mode.inner=1"])

    def test_exponent_float_override(self):
        doc = apply_overrides({}, ["noise.odom_sigma_rot=1e-9"])
        assert build_run_config(doc).noise.odom_sigma_rot == 1e-9

    def test_unknown_override_key_caught_at_build(self):
        doc = apply_overrides({}, ["solver.step_size=1"])
        with pytest.raises(ConfigError):
            build_run_config(doc)


class TestFiles:
    def test_exponent_float_in_file(self, tmp_path):
        p = tmp_path / "run.yaml"
        p.write_text("noise:\n  odom_sigma_rot: 1e-9\n  bbox_sigma_px: 1.0e9\n")
        cfg = load_run_config(p)
        assert cfg.noise.odom_sigma_rot == 1e-9
        assert cfg.noise.bbox_sigma_px == 1e9

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_run_config(tmp_path / "absent.yaml")

    def test_invalid_yaml_raises(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("mode: [unclosed\n")
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_run_config(p)

    def test_non_mapping_file_raises(self, tmp_path):
        p = tmp_path / "list.yaml"
        p.write_text("- a\n- b\n")
        with pytest.raises(ConfigError, match="mapping"):
            load_run_config(p)

    def test_empty_file_is_defaults(self, tmp_path):
        p = tmp_path / "empty.yaml"
        p.write_text("")
        assert load_run_config(p) == RunConfig()


def _two_keyframe_graph(cfg, camera, image_sizes):
    """Map two detections seen in two keyframes with the sections of ``cfg``."""
    priors = PriorTable()
    priors.add(PriorRecord("mug", 0.1, 0.1, 0.12, OrientationClass.VERTICAL))
    # The second box touches the right and bottom borders of 640 x 480.
    dets = [
        Detection(BoundingBox2D(300, 220, 340, 260), "mug", 0.8, center_depth=2.0),
        Detection(BoundingBox2D(600, 440, 640, 480), "mug", 0.8, center_depth=2.0),
    ]
    graph, values = FactorGraph(), GraphValues()
    for pose_id, odom, assoc, image_size in (
        (0, None, AssociationResult({}, (0, 1)), image_sizes[0]),
        (1, Pose.identity(), AssociationResult({0: 0, 1: 1}, ()), image_sizes[1]),
    ):
        add_keyframe(
            graph, values, pose_id, Pose.identity(), odom, dets, assoc, priors, camera,
            cfg.noise, cfg.flags, image_size,
        )
    return graph


class TestFactorPolicy:
    """The noise and flags sections, with the Huber width and prior scale
    constants, set the factors add_keyframe builds."""

    def test_flags_and_noise_propagate(self, camera):
        cfg = build_run_config(
            {
                "flags": {"orientation_prior": False, "centroid_factor": False},
                "noise": {"bbox_sigma_px": 3.0, "odom_sigma_rot": 0.02,
                          "odom_sigma_trans": 0.05},
            }
        )
        graph = _two_keyframe_graph(cfg, camera, (None, None))
        assert graph.counts_by_kind() == {"bbox": 4, "size_prior": 2, "odometry": 1}
        # A batch holds its noise models as square-root information rows
        # 1 / sqrt(variances) and Huber thresholds.
        for b in graph.batches():
            if b.kind == "bbox":
                np.testing.assert_array_equal(b.sqrt_info, 1.0 / np.sqrt(np.full((4, 4), 9.0)))
                assert (b.huber == BBOX_HUBER_MULTIPLIER).all()
                assert BBOX_HUBER_MULTIPLIER == 2.0
        (odom,) = [b for b in graph.batches() if b.kind == "odometry"]
        np.testing.assert_allclose(
            odom.sqrt_info, 1.0 / np.sqrt([[4e-4] * 3 + [2.5e-3] * 3]), rtol=1e-15
        )
        assert odom.huber.tolist() == [np.inf]

    def test_image_size_optional(self, camera):
        cfg = build_run_config({"flags": {"centroid_factor": False}})
        graph = _two_keyframe_graph(cfg, camera, ((640, 480), None))
        (bbox,) = [b for b in graph.batches() if b.kind == "bbox"]
        masks = bbox.inputs[2].tolist()  # the border masks, in the order added
        assert masks == [[True] * 4, [True, True, False, False], [True] * 4, [True] * 4]

    def test_prior_config_shared(self, camera, monkeypatch):
        # Roll and pitch scales unlike each other, so a swapped column shows:
        # tilt row 0 is about local y (KY), row 1 about local x (KX).
        monkeypatch.setattr(optimizer, "KX", np.pi / 32)
        monkeypatch.setattr(optimizer, "KY", np.pi / 40)
        cfg = build_run_config({"flags": {"centroid_factor": False}})
        graph = _two_keyframe_graph(cfg, camera, (None, None))
        (orient,) = [b for b in graph.batches() if b.kind == "orientation_prior"]
        assert len(orient.huber) == 2
        for sqrt_info in orient.sqrt_info:
            np.testing.assert_allclose(sqrt_info, [40 / np.pi, 32 / np.pi], rtol=1e-15)

    def test_paths_defaults(self):
        p = Paths()
        assert p.dataset is None and p.output_dir == "out"

    def test_flags_independent(self):
        f = Flags(size_prior=False, orientation_prior=True, centroid_factor=False)
        assert (f.size_prior, f.orientation_prior, f.centroid_factor) == (
            False,
            True,
            False,
        )
