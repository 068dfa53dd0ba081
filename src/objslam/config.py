"""Run configuration: one YAML document with nested per-module sections.

Every field has a documented default and can be overridden either in the
file or from the command line as dotted `section.key=value` pairs. The only
settings read from the environment are the hosted-LLM credentials (see
priors.HTTPLLMClient).
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field, fields
from pathlib import Path

import yaml

from .geometry import CameraIntrinsics, SettingTypeError, require_field_types
from .optimizer import Flags, NoiseConfig, SolverConfig
from .simulator import ORBIT_ARC, ORBIT_HEIGHT, ORBIT_RADIUS, SceneSpec, SimConfig

MODES = ("batch", "incremental")


class ConfigError(ValueError):
    """Bad configuration file, key, or value."""


class _Loader(yaml.SafeLoader):
    """YAML 1.1 safe loading that also reads exponent numbers without a
    decimal point or exponent sign, such as `1e-9` and `1.0e9`, as floats
    rather than strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


@dataclass(frozen=True)
class Paths:
    """Input/output locations; unset inputs disable the matching feature."""

    dataset: str | None = None
    priors_csv: str | None = None
    embeddings: str | None = None
    output_dir: str = "out"

    def __post_init__(self) -> None:
        require_field_types(self)


@dataclass(frozen=True)
class CameraConfig:
    """Pinhole model used by the simulate command."""

    fx: float = 500.0
    fy: float = 500.0
    cx: float = 320.0
    cy: float = 240.0
    width: int = 640
    height: int = 480

    def __post_init__(self) -> None:
        require_field_types(self)
        if min(self.fx, self.fy) <= 0.0 or min(self.width, self.height) <= 0:
            raise ValueError("camera focal lengths and image size must be positive")

    def intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(self.fx, self.fy, self.cx, self.cy)

    def image_size(self) -> tuple[int, int]:
        return (self.width, self.height)


@dataclass(frozen=True)
class SceneConfig:
    """Scene and orbit shape for the simulate command."""

    n_objects: int = SceneSpec.n_objects
    n_frames: int = 30
    area: tuple[float, float] = SceneSpec.area
    surface_height: float = SceneSpec.surface_height
    radius: float = ORBIT_RADIUS
    height: float = ORBIT_HEIGHT
    arc: float = ORBIT_ARC

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.n_objects < 0:
            raise ValueError(f"n_objects must be non-negative, got {self.n_objects}")
        if self.n_frames < 0:
            raise ValueError("frame count must be non-negative")
        if self.radius <= 0.0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "area", tuple(float(a) for a in self.area))
        if len(self.area) != 2 or min(self.area) <= 0.0:
            raise ValueError("area must be two positive extents")


@dataclass(frozen=True)
class RunConfig:
    paths: Paths = field(default_factory=Paths)
    mode: str = "incremental"
    match_threshold: float = 0.5
    flags: Flags = field(default_factory=Flags)
    solver: SolverConfig = field(default_factory=SolverConfig)
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    scene: SceneConfig = field(default_factory=SceneConfig)
    camera: CameraConfig = field(default_factory=CameraConfig)

    def __post_init__(self) -> None:
        require_field_types(self)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.match_threshold <= 0.0:
            raise ValueError("match threshold must be positive")


def build_run_config(document: dict | None) -> RunConfig:
    """Construct a validated RunConfig from a parsed YAML document, whose
    sections are the fields of RunConfig with a default factory."""
    document = dict(document or {})
    kwargs = {}
    for f in fields(RunConfig):
        section, cls = f.name, f.default_factory
        if cls is dataclasses.MISSING:
            if section in document:
                kwargs[section] = document.pop(section)
            continue
        data = document.pop(section, None)
        data = {} if data is None else data
        if not isinstance(data, dict):
            raise ConfigError(f"section [{section}] must be a mapping")
        unknown = set(data) - {g.name for g in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(map(str, unknown))}")
        try:
            kwargs[section] = cls(**data)
        except (TypeError, ValueError) as exc:
            key = f"{section}." if isinstance(exc, SettingTypeError) else ""
            raise ConfigError(f"invalid [{section}] section: {key}{exc}") from exc
    if document:
        raise ConfigError(f"unknown top-level key(s): {sorted(map(str, document))}")
    try:
        return RunConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def apply_overrides(document: dict, overrides: list[str]) -> dict:
    """Apply command-line `dotted.key=value` pairs onto a YAML document.

    Values parse as YAML scalars, as in a config file, so
    `solver.max_iterations=50` yields an int, `flags.size_prior=false` a bool
    and `noise.bbox_sigma_px=1e-1` a float.
    """
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        if not all(keys):
            raise ConfigError(f"override {item!r} has an empty key component")
        try:
            value = yaml.load(raw, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r} value does not parse: {exc}") from exc
        node = document
        for key in keys[:-1]:
            if node.get(key) is None:  # a section with nothing under it loads as None
                node[key] = {}
            child = node[key]
            if not isinstance(child, dict):
                raise ConfigError(f"override {item!r} descends into non-mapping {key!r}")
            node = child
        node[keys[-1]] = value
    return document


def load_run_config(path: str | Path | None = None, overrides: list[str] | None = None) -> RunConfig:
    """Load, override, and validate a run configuration.

    With no path, starts from all defaults.
    """
    document: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            loaded = yaml.load(text, Loader=_Loader)
        except yaml.YAMLError as exc:
            raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {path} must be a mapping at top level")
        document = loaded
    if overrides:
        document = apply_overrides(document, list(overrides))
    return build_run_config(document)

