"""Shared fixtures. Importing this file pins BLAS to one thread before
numpy loads: the solver's dense systems are small, and on a shared machine
extra BLAS threads only contend with each other."""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import requests  # noqa: E402

from objslam.geometry import CameraIntrinsics, Pose, Quadric, so3_exp  # noqa: E402


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random rotation from a normal rotation vector."""
    w = rng.normal(size=3)
    angle = rng.uniform(0.0, np.pi * 0.95)
    n = np.linalg.norm(w)
    if n < 1e-12:
        return np.eye(3)
    return so3_exp(w / n * angle)


def random_pose(rng: np.random.Generator, t_scale: float = 2.0) -> Pose:
    return Pose(random_rotation(rng), rng.normal(scale=t_scale, size=3))


def random_quadric(rng: np.random.Generator) -> Quadric:
    R = random_rotation(rng)
    t = rng.normal(scale=1.5, size=3)
    s = rng.uniform(0.05, 0.6, size=3)
    return Quadric(R, t, s)


@pytest.fixture
def camera() -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


ENDPOINT = "http://llm.invalid/v1/complete"


def reply(status: int, content: bytes) -> requests.Response:
    """A real `requests` response with the given status and body."""
    resp = requests.Response()
    resp.status_code = status
    resp._content = content
    resp.encoding = "utf-8"
    return resp


@pytest.fixture()
def hosted(monkeypatch):
    """Point the hosted client at a fake endpoint and replace `requests.post`
    with a stub that records each call and answers with ``hosted.answer``
    (a Response, or an exception to raise); no socket is opened. The
    provider is the default, openai, unless a test sets it."""
    monkeypatch.delenv("OBJSLAM_LLM_PROVIDER", raising=False)
    monkeypatch.setenv("OBJSLAM_LLM_ENDPOINT", ENDPOINT)
    monkeypatch.setenv("OBJSLAM_LLM_API_KEY", "k-123")
    monkeypatch.setenv("OBJSLAM_LLM_MODEL", "m-1")
    state = SimpleNamespace(calls=[], answer=None)

    def post(url, **kwargs):
        state.calls.append((url, kwargs))
        if isinstance(state.answer, Exception):
            raise state.answer
        return state.answer

    monkeypatch.setattr(requests, "post", post)
    return state
