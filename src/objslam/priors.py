"""Commonsense object priors: dimensions and canonical orientation.

A language model is asked once per vocabulary for typical object dimensions
(meters) and an orientation class: 0 means the object normally stands
vertically (longest axis up), 1 means it lies horizontally (longest axis in
the ground plane), 2 means no preferred orientation. The answers become
unary factors on each landmark:

- size target: half the sorted typical dimensions, blended with the sorted
  measured semi-axes by the detection confidence;
- orientation: the landmark starts in the frame of
  :func:`orientation_prior_frame`, its local z vertical along the extent the
  class puts upright; the prior keeps that axis vertical (tilt variances
  KY^2, KX^2) and leaves the heading free;
- translation/size variances grow with object size; the scales KX, KY, KT
  and KS are module constants, as the paper fixes them.

Responses are cached on disk per vocabulary. Credentials for the hosted
model come from environment variables only.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np

PROMPT_TEMPLATE = (
    "Provide commonsense knowledge about the physical dimensions and "
    "orientation of the following objects. Generate a CSV with columns "
    "(object, length, width, height, orientation) where dimensions are in "
    "meters, orientation is coded as 0=vertical, 1=horizontal, 2=uncertain. "
    "Preserve the exact object names from the input list and maintain the "
    "same number of objects."
)

CSV_HEADER = ("object", "length", "width", "height", "orientation")

FALLBACK_DIMS = (0.3, 0.3, 0.3)

ENV_ENDPOINT = "OBJSLAM_LLM_ENDPOINT"
ENV_API_KEY = "OBJSLAM_LLM_API_KEY"
ENV_MODEL = "OBJSLAM_LLM_MODEL"
ENV_PROVIDER = "OBJSLAM_LLM_PROVIDER"


class EmptyVocabulary(ValueError):
    """No labels supplied for prior generation."""


class MalformedResponse(ValueError):
    """Model response could not be parsed as the requested CSV."""


class MissingCredentials(RuntimeError):
    """Hosted-model client constructed without the required environment."""


class LLMRequestError(RuntimeError):
    """Hosted model could not be reached, or answered with an error status or
    a reply that holds no completion text."""


class OrientationClass(IntEnum):
    VERTICAL = 0
    HORIZONTAL = 1
    UNCERTAIN = 2


@dataclass(frozen=True)
class PriorRecord:
    """Typical full dimensions (meters) and orientation class for one label."""

    label: str
    length: float
    width: float
    height: float
    orientation: OrientationClass

    def __post_init__(self) -> None:
        for name in ("length", "width", "height"):
            v = getattr(self, name)
            if not np.isfinite(v) or not (0.0 < v < 20.0):
                raise ValueError(f"{name} must lie in (0, 20) meters, got {v}")
        object.__setattr__(self, "orientation", OrientationClass(self.orientation))

    def dimensions(self) -> np.ndarray:
        return np.array([self.length, self.width, self.height])

    @staticmethod
    def fallback(label: str) -> "PriorRecord":
        return PriorRecord(label, *FALLBACK_DIMS, OrientationClass.UNCERTAIN)


class PriorTable:
    """Per-label prior records plus the set of labels that fell back."""

    def __init__(self) -> None:
        self.records: dict[str, PriorRecord] = {}
        self.flagged: set[str] = set()

    def add(self, record: PriorRecord, flagged: bool = False) -> None:
        self.records[record.label] = record
        if flagged:
            self.flagged.add(record.label)

    def resolve(self, label: str) -> PriorRecord:
        """Record for the label; unknown labels get a flagged fallback."""
        record = self.records.get(label)
        if record is None:
            record = PriorRecord.fallback(label)
            self.add(record, flagged=True)
        return record

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, label: str) -> bool:
        return label in self.records


def _vocabulary(labels: list[str]) -> list[str]:
    """The non-blank labels, each once, in order of first appearance."""
    unique = list(dict.fromkeys(l for l in labels if l.strip()))
    if not unique:
        raise EmptyVocabulary("prior generation needs at least one label")
    return unique


def build_prompt(labels: list[str]) -> str:
    """Instruction block followed by one label per line, duplicates removed."""
    return PROMPT_TEMPLATE + "\n\n" + "\n".join(_vocabulary(labels)) + "\n"


def _strip_code_fences(text: str) -> str:
    lines = [l for l in text.splitlines() if not l.strip().startswith("```")]
    return "\n".join(lines)


def _parse_rows(text: str) -> tuple[list[PriorRecord], list[str]]:
    """Lenient CSV parse: returns (valid records, per-row error messages)."""
    records: list[PriorRecord] = []
    errors: list[str] = []
    reader = csv.reader(io.StringIO(_strip_code_fences(text)))
    for row in reader:
        row = [c.strip() for c in row]
        if not row or all(c == "" for c in row):
            continue
        if tuple(c.lower() for c in row) == CSV_HEADER:
            continue
        if len(row) != 5:
            errors.append(f"expected 5 fields, got {len(row)}: {row!r}")
            continue
        label = row[0]
        try:
            dims = [float(c) for c in row[1:4]]
            orientation = int(row[4])
            if orientation not in (0, 1, 2):
                raise ValueError(f"orientation code {orientation} not in {{0, 1, 2}}")
            records.append(PriorRecord(label, *dims, OrientationClass(orientation)))
        except ValueError as exc:
            errors.append(f"row {row!r}: {exc}")
    return records, errors


def parse_prior_csv(text: str) -> PriorTable:
    """Strict parse of a prior CSV; raises MalformedResponse on any bad row
    and on a repeated label, which one reading would take from its first row
    and another from its last."""
    records, errors = _parse_rows(text)
    if errors:
        raise MalformedResponse("; ".join(errors))
    if not records:
        raise MalformedResponse("no data rows found")
    table = PriorTable()
    for record in records:
        if record.label in table:
            raise MalformedResponse(f"repeated label {record.label!r}")
        table.add(record)
    return table


def write_prior_csv(table: PriorTable, path: str | Path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_HEADER)
        for record in table.records.values():
            writer.writerow(
                [record.label, record.length, record.width, record.height,
                 int(record.orientation)]
            )


class LLMClient:
    """Minimal completion interface: one prompt in, one text response out."""

    def complete(self, prompt: str) -> str:
        raise NotImplementedError


class FixtureLLMClient(LLMClient):
    """Canned response client for tests and offline runs. Counts calls."""

    def __init__(self, response: str | None = None, path: str | Path | None = None):
        if (response is None) == (path is None):
            raise ValueError("provide exactly one of response text or path")
        self._response = response if response is not None else Path(path).read_text()
        self.call_count = 0

    def complete(self, prompt: str) -> str:
        self.call_count += 1
        return self._response


class HTTPLLMClient(LLMClient):
    """Hosted-model client configured from the environment.

    OBJSLAM_LLM_ENDPOINT and OBJSLAM_LLM_API_KEY are required;
    OBJSLAM_LLM_MODEL names the model and OBJSLAM_LLM_PROVIDER selects the
    request shape ("openai" chat-completions by default, or "anthropic"
    messages). Temperature is pinned to zero.
    """

    def __init__(self, timeout: float = 60.0):
        self.endpoint = os.environ.get(ENV_ENDPOINT, "")
        self.api_key = os.environ.get(ENV_API_KEY, "")
        self.model = os.environ.get(ENV_MODEL, "")
        self.provider = os.environ.get(ENV_PROVIDER, "openai").lower()
        self.timeout = timeout
        if not self.endpoint or not self.api_key:
            raise MissingCredentials(
                f"set {ENV_ENDPOINT} and {ENV_API_KEY} to use the hosted client"
            )
        if self.provider not in ("openai", "anthropic"):
            raise ValueError(f"unknown provider {self.provider!r}")

    def complete(self, prompt: str) -> str:
        import requests

        if self.provider == "anthropic":
            headers = {"x-api-key": self.api_key, "anthropic-version": "2023-06-01"}
            body = {
                "model": self.model,
                "max_tokens": 2048,
                "temperature": 0,
                "messages": [{"role": "user", "content": prompt}],
            }
        else:
            headers = {"Authorization": f"Bearer {self.api_key}"}
            body = {
                "model": self.model,
                "temperature": 0,
                "messages": [{"role": "user", "content": prompt}],
            }
        try:
            resp = requests.post(
                self.endpoint, json=body, headers=headers, timeout=self.timeout
            )
        except requests.RequestException as exc:
            raise LLMRequestError(f"{self.endpoint}: request failed: {exc}") from exc
        if resp.status_code != 200:
            raise LLMRequestError(
                f"{self.endpoint}: status {resp.status_code}: {resp.text[:500]}"
            )
        try:
            data = resp.json()
            if self.provider == "anthropic":
                return data["content"][0]["text"]
            return data["choices"][0]["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise LLMRequestError(
                f"{self.endpoint}: unreadable reply ({type(exc).__name__}: {exc}): "
                f"{resp.text[:500]}"
            ) from exc


class CachedLLMClient(LLMClient):
    """Disk cache in front of another client, keyed by the SHA-256 of the
    prompt (identical prompt implies identical vocabulary). Only a response
    ``generate_prior_table`` would accept, one with a parseable row, is kept."""

    def __init__(self, inner: LLMClient, cache_dir: str | Path):
        self.inner = inner
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def complete(self, prompt: str) -> str:
        key = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
        path = self.cache_dir / f"{key}.txt"
        if path.exists():
            return path.read_text()
        response = self.inner.complete(prompt)
        if _parse_rows(response)[0]:
            path.write_text(response)
        return response


# Model queries after a reply with no parseable row, before giving up.
RETRIES = 2


def generate_prior_table(labels: list[str], client: LLMClient) -> PriorTable:
    """Query the model once for the whole vocabulary and assemble the table.

    Every input label ends up with exactly one record: rows that fail
    validation, and labels the response omitted, fall back to a generic
    0.3 m uncertain-orientation record and are flagged.
    """
    unique = _vocabulary(labels)
    prompt = build_prompt(unique)

    records: list[PriorRecord] = []
    last_errors: list[str] = []
    for _ in range(RETRIES + 1):
        response = client.complete(prompt)
        records, last_errors = _parse_rows(response)
        if records:
            break
    if not records:
        raise MalformedResponse(
            "no parseable rows after retries: " + "; ".join(last_errors[:5])
        )

    by_label = {}
    for record in records:
        by_label.setdefault(record.label, record)
    table = PriorTable()
    for label in unique:
        record = by_label.get(label)
        if record is None:
            table.add(PriorRecord.fallback(label), flagged=True)
        else:
            table.add(record)
    return table


def size_prior_estimate(record: PriorRecord, s_o: np.ndarray, p: float) -> np.ndarray:
    """Blended ascending size target: confidence-weighted mix of half the
    sorted typical dimensions and the sorted observed semi-axes."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"confidence must lie in [0, 1], got {p}")
    s_o = np.asarray(s_o, dtype=np.float64)
    if s_o.shape != (3,) or np.any(s_o <= 0.0):
        raise ValueError(f"observed semi-axes must be 3 positive values, got {s_o}")
    s_alpha = np.sort(record.dimensions()) / 2.0
    return p * s_alpha + (1.0 - p) * np.sort(s_o)


def orientation_prior_frame(
    cls: OrientationClass, R: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gravity-aligned frame and reordered semi-axes for a landmark of the
    given class, from its rotation ``R`` and semi-axes ``s``.

    Commits the representation to the class convention up front: local z is
    the world vertical and carries the class's designated extent (vertical
    objects stand up even if the single view says otherwise), and local x is
    the heading, taken from the horizontal projection of the corresponding
    blob axis. This matters because the orientation prior holds exactly this
    local z vertical and leaves the heading about it free: the landmark
    starts with zero tilt, and the class, not the single view, decides which
    extent stands up.
    """
    w_z = np.array([0.0, 0.0, 1.0])
    vertical_align = np.abs(R.T @ w_z)
    if cls == OrientationClass.VERTICAL:
        k_v = int(np.argmax(s))
    elif cls == OrientationClass.HORIZONTAL:
        k_long = int(np.argmax(s))
        others = [i for i in range(3) if i != k_long]
        k_v = others[int(np.argmax(vertical_align[others]))]
    else:
        k_v = int(np.argmax(vertical_align))
    if cls == OrientationClass.HORIZONTAL:
        k_x = int(np.argmax(s))
    else:
        k_x = min(i for i in range(3) if i != k_v)
    k_y = next(i for i in range(3) if i not in (k_v, k_x))
    # R is orthonormal, so columns k_x and k_y cannot both lie within 1e-6 of
    # vertical: their squared z-components would sum to more than 1, the
    # squared norm of R's last row.
    for k in (k_x, k_y):
        flat = R[:, k] - (R[:, k] @ w_z) * w_z
        norm = float(np.linalg.norm(flat))
        if norm > 1e-6:
            break
    heading = flat / norm
    frame = np.column_stack([heading, np.cross(w_z, heading), w_z])
    return frame, np.array([s[k_x], s[k_y], s[k_v]])


# Prior variance scales: roll/pitch deviations KX, KY (admissible in
# (0, pi/16)); translation and size multipliers KT, KS (in (0.5, 2)). The
# heading, which the paper leaves effectively unconstrained, has no prior.
KX = np.pi / 32.0
KY = np.pi / 32.0
KT = 1.0
KS = 1.0


def prior_variances(s_hat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(translation, size) prior variances (3,) each for a size target."""
    s_hat = np.asarray(s_hat, dtype=np.float64)
    if s_hat.shape != (3,) or np.any(s_hat <= 0.0):
        raise ValueError(f"size target must be 3 positive values, got {s_hat}")
    return KT**2 * s_hat**2, KS**2 * s_hat**2
