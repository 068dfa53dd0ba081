from __future__ import annotations

import numpy as np
import pytest
import requests

from objslam import priors
from objslam.factors import NoiseModel
from objslam.geometry import Quadric, so3_exp
from objslam.priors import (
    KS,
    KT,
    KX,
    KY,
    RETRIES,
    CSV_HEADER,
    PROMPT_TEMPLATE,
    CachedLLMClient,
    EmptyVocabulary,
    FixtureLLMClient,
    HTTPLLMClient,
    LLMRequestError,
    MalformedResponse,
    MissingCredentials,
    OrientationClass,
    PriorRecord,
    build_prompt,
    generate_prior_table,
    orientation_prior_frame,
    parse_prior_csv,
    prior_variances,
    size_prior_estimate,
    write_prior_csv,
)

from conftest import ENDPOINT, random_rotation, reply
from helpers import orientation_prior_factor

WELL_FORMED = """object,length,width,height,orientation
bottle,0.08,0.08,0.25,0
keyboard,0.45,0.15,0.03,1
mug,0.12,0.09,0.10,2
"""


class TestPrompt:
    def test_contains_instruction_block_verbatim(self):
        prompt = build_prompt(["bottle", "mug"])
        assert PROMPT_TEMPLATE in prompt
        assert "0=vertical, 1=horizontal, 2=uncertain" in prompt

    def test_lists_labels_once_in_order(self):
        prompt = build_prompt(["tv", "tv", "mug"])
        body = prompt[len(PROMPT_TEMPLATE):]
        assert body.count("tv") == 1
        assert body.index("tv") < body.index("mug")

    def test_empty_vocabulary_raises(self):
        with pytest.raises(EmptyVocabulary):
            build_prompt([])
        with pytest.raises(EmptyVocabulary):
            build_prompt(["  "])


class TestParse:
    def test_well_formed(self):
        table = parse_prior_csv(WELL_FORMED)
        assert len(table) == 3
        rec = table.records.get("bottle")
        assert rec.height == 0.25
        assert rec.orientation == OrientationClass.VERTICAL
        assert table.records.get("keyboard").orientation == OrientationClass.HORIZONTAL

    def test_header_optional(self):
        table = parse_prior_csv("mug,0.12,0.09,0.10,2\n")
        assert len(table) == 1

    def test_quoted_label_with_comma(self):
        table = parse_prior_csv('"mug, large",0.15,0.12,0.12,2\n')
        assert "mug, large" in table

    def test_code_fences_tolerated(self):
        table = parse_prior_csv("```csv\nmug,0.12,0.09,0.10,2\n```\n")
        assert len(table) == 1

    def test_bad_orientation_code_raises(self):
        with pytest.raises(MalformedResponse):
            parse_prior_csv("mug,0.12,0.09,0.10,5\n")

    def test_wrong_field_count_raises(self):
        with pytest.raises(MalformedResponse):
            parse_prior_csv("mug,0.12,0.09\n")

    def test_out_of_range_dimension_raises(self):
        with pytest.raises(MalformedResponse):
            parse_prior_csv("building,50.0,30.0,100.0,0\n")

    def test_repeated_label_raises(self):
        # generate_prior_table keeps a label's first row; a strict reader
        # keeping the last would give the same text another table.
        text = "mug,0.12,0.085,0.1,2\nbook,0.24,0.16,0.035,1\nmug,1.5,0.1,0.1,0\n"
        with pytest.raises(MalformedResponse, match="repeated label 'mug'"):
            parse_prior_csv(text)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            PriorRecord("x", 0.0, 0.1, 0.1, OrientationClass.VERTICAL)
        with pytest.raises(ValueError):
            PriorRecord("x", 0.1, 20.0, 0.1, OrientationClass.VERTICAL)


class TestGenerate:
    def test_one_record_per_label(self):
        client = FixtureLLMClient(response=WELL_FORMED)
        table = generate_prior_table(["bottle", "keyboard", "mug"], client)
        assert len(table) == 3
        assert client.call_count == 1
        assert not table.flagged

    def test_duplicates_deduped(self):
        client = FixtureLLMClient(response=WELL_FORMED)
        table = generate_prior_table(["mug", "mug", "bottle"], client)
        assert len(table) == 2

    def test_malformed_row_falls_back_and_flags(self):
        response = "bottle,0.08,0.08,0.25,0\nmug,0.12,0.09,0.10,5\n"
        table = generate_prior_table(["bottle", "mug"], FixtureLLMClient(response=response))
        assert len(table) == 2
        assert table.flagged == {"mug"}
        rec = table.records.get("mug")
        assert rec.orientation == OrientationClass.UNCERTAIN
        np.testing.assert_allclose(rec.dimensions(), [0.3, 0.3, 0.3])

    def test_missing_label_falls_back_and_flags(self):
        table = generate_prior_table(
            ["bottle", "plant"], FixtureLLMClient(response=WELL_FORMED)
        )
        assert table.flagged == {"plant"}
        assert table.records.get("plant") is not None

    def test_unparseable_response_retries_then_raises(self):
        client = FixtureLLMClient(response="I cannot help with that.")
        with pytest.raises(MalformedResponse):
            generate_prior_table(["mug"], client)
        assert client.call_count == RETRIES + 1 == 3

    def test_resolve_unknown_label_flags(self):
        table = parse_prior_csv(WELL_FORMED)
        rec = table.resolve("unseen thing")
        assert rec.orientation == OrientationClass.UNCERTAIN
        assert "unseen thing" in table.flagged


class TestCache:
    def test_repeat_vocabulary_hits_cache(self, tmp_path):
        inner = FixtureLLMClient(response=WELL_FORMED)
        client = CachedLLMClient(inner, tmp_path / "cache")
        prompt = build_prompt(["bottle", "mug"])
        assert client.complete(prompt) == WELL_FORMED
        assert client.complete(prompt) == WELL_FORMED
        assert inner.call_count == 1

    def test_different_vocabulary_misses(self, tmp_path):
        inner = FixtureLLMClient(response=WELL_FORMED)
        client = CachedLLMClient(inner, tmp_path / "cache")
        client.complete(build_prompt(["bottle"]))
        client.complete(build_prompt(["mug"]))
        assert inner.call_count == 2

    def test_unparseable_response_is_not_cached(self, tmp_path):
        inner = ScriptedLLMClient(["garbage", WELL_FORMED])
        table = generate_prior_table(["mug"], CachedLLMClient(inner, tmp_path / "cache"))
        assert inner.call_count == 2
        assert table.records.get("mug") == parse_prior_csv(WELL_FORMED).records.get("mug")
        assert table.flagged == set()
        # The stored response is the parseable one.
        again = ScriptedLLMClient([])
        generate_prior_table(["mug"], CachedLLMClient(again, tmp_path / "cache"))
        assert again.call_count == 0


class ScriptedLLMClient(FixtureLLMClient):
    """Answers with the given responses in turn."""

    def __init__(self, responses: list[str]):
        super().__init__(response="")
        self.responses = list(responses)

    def complete(self, prompt: str) -> str:
        self.call_count += 1
        return self.responses.pop(0)


class TestHTTPClient:
    def test_requires_environment(self, monkeypatch):
        for var in ("OBJSLAM_LLM_ENDPOINT", "OBJSLAM_LLM_API_KEY"):
            monkeypatch.delenv(var, raising=False)
        with pytest.raises(MissingCredentials):
            HTTPLLMClient()

    def test_openai_request_shape(self, hosted):
        hosted.answer = reply(200, b'{"choices": [{"message": {"content": "csv"}}]}')
        assert HTTPLLMClient(timeout=7.0).complete("the prompt") == "csv"
        assert hosted.calls == [(ENDPOINT, {
            "json": {
                "model": "m-1",
                "temperature": 0,
                "messages": [{"role": "user", "content": "the prompt"}],
            },
            "headers": {"Authorization": "Bearer k-123"},
            "timeout": 7.0,
        })]

    def test_anthropic_request_shape(self, hosted, monkeypatch):
        monkeypatch.setenv("OBJSLAM_LLM_PROVIDER", "anthropic")
        hosted.answer = reply(200, b'{"content": [{"type": "text", "text": "csv"}]}')
        assert HTTPLLMClient(timeout=7.0).complete("the prompt") == "csv"
        assert hosted.calls == [(ENDPOINT, {
            "json": {
                "model": "m-1",
                "max_tokens": 2048,
                "temperature": 0,
                "messages": [{"role": "user", "content": "the prompt"}],
            },
            "headers": {"x-api-key": "k-123", "anthropic-version": "2023-06-01"},
            "timeout": 7.0,
        })]

    def test_error_status_is_request_error(self, hosted):
        hosted.answer = reply(503, b"overloaded")
        with pytest.raises(LLMRequestError, match="status 503: overloaded"):
            HTTPLLMClient().complete("p")

    @pytest.mark.parametrize("answer", [
        requests.ConnectionError("Connection refused"),
        reply(200, b"<html>not json</html>"),
        reply(200, b'{"error": "no choices here"}'),
    ], ids=["unreachable", "not-json", "no-choices"])
    def test_failed_exchange_is_request_error_naming_endpoint(self, hosted, answer):
        hosted.answer = answer
        with pytest.raises(LLMRequestError, match=ENDPOINT):
            HTTPLLMClient().complete("p")


class TestSizeEstimate:
    def test_full_confidence_halves_and_sorts(self):
        rec = PriorRecord("box", 0.4, 0.2, 0.6, OrientationClass.UNCERTAIN)
        out = size_prior_estimate(rec, np.array([0.05, 0.05, 0.05]), p=1.0)
        np.testing.assert_allclose(out, [0.1, 0.2, 0.3], atol=1e-12)

    def test_blend_half_confidence(self):
        rec = PriorRecord("box", 0.4, 0.2, 0.6, OrientationClass.UNCERTAIN)
        out = size_prior_estimate(rec, np.array([0.2, 0.2, 0.2]), p=0.5)
        np.testing.assert_allclose(out, [0.15, 0.2, 0.25], atol=1e-12)

    def test_always_ascending_positive(self):
        rng = np.random.default_rng(61)
        for _ in range(500):
            dims = rng.uniform(0.02, 2.0, size=3)
            rec = PriorRecord("x", *dims, OrientationClass.UNCERTAIN)
            s_o = rng.uniform(0.01, 1.0, size=3)
            out = size_prior_estimate(rec, s_o, float(rng.uniform(0, 1)))
            assert np.all(out > 0.0)
            assert np.all(np.diff(out) >= -1e-12)

    def test_rejects_bad_confidence(self):
        rec = PriorRecord("box", 0.4, 0.2, 0.6, OrientationClass.UNCERTAIN)
        with pytest.raises(ValueError):
            size_prior_estimate(rec, np.full(3, 0.1), p=1.5)


class TestOrientationRotation:
    """orientation_prior_frame: local z is exactly gravity and the returned
    semi-axes are the input's, reordered to the frame's axes."""

    UP = np.array([0.0, 0.0, 1.0])

    def check_frame(self, frame, s_frame, s_o):
        np.testing.assert_array_equal(frame[:, 2], self.UP)
        np.testing.assert_array_equal(np.sort(s_frame), np.sort(s_o))

    def test_uncertain_worked_example(self):
        # A quarter turn about world x stands input axis y upright, so its
        # extent moves to local z; input x keeps the heading.
        R_q = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        frame, s_frame = orientation_prior_frame(
            OrientationClass.UNCERTAIN, R_q, np.array([0.1, 0.2, 0.3])
        )
        np.testing.assert_array_equal(frame, np.eye(3))
        np.testing.assert_array_equal(s_frame, [0.1, 0.3, 0.2])

    def test_vertical_maps_longest_axis_to_up(self):
        s_o = np.array([0.1, 0.3, 0.1])
        frame, s_frame = orientation_prior_frame(OrientationClass.VERTICAL, np.eye(3), s_o)
        # Longest semi-axis is y: it becomes local z, the world vertical.
        np.testing.assert_allclose(frame, np.eye(3), atol=1e-12)
        np.testing.assert_array_equal(s_frame, [0.1, 0.1, 0.3])
        self.check_frame(frame, s_frame, s_o)

    def test_vertical_random_inputs(self):
        rng = np.random.default_rng(67)
        for _ in range(300):
            R_q = random_rotation(rng)
            s_o = rng.uniform(0.05, 0.5, size=3)
            s_o[rng.integers(3)] += 0.6
            frame, s_frame = orientation_prior_frame(OrientationClass.VERTICAL, R_q, s_o)
            self.check_frame(frame, s_frame, s_o)
            assert s_frame[2] == s_o.max()

    def test_horizontal_longest_axis_in_plane_heading_kept(self):
        rng = np.random.default_rng(71)
        for _ in range(300):
            R_q = random_rotation(rng)
            s_o = rng.uniform(0.05, 0.5, size=3)
            longest = int(rng.integers(3))
            s_o[longest] += 0.6
            frame, s_frame = orientation_prior_frame(OrientationClass.HORIZONTAL, R_q, s_o)
            self.check_frame(frame, s_frame, s_o)
            # The longest extent lies along local x, in the ground plane.
            assert s_frame[0] == s_o[longest]
            assert frame[2, 0] == 0.0
            # Local z takes the other axis closer to gravity.
            others = [i for i in range(3) if i != longest]
            upright = others[int(np.argmax(np.abs(R_q[2, others])))]
            assert s_frame[2] == s_o[upright]
            # Heading preserved whenever the original axis was not vertical.
            a_old = R_q[:, longest]
            if np.linalg.norm(a_old[:2]) > 1e-3:
                heading = a_old[:2] / np.linalg.norm(a_old[:2])
                np.testing.assert_allclose(frame[:2, 0], heading, atol=1e-9)

    def test_horizontal_vertical_longest_axis_falls_back(self):
        s_o = np.array([0.1, 0.1, 0.5])
        frame, s_frame = orientation_prior_frame(OrientationClass.HORIZONTAL, np.eye(3), s_o)
        # The longest axis is vertical and has no heading: local x borrows
        # the heading of input y and still carries the longest extent.
        np.testing.assert_array_equal(frame[:, 0], [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(s_frame, [0.5, 0.1, 0.1])
        assert np.abs(frame.T @ frame - np.eye(3)).max() < 1e-9
        self.check_frame(frame, s_frame, s_o)

    def test_uncertain_puts_most_vertical_axis_on_z(self):
        rng = np.random.default_rng(73)
        for _ in range(300):
            R_q = random_rotation(rng)
            s_o = rng.uniform(0.05, 0.5, size=3)
            frame, s_frame = orientation_prior_frame(OrientationClass.UNCERTAIN, R_q, s_o)
            self.check_frame(frame, s_frame, s_o)
            assert s_frame[2] == s_o[int(np.argmax(np.abs(R_q[2])))]

    def test_all_classes_produce_rotations(self):
        rng = np.random.default_rng(79)
        for cls in OrientationClass:
            for _ in range(1000):
                R_q = random_rotation(rng)
                s_o = rng.uniform(0.05, 0.8, size=3)
                R, s_frame = orientation_prior_frame(cls, R_q, s_o)
                assert np.linalg.norm(R.T @ R - np.eye(3)) < 1e-9
                assert abs(np.linalg.det(R) - 1.0) < 1e-9
                self.check_frame(R, s_frame, s_o)


class TestCovariances:
    def test_formulas(self, monkeypatch):
        # Scales unlike each other, so a swapped or unsquared scale shows.
        # test_config's test_prior_config_shared checks the tilt variances.
        scales = {"KT": 1.0, "KS": 1.5}
        for name, value in scales.items():
            monkeypatch.setattr(priors, name, value)
        s_hat = np.array([0.1, 0.2, 0.3])
        var_t, var_s = prior_variances(s_hat)
        np.testing.assert_allclose(var_t, [0.01, 0.04, 0.09])
        np.testing.assert_allclose(var_s, 1.5**2 * np.array([0.01, 0.04, 0.09]))

    def test_tilt_ignores_heading(self):
        # The paper leaves the heading effectively unconstrained; the
        # orientation prior has no yaw row at all. Its residual is the same
        # after any turn about world z, and zero upright and upside down
        # (R diag(1, -1, -1) is the same ellipsoid).
        factor = orientation_prior_factor(0, NoiseModel.isotropic(2, KX))
        rng = np.random.default_rng(71)
        s = np.array([0.1, 0.2, 0.3])
        turns = [so3_exp(np.array([0.0, 0.0, psi])) for psi in (0.3, np.pi / 2, 2.0, np.pi, -1.0)]
        for _ in range(10):
            R = random_rotation(rng)
            r = factor.residual_at(Quadric(R, np.zeros(3), s))
            for Rz in turns:
                turned = factor.residual_at(Quadric(Rz @ R, np.zeros(3), s))
                np.testing.assert_allclose(turned, r, atol=1e-12)
        for Rz in turns:
            for flip in (np.eye(3), np.diag([1.0, -1.0, -1.0])):
                upright = factor.residual_at(Quadric(Rz @ flip, np.zeros(3), s))
                assert np.abs(upright).max() < 1e-12

    def test_scales_lie_in_paper_ranges(self):
        assert 0.0 < KX < np.pi / 16.0 and 0.0 < KY < np.pi / 16.0
        assert 0.5 < KT < 2.0 and 0.5 < KS < 2.0

    def test_rejects_bad_size_target(self):
        with pytest.raises(ValueError):
            prior_variances(np.array([0.1, -0.2, 0.3]))


class TestCSVWriting:
    def test_round_trip_exact_header(self, tmp_path):
        table = parse_prior_csv(WELL_FORMED)
        out = tmp_path / "priors.csv"
        write_prior_csv(table, out)
        text = out.read_text()
        assert text.splitlines()[0] == ",".join(CSV_HEADER)
        back = parse_prior_csv(text)
        assert len(back) == len(table)
        for label, rec in table.records.items():
            np.testing.assert_allclose(back.records.get(label).dimensions(), rec.dimensions())
            assert back.records.get(label).orientation == rec.orientation
