from __future__ import annotations

import json

import pytest

from objslam import pipeline
from objslam.cli import main
from objslam.dataset import load_dataset
from objslam.priors import ENV_API_KEY, ENV_ENDPOINT, parse_prior_csv


@pytest.fixture()
def no_llm_env(monkeypatch):
    monkeypatch.delenv(ENV_ENDPOINT, raising=False)
    monkeypatch.delenv(ENV_API_KEY, raising=False)


def _simulate(tmp_path, capsys, n_objects=2, n_frames=4):
    ds = tmp_path / "ds"
    code = main(
        [
            "simulate",
            "-o", str(ds),
            "--set", f"scene.n_objects={n_objects}",
            "--set", f"scene.n_frames={n_frames}",
        ]
    )
    assert code == 0
    capsys.readouterr()
    return ds


class TestExitCodes:
    def test_no_subcommand_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_bad_flag_is_validation_error(self, capsys):
        assert main(["run", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_bad_override_is_validation_error(self, capsys):
        assert main(["simulate", "--set", "scene.n_objects"]) == 1

    def test_unknown_config_key_is_validation_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.yaml"
        cfg.write_text("velocity: 3\n")
        assert main(["simulate", "-c", str(cfg), "-o", str(tmp_path / "d")]) == 1

    def test_missing_dataset_is_validation_error(self, tmp_path, capsys):
        assert main(["run", "--dataset", str(tmp_path / "nope")]) == 1

    def test_garbage_priors_response_is_runtime_error(self, tmp_path, capsys, no_llm_env):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("mug\n")
        fixture = tmp_path / "resp.txt"
        fixture.write_text("I am sorry, I cannot help with that.\n")
        code = main(
            ["gen-priors", "--vocab", str(vocab), "-o", str(tmp_path / "p.csv"),
             "--fixture", str(fixture)]
        )
        assert code == 2
        assert "runtime error" in capsys.readouterr().err

    def test_final_solve_value_error_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        ds = _simulate(tmp_path, capsys)

        def failing_solve(*args, **kwargs):
            raise ValueError("rotation is not orthonormal")

        monkeypatch.setattr(pipeline, "solve_batch", failing_solve)
        code = main(
            ["run", "--dataset", str(ds), "-o", str(tmp_path / "out"),
             "--set", "mode=batch"]
        )
        assert code == 2
        assert "final solve: rotation is not orthonormal" in capsys.readouterr().err

    def test_gen_priors_without_credentials(self, tmp_path, capsys, no_llm_env):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("mug\n")
        code = main(["gen-priors", "--vocab", str(vocab), "-o", str(tmp_path / "p.csv")])
        assert code == 1
        assert ENV_ENDPOINT in capsys.readouterr().err


class TestFlow:
    def test_simulate_run_evaluate(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--dataset", str(ds),
                "--priors", str(ds / "priors.csv"),
                "-o", str(out),
                "--set", "mode=batch",
            ]
        )
        assert code == 0
        assert (out / "map.json").exists() and (out / "solve.json").exists()

        report_path = tmp_path / "report.json"
        code = main(
            [
                "evaluate",
                "--map", str(out / "map.json"),
                "--dataset", str(ds),
                "-o", str(report_path),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "tp=2" in printed
        doc = json.loads(report_path.read_text())
        assert doc["counts"]["tp"] == 2

    def test_set_overrides_reach_simulator(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys, n_objects=3, n_frames=6)
        dataset = load_dataset(ds)
        assert len(dataset.gt_objects) == 3
        assert len(dataset.frames) == 6

    def test_gen_priors_fixture_summary(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("mug\nbook\n")
        fixture = tmp_path / "resp.txt"
        fixture.write_text(
            "object,length,width,height,orientation\n"
            "mug,0.12,0.085,0.1,2\n"
            "book,0.24,0.16,0.035,1\n"
        )
        out_csv = tmp_path / "priors.csv"
        code = main(
            ["gen-priors", "--vocab", str(vocab), "-o", str(out_csv),
             "--fixture", str(fixture)]
        )
        assert code == 0
        assert "2 prior rows" in capsys.readouterr().out
        assert len(parse_prior_csv(out_csv.read_text())) == 2

    def test_gen_priors_cache_reused(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("mug\n")
        fixture = tmp_path / "resp.txt"
        fixture.write_text(
            "object,length,width,height,orientation\nmug,0.12,0.085,0.1,2\n"
        )
        cache = tmp_path / "cache"
        args = ["gen-priors", "--vocab", str(vocab), "-o", str(tmp_path / "p.csv"),
                "--fixture", str(fixture), "--cache", str(cache)]
        assert main(args) == 0
        cached = list(cache.glob("*.txt"))
        assert len(cached) == 1
        # second run hits the cache even with the fixture gone
        fixture.unlink()
        fixture.write_text("garbage that would not parse\n")
        assert main(args) == 0

    def test_bench_prints_stages(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        code = main(
            ["bench", "--set", f"paths.dataset={ds}", "--set", "mode=batch"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        for stage in ("track", "associate", "solve", "total"):
            assert stage in printed
        assert "landmarks=" in printed
