from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest
import requests

from objslam import cli, pipeline
from objslam.cli import build_parser, main
from objslam.dataset import load_dataset
from objslam.priors import ENV_API_KEY, ENV_ENDPOINT, parse_prior_csv

from conftest import ENDPOINT, reply


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

    def test_wrong_value_type_in_dataset_is_validation_error(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        odometry = ds / "odometry.jsonl"
        lines = odometry.read_text().splitlines()
        record = json.loads(lines[0])
        record["translation"] = [None, 0, 0]
        lines[0] = json.dumps(record)
        odometry.write_text("\n".join(lines) + "\n")
        code = main(["run", "--dataset", str(ds), "-o", str(tmp_path / "out")])
        assert code == 1
        assert "odometry.jsonl:1:" in capsys.readouterr().err

    @pytest.mark.parametrize("file_name", ["frames.jsonl", "header.json"])
    def test_non_finite_number_in_dataset_is_validation_error(self, tmp_path, capsys, file_name):
        ds = _simulate(tmp_path, capsys)
        path = ds / file_name
        if file_name == "header.json":
            text = path.read_text()
            path.write_text(text.replace('"fx": 500.0', '"fx": NaN'))
        else:
            lines = path.read_text().splitlines()
            record = json.loads(lines[0])
            record["detections"][0]["center_depth"] = float("nan")
            lines[0] = json.dumps(record)
            path.write_text("\n".join(lines) + "\n")
        assert "NaN" in path.read_text()
        code = main(["run", "--dataset", str(ds), "-o", str(tmp_path / "out")])
        assert code == 1
        assert file_name in capsys.readouterr().err
        assert not (tmp_path / "out" / "map.json").exists()

    def test_infinite_bbox_side_in_dataset_is_validation_error(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        path = ds / "frames.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[0])
        record["detections"][0]["bbox"][0] = float("-inf")
        lines[0] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        assert "-Infinity" in path.read_text()
        code = main(["run", "--dataset", str(ds), "-o", str(tmp_path / "out")])
        assert code == 1
        assert "frames.jsonl:1:" in capsys.readouterr().err
        assert not (tmp_path / "out" / "map.json").exists()

    @pytest.mark.parametrize(
        "rows, error",
        [("mug 1.0 2.0\ncup 1.0 2.0\nmug 3.0 4.0\n", ":3: repeated embedding token 'mug'"),
         ("mug 1.0 2.0\ncup 1.0 2.0 3.0\n", ":2: embedding row has 3 values, expected 2")],
        ids=["repeated-token", "other-length"],
    )
    def test_bad_embeddings_file_is_validation_error(self, tmp_path, capsys, rows, error):
        ds = _simulate(tmp_path, capsys)
        table = tmp_path / "emb.txt"
        table.write_text(rows)
        code = main(["run", "--dataset", str(ds), "-o", str(tmp_path / "out"),
                     "--set", f"paths.embeddings={table}"])
        assert code == 1
        assert f"{table}{error}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "map.json").exists()

    def test_malformed_map_is_validation_error(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        out = tmp_path / "out"
        assert main(["run", "--dataset", str(ds), "-o", str(out), "--set", "mode=batch"]) == 0
        doc = json.loads((out / "map.json").read_text())
        doc["trajectory"][0]["rotation_quaternion"] = [2, 0, 0, 0]
        (out / "map.json").write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["evaluate", "--map", str(out / "map.json"), "--dataset", str(ds)])
        assert code == 1
        assert "map.json trajectory[0]: field 'rotation_quaternion'" in capsys.readouterr().err

    def test_nan_threshold_is_validation_error(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        out = tmp_path / "out"
        assert main(["run", "--dataset", str(ds), "-o", str(out), "--set", "mode=batch"]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--map", str(out / "map.json"), "--dataset", str(ds),
                     "--threshold", "nan"])
        assert code == 1
        assert "threshold must be positive, got nan" in capsys.readouterr().err

    def test_infinite_threshold_is_validation_error(self, tmp_path, capsys):
        # run refuses match_threshold=.inf, so evaluate refuses it too: equal
        # thresholds give equal reports.
        ds = _simulate(tmp_path, capsys)
        out = tmp_path / "out"
        assert main(["run", "--dataset", str(ds), "-o", str(out), "--set", "mode=batch"]) == 0
        capsys.readouterr()
        code = main(["evaluate", "--map", str(out / "map.json"), "--dataset", str(ds),
                     "--threshold", "inf"])
        assert code == 1
        assert "threshold must be finite, got inf" in capsys.readouterr().err

    def test_removed_damping_key_is_unknown(self, tmp_path, capsys):
        # The damping schedule, the association weights, the prior scales and
        # the box Huber width are module constants, and the short-term tracker
        # left the run: their old keys are unknown keys. A key of a removed
        # section stops at its section, so the error names the section.
        ds = _simulate(tmp_path, capsys)
        config = tmp_path / "c.yaml"
        config.write_text("association:\n  gate: 0.3\n")
        for args, named in (
            (["--set", "solver.damping_up=1"], "damping_up"),
            (["--set", "noise.bbox_huber_multiplier=1.5"], "bbox_huber_multiplier"),
            (["--set", "association.gate=0.3"], "association"),
            (["--set", "association.track_min_iou=1"], "association"),
            (["--set", "association.track_max_age=1"], "association"),
            (["--set", "association.track_gate_dist=1"], "association"),
            (["--set", "prior.kt=1"], "prior"),
            (["-c", str(config)], "association"),
        ):
            code = main(["run", "--dataset", str(ds), "-o", str(tmp_path / "out"), *args])
            assert code == 1
            err = capsys.readouterr().err
            assert "unknown" in err and named in err
            assert not (tmp_path / "out").exists()

    def test_non_finite_setting_is_validation_error(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        code = main(
            ["run", "--dataset", str(ds), "-o", str(tmp_path / "out"),
             "--set", "mode=batch", "--set", "match_threshold=.nan"]
        )
        assert code == 1
        assert "match_threshold must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out" / "map.json").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "scene.n_objects=2.5",
            "scene.n_objects=true",
            "camera.fx=true",
            "sim.seed=1.5",
            "sim.seed=true",
            "sim.max_observations_per_object=2.5",
            "paths.dataset=5",
            "sim.dropout=true",
            "noise.bbox_sigma_px=true",
            "match_threshold=true",
            "scene.area=[true, 1]",
            'flags.size_prior="false"',
        ],
    )
    def test_mistyped_setting_is_validation_error(self, tmp_path, capsys, override):
        # A number is a number and a switch is true or false: a bool is not
        # taken for 1, nor a quoted "false" for false.
        code = main(["simulate", "-o", str(tmp_path / "d"), "--set", override])
        assert code == 1
        assert f"{override.split('=')[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "override,message",
        [
            ("sim.seed=-1", "invalid [sim] section: seed must be non-negative"),
            ("scene.n_objects=-1", "invalid [scene] section: n_objects must be non-negative"),
            ("scene.radius=0", "invalid [scene] section: radius must be positive"),
        ],
    )
    def test_out_of_range_setting_is_validation_error(self, tmp_path, capsys, override, message):
        # Checked by its settings type, so the error names the section and key.
        code = main(["simulate", "-o", str(tmp_path / "d"), "--set", override])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_quoted_switch_in_config_file_is_validation_error(self, tmp_path, capsys):
        # Taken as truthy, the string would leave the size prior on.
        ds = _simulate(tmp_path, capsys)
        cfg = tmp_path / "c.yaml"
        cfg.write_text('flags:\n  size_prior: "false"\n')
        code = main(["run", "-c", str(cfg), "--dataset", str(ds), "-o", str(tmp_path / "out")])
        assert code == 1
        assert "flags.size_prior must be true or false" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,message",
        [
            ("I am sorry, I cannot help with that.\n", "expected 5 fields"),
            ("mug,0.12,0.085,0.1,2\nmug,1.5,0.1,0.1,0\n", "repeated label 'mug'"),
        ],
        ids=["garbage", "repeated-label"],
    )
    def test_bad_priors_csv_is_validation_error(self, tmp_path, capsys, text, message):
        ds = _simulate(tmp_path, capsys)
        priors = tmp_path / "bad.csv"
        priors.write_text(text)
        code = main(["run", "--dataset", str(ds), "--priors", str(priors),
                     "-o", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {priors}: " in err and message in err

    def test_gen_priors_without_credentials(self, tmp_path, capsys, no_llm_env):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("mug\n")
        code = main(["gen-priors", "--vocab", str(vocab), "-o", str(tmp_path / "p.csv")])
        assert code == 1
        assert ENV_ENDPOINT in capsys.readouterr().err

    @pytest.mark.parametrize("answer", [
        requests.ConnectionError("Connection refused"),
        reply(200, b"<html>not json</html>"),
        reply(200, b'{"error": "no choices here"}'),
    ], ids=["unreachable", "not-json", "no-choices"])
    def test_failed_model_exchange_is_runtime_error(self, tmp_path, capsys, hosted, answer):
        hosted.answer = answer
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("mug\n")
        code = main(["gen-priors", "--vocab", str(vocab), "-o", str(tmp_path / "p.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and ENDPOINT in err
        assert len(hosted.calls) == 1


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

    def test_scene_without_objects_is_scored(self, tmp_path, capsys):
        # An empty gt_objects.jsonl is ground truth with no objects in it.
        ds = _simulate(tmp_path, capsys, n_objects=0)
        assert (ds / "gt_objects.jsonl").read_text() == ""
        out = tmp_path / "out"
        assert main(["run", "--dataset", str(ds), "-o", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["counts"] == {"tp": 0, "fp": 0, "fn": 0}
        capsys.readouterr()
        assert main(["evaluate", "--map", str(out / "map.json"), "--dataset", str(ds)]) == 0
        assert "tp=0 fp=0 fn=0" in capsys.readouterr().out

    def test_evaluate_writes_the_iou_csv_it_is_asked_for(self, tmp_path, capsys):
        # A map without snapshots has an empty IoU-error series: evaluate
        # still writes the file, its header alone, as run does.
        ds = _simulate(tmp_path, capsys)
        out = tmp_path / "out"
        assert main(["run", "--dataset", str(ds), "--priors", str(ds / "priors.csv"),
                     "-o", str(out), "--set", "mode=batch"]) == 0
        doc = json.loads((out / "map.json").read_text())
        doc["snapshots"] = []
        (out / "map.json").write_text(json.dumps(doc))
        csv = tmp_path / "iou.csv"
        assert main(["evaluate", "--map", str(out / "map.json"), "--dataset", str(ds),
                     "--iou-csv", str(csv)]) == 0
        assert csv.read_text() == "keyframe_index,mean_iou_error,std_iou_error\n"

    @pytest.mark.parametrize("name", ["2024", "yes", "out #1"])
    def test_path_flags_are_literal(self, tmp_path, capsys, monkeypatch, name):
        # Path flags are taken as given, not parsed as YAML scalars: a bare
        # number or yes stays a name, and "#" does not start a comment.
        monkeypatch.chdir(tmp_path)
        code = main(["simulate", "-o", name, "--set", "scene.n_objects=2",
                     "--set", "scene.n_frames=4"])
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name / "priors.csv").exists()
        code = main(["run", "--dataset", name, "--priors", f"{name}/priors.csv",
                     "-o", name, "--set", "mode=batch"])
        assert code == 0
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert (tmp_path / name / "map.json").exists()
        assert (tmp_path / name / "report.json").exists()

    def test_exponent_floats_from_file_and_set(self, tmp_path, capsys):
        ds = _simulate(tmp_path, capsys)
        cfg = tmp_path / "c.yaml"
        cfg.write_text("noise:\n  bbox_sigma_px: 1e1\n")
        code = main(
            ["run", "-c", str(cfg), "--dataset", str(ds), "-o", str(tmp_path / "out"),
             "--set", "mode=batch", "--set", "noise.odom_sigma_rot=1e-2"]
        )
        assert code == 0
        assert (tmp_path / "out" / "map.json").exists()

    def test_integer_valued_floats(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        assert main(["simulate", "-o", str(ds), "--set", "scene.n_objects=2",
                     "--set", "scene.n_frames=4", "--set", "camera.fx=500"]) == 0
        assert json.loads((ds / "header.json").read_text())["intrinsics"]["fx"] == 500
        code = main(["run", "--dataset", str(ds), "-o", str(tmp_path / "out"),
                     "--set", "mode=batch", "--set", "noise.bbox_sigma_px=10"])
        assert code == 0
        assert (tmp_path / "out" / "map.json").exists()

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
        # run prints the stage table; bench, which printed it, is gone.
        ds = _simulate(tmp_path, capsys)
        code = main(
            ["run", "--dataset", str(ds), "-o", str(tmp_path / "out"), "--set", "mode=batch"]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        stages = [line.split()[0] for line in printed[2:]]
        assert printed[1].split() == ["stage", "seconds"]
        assert stages == ["load", "associate", "add_keyframe", "solve", "evaluate", "total"]
        assert main(["bench", "--set", f"paths.dataset={ds}"]) == 1

    def test_run_prints_the_labels_it_fell_back_on(self, tmp_path, capsys):
        # One label has no row in the prior CSV and another no row in the
        # loaded embedding table; run names each, once, on its own line.
        ds = _simulate(tmp_path, capsys, n_objects=3)
        labels = sorted({d.label for f in load_dataset(ds).frames for d in f.detections})
        assert len(labels) >= 2
        rows = (ds / "priors.csv").read_text().splitlines()
        priors = tmp_path / "priors.csv"
        priors.write_text("\n".join(r for r in rows if not r.startswith(f"{labels[0]},")) + "\n")
        embeddings = tmp_path / "emb.txt"
        rows = (Path(__file__).parent / "data" / "embeddings_50d.txt").read_text().splitlines()
        embeddings.write_text("\n".join(r for r in rows if r.split()[0] != labels[-1]) + "\n")
        code = main(["run", "--dataset", str(ds), "--priors", str(priors),
                     "-o", str(tmp_path / "out"), "--set", f"paths.embeddings={embeddings}"])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[-2:] == [
            f"fallback priors for 1 label(s): {labels[0]}",
            f"missing embeddings for 1 token(s): {labels[-1]}",
        ]


def test_docs_name_the_parsers_subcommands():
    # cli's docstring (its first line) and README's layout line for cli.py
    # list the subcommands; both must match what build_parser accepts.
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    docstring = [n.strip(" .") for n in cli.__doc__.splitlines()[0].split(":", 1)[1].split(",")]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    (layout,) = [line.split("cli.py", 1)[1] for line in readme if line.startswith("  cli.py ")]
    assert docstring == [n.strip() for n in layout.split("/")] == list(sub.choices)
