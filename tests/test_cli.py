"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main

from tests.conftest import SAMPLE_ASM


@pytest.fixture
def listing_file(tmp_path):
    path = tmp_path / "sample.asm"
    path.write_text(SAMPLE_ASM)
    return str(path)


class TestColdStart:
    def test_importing_the_cli_leaves_networkx_out(self):
        # Every server spawn and fleet replica imports the CLI; networkx
        # is only for CFG metrics and analysis, imported where they run.
        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        completed = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'networkx'))"],
            env=dict(os.environ, PYTHONPATH=source),
            capture_output=True, text=True, timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"


class TestInfo:
    def test_prints_metrics(self, listing_file, capsys):
        assert main(["info", listing_file]) == 0
        out = capsys.readouterr().out
        assert "num_vertices" in out
        assert "cyclomatic_complexity" in out

    def test_writes_dot(self, listing_file, tmp_path):
        dot_path = str(tmp_path / "out.dot")
        assert main(["info", listing_file, "--dot", dot_path]) == 0
        with open(dot_path) as handle:
            assert handle.read().startswith("digraph")


class TestExtract:
    def test_extracts_json(self, listing_file, tmp_path, capsys):
        output = str(tmp_path / "cfgs")
        assert main(["extract", listing_file, "--output", output]) == 0
        assert os.path.exists(os.path.join(output, "sample.json"))

    def test_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.asm"
        bad.write_text("")  # empty program
        output = str(tmp_path / "cfgs")
        assert main(["extract", str(bad), "--output", output]) == 1

    def test_failure_reports_kind(self, tmp_path, capsys):
        bad = tmp_path / "bad.asm"
        bad.write_text("")
        assert main(["extract", str(bad),
                     "--output", str(tmp_path / "cfgs")]) == 1
        assert "[parse]" in capsys.readouterr().err

    def test_parallel_extraction(self, listing_file, tmp_path):
        output = str(tmp_path / "cfgs")
        assert main(["extract", listing_file, "--output", output,
                     "--n-jobs", "2", "--timeout", "30"]) == 0
        assert os.path.exists(os.path.join(output, "sample.json"))

    def test_max_vertices_guard(self, listing_file, tmp_path, capsys):
        output = str(tmp_path / "cfgs")
        assert main(["extract", listing_file, "--output", output,
                     "--max-vertices", "1"]) == 1
        assert "[oversize]" in capsys.readouterr().err

    def test_journal_and_resume(self, listing_file, tmp_path, capsys):
        output = str(tmp_path / "cfgs")
        journal = str(tmp_path / "extract.jsonl")
        assert main(["extract", listing_file, "--output", output,
                     "--journal", journal]) == 0
        assert os.path.exists(journal)
        capsys.readouterr()
        assert main(["extract", listing_file, "--output", output,
                     "--journal", journal, "--resume"]) == 0
        assert "resumed" in capsys.readouterr().out

    def test_quarantine_flag(self, tmp_path):
        bad = tmp_path / "bad.asm"
        bad.write_text("")
        quarantine = str(tmp_path / "quarantine")
        assert main(["extract", str(bad),
                     "--output", str(tmp_path / "cfgs"),
                     "--quarantine", quarantine]) == 1
        assert len(os.listdir(quarantine)) == 1


class TestTrainPredict:
    def test_train_then_predict(self, tmp_path, listing_file, capsys):
        model_dir = str(tmp_path / "model")
        code = main([
            "train", "--dataset", "mskcfg", "--total", "36",
            "--epochs", "1", "--pooling", "sort_weighted",
            "--model-dir", model_dir,
        ])
        assert code == 0
        assert os.path.exists(os.path.join(model_dir, "magic.json"))

        capsys.readouterr()
        assert main(["predict", "--model-dir", model_dir, listing_file]) == 0
        out = capsys.readouterr().out
        assert "confidence" in out

    def test_predict_on_cfg_json(self, tmp_path, listing_file, capsys):
        model_dir = str(tmp_path / "model")
        main(["train", "--dataset", "mskcfg", "--total", "36",
              "--epochs", "1", "--pooling", "sort_weighted",
              "--model-dir", model_dir])
        cfg_dir = str(tmp_path / "cfgs")
        main(["extract", listing_file, "--output", cfg_dir])
        capsys.readouterr()
        json_path = os.path.join(cfg_dir, "sample.json")
        assert main(["predict", "--model-dir", model_dir, json_path]) == 0
        assert "confidence" in capsys.readouterr().out

    def test_train_on_cfg_directory(self, tmp_path, capsys):
        # Build a tiny <family>__<id>.json corpus via extract + rename.
        from repro.datasets import generate_mskcfg_listings

        cfg_dir = tmp_path / "corpus"
        cfg_dir.mkdir()
        listings = generate_mskcfg_listings(total=18, seed=1,
                                            minimum_per_family=2)
        from repro.cfg import build_cfg_from_text, save_cfg

        for name, text, label in listings:
            family = name.rsplit("_", 1)[0].replace(".", "_")
            cfg = build_cfg_from_text(text, name=name)
            save_cfg(cfg, str(cfg_dir / f"{family}__{name}.json"))

        model_dir = str(tmp_path / "model")
        code = main([
            "train", "--cfg-dir", str(cfg_dir), "--epochs", "1",
            "--pooling", "sort_weighted", "--model-dir", model_dir,
        ])
        assert code == 0

    def test_missing_model_dir_errors(self, listing_file, capsys):
        assert main(["predict", "--model-dir", "/nonexistent",
                     listing_file]) == 2

    def test_unreadable_listing_is_reported_and_others_classified(
        self, tmp_path, listing_file, capsys
    ):
        model_dir = str(tmp_path / "model")
        main(["train", "--dataset", "mskcfg", "--total", "36",
              "--epochs", "1", "--pooling", "sort_weighted",
              "--model-dir", model_dir])
        missing = str(tmp_path / "missing.asm")
        capsys.readouterr()
        code = main(["predict", "--model-dir", model_dir, missing,
                     listing_file])
        assert code == 1
        captured = capsys.readouterr()
        assert f"FAILED {missing}: No such file or directory" in captured.err
        assert f"{listing_file}: " in captured.out


class TestClassify:
    @pytest.fixture(scope="class")
    def published(self, tmp_path_factory):
        """Train once for the class: a registry with ``demo@v1`` plus the
        plain (legacy) model directory."""
        registry = str(tmp_path_factory.mktemp("registry"))
        model_dir = str(tmp_path_factory.mktemp("models") / "demo")
        code = main([
            "train", "--dataset", "mskcfg", "--total", "36",
            "--epochs", "1", "--pooling", "sort_weighted",
            "--model-dir", model_dir,
            "--registry", registry, "--model-name", "demo",
        ])
        assert code == 0
        return registry, model_dir

    def test_train_publishes_archive(self, published):
        registry, _ = published
        assert os.path.exists(
            os.path.join(registry, "demo", "v1", "archive.json")
        )

    def test_classify_from_registry(self, published, listing_file, capsys):
        registry, _ = published
        capsys.readouterr()
        code = main(["classify", "--registry", registry, "--model", "demo",
                     listing_file])
        assert code == 0
        assert "confidence" in capsys.readouterr().out

    def test_classify_pinned_version(self, published, listing_file, capsys):
        registry, _ = published
        capsys.readouterr()
        assert main(["classify", "--registry", registry,
                     "--model", "demo@v1", listing_file]) == 0
        assert "confidence" in capsys.readouterr().out

    def test_bad_listing_reports_kind_not_poisoning_batch(
        self, published, listing_file, tmp_path, capsys
    ):
        registry, _ = published
        bad = tmp_path / "bad.asm"
        bad.write_text("")
        capsys.readouterr()
        code = main(["classify", "--registry", registry, "--model", "demo",
                     listing_file, str(bad)])
        assert code == 1
        captured = capsys.readouterr()
        assert "[parse]" in captured.err
        # The good neighbor was still classified.
        assert "confidence" in captured.out

    def test_unreadable_listing_is_reported_and_others_classified(
        self, published, listing_file, tmp_path, capsys
    ):
        registry, _ = published
        missing = str(tmp_path / "missing.asm")
        capsys.readouterr()
        code = main(["classify", "--registry", registry, "--model", "demo",
                     missing, listing_file])
        assert code == 1
        captured = capsys.readouterr()
        assert f"FAILED {missing}: No such file or directory" in captured.err
        assert "confidence" in captured.out

    def test_oversize_guard(self, published, listing_file, capsys):
        registry, _ = published
        capsys.readouterr()
        assert main(["classify", "--registry", registry, "--model", "demo",
                     "--max-vertices", "1", listing_file]) == 1
        assert "[oversize]" in capsys.readouterr().err

    def test_duplicate_listing_hits_cache(self, published, listing_file,
                                          tmp_path, capsys):
        registry, _ = published
        twin = tmp_path / "twin.asm"
        twin.write_text(open(listing_file).read())
        capsys.readouterr()
        assert main(["classify", "--registry", registry, "--model", "demo",
                     listing_file, str(twin)]) == 0
        assert "(cached)" in capsys.readouterr().out

    def test_cache_size_flag_reaches_the_engine(self, published):
        from repro.cli import _serving_engine, build_parser

        registry, _ = published
        base = ["classify", "--registry", registry, "--model", "demo"]
        sized = _serving_engine(build_parser().parse_args(
            base + ["--cache-size", "0", "x.asm"]
        ))
        assert sized.cache_info() == {"entries": 0, "bound": 0}
        default = _serving_engine(build_parser().parse_args(
            base + ["x.asm"]
        ))
        assert default.cache_info()["bound"] == 1024

    def test_similar_threshold_reaches_the_engine(self, published):
        from repro.cli import _serving_engine, build_parser

        registry, _ = published
        engine = _serving_engine(build_parser().parse_args(
            ["classify", "--registry", registry, "--model", "demo",
             "--similar-threshold", "0.45", "--fingerprint-iterations", "2",
             "x.asm"]
        ))
        info = engine.cache_info()["similarity"]
        assert info["threshold"] == pytest.approx(0.45)
        assert info["iterations"] == 2

    def test_similar_hits_are_flagged_in_the_output(
        self, published, tmp_path, capsys, monkeypatch
    ):
        # The similarity tier only serves *remembered* predictions, so a
        # warm engine stands in for earlier traffic and the CLI call
        # classifies just the near-duplicate.
        import repro.cli as cli_module
        from repro.datasets.mskcfg import (
            MSKCFG_PROFILES,
            generate_mskcfg_sample,
        )
        from repro.datasets.synthetic_asm import ObfuscationKnobs
        from repro.serve import InferenceEngine

        registry, _ = published
        _, base_text, _ = generate_mskcfg_sample("Ramnit", 50, seed=0)
        knobs = ObfuscationKnobs(
            junk_probability=MSKCFG_PROFILES["Ramnit"].junk_probability
            + 0.25
        )
        _, variant_text, _ = generate_mskcfg_sample(
            "Ramnit", 50, seed=0, knobs=knobs
        )
        engine = InferenceEngine.from_registry(
            registry, "demo", similar_threshold=0.45
        )
        engine.classify_text(base_text, "base")
        monkeypatch.setattr(
            cli_module, "_serving_engine", lambda args: engine
        )
        variant = tmp_path / "variant.asm"
        variant.write_text(variant_text)
        capsys.readouterr()
        assert main(["classify", "--registry", registry, "--model", "demo",
                     "--similar-threshold", "0.45", str(variant)]) == 0
        out = capsys.readouterr().out
        assert "(similar " in out
        assert "(cached)" not in out

    def test_serve_similarity_parser_wiring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--registry", "r", "--model", "demo",
             "--cache-size", "64", "--similar-threshold", "0.6",
             "--fingerprint-iterations", "2"]
        )
        assert args.cache_size == 64
        assert args.similar_threshold == 0.6  # repro: allow[float-equality] — argparse parses the literal, bit-exact
        assert args.fingerprint_iterations == 2
        # All three default to "engine decides" / tier off.
        defaults = build_parser().parse_args(
            ["serve", "--registry", "r", "--model", "demo"]
        )
        assert defaults.cache_size is None
        assert defaults.similar_threshold is None
        assert defaults.fingerprint_iterations is None

    def test_legacy_model_dir_warns_but_classifies(
        self, published, listing_file, capsys
    ):
        _, model_dir = published
        capsys.readouterr()
        with pytest.warns(UserWarning, match="legacy model archive"):
            code = main(["classify", "--model-dir", model_dir, listing_file])
        assert code == 0
        assert "confidence" in capsys.readouterr().out

    def test_missing_model_source_errors(self, listing_file, capsys):
        assert main(["classify", listing_file]) == 2
        assert "--registry" in capsys.readouterr().err

    def test_serve_parser_wiring(self):
        from repro.cli import build_parser, cmd_serve

        args = build_parser().parse_args(
            ["serve", "--registry", "r", "--model", "demo",
             "--port", "0", "--max-batch-size", "8"]
        )
        assert args.func is cmd_serve
        assert (args.port, args.max_batch_size) == (0, 8)
        # Single-process serving is the default: fleet mode is opt-in.
        assert args.workers == 0

    def test_serve_fleet_parser_wiring(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--registry", "r", "--model", "demo@v3",
             "--workers", "4", "--batch-timeout", "15",
             "--request-timeout", "45"]
        )
        assert (args.workers, args.batch_timeout, args.request_timeout) == (
            4, 15.0, 45.0
        )

    def test_serve_fleet_requires_a_registry_model(self, listing_file,
                                                   capsys):
        # Fleet workers load replicas from the registry; a bare model
        # directory cannot be fanned out.
        assert main(["serve", "--model-dir", "somewhere",
                     "--workers", "2"]) == 2
        assert "registry" in capsys.readouterr().err.lower()

    def test_rollout_parser_wiring(self):
        from repro.cli import build_parser, cmd_rollout

        args = build_parser().parse_args(
            ["rollout", "start", "--version", "v2",
             "--shadow-fraction", "0.5", "--min-samples", "10",
             "--manual", "--url", "http://127.0.0.1:9000"]
        )
        assert args.func is cmd_rollout
        assert args.action == "start"
        assert (args.version, args.shadow_fraction, args.min_samples) == (
            "v2", 0.5, 10
        )
        assert args.manual
        for action in ("status", "promote", "rollback"):
            assert build_parser().parse_args(
                ["rollout", action]
            ).action == action


class TestDedup:
    @pytest.fixture()
    def corpus_dir(self, tmp_path):
        """A dataset cache with one junk-code near-duplicate inside."""
        from repro.datasets.cache import save_dataset
        from repro.datasets.loader import MalwareDataset
        from repro.datasets.mskcfg import (
            MSKCFG_PROFILES,
            generate_mskcfg_sample,
        )
        from repro.datasets.synthetic_asm import ObfuscationKnobs
        from repro.features.pipeline import AcfgPipeline

        knobs = ObfuscationKnobs(
            junk_probability=MSKCFG_PROFILES["Ramnit"].junk_probability
            + 0.2
        )
        texts = [
            generate_mskcfg_sample("Ramnit", 0, seed=0),
            generate_mskcfg_sample("Lollipop", 0, seed=0),
            generate_mskcfg_sample("Ramnit", 0, seed=0, knobs=knobs),
        ]
        named = [
            (name if i < 2 else name + "__variant", text, 0)
            for i, (name, text, _) in enumerate(texts)
        ]
        result = AcfgPipeline().extract_from_texts(named)
        directory = str(tmp_path / "cache")
        save_dataset(
            MalwareDataset(acfgs=result.acfgs, family_names=["all"]),
            directory,
        )
        return directory

    def test_report_lists_duplicates_and_exits_nonzero(
        self, corpus_dir, capsys
    ):
        assert main(["dedup", corpus_dir]) == 1
        captured = capsys.readouterr()
        assert "DROPPED Ramnit_00000__variant [near-duplicate]:" in (
            captured.err
        )
        assert "estimated Jaccard" in captured.err
        assert "1 near-duplicates" in captured.out

    def test_apply_rewrites_the_cache_and_a_rerun_is_clean(
        self, corpus_dir, capsys
    ):
        from repro.datasets.cache import load_dataset

        assert main(["dedup", corpus_dir, "--apply"]) == 0
        assert "rewrote" in capsys.readouterr().out
        assert len(load_dataset(corpus_dir).acfgs) == 2
        assert main(["dedup", corpus_dir]) == 0
        captured = capsys.readouterr()
        assert "DROPPED" not in captured.err
        assert "0 near-duplicates" in captured.out

    def test_output_writes_the_cluster_report(
        self, corpus_dir, tmp_path, capsys
    ):
        report_path = str(tmp_path / "report.json")
        main(["dedup", corpus_dir, "--output", report_path])
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["total"] == 3
        assert report["dropped"] == 1
        assert report["clusters"][0]["keeper"] == "Ramnit_00000"

    def test_strict_threshold_finds_nothing(self, corpus_dir, capsys):
        assert main(["dedup", corpus_dir, "--threshold", "0.999"]) == 0
        assert "0 near-duplicates" in capsys.readouterr().out


class TestSweep:
    def test_sweep_writes_ranking_and_journal(self, tmp_path, capsys):
        journal = str(tmp_path / "sweep.jsonl")
        output = str(tmp_path / "ranking.json")
        code = main([
            "sweep", "--dataset", "mskcfg", "--total", "24",
            "--settings", "1", "--epochs", "1", "--folds", "2",
            "--hidden-size", "8", "--journal", journal, "--output", output,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ranking" in out
        assert os.path.exists(journal)
        with open(output) as handle:
            ranking = json.load(handle)["ranking"]
        assert len(ranking) == 1
        assert ranking[0]["rank"] == 1
        assert len(ranking[0]["fold_validation_losses"]) == 2
