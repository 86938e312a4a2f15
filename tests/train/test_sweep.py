"""Tests for the sweep engine (repro.train.sweep).

The load-bearing property is *bit-for-bit equivalence*: fanning the
(setting x fold) product over worker processes, journaling it, killing
it and resuming it must all reproduce exactly what the serial reference
loop (:func:`serial_reference`, one ``cross_validate_config`` per
setting) computes — same rankings, same per-fold validation-loss
arrays, exact float equality.
"""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.datasets import generate_mskcfg_dataset
from repro.exceptions import ConfigurationError
from repro.fileio import Journal
from repro.train.cross_validation import cross_validate_config
from repro.train.hyperparameter import (
    GridSearch,
    GridSearchEntry,
    GridSearchResult,
    HyperparameterSetting,
    dataset_invariants,
)
from repro.train.sweep import SweepExecutor, dataset_digest, setting_key
from tests.serve.test_workers import (
    assert_workers_die_with,
    children_of,
    kill_survivors,
)

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def small_settings():
    """Two cheap sort_weighted grid points (no Conv heads)."""
    return [
        HyperparameterSetting(
            pooling="sort_weighted", pooling_ratio=0.2,
            graph_conv_sizes=(6, 6), dropout=0.0, batch_size=8,
        ),
        HyperparameterSetting(
            pooling="sort_weighted", pooling_ratio=0.64,
            graph_conv_sizes=(6, 6), dropout=0.0, batch_size=8,
        ),
    ]


@pytest.fixture(scope="module")
def sweep_dataset():
    return generate_mskcfg_dataset(total=30, seed=7, minimum_per_family=4)


def make_search(dataset, **overrides):
    kwargs = dict(epochs=2, n_splits=2, hidden_size=8, seed=0)
    kwargs.update(overrides)
    return GridSearch(dataset, **kwargs)


def serial_reference(search, settings):
    """The plain serial grid search: one ``cross_validate_config`` per
    setting, a raising fold propagating — the equivalence reference."""
    num_attributes, graph_sizes = dataset_invariants(search.dataset)
    entries = []
    for setting in settings:
        model_config, training_config = search.configs_for(
            setting, num_attributes, graph_sizes
        )
        result = cross_validate_config(
            model_config, search.dataset, training_config,
            n_splits=search.n_splits, seed=search.seed,
        )
        entries.append(GridSearchEntry(setting=setting, result=result))
    return GridSearchResult(entries=entries)


def before_each_fold(monkeypatch, hook):
    """Call ``hook(spec)`` ahead of every ``run_fold``; it may raise or
    end the process.  Forked workers inherit the patch."""
    import repro.train.sweep as sweep_module

    real_run_fold = sweep_module.run_fold

    def hooked(spec, dataset, model_factory=None):
        hook(spec)
        return real_run_fold(spec, dataset, model_factory=model_factory)

    monkeypatch.setattr(sweep_module, "run_fold", hooked)


def poison_setting(search, setting):
    """A predicate true for the fold specs of ``setting``."""
    config, _ = search.configs_for(setting, *dataset_invariants(search.dataset))
    return lambda spec: spec.model_config == config


def assert_bitwise_equal(a, b):
    """Two GridSearchResults carry identical rankings and histories."""
    assert [setting_key(e.setting) for e in a.ranking()] == [
        setting_key(e.setting) for e in b.ranking()
    ]
    for ea, eb in zip(a.entries, b.entries):
        assert ea.setting == eb.setting
        assert ea.score == eb.score
        assert np.array_equal(
            ea.result.epoch_validation_losses, eb.result.epoch_validation_losses
        )
        for ha, hb in zip(ea.result.fold_histories, eb.result.fold_histories):
            assert ha.validation_losses == hb.validation_losses
            assert ha.train_losses == hb.train_losses
        assert np.array_equal(
            ea.result.averaged_report.confusion,
            eb.result.averaged_report.confusion,
        )


class TestSettingKey:
    def test_stable_across_calls(self):
        a, b = small_settings()
        assert setting_key(a) == setting_key(a)
        assert setting_key(a) != setting_key(b)

    def test_independent_of_grid_position(self):
        a, b = small_settings()
        assert [setting_key(s) for s in [a, b]] == list(
            reversed([setting_key(s) for s in [b, a]])
        )


class TestEquivalence:
    def test_parallel_matches_serial_exactly(self, sweep_dataset):
        """The acceptance criterion: n_jobs=2 == serial, float-exact."""
        serial = serial_reference(make_search(sweep_dataset), small_settings())
        report = SweepExecutor(make_search(sweep_dataset), n_jobs=2).run(
            small_settings()
        )
        assert report.failures == []
        assert report.executed_folds == 4
        assert_bitwise_equal(serial, report.grid_result)

    def test_grid_search_n_jobs_delegates(self, sweep_dataset):
        serial = serial_reference(make_search(sweep_dataset), small_settings())
        inline = make_search(sweep_dataset).run(small_settings())
        parallel = make_search(sweep_dataset).run(small_settings(), n_jobs=2)
        assert inline.failures == parallel.failures == []
        assert_bitwise_equal(serial, inline)
        assert_bitwise_equal(serial, parallel)

    def test_progress_fires_once_per_setting(self, sweep_dataset):
        calls = []
        search = make_search(
            sweep_dataset,
            progress=lambda i, n, s, score: calls.append((i, n)),
        )
        SweepExecutor(search, n_jobs=2).run(small_settings())
        assert sorted(calls) == [(1, 2), (2, 2)]

    def test_serial_sweep_reports_each_setting_as_it_lands(
        self, sweep_dataset, tmp_path, monkeypatch
    ):
        """Progress fires when a setting's last fold lands, not at the end."""
        events = []
        before_each_fold(monkeypatch, lambda spec: events.append("fold"))
        search = make_search(
            sweep_dataset,
            progress=lambda i, n, s, score: events.append(f"setting {i}/{n}"),
        )
        SweepExecutor(
            search, n_jobs=1, journal_path=str(tmp_path / "sweep.jsonl")
        ).run(small_settings())
        assert events == ["fold", "fold", "setting 1/2",
                          "fold", "fold", "setting 2/2"]


class TestJournalResume:
    def test_full_journal_resume_skips_everything(self, sweep_dataset, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        first = SweepExecutor(
            make_search(sweep_dataset), journal_path=journal
        ).run(small_settings())
        assert first.executed_folds == 4 and first.resumed_folds == 0

        resumed = SweepExecutor(
            make_search(sweep_dataset), journal_path=journal, resume=True
        ).run(small_settings())
        assert resumed.executed_folds == 0 and resumed.resumed_folds == 4
        assert_bitwise_equal(first.grid_result, resumed.grid_result)

    def test_partial_journal_resume_reproduces_result(
        self, sweep_dataset, tmp_path
    ):
        journal = str(tmp_path / "sweep.jsonl")
        full = SweepExecutor(
            make_search(sweep_dataset), journal_path=journal
        ).run(small_settings())

        # Simulate a kill after two folds, mid-write of the third.
        lines = open(journal).read().splitlines()
        assert len(lines) == 5  # header + 4 folds
        with open(journal, "w") as handle:
            handle.write("\n".join(lines[:3]) + "\n" + lines[3][:25])

        resumed = SweepExecutor(
            make_search(sweep_dataset), journal_path=journal,
            resume=True, n_jobs=2,
        ).run(small_settings())
        assert resumed.resumed_folds == 2 and resumed.executed_folds == 2
        assert_bitwise_equal(full.grid_result, resumed.grid_result)

    def test_fingerprint_mismatch_refused(self, sweep_dataset, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        SweepExecutor(
            make_search(sweep_dataset), journal_path=journal
        ).run(small_settings())
        with pytest.raises(ConfigurationError, match="fingerprint"):
            SweepExecutor(
                make_search(sweep_dataset, epochs=3),
                journal_path=journal, resume=True,
            ).run(small_settings())

    def test_resume_onto_another_corpus_refused(self, tmp_path):
        """Same size, names and labels, different graphs: no splice."""
        journal = str(tmp_path / "sweep.jsonl")
        first, second = (
            generate_mskcfg_dataset(total=30, seed=seed, minimum_per_family=4)
            for seed in (0, 1)
        )
        assert [a.name for a in first.acfgs] == [a.name for a in second.acfgs]
        assert list(first.labels()) == list(second.labels())
        settings = small_settings()[:1]
        SweepExecutor(
            make_search(first, epochs=1), journal_path=journal
        ).run(settings)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            SweepExecutor(
                make_search(second, epochs=1), journal_path=journal,
                resume=True,
            ).run(settings)

    def test_journal_without_resume_starts_fresh(self, sweep_dataset, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        SweepExecutor(
            make_search(sweep_dataset), journal_path=journal
        ).run(small_settings())
        again = SweepExecutor(
            make_search(sweep_dataset), journal_path=journal
        ).run(small_settings())
        assert again.resumed_folds == 0 and again.executed_folds == 4
        records = [json.loads(line) for line in open(journal)]
        assert [r["kind"] for r in records] == ["header"] + ["fold"] * 4

    def test_missing_journal_with_resume_is_fresh_start(
        self, sweep_dataset, tmp_path
    ):
        journal = str(tmp_path / "absent.jsonl")
        report = SweepExecutor(
            make_search(sweep_dataset), journal_path=journal, resume=True
        ).run(small_settings())
        assert report.resumed_folds == 0 and report.executed_folds == 4
        assert os.path.exists(journal)


class TestFaultTolerance:
    def test_transient_failure_retried_once(
        self, sweep_dataset, monkeypatch
    ):
        poisoned = {"remaining": 1}

        def flaky(spec):
            if spec.fold_index == 1 and poisoned["remaining"]:
                poisoned["remaining"] -= 1
                raise RuntimeError("synthetic transient fold crash")

        before_each_fold(monkeypatch, flaky)
        report = SweepExecutor(make_search(sweep_dataset), n_jobs=1).run(
            small_settings()
        )
        monkeypatch.undo()
        serial = serial_reference(make_search(sweep_dataset), small_settings())
        assert report.failures == []
        assert_bitwise_equal(serial, report.grid_result)

    def test_persistent_failure_reported_not_raised(
        self, sweep_dataset, monkeypatch, tmp_path
    ):
        settings = small_settings()
        poison_key = setting_key(settings[0])
        search = make_search(sweep_dataset)
        poisoned = poison_setting(search, settings[0])

        def always_broken(spec):
            if poisoned(spec):
                raise RuntimeError("synthetic persistent fold crash")

        before_each_fold(monkeypatch, always_broken)
        journal = str(tmp_path / "sweep.jsonl")
        report = SweepExecutor(
            search, n_jobs=1, journal_path=journal
        ).run(settings)

        assert report.failures, "persistent crash should be reported"
        assert all(f.attempts == 2 for f in report.failures)
        assert all(f.setting_key == poison_key for f in report.failures)
        # The healthy setting still produced its entry.
        assert [e.setting for e in report.grid_result.entries] == [settings[1]]
        assert report.grid_result.failures == report.failures
        kinds = [json.loads(line)["kind"] for line in open(journal)]
        assert "failure" in kinds

    def test_invalid_n_jobs_rejected(self, sweep_dataset):
        with pytest.raises(ConfigurationError):
            SweepExecutor(make_search(sweep_dataset), n_jobs=0)


class TestWorkerCrash:
    """A fold whose worker process dies costs that fold, not the sweep."""

    def test_crash_on_first_attempt_is_retried_on_a_respawned_worker(
        self, sweep_dataset, monkeypatch, tmp_path
    ):
        marker = tmp_path / "crashed-once"

        def crash_first_attempt(spec):
            if spec.fold_index == 1 and not marker.exists():
                marker.touch()
                os._exit(3)

        before_each_fold(monkeypatch, crash_first_attempt)
        report = SweepExecutor(make_search(sweep_dataset), n_jobs=2).run(
            small_settings()
        )
        monkeypatch.undo()
        assert marker.exists()
        assert report.failures == []
        assert report.executed_folds == 4
        assert_bitwise_equal(
            serial_reference(make_search(sweep_dataset), small_settings()),
            report.grid_result,
        )

    def test_fold_whose_worker_always_dies_becomes_a_failure(
        self, sweep_dataset, monkeypatch
    ):
        settings = small_settings()
        search = make_search(sweep_dataset)
        poisoned = poison_setting(search, settings[0])

        def always_crash(spec):
            if poisoned(spec) and spec.fold_index == 0:
                os._exit(3)

        before_each_fold(monkeypatch, always_crash)
        report = SweepExecutor(search, n_jobs=2).run(settings)
        monkeypatch.undo()
        (failure,) = report.failures
        assert failure.setting == settings[0] and failure.fold_index == 0
        assert failure.attempts == 2
        assert "died" in failure.error and "exit code 3" in failure.error
        assert [e.setting for e in report.grid_result.entries] == [settings[1]]
        reference = serial_reference(make_search(sweep_dataset), settings[1:])
        assert_bitwise_equal(reference, report.grid_result)


class TestDatasetInvariants:
    def test_returns_hoisted_invariants(self, sweep_dataset):
        num_attributes, graph_sizes = dataset_invariants(sweep_dataset)
        assert num_attributes == sweep_dataset.acfgs[0].num_attributes
        assert graph_sizes == sweep_dataset.graph_sizes()

    def test_emptied_dataset_raises_configuration_error(self, sweep_dataset):
        search = make_search(sweep_dataset)
        search.dataset = sweep_dataset.subset(range(len(sweep_dataset)))
        search.dataset.acfgs.clear()  # the empty-but-constructed misuse path
        with pytest.raises(ConfigurationError, match="no ACFGs"):
            search.run(small_settings())


def sweep_cli(tmp_path, tag, extra):
    """A small ``repro.cli sweep`` command line, its env and output path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    output = str(tmp_path / f"{tag}.json")
    cmd = [sys.executable, "-m", "repro.cli", "sweep", "--dataset", "mskcfg",
           "--total", "30", "--settings", "2", "--epochs", "2", "--folds", "2",
           "--hidden-size", "8", "--seed", "0", "--output", output, *extra]
    return cmd, env, output


def start_until_first_fold(cmd, env, journal):
    """Start a journaled CLI sweep; return it once a fold is journaled
    (or it has exited, or four minutes have passed)."""
    process = subprocess.Popen(
        cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    deadline = time.monotonic() + 240
    while time.monotonic() < deadline and process.poll() is None:
        if os.path.exists(journal) and '"kind": "fold"' in open(journal).read():
            break
        time.sleep(0.02)
    return process


class TestKillAndResume:
    """End-to-end: SIGKILL a journaled CLI sweep, resume, compare."""

    def test_killed_sweep_resumes_to_identical_ranking(self, tmp_path):
        # Reference: uninterrupted, journal-free run.
        cmd, env, reference_path = sweep_cli(tmp_path, "reference", [])
        subprocess.run(cmd, env=env, check=True, capture_output=True,
                       timeout=300)

        # Interrupted run: SIGKILL once the first fold hits the journal.
        journal = str(tmp_path / "sweep.jsonl")
        cmd, env, _ = sweep_cli(
            tmp_path, "interrupted", ["--journal", journal]
        )
        process = start_until_first_fold(cmd, env, journal)
        try:
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()

        # Resume and compare against the uninterrupted ranking.
        cmd, env, resumed_path = sweep_cli(
            tmp_path, "resumed", ["--journal", journal, "--resume"]
        )
        subprocess.run(cmd, env=env, check=True, capture_output=True,
                       timeout=300)

        with open(reference_path) as handle:
            reference = json.load(handle)
        with open(resumed_path) as handle:
            resumed = json.load(handle)
        assert resumed == reference  # exact, including float reprs

        # The journal holds each fold exactly once: resume skipped
        # completed work instead of redoing it.
        records = [json.loads(line) for line in open(journal)
                   if line.strip() and '"fold"' in line]
        fold_units = [(r["setting"], r["fold"]) for r in records
                      if r["kind"] == "fold"]
        assert len(fold_units) == len(set(fold_units)) == 4


class TestJournalUnit:
    def test_header_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = Journal(path, {"epochs": 2, "n_splits": 2})
        journal.open_for_append(fresh=True)
        journal.close()
        same = Journal(path, {"epochs": 2, "n_splits": 2})
        assert same.load() == []
        other = Journal(path, {"epochs": 3, "n_splits": 2})
        with pytest.raises(ConfigurationError, match="fingerprint"):
            other.load()

    def test_non_header_first_line_rejected(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "w") as handle:
            handle.write('{"kind": "fold"}\n')
        with pytest.raises(ConfigurationError, match="header"):
            Journal(path, {}).load()


class TestDatasetDigest:
    def test_order_and_content_aware(self, sweep_dataset):
        digest = dataset_digest(sweep_dataset)
        assert digest == dataset_digest(sweep_dataset)
        reordered = sweep_dataset.subset(
            list(range(1, len(sweep_dataset))) + [0]
        )
        assert dataset_digest(reordered) != digest
        changed = sweep_dataset.subset(range(len(sweep_dataset)))
        changed.acfgs[0] = changed.acfgs[0].replace(
            attributes=changed.acfgs[0].attributes + 1.0
        )
        assert dataset_digest(changed) != digest


class TestNoOrphans:
    """A SIGKILLed sweep driver takes its worker processes with it."""

    def test_sweep_workers_exit_when_the_driver_is_killed(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        cmd, env, _ = sweep_cli(
            tmp_path, "orphans", ["--n-jobs", "2", "--journal", journal]
        )
        driver = start_until_first_fold(cmd, env, journal)
        workers = []
        try:
            workers = children_of(driver.pid)
            assert driver.poll() is None, "the sweep finished before the kill"
            assert workers, "no worker process to watch"
            assert_workers_die_with(driver, workers)
        finally:
            kill_survivors(driver, workers)
