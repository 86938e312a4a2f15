"""Tests for the fault-tolerant batch ACFG extraction service."""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro.exceptions import ConfigurationError, MagicError
from repro.cfg.builder import build_cfg_from_text
from repro.features.pipeline import (
    AcfgPipeline,
    ExtractionFailure,
    FailureKind,
)
from repro.testing.faults import FaultPlan

from tests.conftest import SAMPLE_ASM
from tests.features import extraction_scenario

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

GOOD = ("good", SAMPLE_ASM, 0)
EMPTY = ("empty", "", 1)  # empty program -> CfgConstructionError


def assert_reports_equal(a, b):
    """Same ACFGs (values and order) and the same structured failures."""
    assert [x.name for x in a.acfgs] == [x.name for x in b.acfgs]
    assert [x.label for x in a.acfgs] == [x.label for x in b.acfgs]
    for x, y in zip(a.acfgs, b.acfgs):
        np.testing.assert_array_equal(x.edges, y.edges)
        np.testing.assert_array_equal(x.attributes, y.attributes)
    assert a.failures == b.failures


class TestSequentialExtraction:
    def test_success(self):
        report = AcfgPipeline().extract_from_texts([GOOD])
        assert report.num_succeeded == 1
        assert report.num_failed == 0
        assert report.acfgs[0].label == 0
        assert report.acfgs[0].name == "good"

    def test_failure_collected_not_raised(self):
        report = AcfgPipeline().extract_from_texts([GOOD, EMPTY])
        assert report.num_succeeded == 1
        assert report.num_failed == 1
        failure = report.failures[0]
        assert failure.name == "empty"
        assert failure.kind is FailureKind.PARSE
        assert failure.index == 1

    def test_order_preserved(self):
        samples = [(f"s{i}", SAMPLE_ASM, i) for i in range(5)]
        report = AcfgPipeline().extract_from_texts(samples)
        assert [a.name for a in report.acfgs] == [f"s{i}" for i in range(5)]

    def test_timing_recorded(self):
        report = AcfgPipeline().extract_from_texts([GOOD])
        assert report.elapsed_seconds > 0
        assert report.seconds_per_sample > 0

    def test_empty_batch(self):
        report = AcfgPipeline().extract_from_texts([])
        assert report.num_succeeded == 0
        assert report.seconds_per_sample == 0.0  # repro: allow[float-equality] — exact by construction


class TestParallelExtraction:
    def test_parallel_matches_sequential(self):
        samples = [(f"s{i}", SAMPLE_ASM, i % 3) for i in range(8)]
        sequential = AcfgPipeline(max_workers=1).extract_from_texts(samples)
        parallel = AcfgPipeline(max_workers=4).extract_from_texts(samples)
        assert_reports_equal(sequential, parallel)

    def test_parallel_collects_failures(self):
        report = AcfgPipeline(max_workers=2).extract_from_texts([GOOD, EMPTY])
        assert report.num_failed == 1
        assert report.failures[0].kind is FailureKind.PARSE

    def test_invalid_worker_count(self):
        with pytest.raises(MagicError):
            AcfgPipeline(max_workers=0)


class TestConfigurationValidation:
    def test_timeout_runs_one_worker_in_a_killable_process(self):
        # One worker with a deadline is a supervised process, not inline:
        # the hang is killed and the rest of the batch still runs.
        plan = FaultPlan.build(hang_on=[1], hang_seconds=60.0)
        samples = [(f"s{i}", SAMPLE_ASM, i) for i in range(3)]
        report = AcfgPipeline(
            max_workers=1, timeout=1.0, fault_plan=plan
        ).extract_from_texts(samples)
        (failure,) = report.failures
        assert failure.kind is FailureKind.TIMEOUT and failure.index == 1
        assert [a.name for a in report.acfgs] == ["s0", "s2"]

    def test_timeout_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            AcfgPipeline(max_workers=2, timeout=0.0)

    def test_resume_requires_journal(self):
        with pytest.raises(ConfigurationError, match="journal_path"):
            AcfgPipeline(resume=True)

    def test_invalid_max_vertices(self):
        with pytest.raises(ConfigurationError, match="max_vertices"):
            AcfgPipeline(max_vertices=0)

    def test_unknown_worker_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            AcfgPipeline().run_units([("x", None, None)], "no-such-worker")


class TestDuplicateNames:
    """Samples sharing a name must all survive extraction.

    Regression test: futures used to be keyed by sample name, so two
    samples named alike collapsed into one result.
    """

    @pytest.mark.parametrize("workers", [
        dict(max_workers=1),
        dict(max_workers=4),
        dict(max_workers=2),
    ])
    def test_duplicate_names_all_extracted(self, workers):
        samples = [("dup", SAMPLE_ASM, i) for i in range(4)]
        report = AcfgPipeline(**workers).extract_from_texts(samples)
        assert report.num_succeeded == 4
        assert [a.label for a in report.acfgs] == [0, 1, 2, 3]

    @pytest.mark.parametrize("workers", [
        dict(max_workers=1),
        dict(max_workers=3),
        dict(max_workers=2),
    ])
    def test_duplicate_names_with_failures(self, workers):
        samples = [
            ("dup", SAMPLE_ASM, 0),
            ("dup", "", 1),  # fails: empty program
            ("dup", SAMPLE_ASM, 2),
        ]
        report = AcfgPipeline(**workers).extract_from_texts(samples)
        assert report.num_succeeded == 2
        assert report.num_failed == 1
        assert [a.label for a in report.acfgs] == [0, 2]
        assert report.failures[0].index == 1


class TestFaultInjection:
    """The deterministic harness drives every classification path."""

    def samples(self, count=6):
        return [(f"s{i}", SAMPLE_ASM, i % 3) for i in range(count)]

    @pytest.mark.parametrize("workers", [
        dict(max_workers=1),
        dict(max_workers=2),
        dict(max_workers=2, timeout=30.0),
    ])
    def test_injected_raise_is_unexpected(self, workers):
        plan = FaultPlan.build(raise_on=[2])
        report = AcfgPipeline(fault_plan=plan, **workers).extract_from_texts(
            self.samples()
        )
        assert report.num_succeeded == 5
        (failure,) = report.failures
        assert failure.kind is FailureKind.UNEXPECTED
        assert failure.index == 2
        assert "injected fault" in failure.detail

    @pytest.mark.parametrize("workers", [
        dict(max_workers=1),
        dict(max_workers=2),
    ])
    def test_injected_corrupt_output_rejected(self, workers):
        plan = FaultPlan.build(corrupt_on=[1])
        report = AcfgPipeline(fault_plan=plan, **workers).extract_from_texts(
            self.samples()
        )
        assert report.num_succeeded == 5
        (failure,) = report.failures
        assert failure.kind is FailureKind.UNEXPECTED
        assert "corrupt" in failure.detail

    def test_injected_hang_killed_by_timeout(self):
        plan = FaultPlan.build(hang_on=[0], hang_seconds=60.0)
        report = AcfgPipeline(
            max_workers=2, timeout=1.0, fault_plan=plan
        ).extract_from_texts(self.samples())
        (failure,) = report.failures
        assert failure.kind is FailureKind.TIMEOUT
        assert failure.index == 0
        assert report.num_succeeded == 5

    def test_injected_crash_detected(self):
        plan = FaultPlan.build(crash_on=[3])
        report = AcfgPipeline(
            max_workers=2, fault_plan=plan
        ).extract_from_texts(self.samples())
        (failure,) = report.failures
        assert failure.kind is FailureKind.CRASH
        assert "exit code 23" in failure.detail
        assert report.num_succeeded == 5

    def test_conflicting_plan_rejected(self):
        with pytest.raises(ValueError, match="two faults"):
            FaultPlan.build(raise_on=[1], hang_on=[1])


class TestProcessPool:
    def test_matches_serial(self):
        samples = [(f"s{i}", SAMPLE_ASM, i % 3) for i in range(9)]
        samples[4] = EMPTY
        serial = AcfgPipeline().extract_from_texts(samples)
        pooled = AcfgPipeline(max_workers=3).extract_from_texts(samples)
        assert_reports_equal(serial, pooled)

    def test_oversize_guard(self):
        big = extraction_scenario.chain_listing(40)
        samples = [GOOD, ("big", big, 1), ("tail", SAMPLE_ASM, 2)]
        report = AcfgPipeline(
            max_workers=2, max_vertices=20
        ).extract_from_texts(samples)
        assert [a.name for a in report.acfgs] == ["good", "tail"]
        (failure,) = report.failures
        assert failure.kind is FailureKind.OVERSIZE
        assert "40 vertices" in failure.detail

    def test_oversize_guard_inline_and_on_processes(self):
        big = extraction_scenario.chain_listing(40)
        samples = [GOOD, ("big", big, 1)]
        for kwargs in (dict(max_workers=1), dict(max_workers=2)):
            report = AcfgPipeline(
                max_vertices=20, **kwargs
            ).extract_from_texts(samples)
            assert report.failures[0].kind is FailureKind.OVERSIZE

    def test_failure_order_interleaved_with_successes(self):
        plan = FaultPlan.build(raise_on=[1, 4], crash_on=[6])
        samples = [(f"s{i}", SAMPLE_ASM, i % 3) for i in range(8)]
        report = AcfgPipeline(
            max_workers=3, fault_plan=plan
        ).extract_from_texts(samples)
        assert [a.name for a in report.acfgs] == ["s0", "s2", "s3", "s5", "s7"]
        assert [f.index for f in report.failures] == [1, 4, 6]
        assert [f.kind for f in report.failures] == [
            FailureKind.UNEXPECTED, FailureKind.UNEXPECTED, FailureKind.CRASH,
        ]


class TestJournalResume:
    def run(self, samples, **kwargs):
        return AcfgPipeline(max_workers=2, **kwargs).extract_from_texts(samples)

    def samples(self):
        samples = [(f"s{i}", SAMPLE_ASM, i % 3) for i in range(8)]
        samples[3] = EMPTY
        return samples

    def test_full_resume_skips_everything(self, tmp_path):
        journal = str(tmp_path / "extract.jsonl")
        first = self.run(self.samples(), journal_path=journal)
        assert first.resumed_samples == 0
        resumed = self.run(
            self.samples(), journal_path=journal, resume=True
        )
        assert resumed.resumed_samples == 8
        assert_reports_equal(first, resumed)

    def test_torn_final_line_tolerated(self, tmp_path):
        journal = str(tmp_path / "extract.jsonl")
        full = self.run(self.samples(), journal_path=journal)
        lines = open(journal).read().splitlines()
        assert len(lines) == 9  # header + 8 samples
        with open(journal, "w") as handle:
            handle.write("\n".join(lines[:5]) + "\n" + lines[5][:30])
        resumed = self.run(
            self.samples(), journal_path=journal, resume=True
        )
        assert resumed.resumed_samples == 4
        assert_reports_equal(full, resumed)

    def test_alien_records_ignored_on_resume(self, tmp_path):
        """Another record kind and a non-int index are not resumed."""
        journal = str(tmp_path / "extract.jsonl")
        full = self.run(self.samples(), journal_path=journal)
        lines = open(journal).read().splitlines()[:6]
        lines[5] = json.dumps(dict(json.loads(lines[5]), index="4"))
        lines.append(json.dumps({"kind": "something-else", "index": 6}))
        with open(journal, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        resumed = self.run(
            self.samples(), journal_path=journal, resume=True
        )
        assert resumed.resumed_samples == 4
        assert_reports_equal(full, resumed)

    def test_failures_are_resumed_not_retried(self, tmp_path):
        journal = str(tmp_path / "extract.jsonl")
        first = self.run(self.samples(), journal_path=journal)
        resumed = self.run(
            self.samples(), journal_path=journal, resume=True
        )
        assert resumed.failures == first.failures
        records = [json.loads(line) for line in open(journal)]
        # One line per sample plus the header: resume appended nothing.
        assert len(records) == 9

    def test_fingerprint_mismatch_refused(self, tmp_path):
        journal = str(tmp_path / "extract.jsonl")
        self.run(self.samples(), journal_path=journal)
        different = self.samples()[:-1]
        with pytest.raises(ConfigurationError, match="fingerprint"):
            self.run(different, journal_path=journal, resume=True)

    def test_journal_without_resume_starts_fresh(self, tmp_path):
        journal = str(tmp_path / "extract.jsonl")
        self.run(self.samples(), journal_path=journal)
        again = self.run(self.samples(), journal_path=journal)
        assert again.resumed_samples == 0
        kinds = [json.loads(line)["kind"] for line in open(journal)]
        assert kinds.count("header") == 1

    def test_corrupt_journal_payload_reported(self, tmp_path):
        journal = str(tmp_path / "extract.jsonl")
        self.run(self.samples()[:2], journal_path=journal)
        lines = open(journal).read().splitlines()
        record = json.loads(lines[1])
        record["payload"]["record"] = "not an acfg record"
        lines[1] = json.dumps(record)
        with open(journal, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            self.run(self.samples()[:2], journal_path=journal, resume=True)


class TestQuarantine:
    def test_failing_inputs_preserved(self, tmp_path):
        quarantine = str(tmp_path / "quarantine")
        samples = [GOOD, ("bad input", "", 1)]
        report = AcfgPipeline(
            quarantine_dir=quarantine
        ).extract_from_texts(samples)
        assert report.num_failed == 1
        (entry,) = os.listdir(quarantine)
        assert entry == "000001_parse_bad_input.asm"
        assert open(os.path.join(quarantine, entry)).read() == ""

    def test_quarantine_preserves_text_for_triage(self, tmp_path):
        quarantine = str(tmp_path / "quarantine")
        plan = FaultPlan.build(raise_on=[0])
        AcfgPipeline(
            quarantine_dir=quarantine, fault_plan=plan
        ).extract_from_texts([GOOD])
        (entry,) = os.listdir(quarantine)
        assert entry.startswith("000000_unexpected_")
        assert open(os.path.join(quarantine, entry)).read() == SAMPLE_ASM

    def test_no_quarantine_on_success(self, tmp_path):
        quarantine = str(tmp_path / "quarantine")
        AcfgPipeline(quarantine_dir=quarantine).extract_from_texts([GOOD])
        assert not os.path.exists(quarantine)


class TestCfgIngestion:
    def test_extract_from_prebuilt_cfgs(self):
        cfg = build_cfg_from_text(SAMPLE_ASM, name="pre")
        report = AcfgPipeline().extract_from_cfgs([(cfg, 4)])
        assert report.num_succeeded == 1
        assert report.acfgs[0].label == 4
        assert report.acfgs[0].num_vertices == cfg.num_vertices

    def test_cfg_ingestion_through_process_pool(self):
        cfgs = [
            (build_cfg_from_text(SAMPLE_ASM, name=f"pre{i}"), i)
            for i in range(4)
        ]
        report = AcfgPipeline(max_workers=2).extract_from_cfgs(cfgs)
        assert report.num_succeeded == 4
        assert [a.label for a in report.acfgs] == [0, 1, 2, 3]


class TestAcceptanceScenario:
    """ISSUE 3 acceptance: >=50 samples, hang + crash + oversize injected."""

    def test_fault_injected_run_completes_with_structured_failures(self):
        report = extraction_scenario.build_pipeline().extract_from_texts(
            extraction_scenario.build_samples()
        )
        assert report.num_failed == 3
        by_index = {f.index: f for f in report.failures}
        assert by_index[extraction_scenario.HANG_INDEX].kind \
            is FailureKind.TIMEOUT
        assert by_index[extraction_scenario.CRASH_INDEX].kind \
            is FailureKind.CRASH
        assert by_index[extraction_scenario.OVERSIZE_INDEX].kind \
            is FailureKind.OVERSIZE
        assert report.num_succeeded >= 50


class TestKillAndResumeExtraction:
    """End-to-end: SIGKILL a journaled extraction run, resume, compare."""

    def test_sigkilled_run_resumes_to_identical_report(self, tmp_path):
        # Reference: uninterrupted, journal-free run of the scenario.
        reference = extraction_scenario.build_pipeline().extract_from_texts(
            extraction_scenario.build_samples()
        )

        # Interrupted run: SIGKILL once a few samples hit the journal.
        journal = str(tmp_path / "extract.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            SRC_DIR + os.pathsep + REPO_ROOT
            + os.pathsep + env.get("PYTHONPATH", "")
        )
        cmd = [sys.executable, "-m", "tests.features.extraction_scenario",
               journal]
        process = subprocess.Popen(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        try:
            deadline = time.time() + 240
            while time.time() < deadline and process.poll() is None:
                if os.path.exists(journal):
                    finished = [
                        line for line in open(journal).read().splitlines()
                        if '"kind": "sample"' in line
                    ]
                    if len(finished) >= 5:
                        break
                time.sleep(0.02)
            if process.poll() is None:
                process.send_signal(signal.SIGKILL)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()

        # Resume in-process and compare against the uninterrupted run.
        resumed = extraction_scenario.build_pipeline(
            journal, resume=True
        ).extract_from_texts(extraction_scenario.build_samples())
        assert resumed.resumed_samples >= 1
        assert_reports_equal(reference, resumed)

        # The journal holds each sample index exactly once.
        records = [json.loads(line) for line in open(journal)
                   if line.strip() and '"index"' in line]
        indices = [r["index"] for r in records if r["kind"] in
                   ("sample", "failure")]
        assert len(indices) == len(set(indices)) == len(
            extraction_scenario.build_samples()
        )


class TestExtractionFailureType:
    def test_describe_mentions_kind(self):
        failure = ExtractionFailure(
            name="x", kind=FailureKind.TIMEOUT, detail="killed", index=3
        )
        assert "[timeout]" in failure.describe()

    def test_failures_by_kind_groups(self):
        report = AcfgPipeline().extract_from_texts([GOOD, EMPTY, EMPTY])
        grouped = report.failures_by_kind()
        assert set(grouped) == {FailureKind.PARSE}
        assert len(grouped[FailureKind.PARSE]) == 2
