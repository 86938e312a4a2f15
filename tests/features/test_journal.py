"""Unit tests for the one JSONL checkpoint journal (``repro.fileio``),
driven with extraction-shaped records, and the extraction fingerprint."""

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.features.pipeline import samples_fingerprint
from repro.fileio import Journal, open_journal

FINGERPRINT = {"worker": "text", "num_samples": 3, "samples": "abc123"}


def make_journal(tmp_path, fingerprint=None):
    path = str(tmp_path / "journal.jsonl")
    return Journal(path, fingerprint or FINGERPRINT)


def sample(index, payload=None):
    return {"kind": "sample", "index": index, "name": f"s{index}",
            "payload": payload or {}}


def indices(records):
    return {record["index"] for record in records}


class TestSamplesFingerprint:
    def test_deterministic(self):
        assert samples_fingerprint(["a", "b"]) == samples_fingerprint(["a", "b"])

    def test_order_aware(self):
        assert samples_fingerprint(["a", "b"]) != samples_fingerprint(["b", "a"])

    def test_count_aware(self):
        # Concatenation ambiguity must not collide two different corpora.
        assert samples_fingerprint(["ab"]) != samples_fingerprint(["a", "b"])

    def test_short_stable_hex(self):
        value = samples_fingerprint(["x"])
        assert len(value) == 16
        int(value, 16)


class TestRoundTrip:
    def test_records_round_trip(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=True)
        journal.append(sample(0, {"record": "data"}))
        journal.append({"kind": "failure", "index": 1, "name": "s1",
                        "failure_kind": "timeout", "detail": "killed"})
        journal.close()

        completed = make_journal(tmp_path).load()
        assert indices(completed) == {0, 1}
        assert completed[0]["kind"] == "sample"
        assert completed[0]["payload"] == {"record": "data"}
        assert completed[1]["kind"] == "failure"
        assert completed[1]["failure_kind"] == "timeout"
        lines = open(journal.path).read().splitlines()
        assert json.loads(lines[0]) == dict(
            {"kind": "header"}, **FINGERPRINT, version=1
        )

    def test_missing_journal_is_empty(self, tmp_path):
        assert make_journal(tmp_path).load() == []

    def test_fresh_open_truncates(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=True)
        journal.append(sample(0))
        journal.close()
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=True)
        journal.close()
        assert make_journal(tmp_path).load() == []

    def test_append_open_preserves(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=True)
        journal.append(sample(0))
        journal.close()
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=False)
        journal.append(sample(1))
        journal.close()
        assert indices(make_journal(tmp_path).load()) == {0, 1}


class TestTornLines:
    def test_torn_final_line_skipped(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=True)
        journal.append(sample(0))
        journal.append(sample(1))
        journal.close()
        content = open(journal.path).read()
        with open(journal.path, "w") as handle:
            handle.write(content[: len(content) - 12])
        assert indices(make_journal(tmp_path).load()) == {0}

    def test_blank_and_alien_lines_skipped(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=True)
        journal.append(sample(0))
        journal.close()
        with open(journal.path, "a") as handle:
            handle.write("\n")
            handle.write(json.dumps(["not", "a", "record"]) + "\n")
            handle.write(json.dumps({"kind": "something-else"}) + "\n")
        records = make_journal(tmp_path).load()
        # Blank and non-object lines are dropped; other record kinds are
        # handed back for the caller's decoder to keep or skip.
        assert records == [sample(0), {"kind": "something-else"}]


class TestHeaderValidation:
    def test_fingerprint_mismatch(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open_for_append(fresh=True)
        journal.close()
        other = make_journal(tmp_path, dict(FINGERPRINT, num_samples=99))
        with pytest.raises(ConfigurationError, match="fingerprint mismatch"):
            other.load()

    def test_unreadable_header(self, tmp_path):
        journal = make_journal(tmp_path)
        with open(journal.path, "w") as handle:
            handle.write("{garbage\n")
        with pytest.raises(ConfigurationError, match="unreadable"):
            journal.load()

    def test_missing_header_kind(self, tmp_path):
        journal = make_journal(tmp_path)
        with open(journal.path, "w") as handle:
            handle.write(json.dumps({"kind": "sample", "index": 0}) + "\n")
        with pytest.raises(ConfigurationError, match="header"):
            journal.load()

    def test_empty_file_is_empty(self, tmp_path):
        journal = make_journal(tmp_path)
        with open(journal.path, "w", encoding="utf-8"):
            pass  # truncate
        assert journal.load() == []


class TestOpenJournalHelper:
    def test_none_path_disables_journaling(self):
        journal, completed = open_journal(None, FINGERPRINT, resume=False)
        assert journal is None
        assert completed == []

    def test_resume_returns_completed(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal, _ = open_journal(path, FINGERPRINT, resume=False)
        journal.append(sample(0))
        journal.close()
        journal, completed = open_journal(path, FINGERPRINT, resume=True)
        journal.close()
        assert indices(completed) == {0}

    def test_fresh_run_ignores_existing_entries(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal, _ = open_journal(path, FINGERPRINT, resume=False)
        journal.append(sample(0))
        journal.close()
        journal, completed = open_journal(path, FINGERPRINT, resume=False)
        journal.close()
        assert completed == []
