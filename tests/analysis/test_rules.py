"""Per-rule behaviour: paired bad/ok fixtures plus targeted edge cases."""

from __future__ import annotations

import textwrap
from typing import List, Optional, Sequence

from repro.analysis import Finding, LintEngine

from tests.analysis.helpers import LIBRARY_PATH, TEST_PATH, lint_fixture


def lint_text(
    source: str,
    path: str = LIBRARY_PATH,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    return LintEngine(select=select).lint_source(textwrap.dedent(source), path)


class TestDeterminism:
    def test_bad_fixture(self):
        findings = lint_fixture("bad_determinism.py")
        assert [finding.rule for finding in findings] == ["determinism"] * 4
        assert [finding.line for finding in findings] == [10, 11, 12, 13]

    def test_ok_fixture(self):
        assert lint_fixture("ok_determinism.py") == []

    def test_tests_are_exempt(self):
        assert lint_fixture("bad_determinism.py", TEST_PATH) == []

    def test_from_time_import_time_alias(self):
        findings = lint_text(
            """\
            from time import time


            def stamp():
                return time()
            """,
            select=["determinism"],
        )
        assert len(findings) == 1
        assert "wall clock" in findings[0].message

    def test_seeded_random_instance_is_legal(self):
        findings = lint_text(
            """\
            import random


            def draw(seed):
                return random.Random(seed).random()
            """,
            select=["determinism"],
        )
        assert findings == []


class TestPoolSafety:
    def test_bad_fixture(self):
        findings = lint_fixture("bad_pool_safety.py")
        assert [finding.rule for finding in findings] == ["pool-safety"] * 3
        assert [finding.line for finding in findings] == [12, 13, 14]

    def test_ok_fixture(self):
        assert lint_fixture("ok_pool_safety.py") == []

    def test_rule_applies_in_tests_too(self):
        assert lint_fixture("bad_pool_safety.py", TEST_PATH) != []

    def test_worker_spec_fn_lambda_flagged_hooks_legal(self):
        findings = lint_text(
            """\
            from repro.features.pool import WorkerSpec

            SPEC = WorkerSpec(fn=lambda payload: payload, validate=lambda r: r)
            """,
            select=["pool-safety"],
        )
        assert len(findings) == 1
        assert "WorkerSpec" in findings[0].message


class TestBroadExcept:
    def test_bad_fixture(self):
        findings = lint_fixture("bad_broad_except.py")
        assert [finding.rule for finding in findings] == ["broad-except"] * 3
        assert [finding.line for finding in findings] == [7, 8, 14]

    def test_ok_fixture_with_pragmad_boundary(self):
        assert lint_fixture("ok_broad_except.py") == []

    def test_tests_are_exempt(self):
        assert lint_fixture("bad_broad_except.py", TEST_PATH) == []

    def test_tuple_handler_with_broad_member_flagged(self):
        findings = lint_text(
            """\
            def f():
                try:
                    return 1
                except (ValueError, Exception):
                    return 0
            """,
            select=["broad-except"],
        )
        assert len(findings) == 1


class TestAtomicWrite:
    def test_bad_fixture(self):
        findings = lint_fixture("bad_atomic_write.py")
        assert [finding.rule for finding in findings] == ["atomic-write"] * 2
        assert [finding.line for finding in findings] == [8, 11]

    def test_ok_fixture(self):
        assert lint_fixture("ok_atomic_write.py") == []

    def test_staged_swap_modules_may_rename(self):
        source = """\
            import os


            def swap(staging, destination):
                os.replace(staging, destination)
            """
        managed = lint_text(
            source, path="src/repro/fileio.py", select=["atomic-write"]
        )
        elsewhere = lint_text(
            source, path="src/repro/datasets/cache.py", select=["atomic-write"]
        )
        assert managed == []
        assert len(elsewhere) == 1

    def test_read_mode_open_outside_with_is_legal(self):
        findings = lint_text(
            """\
            def read(path):
                handle = open(path)
                data = handle.read()
                handle.close()
                return data
            """,
            select=["atomic-write"],
        )
        assert findings == []


class TestFloatEquality:
    def test_bad_fixture_under_tests(self):
        findings = lint_fixture("bad_float_equality.py", TEST_PATH)
        assert [finding.rule for finding in findings] == ["float-equality"] * 3
        assert [finding.line for finding in findings] == [5, 6, 7]

    def test_ok_fixture_approx_and_pragma(self):
        assert lint_fixture("ok_float_equality.py", TEST_PATH) == []

    def test_library_code_is_exempt(self):
        assert lint_fixture("bad_float_equality.py", LIBRARY_PATH) == []

    def test_int_equality_is_legal(self):
        findings = lint_text(
            """\
            def test_count(result):
                assert result.count == 3
            """,
            path=TEST_PATH,
            select=["float-equality"],
        )
        assert findings == []


class TestLockDiscipline:
    def test_bad_fixture(self):
        findings = lint_fixture("bad_lock_discipline.py")
        assert [finding.rule for finding in findings] == ["lock-discipline"]
        assert findings[0].line == 16
        assert "_served" in findings[0].message

    def test_ok_fixture_unguarded_attr_stays_out_of_scope(self):
        assert lint_fixture("ok_lock_discipline.py") == []

    def test_condition_guards_like_a_lock(self):
        findings = lint_text(
            """\
            import threading


            class Queue:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._items = []

                def put(self, item):
                    with self._cond:
                        self._items.append(item)

                def drop_all(self):
                    self._items.clear()
            """,
            select=["lock-discipline"],
        )
        assert len(findings) == 1
        assert "_items" in findings[0].message


class TestLockOrder:
    def test_bad_fixture_reports_cycle_blocking_and_reacquire(self):
        findings = lint_fixture("bad_lock_order.py")
        assert [finding.rule for finding in findings] == ["lock-order"] * 3
        assert [finding.line for finding in findings] == [16, 24, 28]
        messages = "\n".join(finding.message for finding in findings)
        assert "lock-order cycle" in messages
        assert "time.sleep" in messages
        assert "re-acquired" in messages

    def test_ok_fixture_consistent_order(self):
        assert lint_fixture("ok_lock_order.py") == []

    def test_tests_are_exempt(self):
        assert lint_fixture("bad_lock_order.py", TEST_PATH) == []

    def test_condition_wait_on_the_held_condition_is_exempt(self):
        findings = lint_text(
            """\
            import threading


            class Box:
                def __init__(self):
                    self._cond = threading.Condition()

                def take(self):
                    with self._cond:
                        self._cond.wait()
            """,
            select=["lock-order"],
        )
        assert findings == []

    def test_untimed_join_under_a_lock_is_blocking(self):
        findings = lint_text(
            """\
            import threading


            class Owner:
                def __init__(self, worker):
                    self._lock = threading.Lock()
                    self.worker = worker

                def stop(self):
                    with self._lock:
                        self.worker.join()
            """,
            select=["lock-order"],
        )
        assert len(findings) == 1
        assert "un-timed join" in findings[0].message


class TestFaultContract:
    def test_bad_fixture_process_entry_point(self):
        findings = lint_fixture("bad_fault_contract.py")
        assert [finding.rule for finding in findings] == ["fault-contract"] * 2
        assert [finding.line for finding in findings] == [15, 16]
        assert "process entry point" in findings[0].message

    def test_ok_fixture_catch_all_boundary(self):
        assert lint_fixture("ok_fault_contract.py") == []

    def test_tests_are_exempt(self):
        assert lint_fixture("bad_fault_contract.py", TEST_PATH) == []

    def test_http_do_method_is_a_boundary(self):
        findings = lint_text(
            """\
            from http.server import BaseHTTPRequestHandler


            class Api(BaseHTTPRequestHandler):
                def do_GET(self):
                    raise ValueError("boom")
            """,
            select=["fault-contract"],
        )
        assert len(findings) == 1
        assert "HTTP handler" in findings[0].message

    def test_execute_unit_contract_is_a_boundary(self):
        findings = lint_text(
            """\
            def execute_unit(fn, item):
                return fn(item)
            """,
            select=["fault-contract"],
        )
        assert len(findings) == 1
        assert "fault-isolation contract" in findings[0].message


class TestResourceLifecycle:
    def test_bad_fixture_leaks_on_both_paths(self):
        findings = lint_fixture("bad_resource_lifecycle.py")
        rules = [finding.rule for finding in findings]
        assert rules == ["resource-lifecycle"] * 2
        assert [finding.line for finding in findings] == [6, 12]
        assert "file handle" in findings[0].message

    def test_ok_fixture(self):
        assert lint_fixture("ok_resource_lifecycle.py") == []

    def test_ownership_transfer_ends_the_obligation(self):
        findings = lint_text(
            """\
            def fetch(path):
                handle = open(path, "rb")
                return handle
            """,
            select=["resource-lifecycle"],
        )
        assert findings == []

    def test_close_only_on_the_happy_path_is_reported(self):
        findings = lint_text(
            """\
            def read_size(path):
                handle = open(path, "rb")
                handle.seek(0, 2)
                handle.close()
            """,
            select=["resource-lifecycle"],
        )
        assert len(findings) == 1
        assert "exception path" in findings[0].message

    def test_with_statement_counts_as_the_release(self):
        findings = lint_text(
            """\
            def read_all(path):
                handle = open(path, "rb")
                with handle:
                    handle.seek(0)
            """,
            select=["resource-lifecycle"],
        )
        assert findings == []
