"""Tests for the long-lived request-worker mode (`repro.workers.request`).

The batch-mode pool keeps its existing coverage under
``tests/features/``; these tests pin the request-serving contract the
fleet dispatcher builds on: resolve-by-name entrypoints, readiness
announcements, per-request fault reporting, and respawn-in-place —
and the supervision rules both the fleet and the extraction pool run on:
deadlines, crash/startup classification, the stale-reply drop.
"""

import itertools
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.exceptions import WorkerError, WorkerStartupError
from repro.workers import (
    InProcessWorker,
    RequestWorker,
    WorkerReply,
    resolve_entrypoint,
)
from repro.workers import request as request_module
from repro.workers.request import (
    CRASHED,
    REPLIED,
    STARTED,
    STARTUP_FAILED,
    TIMED_OUT,
)

ECHO = "tests.serve.test_workers:echo_service"

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
REPO_ROOT = os.path.dirname(SRC_DIR)

#: Starts two echo workers, prints their pids, then waits to be killed.
TWO_WORKERS = """
import time
from repro.workers import RequestWorker
workers = [RequestWorker(f"w{i}", "tests.serve.test_workers:echo_service")
           for i in range(2)]
for worker in workers:
    worker.start(wait_ready=30.0)
print(" ".join(str(worker.pid) for worker in workers), flush=True)
time.sleep(3600)
"""

#: Runs one extraction unit that hangs (``FaultPlan`` hang, no deadline)
#: on a process worker — two allowed, one sample, so one starts — and
#: waits on it forever.
HUNG_EXTRACTION = """
from repro.datasets import generate_mskcfg_listings
from repro.features.pipeline import AcfgPipeline
from repro.testing.faults import FaultPlan
samples = list(generate_mskcfg_listings(total=18, seed=5))[:1]
AcfgPipeline(max_workers=2,
             fault_plan=FaultPlan.build(hang_on=[0])).extract_from_texts(samples)
"""


class _Echo:
    """Request handler used inside worker children."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix

    def __call__(self, payload):
        if payload == "boom":
            raise ValueError("boom requested")
        if payload == "die":
            os._exit(23)
        if payload == "hang":
            time.sleep(3600)
        return f"{self.prefix}{payload}"


def echo_service(prefix: str = ""):
    return _Echo(prefix)


def marker_service(marker: str, hang: bool = False):
    """Echo service whose (re)starts die — or hang — once ``marker`` exists."""
    if os.path.exists(marker):
        if hang:
            time.sleep(3600)
        os._exit(3)
    return _Echo("")


def children_of(pid):
    """Pids whose parent is ``pid``, read from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (FileNotFoundError, ProcessLookupError):
                continue
            if int(fields[1]) == pid:
                children.append(int(entry))
    return children


def exited(pid):
    """True once ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def assert_workers_die_with(parent, workers):
    """SIGKILL ``parent``: every pid in ``workers`` must be gone within
    five orphan-check intervals."""
    os.kill(parent.pid, signal.SIGKILL)
    parent.wait(timeout=30)
    bound = 5 * request_module._ORPHAN_CHECK_SECONDS
    deadline = time.monotonic() + bound
    while time.monotonic() < deadline and not all(map(exited, workers)):
        time.sleep(0.05)
    survivors = [pid for pid in workers if not exited(pid)]
    assert not survivors, f"workers {survivors} outlived their parent by {bound}s"


def kill_survivors(parent, workers):
    for pid in [parent.pid] + workers:
        if not exited(pid):
            os.kill(pid, signal.SIGKILL)
    parent.wait(timeout=30)


def next_event(worker, timeout=30.0):
    """Poll ``worker`` like a dispatcher loop until it yields an event."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        event = worker.expire(time.monotonic())
        if event is None and worker.conn.poll(0.05):
            event = worker.read()
        if event is not None:
            return event
    raise AssertionError(f"no event from {worker.name} within {timeout}s")


def failing_service():
    raise RuntimeError("refusing to initialize")


NOT_CALLABLE = "not a factory"


class TestResolveEntrypoint:
    def test_resolves_module_colon_function(self):
        factory = resolve_entrypoint(ECHO)
        assert factory("x-")("hello") == "x-hello"

    def test_rejects_malformed_spec(self):
        with pytest.raises(WorkerError, match="module:function"):
            resolve_entrypoint("no-colon-here")

    def test_rejects_missing_attribute(self):
        with pytest.raises(WorkerError, match="no attribute"):
            resolve_entrypoint("tests.serve.test_workers:nonexistent")

    def test_rejects_non_callable(self):
        with pytest.raises(WorkerError, match="not callable"):
            resolve_entrypoint("tests.serve.test_workers:NOT_CALLABLE")


class TestRequestWorker:
    def test_serves_requests_until_stopped(self):
        worker = RequestWorker("echo", ECHO, {"prefix": ">"})
        worker.start(wait_ready=30.0)
        try:
            assert worker.ready and worker.alive
            worker.send(1, "a")
            worker.send(2, "b")
            replies = {}
            for _ in range(2):
                reply = WorkerReply.from_message(worker.conn.recv())
                replies[reply.request_id] = reply
            assert replies[1].ok and replies[1].value == ">a"
            assert replies[2].ok and replies[2].value == ">b"
        finally:
            exitcode = worker.stop()
        assert exitcode == 0  # sentinel produced a clean exit

    def test_handler_exception_is_a_reply_not_a_death(self):
        worker = RequestWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        try:
            worker.send(1, "boom")
            reply = WorkerReply.from_message(worker.conn.recv())
            assert not reply.ok
            assert "boom requested" in reply.value
            # The replica survived and keeps serving.
            worker.send(2, "next")
            reply = WorkerReply.from_message(worker.conn.recv())
            assert reply.ok and reply.value == "next"
        finally:
            worker.stop()

    def test_init_failure_raises_startup_error(self):
        worker = RequestWorker(
            "doomed", "tests.serve.test_workers:failing_service", {}
        )
        with pytest.raises(WorkerStartupError, match="refusing to initialize"):
            worker.start(wait_ready=30.0)
        assert not worker.alive

    def test_crash_is_visible_as_pipe_eof(self):
        worker = RequestWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        try:
            worker.send(1, "die")
            with pytest.raises((EOFError, OSError)):
                while True:
                    worker.conn.recv()
        finally:
            exitcode = worker.stop(kill=True)
        assert exitcode == 23

    def test_respawn_replaces_in_place_and_counts(self):
        worker = RequestWorker("echo", ECHO, {"prefix": "r"})
        worker.start(wait_ready=30.0)
        try:
            first_pid = worker.pid
            worker.respawn(kill=True, wait_ready=30.0)
            assert worker.respawns == 1
            assert worker.pid != first_pid
            worker.send(9, "back")
            reply = WorkerReply.from_message(worker.conn.recv())
            assert reply.ok and reply.value == "rback"
        finally:
            worker.stop()

    def test_double_start_rejected(self):
        worker = RequestWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        try:
            with pytest.raises(WorkerError, match="already started"):
                worker.start()
        finally:
            worker.stop()

    def test_send_before_start_rejected(self):
        worker = RequestWorker("echo", ECHO, {})
        with pytest.raises(WorkerError, match="not started"):
            worker.send(1, "x")


class TestSupervision:
    def test_missed_deadline_kills_and_names_the_request(self):
        worker = RequestWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        try:
            worker.send(7, "hang", timeout=0.3)
            assert worker.busy
            event = next_event(worker)
            assert event.kind == TIMED_OUT
            assert event.request_id == 7
            assert "0.3s" in event.detail
            assert not worker.alive
        finally:
            worker.stop(kill=True)

    def test_crash_carries_the_exit_code_and_the_lost_request(self):
        worker = RequestWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        try:
            worker.send(5, "die")
            event = next_event(worker)
            assert event.kind == CRASHED
            assert event.request_id == 5
            assert "exit code 23" in event.detail
        finally:
            worker.stop(kill=True)

    def test_stale_reply_is_dropped(self):
        worker = RequestWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        try:
            worker.send(1, "old")
            worker.send(2, "new")  # supersedes request 1
            first = next_event(worker)
            assert first.kind == REPLIED
            assert first.request_id == 2 and first.reply.value == "new"
            assert worker.idle
        finally:
            worker.stop()

    @pytest.mark.parametrize("hang, detail", [
        (False, "process died during init (exit code 3)"),
        (True, "not ready within 0.5s"),
    ])
    def test_failed_respawn_is_a_startup_failure(self, tmp_path, hang,
                                                 detail):
        marker = str(tmp_path / "broken")
        worker = RequestWorker(
            "marked", "tests.serve.test_workers:marker_service",
            {"marker": marker, "hang": hang}, start_timeout=0.5,
        )
        worker.start(wait_ready=30.0)
        try:
            with open(marker, "w"):
                pass
            os.kill(worker.pid, signal.SIGKILL)
            event = next_event(worker)
            assert event.kind == CRASHED
            assert event.request_id is None  # it died idle
            worker.respawn()
            assert not worker.ready
            event = next_event(worker)
            assert event.kind == STARTUP_FAILED
            assert event.detail == detail
            assert not worker.alive and worker.conn is None
            assert worker.respawns == 1
        finally:
            worker.stop(kill=True)

    def test_nonblocking_start_announces_ready(self):
        worker = RequestWorker("echo", ECHO, {})
        worker.start(wait_ready=None)
        try:
            assert not worker.ready and not worker.idle
            assert next_event(worker).kind == STARTED
            assert worker.idle
        finally:
            worker.stop()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_exit_when_their_parent_is_killed(self):
        # Forked siblings hold each other's pipe ends, so the parent's
        # death is no EOF; the children must notice it themselves.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + REPO_ROOT
        parent = subprocess.Popen(
            [sys.executable, "-c", TWO_WORKERS], cwd=REPO_ROOT, env=env,
            stdout=subprocess.PIPE, text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            os.kill(parent.pid, signal.SIGKILL)
            parent.wait(timeout=30)
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline and not all(map(exited, pids)):
                time.sleep(0.1)
            assert all(map(exited, pids))
        finally:
            for pid in [parent.pid] + pids:
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)
            parent.wait(timeout=30)
            parent.stdout.close()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_busy_worker_exits_when_its_parent_is_killed(self):
        # The worker is inside a unit that never returns, so only a rule
        # that holds for busy workers can end it once its parent is gone.
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + REPO_ROOT
        parent = subprocess.Popen(
            [sys.executable, "-c", HUNG_EXTRACTION], cwd=REPO_ROOT, env=env,
        )
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline and not workers:
                workers = children_of(parent.pid)
                time.sleep(0.05)
            assert len(workers) == 1
            # Readiness and the unit's dispatch follow within milliseconds;
            # give them ample time so the worker is busy when the parent dies.
            time.sleep(1.0)
            assert not exited(workers[0])
            assert_workers_die_with(parent, workers)
        finally:
            kill_survivors(parent, workers)


class TestInProcessWorker:
    def test_serves_requests_on_a_thread_until_stopped(self):
        # A lock cannot be pickled: init kwargs reach a thread by reference.
        prefix = threading.Lock()
        worker = InProcessWorker("echo", ECHO, {"prefix": prefix})
        worker.start(wait_ready=30.0)
        try:
            assert worker.ready and worker.alive
            assert worker.pid == os.getpid()
            worker.send(1, "a")
            event = next_event(worker)
            assert event.kind == REPLIED
            assert event.reply.value == f"{prefix}a"
        finally:
            worker.stop()
        assert not worker.alive and worker.pid is None

    def test_init_failure_raises_startup_error(self):
        worker = InProcessWorker(
            "doomed", "tests.serve.test_workers:failing_service", {}
        )
        with pytest.raises(WorkerStartupError, match="refusing to initialize"):
            worker.start(wait_ready=30.0)
        assert not worker.alive

    def test_a_finished_body_is_visible_as_pipe_eof(self):
        worker = InProcessWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        worker.send(1, "x")
        assert next_event(worker).kind == REPLIED
        worker.conn.send(None)  # ends the body behind the handle's back
        event = next_event(worker)
        assert event.kind == CRASHED
        assert worker.conn is None and not worker.alive

    def test_does_not_watch_the_parent_pid(self, monkeypatch):
        ppids = itertools.count(10_000)
        monkeypatch.setattr(request_module, "_ORPHAN_CHECK_SECONDS", 0.01)
        monkeypatch.setattr(os, "getppid", lambda: next(ppids))
        worker = InProcessWorker("echo", ECHO, {})
        worker.start(wait_ready=30.0)
        try:
            time.sleep(0.2)  # idle through many would-be orphan checks
            worker.send(1, "still here")
            event = next_event(worker)
            assert event.kind == REPLIED
            assert event.reply.value == "still here"
        finally:
            worker.stop()
