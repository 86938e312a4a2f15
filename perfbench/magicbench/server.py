"""Run ``repro.cli serve`` as a subprocess and observe it from outside."""

from __future__ import annotations

import ctypes
import functools
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

_PORT_RE = re.compile(r"on http://[^:\s]+:(\d+)")

#: How long a server may take to print its port and answer /healthz.
STARTUP_TIMEOUT = 120.0
#: How long an interrupted server may take to drain and exit before it
#: and every process it started are killed.
SHUTDOWN_GRACE = 10.0
#: How long killed processes may take to disappear.
KILL_TIMEOUT = 10.0
_PR_SET_PDEATHSIG = 1
_LIBC = ctypes.CDLL(None, use_errno=True)


def descendants(pid: int) -> List[int]:
    """All live descendant pids of ``pid`` (Linux ``/proc``)."""
    found: List[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        task_dir = f"/proc/{parent}/task"
        try:
            tids = os.listdir(task_dir)
        except OSError:
            continue
        for tid in tids:
            try:
                with open(f"{task_dir}/{tid}/children", encoding="ascii") as handle:
                    children = [int(token) for token in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            frontier.extend(children)
    return found


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of one process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def group_members(pgid: int) -> List[int]:
    """Live (not zombie) pids whose process group is ``pgid``."""
    members: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                state, _, group = handle.read().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if state != "Z" and int(group) == pgid:
            members.append(int(entry))
    return members


def _wait_group_gone(pgid: int, timeout: float) -> bool:
    deadline = time.monotonic() + timeout
    while group_members(pgid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _child_setup(parent: int) -> None:
    """Runs in the forked server before exec.

    The server stops on SIGINT (KeyboardInterrupt), but a SIGINT the
    benchmark inherited as ignored would stay ignored across exec, so
    the default action is restored.  If the benchmark dies before it can
    stop the server, the kernel sends the server SIGINT: its drain also
    stops its replicas, which a SIGKILL would leave running.
    """
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGINT, 0, 0, 0)
    if os.getppid() != parent:
        os._exit(1)


def reset_peak_rss() -> bool:
    """Lower this process's ``VmHWM`` to its current resident set, so a
    later :func:`peak_rss_kb` covers only what runs after the call.
    False where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


class ServerProcess:
    """One ``serve`` subprocess on a free port.

    :meth:`start` returns the set-up time: from spawn until ``/healthz``
    answers 200.  The server leads a session and process group of its
    own, which its replicas join.  :meth:`stop` interrupts the server
    (its ordered drain path), kills whatever of the group outlives
    :data:`SHUTDOWN_GRACE`, and returns only once the group is gone.
    """

    def __init__(self, root: str, registry: str, model: str,
                 extra_args: Sequence[str], log_path: str) -> None:
        self.root = root
        self.argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--registry", registry, "--model", model,
            "--host", "127.0.0.1", "--port", "0", *extra_args,
        ]
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._port_ready = threading.Event()
        self._reader: Optional[threading.Thread] = None

    def start(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["PYTHONUNBUFFERED"] = "1"
        started = time.perf_counter()
        self._log = open(self.log_path, "ab")
        self.process = subprocess.Popen(
            self.argv, cwd=self.root, env=env, stdout=subprocess.PIPE,
            stderr=self._log, stdin=subprocess.DEVNULL,
            start_new_session=True,
            preexec_fn=functools.partial(_child_setup, os.getpid()),
        )
        self._reader = threading.Thread(target=self._read_stdout, daemon=True)
        self._reader.start()
        deadline = started + STARTUP_TIMEOUT
        if not self._port_ready.wait(STARTUP_TIMEOUT) or self.port is None:
            raise RuntimeError("server did not report its port; see "
                               f"{self.log_path}")
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}"
                                   f"; see {self.log_path}")
            try:
                status, _ = self.get("/healthz", timeout=5.0)
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)
        return time.perf_counter() - started

    def _read_stdout(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for raw in self.process.stdout:
            line = raw.decode("utf-8", "replace")
            self._log.write(raw)
            match = _PORT_RE.search(line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._port_ready.set()
        self._port_ready.set()

    def get(self, path: str, timeout: float = 10.0):
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=timeout)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            connection.close()

    def metrics(self) -> Dict:
        status, payload = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sets of the server and its children."""
        assert self.process is not None
        pids = [self.process.pid, *descendants(self.process.pid)]
        return sum(peak_rss_kb(pid) for pid in pids) / 1024.0

    def stop(self) -> None:
        if self.process is None:
            return
        group = self.process.pid
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
            if not _wait_group_gone(group, SHUTDOWN_GRACE):
                try:
                    os.killpg(group, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                if not _wait_group_gone(group, KILL_TIMEOUT):
                    raise RuntimeError(f"server group {group} survived SIGKILL")
        finally:
            self.process.wait()
            if self._reader is not None:
                self._reader.join(KILL_TIMEOUT)
            self._log.close()
            self.process = None

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

