"""The command itself: its metric lists, a tiny pass of every workload,
and its refusal to run without the program's sources."""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

import pytest

from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


#: Input scale per workload for the tiny passes.  Training needs about 75
#: graphs before its trained variants clear the accuracy floor.
SCALES = {"serve-unique": 0.08, "serve-resubmit": 0.08, "train-mskcfg": 0.5}


def _run(workload, trace=0, cwd=ROOT, script=RUN, **options):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "2", "--trace", str(trace),
         "--scale", str(SCALES[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
        **options)


def _marked_processes(mark):
    """Pids of live processes whose environment carries ``mark``."""
    found = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if mark.encode() in handle.read():
                    found.append(int(entry))
        except (OSError, ValueError):
            continue
    return found


def test_metric_lists_match_benchmark_json():
    sys.path.insert(0, BENCH)
    import run
    from magicbench.report import END_TO_END

    benchmark = _benchmark()
    assert [m["name"] for m in benchmark["end_to_end"]] == list(END_TO_END)
    assert [m["unit"] for m in benchmark["end_to_end"]] == \
        list(END_TO_END.values())
    assert [m["name"] for m in benchmark["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in benchmark["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", ["serve-unique", "serve-resubmit",
                                      "train-mskcfg"])
def test_tiny_pass_has_no_failures(workload):
    completed = _run(workload)
    assert completed.returncode == 0, completed.stderr
    verdict = json.loads(completed.stdout.strip().splitlines()[-1])
    assert verdict["correct"] is True, completed.stdout
    assert verdict["failed"] == 0 and verdict["attempted"] > 0
    names = [m["name"] for m in _benchmark()["end_to_end"]]
    assert list(verdict["metrics"]) == names
    assert all(verdict["metrics"][n]["value"] > 0 for n in names)
    assert "fail_ratio: 0.0000" in completed.stdout


@pytest.mark.parametrize("workload", ["serve-unique", "serve-resubmit"])
def test_tiny_traced_pass_reports_every_layer_metric(workload):
    completed = _run(workload, trace=1)
    assert completed.returncode == 0, completed.stderr
    verdict = json.loads(completed.stdout.strip().splitlines()[-1])
    names = [m["name"] for m in _benchmark()["per_layer"]]
    assert list(verdict["metrics"]) == names
    assert "coverage:" in completed.stdout
    assert "hottest DGCNN stage of adaptive" in completed.stdout


def test_run_stops_every_process_even_with_sigint_ignored():
    # A shell's background job starts with SIGINT ignored, and that is
    # inherited across exec; the servers must still stop on their drain
    # path, and nothing the run started may outlive it.
    from magicbench.server import SHUTDOWN_GRACE

    elapsed = []
    for ignore_sigint in (False, True):
        mark = f"perfbench-{os.getpid()}-{time.monotonic_ns()}"
        env = dict(os.environ, PERFBENCH_TEST_MARK=mark)
        setup = ((lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))
                 if ignore_sigint else None)
        started = time.monotonic()
        completed = _run("serve-resubmit", env=env, preexec_fn=setup)
        elapsed.append(time.monotonic() - started)
        assert completed.returncode == 0, completed.stderr
        assert _marked_processes(mark) == []
    # The first pass also warmed the input cache.  No server stop of the
    # second may have waited out the kill grace.
    assert elapsed[1] < elapsed[0] + SHUTDOWN_GRACE


def _wait_for(condition, timeout):
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.1)
    return True


def test_fleet_goes_with_a_benchmark_killed_outright():
    # SIGKILL leaves the benchmark no chance to stop its server; the
    # server's parent-death signal must still take down its replicas.
    mark = f"perfbench-{os.getpid()}-{time.monotonic_ns()}"
    env = dict(os.environ, PERFBENCH_TEST_MARK=mark)

    def servers():
        found = []
        for pid in _marked_processes(mark):
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as handle:
                    if b"repro.cli" in handle.read():
                        found.append(pid)
            except OSError:
                continue
        return found

    process = subprocess.Popen(
        [sys.executable, RUN, "--workload", "serve-resubmit", "--seed", "3",
         "--seconds", "2", "--trace", "0",
         "--scale", str(SCALES["serve-resubmit"])],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        # The server and its two replicas.
        assert _wait_for(lambda: len(servers()) >= 3, 300)
    finally:
        process.kill()
        process.wait()
    assert _wait_for(lambda: _marked_processes(mark) == [], 30), \
        _marked_processes(mark)


def test_refuses_to_run_without_program_sources():
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(BENCH, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        completed = _run("serve-unique", cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
