"""No helper process outlives its caller.

Each test runs a fresh Python child, with BLAS pinned and the helper allowed, so
that its studies start a helper process of their own; the child prints the pids
of the helpers it saw as one JSON line.  A helper counts as gone once its
``/proc`` entry is missing or it is a zombie waiting to be reaped.
"""

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from funcroc import harness

SOURCE = str(Path(harness.__file__).resolve().parents[1])  # where funcroc is imported from

pytestmark = pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                                reason="reads process states from /proc")

PREAMBLE = textwrap.dedent("""
    import json, os, sys, time
    from funcroc import RunConfig, ScenarioSpec, _helper, harness, run_study

    harness._use_helper = lambda reps: True  # whatever the CPU count of the host
    SPEC = ScenarioSpec(name="P1", n_d=20, n_h=20, seed=1, rho=1.0, grid_size=15)

    def booted_helper():
        '''Run a pinned 4-replication study and wait until its helper has booted.'''
        run_study(RunConfig(scenario=SPEC, indexes=("max",), reps=4))
        while not _helper._helper.poll():
            assert _helper._helper.ready is False
            time.sleep(0.01)
        return _helper._helper.pid
""")


def start_child(body):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=SOURCE)
    return subprocess.Popen([sys.executable, "-c", PREAMBLE + textwrap.dedent(body)],
                            env=env, stdout=subprocess.PIPE, text=True)


def gone_within(pid, seconds):
    stat = Path(f"/proc/{pid}/stat")
    deadline = time.monotonic() + seconds
    while True:
        try:
            if stat.read_text().rsplit(")", 1)[1].split()[0] in ("Z", "X"):
                return True
        except (FileNotFoundError, ProcessLookupError):
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


@pytest.mark.parametrize("end", ["exit", "sigkill"])
def test_the_helper_ends_with_its_caller(end):
    child = start_child("print(json.dumps([booted_helper()]), flush=True)\n"
                        + ("time.sleep(60)\n" if end == "sigkill" else ""))
    try:
        (pid,) = json.loads(child.stdout.readline())
        assert not gone_within(pid, 0)
        if end == "sigkill":  # the helper then reads EOF from its caller's end of the pipe
            child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=60) == (-signal.SIGKILL if end == "sigkill" else 0)
    finally:
        child.kill()
        child.stdout.close()
    assert gone_within(pid, 5)


def test_a_fork_starts_a_helper_of_its_own_and_leaves_its_parents_serving():
    child = start_child("""
        first = booted_helper()
        reader, writer = os.pipe()
        fork = os.fork()
        if fork == 0:  # the fork's copy of the helper is not its own, so it starts one
            os.write(writer, json.dumps([booted_helper(), _helper._helper.owner == os.getpid()])
                     .encode())
            sys.exit(0)  # ends its own helper at exit, as any process does
        os.close(writer)
        forked, owned = json.loads(os.fdopen(reader).read())
        os.waitpid(fork, 0)
        print(json.dumps([first, forked, owned, booted_helper()]), flush=True)
    """)
    try:
        first, forked, owned, again = json.loads(child.stdout.readline())
        assert child.wait(timeout=60) == 0
    finally:
        child.kill()
        child.stdout.close()
    assert forked != first and owned
    assert again == first
    assert gone_within(first, 5) and gone_within(forked, 5)
