"""The helper process that runs part of a study's replications (see ``harness``).

The first study that ``harness._use_helper`` allows imports this module and spawns the
helper with ``os.posix_spawn``; ``subprocess`` alone would take 4 ms to import.  The
helper serves the process for its life and never starts a helper of its own.  It replies
on a pipe of its own, so what it prints cannot reach the caller's reads, and it exits on
EOF or a broken pipe.
"""

import atexit
import contextlib
import os
import pickle
import select
import signal
import sys
import threading
import time
import warnings

import numpy as np

from . import harness

# The argv that starts a helper on this source tree; the reply pipe's descriptor is appended.
_COMMAND = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
            "from funcroc._helper import serve; serve()",
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
_lock = threading.Lock()  # held while a study uses the helper, and for good inside one
_helper = None
atexit.register(lambda: _helper and _helper.close(kill=False))


class _Helper:
    """A started helper, in a session of its own so that a Ctrl-C at the terminal reaches
    the caller alone: ``ready`` is False while it boots, True once it has, None once lost."""

    def __init__(self):
        (read, write), (stdin, requests) = os.pipe(), os.pipe()
        self.replies, self.requests = os.fdopen(read, "rb"), os.fdopen(requests, "wb")
        self.owner, self.ready = os.getpid(), False
        os.set_inheritable(write, True)  # the one descriptor it inherits besides 0, 1 and 2
        try:
            self.pid = os.posix_spawn(_COMMAND[0], _COMMAND + [str(write)], os.environ,
                                      file_actions=[(os.POSIX_SPAWN_DUP2, stdin, 0)], setsid=True)
        finally:
            os.close(write)
            os.close(stdin)
        with contextlib.suppress(OSError, AttributeError):  # off the caller's CPU (Linux)
            with open("/proc/thread-self/stat", "rb") as stat:
                cpu = int(stat.read().rsplit(b")", 1)[1].split()[36])
            os.sched_setaffinity(self.pid, os.sched_getaffinity(0) - {cpu})

    def poll(self) -> bool:
        """Whether the helper has booted, found without waiting."""
        if self.ready is False and select.select([self.replies], [], [], 0)[0]:
            self.ready = self.receive()
        return bool(self.ready)

    def receive(self):
        """The next reply, or None once the helper is lost or its reply does not load here."""
        try:
            return pickle.load(self.replies)
        except Exception:
            self.ready = None

    def close(self, kill: bool) -> None:
        """Close the pipes; in the process that started the helper, give it 5 s to exit on
        their EOF if it is idle, and kill it otherwise."""
        with contextlib.suppress(OSError):
            self.requests.close()
        self.replies.close()
        if self.owner == os.getpid():  # a fork's copy only closes its pipes
            for _ in range(500 if self.ready and not kill else 0):
                if os.waitpid(self.pid, os.WNOHANG)[0]:
                    return
                time.sleep(0.01)
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def run_replications(config) -> list:
    """Every replication of ``config``'s study in id order; the exception raised is the
    lowest failing id's.  The caller runs ids from 0 upward, and once a check between two
    of them finds the helper booted, the helper runs the upper half of the ids that remain
    under the caller's numpy error state and warning filters.  The study runs serially
    under an error mode of ``'call'`` or ``'log'``, with filters that do not pickle, or
    while another thread holds the helper.  An error or Ctrl-C in the caller kills the
    helper, and the next study starts a new one; if it is lost, the caller runs its ids."""
    global _helper
    errors, results = np.geterr(), []
    try:
        state = pickle.dumps((config, errors, warnings.filters))
    except Exception:  # e.g. a warning category defined in a function
        state = None
    if (state is None or os.name != "posix" or {"call", "log"} & set(errors.values())
            or not _lock.acquire(False)):
        return [harness.run_replication(config, rep) for rep in range(config.reps)]
    try:
        if _helper and (_helper.owner != os.getpid() or _helper.ready is None):
            _helper.close(kill=True)
            _helper = None
        _helper = _helper or _Helper()
        for rep in range(config.reps):
            cut = (rep + config.reps) // 2
            if cut > rep and _helper.poll():
                with contextlib.suppress(OSError):  # a lost helper's reply then reads as EOF
                    _helper.requests.write(pickle.dumps(cut) + state)
                    _helper.requests.flush()
                results += [harness.run_replication(config, r) for r in range(rep, cut)]
                tail = _helper.receive() or [harness.run_replication(config, r)
                                             for r in range(cut, config.reps)]
                results = tail if isinstance(tail, BaseException) else results + tail
                break
            results.append(harness.run_replication(config, rep))
    except BaseException:
        if _helper:
            _helper.close(kill=True)
            _helper = None
        raise
    finally:
        _lock.release()
    if isinstance(results, BaseException):  # the helper's lowest failing id's
        raise results
    return results


def serve() -> None:
    """Answer requests on stdin until the caller closes it or its end of the replies;
    anything else that goes wrong ends the helper too, and the caller runs its ids."""
    _lock.acquire()  # a study inside the helper runs serially
    replies, reply = os.fdopen(int(sys.argv[-1]), "wb"), True
    with contextlib.suppress(Exception):
        while True:
            replies.write(pickle.dumps(reply))
            replies.flush()
            start = pickle.load(sys.stdin.buffer)
            config, errors, warnings.filters = pickle.load(sys.stdin.buffer)
            with np.errstate(**errors), warnings.catch_warnings():  # filters take effect
                try:
                    reply = [harness.run_replication(config, r) for r in range(start, config.reps)]
                except Exception as exc:  # the lowest failing id's: ids run in order
                    reply = exc
