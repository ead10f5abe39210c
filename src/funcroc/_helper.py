"""The helper process that runs part of a study, or parses part of a curve file (see
``harness``).

``harness.run_study`` hands every simulation study to ``run_replications``, and
``ingest_curves`` a process's second large file and those after it to ``read_body``; each
alone decides whether to use the helper.  The first one that may use it spawns the helper
with ``os.posix_spawn``; ``subprocess`` alone would take 4 ms to import.  The helper serves
the process for its life and never starts a helper of its own.  It replies on a pipe of
its own, so what it prints cannot reach the caller's reads, and it exits on EOF or a broken
pipe.  The process that started it kills and reaps it at exit.
"""

import atexit
import contextlib
import csv
import os
import pickle
import select
import signal
import sys
import threading
import warnings
from array import array
from functools import partial
from itertools import chain

import numpy as np

from . import harness

# The argv that starts a helper on this source tree; the reply pipe's descriptor is appended.
_COMMAND = [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
            "from funcroc._helper import serve; serve()",
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))]
_lock = threading.Lock()  # held while a study uses the helper, and for good inside one
_helper = None
atexit.register(lambda: _helper and _helper.close())


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
        except OSError:
            self.replies.close()
            self.requests.close()
            raise
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

    def close(self) -> None:
        """Close the pipes and, in the process that started the helper, kill and reap it:
        it flushes every reply, so it holds nothing that needs a clean exit."""
        with contextlib.suppress(OSError):
            self.requests.close()
        self.replies.close()
        if self.owner == os.getpid():  # a fork's copy only closes its pipes
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def _use_helper(reps: int) -> bool:
    """Whether a study of ``reps`` replications may run some of them on the helper process.

    It may on a POSIX system (the helper is started with ``os.posix_spawn``) when BLAS
    is pinned to one thread, there are at least two replications and the process may
    use at least two CPUs.  BLAS counts as pinned when ``OPENBLAS_NUM_THREADS`` is 1, or
    it is unset and ``OMP_NUM_THREADS`` is 1.  Otherwise a study runs serially: a
    multithreaded BLAS already spreads each solve over the cores, and replication
    workers competing with its threads made a study slower than running it serially.
    ``read_body`` asks for a curve file's two halves: parsing uses no BLAS, but one
    setting then turns the helper on or off for all work.
    """
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if os.name != "posix" or blas_threads != "1" or reps < 2:
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return cpus >= 2


def _start() -> None:
    """Start a helper unless one of this process's runs and has not been lost; if none
    can be spawned (e.g. at the process limit), none runs and the work stays serial."""
    global _helper
    if _helper and (_helper.owner != os.getpid() or _helper.ready is None):
        _stop()
    if not _helper:
        with contextlib.suppress(OSError):
            _helper = _Helper()


def _stop() -> None:
    """Kill the helper, if one runs; the next study or ingest that may use one starts it."""
    global _helper
    if _helper:
        _helper.close()
        _helper = None


def run_replications(config) -> list:
    """Every replication of ``config``'s study in id order; the exception raised is the
    lowest failing id's.  The caller runs ids from 0 upward, and once a check between two
    of them finds the helper booted, the helper runs the upper half of the ids that remain
    under the caller's numpy error state and warning filters.  The study runs serially
    unless ``_use_helper`` allows the helper, and also under an error mode of ``'call'``
    or ``'log'``, with filters that do not pickle, or while another thread holds the
    helper.  An error or Ctrl-C in the caller kills the helper, and the next study starts
    a new one; if it is lost, the caller runs its ids."""
    errors, results, state = np.geterr(), [], None
    if _use_helper(config.reps) and not {"call", "log"} & set(errors.values()):
        with contextlib.suppress(Exception):  # e.g. a warning category defined in a function
            state = pickle.dumps((config, errors, warnings.filters))
    if state is None or not _lock.acquire(False):
        return [harness.run_replication(config, rep) for rep in range(config.reps)]
    try:
        _start()
        for rep in range(config.reps):
            cut = (rep + config.reps) // 2
            if cut > rep and _helper and _helper.poll():
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
        _stop()
        raise
    finally:
        _lock.release()
    if isinstance(results, BaseException):  # the helper's lowest failing id's
        raise results
    return results


def read_body(chunks, handle, path, line: int, grid, groups: dict) -> None:
    """``harness._read_body(chunks, handle, path, line, grid, groups)``, with the helper's
    help when more than one bulk chunk of a regular file is left and the helper is allowed
    and free.  The caller starts the helper if none runs; if it had booted already, the
    caller reads up to the split, the first newline past the midpoint of the bytes left,
    and the helper bulk-parses the rest.  If the helper refused or was lost, the caller
    reads on from the split; if the caller refused a chunk, its row parser read to the end
    and the reply is dropped.  Any error but ``CurveParseError`` kills the helper."""
    chunk, status = harness._BULK_CHUNK, os.fstat(handle.fileno())
    position = handle.tell() if handle.seekable() else status.st_size
    # a cookie of more than 64 bits holds decoder state: it is not a byte offset
    if (status.st_size - position <= chunk or position >> 64 or not _use_helper(2)
            or not _lock.acquire(False)):
        harness._read_body(chunks, handle, path, line, grid, groups)
        return
    try:
        _start()
        middle, newline = (position + status.st_size) // 2, -1
        if _helper and _helper.poll():
            newline = os.pread(handle.fileno(), chunk, middle).find(b"\n")
        if newline < 0:  # no booted helper, or no newline to split at (a "\r"-only file)
            harness._read_body(chunks, handle, path, line, grid, groups)
            return
        split, leftover = middle + newline + 1, []
        with contextlib.suppress(OSError):  # a lost helper's reply then reads as EOF
            _helper.requests.write(pickle.dumps((str(path.absolute()), split, _identity(status),
                                                 len(grid), csv.field_size_limit())))
            _helper.requests.flush()

        def read() -> list:
            """The caller's next chunk of lines, none past the split."""
            nonlocal position
            if position >= split:
                return []
            lines = next(chunks, [])
            width = len("".join(lines).encode("utf-8", "surrogateescape"))
            if position + width <= split:
                position += width
                return lines
            for count, text in enumerate(lines, start=1):  # keep the lines past the split
                position += len(text.encode("utf-8", "surrogateescape"))
                if position >= split:
                    break
            leftover[:] = lines[count:]
            return lines[:count]

        try:
            line = harness._read_body(iter(read, []), chain(leftover, handle), path, line,
                                      grid, groups)
        except harness.CurveParseError:  # the caller's error: drop the reply, keep the helper
            _helper.receive()
            raise
        reply = _helper.receive()
        if reply and line is not None and position == split:
            for label, values in zip("DH", reply):
                groups[label].frombytes(values)
        elif line is not None:  # refused, lost, or the file changed: read on from the split
            harness._read_body(chain([leftover], chunks), handle, path, line, grid, groups)
    except BaseException as exc:
        if not isinstance(exc, harness.CurveParseError):
            _stop()
        raise
    finally:
        _lock.release()


def _identity(status) -> tuple:
    """What tells one version of a file from another: its device, inode, size and mtime."""
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _upper_half(path: str, split: int, identity: tuple, m: int, limit: int):
    """The helper's side of ``read_body``: the raw float bytes of the values of groups D and
    H from byte ``split`` of the file on, decoded as ``ingest_curves`` does; False if the
    file is not the caller's, no line ends at the split or ``_read_bulk`` refuses a chunk."""
    csv.field_size_limit(limit)
    groups = {"D": array("d"), "H": array("d")}
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
        handle.buffer.seek(split - 1)  # the text layer has read nothing yet
        if _identity(os.fstat(handle.fileno())) != identity or handle.buffer.read(1) != b"\n":
            return False
        for lines in iter(partial(handle.readlines, harness._BULK_CHUNK), []):
            if not harness._read_bulk(lines, m, groups):
                return False
    return groups["D"].tobytes(), groups["H"].tobytes()


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
            if isinstance(start, tuple):  # the upper half of a curve file
                try:
                    reply = _upper_half(*start)
                except OSError:  # e.g. the file is gone
                    reply = False
                continue
            config, errors, warnings.filters = pickle.load(sys.stdin.buffer)
            with np.errstate(**errors), warnings.catch_warnings():  # filters take effect
                try:
                    reply = [harness.run_replication(config, r) for r in range(start, config.reps)]
                except Exception as exc:  # the lowest failing id's: ids run in order
                    reply = exc
