"""A stand-in for funcroc's helper process, for the tests of the helper.

    python tests/helper_shim.py SOURCE OPTIONS REPLY_FD

imports funcroc from the directory SOURCE, waits ``boot`` seconds as the JSON file
OPTIONS says and serves like the real helper, with ``harness.run_replication``
replaced by ``recording(OPTIONS, ...)``.  A test points ``funcroc._helper._COMMAND`` at
this file (the reply pipe's descriptor is appended) and wraps the caller's
``run_replication`` the same way, so one log shows which process ran which id, and
under what state.  The options are read again at every call, so one helper can serve
many tests.  ``boot`` and ``stop`` start and end whatever helper ``_COMMAND`` names.
"""

import builtins
import dataclasses
import json
import os
import sys
import time
from pathlib import Path


def boot(config):
    """Run ``config``'s study, which starts a helper if none runs, and wait until the
    helper has booted; its pid."""
    from funcroc import _helper, run_study

    run_study(config)
    deadline = time.monotonic() + 60
    while not _helper._helper.poll():
        assert _helper._helper.ready is False and time.monotonic() < deadline, "no helper booted"
        time.sleep(0.01)
    return _helper._helper.pid


def stop():
    """Kill the helper, if one runs; the next study that may use one starts a new one."""
    from funcroc import _helper

    _helper._stop()


def recording(options, run):
    """``run``, a ``run_replication``, wrapped as the JSON file ``options`` says.

    Each call appends one JSON line to the file named by ``log``: the id, the study's
    seed, the pid, numpy's error state, the first two warning filters as (action,
    category name) and whether this process holds a helper of its own.  Then the
    call sleeps ``sleep[id]`` seconds, waits until the file ``hold[id]`` exists (for
    at most 60 seconds), raises the builtin exception named by ``raise[id]`` with the
    message ``"replication {id} failed"``, runs a 2-replication study of its own
    first when ``nest`` is set and the study is larger, and writes to
    stdout and stderr and overflows a float under numpy's error state when ``noise``
    is set.  Ids are JSON object keys, so strings.
    """
    import warnings

    import numpy as np

    from funcroc import _helper, harness

    def replication(config, replication_id):
        settings, key = json.loads(Path(options).read_text(encoding="utf-8")), str(replication_id)
        line = {"id": replication_id, "seed": config.scenario.seed, "pid": os.getpid(),
                "errors": np.geterr(), "helper": _helper._helper is not None,
                "filters": [[f[0], f[2].__name__] for f in warnings.filters[:2]]}
        with open(settings["log"], "a", encoding="utf-8") as log:
            log.write(json.dumps(line) + "\n")
        time.sleep(settings.get("sleep", {}).get(key, 0))
        hold, deadline = settings.get("hold", {}).get(key), time.monotonic() + 60
        while hold and not os.path.exists(hold) and time.monotonic() < deadline:
            time.sleep(0.005)
        if key in settings.get("raise", {}):
            raise getattr(builtins, settings["raise"][key])(f"replication {key} failed")
        if settings.get("nest") and config.reps > 2:
            harness.run_study(dataclasses.replace(config, reps=2))
        if settings.get("noise"):
            print("stray output")
            print("stray output", file=sys.stderr)
            np.multiply(np.float64(1e308), 10.0)
        return run(config, replication_id)

    return replication


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    time.sleep(json.loads(Path(sys.argv[2]).read_text(encoding="utf-8")).get("boot", 0))
    from funcroc import _helper, harness

    _helper._use_helper = lambda reps: True  # so that a nested study may ask for a helper
    harness.run_replication = recording(sys.argv[2], harness.run_replication)
    _helper.serve()
