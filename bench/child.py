"""One measured run of a workload, in a fresh process started by run.py.

Imports funcroc from the checkout's ``src``, makes a warm-up call, runs the
workload's check pass, then runs closed-loop timed passes for the rest of
the requested time and checks that their outputs agree.
The result is written as JSON to ``--result``.  With ``--trace 1`` the
timed passes alternate traced and untraced, so the same process gives the
per-layer numbers and the tracing overhead.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(workload, seconds: float, tracer) -> dict:
    """The check pass, then closed-loop timed passes, within ``seconds`` in all.

    The workload's reference computation runs before the first timed pass
    and after each one.  A timed pass is started only if, at the length of the
    previous pass and reference, it would end within ``seconds``; at least
    one runs.  Traced mode alternates traced and untraced timed passes,
    starting traced, and runs at least one of each.
    """
    reference = workload.reference
    reference()
    start = time.monotonic()
    began = time.perf_counter()
    failures, attempted, failed = workload.check_pass()
    check_seconds = time.perf_counter() - began
    passes = []  # (traced, seconds)
    references = [reference()]
    sys_ms, minor_faults = [], []
    outputs = []
    traced = tracer is not None
    modes = (False, True) if traced else (False,)
    while True:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        began = time.perf_counter()
        if traced:
            with tracer.traced_pass():
                raw = workload.run_pass()
        else:
            raw = workload.run_pass()
        took = time.perf_counter() - began
        passes.append((traced, took))
        if not traced:
            after = resource.getrusage(resource.RUSAGE_SELF)
            sys_ms.append((after.ru_stime - usage.ru_stime) * 1e3)
            minor_faults.append(after.ru_minflt - usage.ru_minflt)
        outputs.append(workload.outputs(raw))
        references.append(reference())
        if tracer is not None:
            traced = not traced
        if (all(any(mode == m for mode, _ in passes) for m in modes)
                and time.monotonic() - start + took + references[-1] > seconds):
            break

    failures += [f"timed pass {i} outputs differ from timed pass 0"
                 for i, out in enumerate(outputs[1:], start=1) if out != outputs[0]]
    for out in outputs:
        pass_attempted, pass_failed = workload.fit_counts(out)
        attempted += pass_attempted
        failed += pass_failed

    # A pass is timed in units of the reference runs just before and after
    # it (see workloads.py), and the median over the passes is taken.
    def in_references(mode):
        return statistics.median(
            took / (0.5 * (references[i] + references[i + 1]))
            for i, (traced, took) in enumerate(passes) if traced == mode)

    pass_seconds = [took for traced, took in passes if not traced]
    relative = in_references(False)
    median_seconds = statistics.median(pass_seconds)
    result = {
        "check_seconds": check_seconds,
        "pass_seconds": pass_seconds,
        "reference_seconds": references,
        "reps_per_ref": workload.reps_per_pass / relative,
        "curves_per_ref": workload.curves_per_pass / relative,
        "reps_per_s": workload.reps_per_pass / median_seconds,
        "curves_per_s": workload.curves_per_pass / median_seconds,
        "checks": failures,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is not None:
        result["traced_pass_seconds"] = [took for traced, took in passes if traced]
        result["per_layer"] = tracer.layer_metrics()
        result["per_layer"].update({
            "trace.overhead": in_references(True) / relative - 1.0,
            "process.sys_ms": statistics.median(sys_ms),
            "process.minor_faults": statistics.median(minor_faults),
        })
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    import funcroc

    source = (ROOT / "src").resolve()
    if source not in Path(funcroc.__file__).resolve().parents:
        print(f"error: funcroc was imported from {funcroc.__file__}, not from the "
              "checkout's src", file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.make(args.workload, args.seed)
    workload.warm_up()
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        workload.prepare(Path(args.workdir))
        tracer = Tracer() if args.trace else None
        result.update(measure(workload, args.seconds, tracer))
        result["environment"] = environment()
        if tracer is not None:
            result["functions"] = {
                name: {key: row[key] for key in ("calls", "ns", "self_ns", "errors")}
                for name, row in tracer.function_table().items()
            }
            tracer.write_spans(Path(args.result).with_suffix(".spans.csv.gz"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
