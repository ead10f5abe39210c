"""funcroc benchmark: entry point that runs one workload.

Run from the root of a checkout:

    python3 bench/run.py --workload mc-acceptance --seed 1 --seconds 30 --trace 0

Each run of a workload is a fresh child process (bench/child.py) with the
BLAS thread count pinned to one.  With ``--trace 0`` it also starts
set-up-only children, and prints the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted``/``failed`` count
(replication, index) fits, so their ratio is the study's fit failure ratio;
``correct`` is false when any output check failed.

A result file with the environment, every pass time and every check goes
to .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc-acceptance", "mc-widegrid", "analyze-file")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5  # set-up-only children plus the measuring child
DEADLINE_S = 170.0


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def child_env(blas_threads: str) -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        if blas_threads == "default":
            env.pop(name, None)
        else:
            env[name] = blas_threads
    return env


def run_child(args, env, workdir: Path, result_path: Path, deadline: float,
              setup_only: bool) -> dict:
    spawned = time.monotonic()
    command = [
        sys.executable, str(ROOT / "bench" / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--result", str(result_path), "--spawned", repr(spawned),
    ]
    if setup_only:
        command.append("--setup-only")
    subprocess.run(command, env=env, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(deadline - spawned, 1.0))
    return json.loads(result_path.read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description="funcroc benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-threads", choices=("1", "default"), default="1",
                        help="'default' leaves the BLAS thread count to the library "
                             "(informational runs only)")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "funcroc" / "__init__.py").is_file():
        print(f"error: no funcroc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.blas_threads != "1":
        label += f"-threads-{args.blas_threads}"
    env = child_env(args.blas_threads)
    workdir = Path(tempfile.mkdtemp(prefix=label + "-", dir=out_dir))
    setups = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, env, workdir, workdir / "setup.json",
                                        deadline, setup_only=True)["setup_s"])
        result = run_child(args, env, workdir, out_dir / f"{label}.json", deadline,
                           setup_only=False)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark child failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    if args.trace:
        measured = result["per_layer"]
    else:
        measured = {
            "reps_per_ref": result["reps_per_ref"],
            "curves_per_ref": result["curves_per_ref"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [metric["name"] for metric in wanted if metric["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {metric["name"]: {"value": measured[metric["name"]], "unit": metric["unit"]}
               for metric in wanted}

    check_failures = len(result["checks"])
    result.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        blas_threads=args.blas_threads, git_revision=git_revision(), setup_samples_s=setups,
        metrics=metrics, check_failures=check_failures,
        fit_fail_ratio=result["failed"] / result["attempted"],
    )
    (out_dir / f"{label}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    for message in result["checks"]:
        print(f"check failed: {message}")
    for name, entry in metrics.items():
        print(f"{name:<44}{entry['value']:>16.6g} {entry['unit']}")
    print(f"{'check_failures':<44}{check_failures:>16d}")
    print(f"{'fit_fail_ratio':<44}{result['fit_fail_ratio']:>16.6g} "
          f"({result['failed']}/{result['attempted']} fits)")
    print(json.dumps({
        "correct": check_failures == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
