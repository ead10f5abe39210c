"""Compare two checkouts on one benchmark workload in alternating pairs.

    python ci/bench_pairs.py PARENT CHANGE --workload W [--pairs 10] [--seconds 30]

Each pair runs ``bench/run.py --trace 0`` once in each checkout, with the
checkout's own benchmark code and one fresh seed shared by both sides;
even pairs run the parent first, odd pairs the change.  The seeds are drawn
at random and printed, so no seed used while writing a change can favour it.
Before the first pair, each checkout runs once on a seed of its own, untimed
and uncounted, so that the first timed run does not start cold; a cold first
run has read about a fifth below the rest and decided its pair.

For every end-to-end metric of the parent's ``BENCHMARK.json`` the script
prints each side's median and quartiles and the number of pairs each side
won (ties count for neither).  A gain holds when the change wins at least
nine tenths of the pairs and its median is better than the parent's by more
than the parent's interquartile range.  Run lengths are the same on both
sides.  Checkout paths of different lengths draw a warning: the child's
peak RSS moves with the length of its path (about 1 MB on mc-widegrid).
The exit status is 1 when a run, the warm-up runs included, fails or
reports a failed check or fit; each such run is named on stderr by its pair,
seed and side, with its ``check failed:`` lines and its failed fit count, so
that a seed that lands below a check's fixed floor can be told from a fault.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one ``bench/run.py`` run, as a dict, with the run's
    ``check failed:`` lines added under ``checks``."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: bench/run.py exited {done.returncode}: "
                           f"{done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    return {**json.loads(lines[-1]),
            "checks": [line for line in lines if line.startswith("check failed:")]}


def healthy_run(result: dict, run: str) -> bool:
    """Whether a run passed every check and fit; if not, ``run`` names it on stderr
    with the checks that failed and its failed fit count."""
    if result["correct"] is True and result["failed"] == 0:
        return True
    print(f"error: {run}: {result['failed']} of {result['attempted']} fits failed",
          *result["checks"], sep="\n  ", file=sys.stderr, flush=True)
    return False


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if len(str(sides["parent"])) != len(str(sides["change"])):
        print(f"warning: checkout paths differ in length ({len(str(sides['parent']))} vs "
              f"{len(str(sides['change']))} characters); peak_rss_mb may move with it",
              file=sys.stderr)
    spec = json.loads((sides["parent"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"]

    warm_up_seed, *seeds = random.SystemRandom().sample(range(1, 2**31), args.pairs + 1)
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs, "
          f"seeds {' '.join(map(str, seeds))}", flush=True)
    values = {side: {m["name"]: [] for m in metrics} for side in sides}
    healthy = True
    for side in sides:
        run = f"warm-up run in the {side} checkout (seed {warm_up_seed})"
        ok = healthy_run(run_once(sides[side], args.workload, warm_up_seed, args.seconds), run)
        healthy &= ok
        print(f"{run}: {'ok' if ok else 'failed'}, not counted", flush=True)
    for pair, seed in enumerate(seeds):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            healthy &= healthy_run(result, f"pair {pair + 1} (seed {seed}), {side} run")
            for name, entry in result["metrics"].items():
                values[side][name].append(entry["value"])
        print(f"pair {pair + 1} (seed {seed}, {order[0]} first): " + ", ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> "
            f"{values['change'][m['name']][-1]:.4g}" for m in metrics), flush=True)

    needed = math.ceil(0.9 * args.pairs)
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        parent, change = values["parent"][name], values["change"][name]
        won = {side: 0 for side in sides}
        for before, after in zip(parent, change):
            if after != before:
                won["change" if sign * (after - before) > 0 else "parent"] += 1
        p_q1, p_median, p_q3 = quartiles(parent)
        c_q1, c_median, c_q3 = quartiles(change)
        gain = won["change"] >= needed and sign * (c_median - p_median) > p_q3 - p_q1
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              f"parent {p_median:.4g} [{p_q1:.4g}, {p_q3:.4g}], "
              f"change {c_median:.4g} [{c_q1:.4g}, {c_q3:.4g}]; "
              f"pairs won parent {won['parent']}, change {won['change']}; "
              f"gain rule ({needed} of {args.pairs} wins, median gap > parent IQR): "
              f"{'holds' if gain else 'does not hold'}")
    if not healthy:
        print("error: a run reported a failed check or fit (named above)", file=sys.stderr)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
