"""Collect result files of bench/run.py into one BENCH_<label>.json.

    python3 bench/summarize.py --label baseline \
        --out bench/results/BENCH_baseline.json .bench_out/*-trace*.json

Untraced runs at one BLAS thread are summarized per workload and metric as
median and quartiles over seeds, with the plain throughput in seconds
(``plain.*``) beside the bounded metrics.  Traced runs give the per-layer
table of each workload.  Runs at the library's default BLAS threading are
kept apart under ``informational``: they are a record, not a gate.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / median,
            "n": len(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("results", nargs="+")
    args = parser.parse_args()

    runs = [json.loads(Path(path).read_text(encoding="utf-8")) for path in sorted(args.results)]
    summary = {"label": args.label, "environment": runs[0]["environment"],
               "git_revision": runs[0]["git_revision"], "end_to_end": {}, "per_layer": {},
               "informational": []}
    for run in runs:
        record = {key: run[key] for key in ("seed", "seconds", "check_failures",
                                            "fit_fail_ratio", "attempted", "failed")}
        metrics = {name: entry["value"] for name, entry in run["metrics"].items()}
        if run["blas_threads"] != "1":
            summary["informational"].append({
                "workload": run["workload"], "blas_threads": run["blas_threads"],
                "blas_thread_env": run["environment"]["blas_thread_env"],
                "note": "library default BLAS threading; informational, not gated",
                **record, "metrics": metrics, "pass_seconds": run["pass_seconds"]})
        elif run["trace"]:
            summary["per_layer"].setdefault(run["workload"], []).append(
                {**record, "metrics": metrics})
        else:
            workload = summary["end_to_end"].setdefault(
                run["workload"], {"seeds": [], "check_failures": 0, "fit_fail_ratio": []})
            workload["seeds"].append(run["seed"])
            workload["check_failures"] += run["check_failures"]
            workload["fit_fail_ratio"].append(run["fit_fail_ratio"])
            # Plain throughput at the median pass, kept to show the host's drift.
            for name in ("reps_per_s", "curves_per_s"):
                metrics[f"plain.{name}"] = run[name]
            for name, value in metrics.items():
                workload.setdefault("values", {}).setdefault(name, []).append(value)
    for workload in summary["end_to_end"].values():
        workload["metrics"] = {name: spread(values)
                               for name, values in workload.pop("values").items()}
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
