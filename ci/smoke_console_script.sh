#!/usr/bin/env bash
# Smoke-run the installed `funcroc` console script on small inputs.
#
# Run it after `python -m pip install .`, with BLAS pinned to one thread
# (OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1):
#
#     bash ci/smoke_console_script.sh
#
# It writes its files to a temporary directory and exits nonzero at the
# first check that fails.
set -euo pipefail

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

funcroc simulate --scenario P1 --rho 1 --nd 10 --nh 10 --reps 2 --seed 1 --grid-size 10

# pinned BLAS runs the replications on every CPU, unpinned BLAS serially;
# the two reports must agree apart from the wall time
study="--scenario P1 --rho 1 --nd 40 --nh 40 --reps 7 --seed 3 --grid-size 30"
funcroc simulate $study --out "$work/pinned.json"
env -u OPENBLAS_NUM_THREADS -u OMP_NUM_THREADS funcroc simulate $study --out "$work/unpinned.json"
python -c 'import json, sys
reports = [json.load(open(path)) for path in sys.argv[1:]]
for report in reports:
    del report["elapsed_seconds"]
sys.exit(reports[0] != reports[1])' "$work/pinned.json" "$work/unpinned.json"

# the quoted cell sends the data lines through the csv row parser
curves="$work/smoke.csv"
printf 'label,0.25,0.5,0.75\nD,1,"2",3\nD,2,3,5\nD,1.5,2.5,3.5\nH,0,1,2\nH,0.5,1,1.5\nH,0,0.5,2.5\n' > "$curves"
funcroc analyze --input "$curves"
funcroc analyze --input "$curves" --indexes linear,meandiff --lambda 0.5

# unquoted cells go through the bulk np.loadtxt parser
bulk="$work/bulk.csv"
printf 'label,0.25,0.5,0.75\nD,1,2,3\nD,2,3,5\nD,1.5,2.5,3.5\nH,0,1,2\nH,0.5,1,1.5\nH,0,0.5,2.5\n' > "$bulk"
funcroc analyze --input "$bulk"

# roc takes the fit options analyze takes: a header and 101 rows
funcroc roc --input "$bulk" --index linear --lambda 0.5 --flip --out "$work/bulk_roc.csv"
test "$(wc -l < "$work/bulk_roc.csv")" -eq 102
test "$(head -n 1 "$work/bulk_roc.csv" | tr -d '\r')" = "p,roc"

# roc evaluates through the harness: a header and 101 rows per index
for index in max min integral meandiff linear quad; do
  funcroc roc --input "$curves" --index "$index" --out "$work/smoke_roc.csv"
  test "$(wc -l < "$work/smoke_roc.csv")" -eq 102
done

# identical groups leave meandiff undefined: its typed error exits 3
same="$work/same.csv"
printf 'label,0.5,1.0\nD,1.0,2.0\nH,1.0,2.0\n' > "$same"
code=0
funcroc roc --input "$same" --index meandiff --out "$work/same_roc.csv" || code=$?
test "$code" -eq 3

# the installed analyze and binormal oracles load no scipy module: numpy and the
# standard library serve the whole runtime path
python -c 'import sys
from funcroc import GaussianPair, auc_of_direction, binormal_roc
from funcroc.cli import main
code = main(["analyze", "--input", sys.argv[1]])
pair = GaussianPair([1.0], [0.0], [[1.0]], [[1.0]])
print("binormal AUC", auc_of_direction(pair, [1.0]), "ROC", binormal_roc(pair, [1.0], [0.1, 0.5]))
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print("scipy modules loaded:", loaded)
sys.exit(code or bool(loaded))' "$curves"
