#!/usr/bin/env bash
# Runs every workload once untraced (end-to-end metrics) and once traced
# (per-layer metrics), from the repository root:
#
#   bash e2ebench/all.sh [SEED] [SECONDS]
#
# Stops at the first run that fails its output checks.
set -euo pipefail
seed="${1:-1}"
seconds="${2:-15}"
for w in svc_churn svc_churn_wide svc_template; do
    for trace in 0 1; do
        bash e2ebench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace"
    done
done
