#!/usr/bin/env bash
# Builds the release `mvrobust` server and the benchmark from source,
# then runs one benchmark pass. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload svc_churn --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build), run
# state (data dirs, span files) to .bench_runs. The last line printed
# is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p mvcli --bin mvrobust >&2
cargo build --release --offline --quiet --manifest-path e2ebench/Cargo.toml >&2
E2EBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)" \
    exec "$CARGO_TARGET_DIR/release/e2ebench" \
    --mvrobust "$CARGO_TARGET_DIR/release/mvrobust" "$@"
