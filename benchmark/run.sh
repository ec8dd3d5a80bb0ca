#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments; with none, `run all`. Examples:
#
#   benchmark/run.sh                      # every workload, every end-to-end metric
#   benchmark/run.sh run all --trace      # plus the traced pass and the per-layer table
#   benchmark/run.sh --workload ctl-churn --seed 7 --seconds 12 --trace 0
#   benchmark/run.sh selfcheck
#
# The build goes to $CARGO_TARGET_DIR when set, otherwise to the
# repository's target/ so the root build cache is reused.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --quiet --release --offline \
  --manifest-path "$here/Cargo.toml" \
  --target-dir "${CARGO_TARGET_DIR:-$here/../target}" \
  -- "$@"
