#!/usr/bin/env bash
# Runs the full benchmark twice on the same tree and judges the second run against the
# first with the benchmark's own bounds: the evidence for the repeatability criterion.
# Any row it prints as "worse" on identical code is a metric too noisy to gate on.
#
#   benchmark/repeat.sh [SEED]        (from the repo root or from benchmark/)
set -euo pipefail

cd "$(dirname "$0")/.."
seed="${1:-1}"
out="benchmark/out"

cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/legaliot-benchmark"

"$bin" --seed "$seed" --out "$out/repeat-a.json"
"$bin" --seed "$seed" --out "$out/repeat-b.json"
"$bin" --compare "$out/repeat-a.json" "$out/repeat-b.json"
