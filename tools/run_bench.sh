#!/usr/bin/env bash
# Benchmark artifact driver for the mocc tree.
#
# Usage: tools/run_bench.sh [--smoke] [--only=E1,E5] [--print]
#                           [--out=PATH] [--trace=PATH] [--spans]
#
# Builds the bench_report driver (build/ is configured on first use) and
# runs the E1-E11 experiment suite, writing the schema-versioned
# BENCH_results.json artifact at the repo root (schema documented in
# docs/observability.md). Smoke artifacts carry only deterministic
# metrics, so rerunning with the same flags produces a byte-identical
# file — diff it, golden-test it, or feed it to the table generators in
# EXPERIMENTS.md. Full-mode records add wall-time gauges (E5/E11
# `wall_ms`, E10 `exec_tput_mops` / `verified_tput_mops`).
#
#   --smoke      reduced CI-sized sweeps (seconds; still covers E1-E11)
#   --only=...   comma-separated subset of E1..E11 (case-insensitive)
#   --print      also render per-experiment tables to stdout
#   --out=PATH   artifact path (default: BENCH_results.json)
#   --trace=PATH additionally write a demo JSONL event trace
#   --spans      add the causal-span phase breakdown (schema minor 2)
#
# Every flag is forwarded to bench_report, which rejects unknown ones.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
BUILD_DIR="${BUILD_DIR:-build}"

FORWARD=()
for arg in "$@"; do
  case "${arg}" in
    # Normalize the subset to upper case so `--only=e8` works too.
    --only=*) FORWARD+=("--only=$(echo "${arg#--only=}" | tr '[:lower:]' '[:upper:]')") ;;
    *) FORWARD+=("${arg}") ;;
  esac
done

if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
  cmake -B "${BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi
cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_report

exec "${BUILD_DIR}/bench/bench_report" "${FORWARD[@]+"${FORWARD[@]}"}"
