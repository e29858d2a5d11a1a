#!/usr/bin/env bash
# Regenerate the committed perf-gate baselines in bench/baselines/.
#
# Run this after an intentional performance or results change, commit the
# updated JSON files, and say why in the commit message — the CI perf-gate
# job compares every push against these bytes (exact on deterministic
# result fields, relative tolerance on timings; see tools/bench_compare.py).
#
# Usage: tools/regen_baselines.sh [build-dir]   (default: build-release)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

build_dir="${1:-build-release}"
out_dir="bench/baselines"
mkdir -p "${out_dir}"

if [[ ! -d "${build_dir}" ]]; then
  cmake --preset release
fi
cmake --build --preset release -j "$(nproc)" \
  --target micro_gp micro_parallel micro_incremental micro_batch \
  micro_sessions table1_power_amplifier table2_charge_pump

# Deterministic table artifact: --no-timing + fixed thread count makes the
# bytes a function of the seed alone, and --spans pins the span-tree shape
# (counts only, no wall-clock keys).
"${build_dir}/bench/table1_power_amplifier" \
  --quick --runs 2 --no-timing --threads 1 --spans \
  --out "${out_dir}/BENCH_table1.json"

# The same for Table 2: the only artifact in which GASPAD and DE run on
# the 36-variable, 27-corner charge pump. One run takes ~3 min on one core.
"${build_dir}/bench/table2_charge_pump" \
  --quick --runs 1 --no-timing --threads 1 --spans \
  --out "${out_dir}/BENCH_table2.json"

# Self-normalizing artifacts: the speedup fields compare two legs run on
# the same machine, so they stay meaningful on different hardware. --spans
# (here and below) keeps the library's counters in the artifacts: every
# counter is a span counter, recorded only while the profiler is on.
"${build_dir}/bench/micro_parallel" --quick --threads 4 --spans \
  --out "${out_dir}/BENCH_micro_parallel.json"
"${build_dir}/bench/micro_incremental" --quick --spans \
  --out "${out_dir}/BENCH_micro_incremental.json"

# Deterministic batch-engine artifact plus the committed resume fixture:
# --no-timing zeroes the wall-clock leaves, so the per-batch-size results,
# the identity flags, and the fixture bytes are a function of the seed
# alone. The fixture feeds tests/test_checkpoint.cpp's cross-build restore
# test; regenerate both together so they stay in step.
"${build_dir}/bench/micro_batch" --quick --threads 4 --no-timing --spans \
  --dump-checkpoint tests/fixtures/resume_fixture.json \
  --out "${out_dir}/BENCH_micro_batch.json"

# Deterministic multi-session artifact: per-fleet-size results and the
# solo-vs-concurrent identity flags are a function of the seed alone under
# --no-timing; the wall-clock columns are zeroed, so the gate pins results
# and scheduling shape (rounds, steps), not machine speed.
"${build_dir}/bench/micro_sessions" --quick --threads 4 --no-timing --spans \
  --out "${out_dir}/BENCH_micro_sessions.json"

# google-benchmark timings; the perf gate normalizes by a reference
# benchmark (BM_Cholesky/64) to cancel absolute machine speed.
"${build_dir}/bench/micro_gp" --benchmark_min_time=0.05 \
  --benchmark_out="${out_dir}/BENCH_micro_gp.json" \
  --benchmark_out_format=json

echo "baselines regenerated under ${out_dir}/"
