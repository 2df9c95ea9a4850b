#!/usr/bin/env sh
# Regenerates every table and figure of the paper, plus the ablations,
# through the declarative bench driver. The first xfa_bench call is a
# single-shard sweep (--shard=0/1): it simulates every trace unit the plans
# declare, deduplicated across plans, into the cache under ./xfa_cache on
# the shared pool (~40 x 10^4-second traces, tens of minutes on one core),
# so the plan runs that follow start warm. Pass a worker count to size the
# pool, e.g. scripts/reproduce.sh 8 (the printed bytes are identical for any
# count; by default the pool follows $XFA_THREADS, then the core count).
set -e
THREADS="${1:-0}"
THREAD_FLAG=""
if [ "${THREADS}" -gt 0 ] 2>/dev/null; then
  THREAD_FLAG="--threads=${THREADS}"
fi
PLANS="table1_3 table4_6 fig1 fig2 fig3 fig4 fig5 fig6 \
  ablation_buckets ablation_periods ablation_threshold \
  ablation_generalization ablation_labels featsel_sweep"
cmake -B build -G Ninja
cmake --build build
# shellcheck disable=SC2086
./build/bench/xfa_bench ${THREAD_FLAG} --shard=0/1 ${PLANS}  # simulate all traces
ctest --test-dir build --output-on-failure
# shellcheck disable=SC2086
./build/bench/xfa_bench ${THREAD_FLAG} ${PLANS}
