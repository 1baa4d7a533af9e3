#!/usr/bin/env sh
# Polyhedral-kernel before/after benchmark with a *real* pre-overhaul
# baseline.
#
# The library carries only the current kernel, so the "before" side has to
# come from the old tree itself: this script checks the pre-overhaul tree
# out of git into a scratch worktree, builds `scripts/seed_classify.rs`
# against it (the same cold sequential-classify workload bench_poly times),
# runs it on this machine, and feeds the measured wall time to bench_poly via
# BENCH_POLY_BASELINE_SECS.  bench_poly then emits BENCH_4.json with
# `total.pre_pr_wall_secs` / `total.speedup` and fails below 1.3x.
#
# Usage: scripts/bench_poly_baseline.sh [baseline-commit]
set -eu

# The commit immediately before the kernel overhaul landed.
BASE=${1:-c95ac1f9e27ba708c7096827256fba7c14adb41a}
WT=.bench-baseline

cargo build --release -p suif-bench --bin bench_poly

git worktree remove --force "$WT" 2>/dev/null || true
git worktree add --force --detach "$WT" "$BASE"
trap 'git worktree remove --force "$WT" 2>/dev/null || true' EXIT

cp scripts/seed_classify.rs "$WT/crates/bench/src/bin/seed_classify.rs"
(cd "$WT" && cargo build --release -p suif-bench --bin seed_classify)

BASELINE=$("$WT/target/release/seed_classify" | awk '/^TOTAL/{ sub(/s$/, "", $2); print $2 }')
echo "pre-overhaul baseline: ${BASELINE}s"

BENCH_POLY_BASELINE_SECS=$BASELINE ./target/release/bench_poly
