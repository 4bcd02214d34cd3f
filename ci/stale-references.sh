#!/bin/sh
# Fails when a doc, workflow, skill or source file still names an
# artefact that was deleted — when `dynbench` became the only benchmark
# (first line of the pattern), when a leaf came to own its state
# (second), as a dead knob (third), when `dynobs` came down to one
# accumulator and one ring (fourth), or when `dynamo-sim` came down to
# one flag table and the options and examples nothing used went (fifth
# and sixth; an example is named by its path or its `--example`, since
# tests and metrics share some of the words), or when the pool's caller
# took the first shard and its waiters began to spin before they park
# (seventh: what the park-only, exactly-as-asked pool was said to do) —
# so a stale reference breaks the build instead of waiting for the next
# reader. Lives here,
# outside the searched paths, so the pattern does not find itself.
cd "$(dirname "$0")/.." || exit 2
grep -rniE 'BENCH_controlplane|paper_scale|PooledAuto|pr[59]_baseline
StepJob|AgentColumns|mask_base|settled_scratch|finish_fused_control
static_util_cap|json_snapshot
HistScope|hist_scope|wire_roundtrip|shard_hot|trace_capacity|flight_capacity|leaf_overhead
phase_jitter|jittered|pool_determinism|FROZEN_ON_RESUME|set_fuse|no-fuse
(examples/|--example +)(surge_protection|turbo_oversubscription|characterize_workloads|grid_curtailment|full_datacenter|staggered_control|staged_rollout)
parked between dispatches|parks the owner|exactly the pool it is asked|breaks even at suite scale' \
    README.md DESIGN.md EXPERIMENTS.md .github/workflows .claude \
    crates examples tests src
case $? in
    0) echo "error: stale references above" >&2; exit 1 ;;
    1) exit 0 ;;
    *) exit 2 ;;
esac
