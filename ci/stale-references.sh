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
# (seventh: what the park-only, exactly-as-asked pool was said to do),
# or when the leaf controller stopped storing a handle and a hash entry
# per server and the fleet came to be built in its leaves (eighth), or
# when a fleet came to be partitioned once, at build, and mid-run
# re-spanning went with its span generation (ninth), or when every
# periodic loop came to be one `CycleSchedule`, due controllers a scan
# of them, and the controllers' unread cadence and the validator's
# tolerance knob went (tenth), or when a link came to hand back its
# round trip unconverted and its call counters, latency sum and
# latency-returning call went (eleventh), or when §II-C came to read
# the table Figure 5 records and the suite type and its simulate call
# folded into `fig5::run` (twelfth), or when each stateful layer came to
# save and load itself and its plain-data `*State` mirror went
# (thirteenth), or when a leaf came to record each round trip straight
# into its histogram off a table and its round-trip buffer and the
# batch fold went (fourteenth), or when the settings no caller changed
# became constants and their config types, fields and builder paths
# went (fifteenth), or when every device came to carry the server-id
# range it feeds, the server → rack index went, and the settle kernel
# kept one scalar reference beside the shipping packed kernel
# (sixteenth), or when a leaf shard came to carry numbers only, each
# controller action came to be recorded once, as an event the serial
# merge builds spans and flight records from, and leaf and upper
# failovers came to share one recorder (seventeenth), or when Figure 6
# came to read its two quantiles by selection and its rows stopped
# keeping a sorted pool (eighteenth: the field and reads of it, not the
# `Cdf` type, which stays), or when the public API nothing shipped went:
# the cluster performance accumulator and the streaming summary only it
# used, the power slope, the CDF's plot points, the batch-wave scenario,
# the DCUPS blackout helpers, the per-instance RAPL tau, the leaf's
# non-server overhead and the saturating time difference (nineteenth;
# `Summary` qualified, since `GridSummary` stays), or when the tick came
# to be judged against a naive reference datacenter and the parity suites
# that compared it only with itself went, the breakers' cooling constant
# became a constant and each leaf's elision markers one epoch (twentieth:
# the suite file that went whole, the per-breaker field and the agent
# epoch), or when a checkpoint stopped storing what its state
# determines and a leaf's flags came to travel with the leaf: the grid's
# recharge flag, the fleet's retired span-generation slot, the leaf
# failover flags the failover section gathered and the refusal test of a
# stored leaf partial that no longer exists (twenty-first), or when
# every checkpoint part came to load itself in place and only the two
# outermost types kept a framed section: the decode-then-`restored`-
# then-`adopt` steps, the rings' `restore_from` and the section kinds of
# the stream, schedule, breaker, DCUPS unit, alert and both rings that
# no reader ever checked (twenty-second), or when telemetry came to keep
# its series XOR-packed in watched order: the raw-vector decoder only it
# used, the datacenter's per-sample reading buffer and the resumed run's
# allowance for two growing series (twenty-third), or when a checkpoint
# came to hold only state, its configuration one digest per section: the
# per-part compares of the fleet's generations and permutation, of a
# process's calibration, and of a ring's capacity, with their messages,
# and `put_process`'s kind and parameter arguments (twenty-fourth), or
# when a record came to name what made it by index alone and names to be
# looked up only to render text: the controllers' shared-name getter,
# the ring record's owner type and the recording-only table of owners
# (twenty-fifth), or when a server came to cost only its state: the
# stored drawn-watts column a leaf derives instead and the per-leaf
# pull buffers the tier lends per shard (twenty-sixth) — so a stale
# reference
# breaks the build instead of waiting for the next reader. Lives here,
# outside the searched paths, so the pattern does not find itself.
cd "$(dirname "$0")/.." || exit 2
grep -rniE 'BENCH_controlplane|paper_scale|PooledAuto|pr[59]_baseline
StepJob|AgentColumns|mask_base|settled_scratch|finish_fused_control
static_util_cap|json_snapshot
HistScope|hist_scope|wire_roundtrip|shard_hot|trace_capacity|flight_capacity|leaf_overhead
phase_jitter|jittered|pool_determinism|FROZEN_ON_RESUME|set_fuse|no-fuse
(examples/|--example +)(surge_protection|turbo_oversubscription|characterize_workloads|grid_curtailment|full_datacenter|staggered_control|staged_rollout)
parked between dispatches|parks the owner|exactly the pool it is asked|breaks even at suite scale
pos_of|service_group|\.servers\(\)|builds one id-ordered
set_leaf_spans|repartition|rechunk|leaf_span_generation|with_leaf_spans|re-span
EventQueue|PeriodicSchedule|PhasePolicy|EvenSpread|CycleId|poll_interval|pop_before|with_tolerance
NetworkStats|latency_sum|failure_rate|call_with_latency
Fig5Suite|fig5::simulate
\b(Fleet|System|LeafTier|UpperTier|Failover|Observability|Telemetry|Validator|GridLayer|Episode|LeafController|UpperController|Registry|EconController|Network|Workload)State\b|restored_tier
observe_batch|\brtts\b|round-trip buffer|What a leaf buffers
GridConfig|DcupsBankConfig|EconConfig|TelemetryConfig|for_scenario|leaf_interval|upper_interval|sample_interval|leaf_bands|upper_bands|ServicePlan::Explicit
server_racks|step_batch_settled\b|step_batch_scalar
take_spans|take_flights|record_leaf_failover|record_upper_failover
\.cdf\b|\bcdf: *cdf\b|full CDF, for plotting
ClusterPerf|workloads::perf|power_slope|plot_points|batch_job_waves|blackout_eta|racks_powered|with_tau|non_server_overhead|saturating_since|powerstats::Summary
failover_parity|\.cooling_tau_secs|cooling_tau_secs: (f64,|120|r\.)|agent_epoch
any_below_full|retired span|leaf_failed|load_rejects_a_leaf_partial_that_is_not_the_fold_of_its_servers
restored\(|adopt\(|restore_from|dcsim\.(SimRng|CycleSchedule)|powerinfra\.(Breaker|Dcups)|dynamo_controller\.Alert|dynobs\.(TraceRing|FlightRecorder)
get_f64_vec|watched_scratch|GROWING_SERIES
generation changed|not a calibrated|permutation differs|capacity [^ ]* in snapshot|fn generations\(|fn permutation\(|put_process\([^)]*(kind|params)
name_shared\(|type Owner\b|Owners::of
\bpower_w\b|scratch_readings|scratch_failed' \
    README.md DESIGN.md EXPERIMENTS.md .github/workflows .claude \
    crates examples tests src
case $? in
    0) echo "error: stale references above" >&2; exit 1 ;;
    1) exit 0 ;;
    *) exit 2 ;;
esac
