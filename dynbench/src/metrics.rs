//! The benchmark's contract: workload names, metric names, units,
//! directions and regression bounds. `BENCHMARK.json` at the repository
//! root is this table printed (`dynbench --print-benchmark-json`); a
//! test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures for (the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u64 = 20;
pub const DEFAULT_SEED: u64 = 2016;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "site_worst_case",
        why: "30 MW site, 122,880 servers at 1.2x load on 2 threads: nothing settles and every cycle caps, so kernels, leaf cycle, codec and the worker pool do all the work",
    },
    WorkloadDef {
        name: "site_steady_state",
        why: "same site at 0.7x load, held demand, lossless links, 1 thread: active-set skip and cycle elision remove the kernel work, so per-tick fixed costs dominate",
    },
    WorkloadDef {
        name: "suite_day",
        why: "10,240-server six-service suite through a load rise, peak and fall with observability on, a controller failover and checkpoint/restore: small working set, write side of state",
    },
    WorkloadDef {
        name: "repro_figures",
        why: "all 21 paper figure/table targets at full scale: hundreds of small short-lived datacenters, so build, the small-fleet path, powerstats and dyngrid dominate",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; unused (0) for per-layer metrics.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// Reported by every workload with `--trace 0`. All host-side.
///
/// The bounds follow what the 2-core sandbox this was sized on can
/// resolve: ten runs at ten seeds spread (quartile distance over median)
/// 3-6% in `throughput` and up to 1.4% in `peak_rss_mb`, and the host's
/// speed drifts by up to 20% between minutes, so a tighter bound would
/// reject unchanged code.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

/// Reported by every workload with `--trace 1`; a metric a workload
/// does not exercise reads 0 there (see the README's table).
pub const PER_LAYER: [MetricDef; 74] = [
    // Spans around the benchmark's own calls into `dynamo`.
    layer("dynamo.build_s", "s", "lower"),
    layer("dynamo.step_s", "s", "lower"),
    layer("dynamo.step_p50_us", "us", "lower"),
    layer("dynamo.step_p99_us", "us", "lower"),
    layer("dynamo.ticks", "count", "higher"),
    layer("dynamo.server_steps", "count", "higher"),
    // The simulator's own per-phase profile, children of the step spans.
    layer("dynamo.phase.fused_tile_s", "s", "lower"),
    layer("dynamo.phase.fleet_step_s", "s", "lower"),
    layer("dynamo.phase.leaf_dispatch_s", "s", "lower"),
    layer("dynamo.phase.breaker_fold_s", "s", "lower"),
    layer("dynamo.phase.telemetry_merge_s", "s", "lower"),
    layer("dynamo.phase.validator_s", "s", "lower"),
    layer("dynamo.phase.grid_s", "s", "lower"),
    layer("dynamo.phase.unattributed_frac", "ratio", "lower"),
    // Work counts.
    layer("dynamo.leaf_cycles_ran", "count", "lower"),
    layer("dynamo.leaf_cycles_elided", "count", "higher"),
    layer("dynamo.leaf_elide_ratio", "ratio", "higher"),
    layer("dynamo.settled_leaf_frac", "ratio", "higher"),
    layer("dynamo.cap_events", "count", "lower"),
    layer("dynamo.uncap_events", "count", "lower"),
    layer("dynamo.upper_contracts", "count", "lower"),
    layer("dynamo.alerts", "count", "lower"),
    layer("dynamo.failovers", "count", "lower"),
    layer("dynamo.bytes_per_tick", "B", "lower"),
    layer("dynrpc.calls", "count", "lower"),
    layer("dynrpc.failures", "count", "lower"),
    layer("alloc.per_tick", "count", "lower"),
    // Stand-alone probes of each layer's public functions.
    layer("dcsim.rng_normal_ns", "ns", "lower"),
    layer("workloads.draw_ns", "ns", "lower"),
    layer("serverpower.lut_ns", "ns", "lower"),
    layer("serverpower.settle_ns", "ns", "lower"),
    layer("recon.fleet_explained_frac", "ratio", "higher"),
    layer("dynamo-controller.leaf_cycle_hold_ns", "ns", "lower"),
    layer("dynamo-controller.leaf_cycle_cap_ns", "ns", "lower"),
    layer("dynamo-controller.distribute_cut_ns", "ns", "lower"),
    layer("dynamo-controller.upper_cycle_ns", "ns", "lower"),
    layer("dynamo-agent.handle_read_ns", "ns", "lower"),
    layer("dynrpc.codec_roundtrip_ns", "ns", "lower"),
    layer("dynrpc.telemetry_batch_ns", "ns", "lower"),
    layer("dynrpc.network_call_ns", "ns", "lower"),
    layer("recon.leaf_explained_frac", "ratio", "higher"),
    layer("powerinfra.breaker_step_ns", "ns", "lower"),
    layer("dynpool.dispatch_ns", "ns", "lower"),
    layer("dynpool.parallel_efficiency", "ratio", "higher"),
    layer("powerstats.cdf_build_ns", "ns", "lower"),
    layer("powerstats.sliding_variation_ns", "ns", "lower"),
    // Checkpoint write and restore (`suite_day`).
    layer("checkpoint.write_s", "s", "lower"),
    layer("checkpoint.restore_s", "s", "lower"),
    layer("checkpoint.mb", "MB", "lower"),
    layer("checkpoint.io_s", "s", "lower"),
    layer("dynamo.state_s", "s", "lower"),
    layer("dynamo.restore_s", "s", "lower"),
    layer("dcsim.snap_encode_mb_per_s", "MB/s", "higher"),
    layer("dcsim.snap_decode_mb_per_s", "MB/s", "higher"),
    // End-of-run reporting and the cost of tracing itself.
    layer("dynobs.prometheus_text_s", "s", "lower"),
    layer("dynamo.report_s", "s", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    // One span per figure target (`repro_figures`).
    layer("experiments.fig5_s", "s", "lower"),
    layer("experiments.fig6_s", "s", "lower"),
    layer("experiments.fig11_s", "s", "lower"),
    layer("experiments.fig12_s", "s", "lower"),
    layer("experiments.fig14_s", "s", "lower"),
    layer("experiments.table1_s", "s", "lower"),
    layer("experiments.implications_s", "s", "lower"),
    layer("experiments.other_s", "s", "lower"),
    layer("experiments.wall_s", "s", "lower"),
    // Simulated-time results: they repeat exactly for a fixed seed.
    layer("sim.breaker_trips", "count", "lower"),
    layer("sim.overdraw_max_sim_s", "s", "lower"),
    layer("sim.perf_loss_pct", "%", "lower"),
    layer("sim.capped_frac", "ratio", "lower"),
    layer("sim.digest_match", "count", "higher"),
    layer("checks.total", "count", "higher"),
    layer("checks.failed", "count", "lower"),
    layer("host.worker_threads", "count", "higher"),
];

/// Measured values by metric name, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// # Panics
    ///
    /// Panics if `name` is not a defined metric or is set twice: both
    /// are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "{name} is not in the metric table"
        );
        assert!(self.get(name).is_none(), "{name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let metric = |m: &MetricDef, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if with_bound {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "dynbench/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("dynbench")])),
        ("run_seconds", Json::Int(RUN_SECONDS as i64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        ),
    ])
    .encode_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(valid_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(matches!(m.better, "lower" | "higher"), "{}", m.name);
            assert!(seen.insert(m.name), "{} defined twice", m.name);
        }
        for w in &WORKLOADS {
            assert!(valid_name(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(
            !valid_name("") && !valid_name("-x") && !valid_name("a b") && valid_name("a.b-c_1")
        );
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `dynbench --print-benchmark-json > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "not in the metric table")]
    fn values_reject_unknown_names() {
        Values::default().set("no.such.metric", 1.0);
    }
}
