//! Observability tour: run a stressed datacenter with the `dynobs`
//! subsystem enabled, then inspect metrics, spans and the flight
//! recorder from code.
//!
//! ```text
//! cargo run --release --example observability
//! ```

use dcsim::{SimDuration, SimTime};
use dynamo_repro::dynamo::{DatacenterBuilder, ObsConfig, RunReport};
use dynamo_repro::dynobs;
use dynamo_repro::powerinfra::Power;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

fn main() {
    // A tight RPP rating keeps the leaf controllers capping; the lossy
    // link and the injected primary failure exercise the incident path.
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .rpp_rating(Power::from_kilowatts(7.4))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.6))
        .observability(ObsConfig::on())
        .seed(2016)
        .build();

    dc.run_until(SimTime::from_mins(2));
    let victim = dc.system().leaf_devices()[0];
    dc.system_mut().fail_primary(victim);
    dc.run_for(SimDuration::from_mins(1));

    // 1. The metrics registry: typed access and both exporters.
    let obs = dc.system().observability();
    let registry = obs.registry();
    println!("== counters ==");
    for (name, _help, value) in registry.counters() {
        if value > 0 {
            println!("{name:<44} {value}");
        }
    }
    println!("\n== histograms ==");
    for (name, _help, view) in registry.histograms() {
        if view.count > 0 {
            println!(
                "{name:<44} count {} sum {:.3} ({} buckets)",
                view.count,
                view.sum,
                view.buckets.len()
            );
        }
    }

    // The same registry renders as Prometheus text (scrape endpoint
    // format) and as a JSON snapshot; the text round-trips through
    // dynobs::parse_prometheus bit-exactly.
    let text = obs.prometheus_text();
    let families = dynobs::parse_prometheus(&text).expect("own exposition parses");
    println!(
        "\nprometheus text: {} bytes, {} families",
        text.len(),
        families.len()
    );

    // 2. Cycle tracing: spans for every pull, distribution, actuation
    // and failover, exportable as chrome-tracing JSON (load it in
    // https://ui.perfetto.dev or chrome://tracing).
    println!(
        "trace ring: {} spans buffered, {} recorded total",
        obs.trace().len(),
        obs.trace().total_recorded()
    );

    // 3. The flight recorder: the last N control-plane state changes.
    // Incident triggers (failovers, capping-episode starts, breaker
    // trips, validator alerts) dump it to JSON automatically when
    // ObsConfig::incident_dir is set.
    println!("flight recorder tail:");
    let records: Vec<_> = obs.flight().iter().collect();
    for record in &records[records.len().saturating_sub(5)..] {
        println!(
            "  t={:>7}ms {:<24} {}",
            record.at_ms,
            obs.recorded_by(record),
            record.kind.label()
        );
    }
    println!("incident triggers fired: {}", obs.incidents());

    println!("\n{}", RunReport::from_datacenter(&dc));
}
