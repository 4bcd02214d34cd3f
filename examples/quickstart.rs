//! Quickstart: build a small datacenter, run it for ten simulated
//! minutes with Dynamo protecting every level, and print what happened.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dcsim::SimDuration;
use dynamo_repro::dynamo::DatacenterBuilder;
use dynamo_repro::powerinfra::{DeviceLevel, Power};
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

fn main() {
    // One MSB → 2 SBs → 2 RPPs each → 2 racks × 20 web servers.
    // The RPP rating is deliberately tight so Dynamo has work to do.
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(20)
        .rpp_rating(Power::from_kilowatts(11.5))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.6))
        .seed(1)
        .build();

    println!(
        "datacenter: {} servers, {} power devices, {} leaf + {} upper controllers",
        dc.fleet().len(),
        dc.topology().device_count(),
        dc.system().leaf_count(),
        dc.system().upper_count()
    );

    for minute in 1..=10 {
        dc.run_for(SimDuration::from_mins(1));
        let stats = dc.fleet().stats();
        println!(
            "t={minute:>2} min  total={:>8.1} kW  capped={:>3} servers  alerts={}",
            stats.total_power.as_kilowatts(),
            stats.capped_servers,
            dc.system().alerts().len()
        );
    }

    println!("\nper-RPP power vs breaker rating:");
    for rpp in dc.topology().devices_at(DeviceLevel::Rpp) {
        let dev = dc.topology().device(rpp);
        println!(
            "  {:<28} {:>8.2} kW / {:>6.1} kW  ({} capped)",
            dev.name,
            dc.device_power(rpp).as_kilowatts(),
            dev.rating.as_kilowatts(),
            dc.capped_under(rpp)
        );
    }

    let events = dc.telemetry().controller_events();
    println!(
        "\ncontroller events: {} total; breaker trips: {} (Dynamo's job is to keep this 0)",
        events.len(),
        dc.telemetry().breaker_trips().len()
    );
    for e in events.iter().take(8) {
        let controller = &dc.topology().device(e.device).name;
        println!("  [{}] {} -> {:?}", e.at, controller, e.kind);
    }

    println!(
        "\n{}",
        dynamo_repro::dynamo::RunReport::from_datacenter(&dc)
    );
}
