//! Staggered controller phases: with a nonzero phase spread, leaf
//! cycles fire at distinct sim times while each leaf's cadence stays
//! exactly one leaf interval (3 s), and the staggered control plane is
//! still bit-identical across worker thread counts.

use dcsim::SimDuration;
use dynamo_repro::dynamo::{Datacenter, DatacenterBuilder, RunReport};
use dynamo_repro::powerinfra::Power;
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

fn staggered(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(4)
        .racks_per_rpp(1)
        .servers_per_rack(8)
        .uniform_service(ServiceKind::Web)
        .phase_spread(SimDuration::from_secs(3))
        .worker_threads(threads)
        .seed(17)
        .build()
}

/// Per-leaf firing times (in seconds) over `secs` one-second ticks,
/// detected as increments of each controller's cycle counter.
fn firing_times(dc: &mut Datacenter, secs: u64) -> Vec<Vec<u64>> {
    let leaves: Vec<_> = dc.system().leaf_devices().to_vec();
    let mut cycles = vec![0u64; leaves.len()];
    let mut fired: Vec<Vec<u64>> = vec![Vec::new(); leaves.len()];
    for t in 0..secs {
        dc.run_for(SimDuration::from_secs(1));
        for (i, &d) in leaves.iter().enumerate() {
            let c = dc.system().leaf_for(d).unwrap().cycles();
            if c > cycles[i] {
                assert_eq!(c, cycles[i] + 1, "leaf {i} ran twice in one tick");
                cycles[i] = c;
                fired[i].push(t);
            }
        }
    }
    fired
}

#[test]
fn spread_leaves_fire_at_distinct_times_with_exact_cadence() {
    let mut dc = staggered(1);

    // Four leaves across a 3 s spread get phase offsets 0/750/1500/2250 ms.
    let leaves: Vec<_> = dc.system().leaf_devices().to_vec();
    let phases: Vec<_> = leaves
        .iter()
        .map(|&d| dc.system().leaf_phase(d).unwrap())
        .collect();
    let expected: Vec<_> = [0u64, 750, 1500, 2250]
        .iter()
        .map(|&ms| SimDuration::from_millis(ms))
        .collect();
    assert_eq!(phases, expected);

    let fired = firing_times(&mut dc, 30);

    // Distinct first firings: no two leaves share a cycle grid.
    let mut first: Vec<u64> = fired.iter().map(|f| f[0]).collect();
    first.sort_unstable();
    first.dedup();
    assert_eq!(first.len(), leaves.len(), "leaf first firings collided");

    // Cadence stays exactly one leaf interval for every leaf. The run
    // steps on a 1 s grid, so a 750 ms offset lands on the next whole
    // second, but consecutive firings are always exactly 3 s apart.
    for (i, times) in fired.iter().enumerate() {
        assert!(times.len() >= 9, "leaf {i} fired too rarely: {times:?}");
        for pair in times.windows(2) {
            assert_eq!(pair[1] - pair[0], 3, "leaf {i} cadence drifted: {times:?}");
        }
    }
}

#[test]
fn lockstep_leaves_fire_together() {
    let mut dc = DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(4)
        .racks_per_rpp(1)
        .servers_per_rack(8)
        .uniform_service(ServiceKind::Web)
        .seed(17)
        .build();
    let fired = firing_times(&mut dc, 12);
    for times in &fired {
        assert_eq!(times, &fired[0], "lockstep leaves diverged");
    }
}

#[test]
fn staggered_control_plane_is_bit_identical_across_threads() {
    // With phases staggered, each tick dispatches only the due subset of
    // leaves; the parallel path must carve that subset exactly like the
    // serial loop runs it.
    let run = |threads: usize| {
        let mut dc = DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(16)
            .rpp_rating(Power::from_kilowatts(7.4))
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, TrafficPattern::flat(1.4))
            .phase_spread(SimDuration::from_secs(3))
            .worker_threads(threads)
            .seed(41)
            .build();
        dc.run_for(SimDuration::from_mins(4));
        (
            dc.telemetry().controller_events().to_vec(),
            RunReport::from_datacenter(&dc),
        )
    };
    let (serial_events, serial_report) = run(1);
    assert!(
        serial_report.leaf_cap_events > 0,
        "no capping activity:\n{serial_report}"
    );
    for threads in [2usize, 4] {
        let (events, report) = run(threads);
        assert_eq!(
            serial_events, events,
            "events diverged at {threads} threads"
        );
        assert_eq!(
            serial_report, report,
            "report diverged at {threads} threads"
        );
    }
}
