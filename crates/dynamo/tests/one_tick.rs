//! One tick at every width.
//!
//! The fleet step, the leaf dispatch, the control hand-off and the
//! breaker pre-fold each exist once; worker threads only change how
//! many shards that one path is carved into. This suite pins what the
//! deleted serial / scoped / unfused twins used to cross-check:
//!
//! * a fault-churn run reproduces, at threads 1/2/8/64, the fingerprint
//!   recorded at the last commit that still had all the twins;
//! * the memoized total-power fold equals an independent flat fold at
//!   every telemetry sample of a capping episode;
//! * an out-of-band agent edit (dirty power cache) hands off
//!   identically at every width.

use std::sync::Arc;

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::{
    service_class_of, Datacenter, DatacenterBuilder, DynamoSystem, Fleet, RunReport, SystemConfig,
    WorkerPool,
};
use dynobs::ObsConfig;
use powerinfra::{Power, TopologyBuilder};
use serverpower::{ServerConfig, ServerGeneration};
use workloads::{ServiceKind, TrafficPattern};

/// A 2 SB / 4 RPP / 64-server site squeezed hard enough that leaf
/// capping engages immediately (tight RPP rating) and the SB breakers
/// overload faster than the slow upper tier can protect them (tighter
/// still), so a run exercises caps, trips and blackouts organically.
fn build(threads: usize) -> Datacenter {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(8)
        .rpp_rating(Power::from_kilowatts(3.2))
        .sb_rating(Power::from_kilowatts(4.0))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.5))
        .observability(ObsConfig::on())
        .seed(42)
        .worker_threads(threads)
        .build()
}

/// Deterministic fault-churn script: every mutation site that feeds
/// the hand-off's deferred bookkeeping fires at least once.
fn churn(dc: &mut Datacenter) {
    dc.run_for(SimDuration::from_secs(45));

    // Kill/revive: the breaker-blackout hook, driven directly.
    dc.fleet_mut().set_server_alive(3, false);
    dc.fleet_mut().set_server_alive(17, false);
    dc.run_for(SimDuration::from_secs(15));
    dc.fleet_mut().set_server_alive(3, true);
    dc.run_for(SimDuration::from_secs(15));
    dc.fleet_mut().set_server_alive(17, true);

    // Primary failover on the first leaf.
    let victim = dc.system().leaf_devices()[0];
    dc.system_mut().fail_primary(victim);
    dc.run_for(SimDuration::from_secs(30));

    // Breaker reset: revive whatever the tight SB ratings tripped.
    let tripped: Vec<_> = dc
        .telemetry()
        .breaker_trips()
        .iter()
        .map(|e| e.device)
        .collect();
    for d in tripped {
        dc.reset_breaker(d);
    }
    dc.run_for(SimDuration::from_secs(15));

    // Mid-run re-span: re-register the same spans out of band, which
    // restarts every leaf epoch and invalidates the memoized fold's
    // generation watermark.
    let spans: Vec<std::ops::Range<usize>> = dc
        .system()
        .leaf_devices()
        .iter()
        .map(|&d| {
            let ids = dc.topology().servers_under(d);
            let start = *ids.first().unwrap() as usize;
            start..start + ids.len()
        })
        .collect();
    dc.fleet_mut().set_leaf_spans(&spans);
    dc.run_for(SimDuration::from_secs(30));
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over everything a run externalizes: the human-readable
/// report, the full Prometheus exposition, and the raw bits of both
/// fleet-wide traces.
fn fingerprint(dc: &Datacenter) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(
        &mut hash,
        RunReport::from_datacenter(dc).to_string().as_bytes(),
    );
    fnv1a(
        &mut hash,
        dynobs::render_prometheus(dc.system().observability().registry()).as_bytes(),
    );
    for trace in [
        dc.telemetry().total_power().values(),
        dc.telemetry().capped_servers().values(),
    ] {
        for v in trace {
            fnv1a(&mut hash, &v.to_bits().to_le_bytes());
        }
    }
    hash
}

/// [`fingerprint`] of the churn run at commit 9efe935, where the
/// serial, scoped and unfused twins all still existed and the deleted
/// `fusion.rs` suite held every one of them to this same output.
const CHURN_GOLDEN: u64 = 0xa741_d300_2029_3672;

#[test]
fn churn_reproduces_the_pre_collapse_golden_at_every_width() {
    for threads in [1usize, 2, 8, 64] {
        let mut dc = build(threads);
        churn(&mut dc);
        if threads == 1 {
            // The script must exercise real churn or the hash pins
            // nothing.
            assert!(
                !dc.telemetry().breaker_trips().is_empty(),
                "tight SB rating should have tripped a breaker"
            );
            let report = RunReport::from_datacenter(&dc);
            assert!(report.leaf_cap_events > 0, "tight RPP rating should cap");
            assert!(report.failovers > 0, "injected failover not recorded");
        }
        assert_eq!(
            fingerprint(&dc),
            CHURN_GOLDEN,
            "churn run diverged from the golden at threads={threads}"
        );
    }
}

/// Sampled total power comes from a memo keyed on the fleet's leaf
/// epochs (with a periodic forced refresh). Across a capping episode —
/// caps placed, power bent downward, caps released — every recorded
/// sample must carry the bits of a flat ascending fold over the
/// per-server draws, computed here without touching the memo.
#[test]
fn memoized_total_power_equals_a_flat_fold_at_every_sample() {
    let mut dc = build(1);
    let servers = dc.fleet().len() as u32;
    let mut samples = 0;
    for _ in 0..360 {
        dc.step();
        let recorded = dc.telemetry().total_power().values();
        if recorded.len() == samples {
            continue;
        }
        samples = recorded.len();
        let flat: f64 = (0..servers)
            .map(|s| dc.fleet().power_of(s).as_watts())
            .sum();
        assert_eq!(
            recorded[samples - 1].to_bits(),
            flat.to_bits(),
            "sample {samples} at {:?} is not the flat fold",
            dc.now()
        );
        assert_eq!(
            dc.fleet().stats().total_power.as_watts().to_bits(),
            flat.to_bits()
        );
    }
    assert!(samples >= 100, "expected a dense stream, got {samples}");
    assert!(
        RunReport::from_datacenter(&dc).leaf_cap_events > 0,
        "episode never capped"
    );
}

/// An out-of-band agent edit between two datacenter steps dirties the
/// power cache; the next step resynchronizes from the server models.
/// What comes out must not depend on the worker count, and the epoch
/// draw cache must be exact again one step later.
#[test]
fn out_of_band_agent_edit_is_width_invariant() {
    let run = |threads: usize| {
        let mut dc = build(threads);
        dc.run_for(SimDuration::from_secs(40));
        dc.fleet_mut()
            .agent_mut(5)
            .server_mut()
            .rapl_mut()
            .set_limit(Power::from_watts(120.0));
        dc.fleet_mut().agent_mut(40).server_mut().set_alive(false);
        dc.step();
        assert!(dc.draw_cache_is_exact(), "stale draw at threads={threads}");
        dc.run_for(SimDuration::from_secs(40));
        (
            RunReport::from_datacenter(&dc).to_string(),
            dynobs::render_prometheus(dc.system().observability().registry()),
        )
    };
    let one = run(1);
    assert_eq!(run(2), one, "threads=2 diverged");
    assert_eq!(run(8), one, "threads=8 diverged");
}

/// The same edit landing between a fleet step and the control tick: the
/// hand-off runs on a dirty cache, where the per-leaf flush and absorb
/// are skipped (the server models are the authority until the next
/// step). Driven through the bare `Fleet` + `DynamoSystem` pair, since
/// `Datacenter::step` never leaves that window open.
#[test]
fn dirty_hand_off_is_width_invariant() {
    let run = |width: usize| {
        let topo = TopologyBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(4)
            .racks_per_rpp(2)
            .servers_per_rack(8)
            .rpp_rating(Power::from_kilowatts(3.2))
            .build();
        let n = topo.server_count();
        let mut fleet = Fleet::new(
            vec![ServerConfig::new(ServerGeneration::Haswell2015); n],
            vec![ServiceKind::Web; n],
            SimRng::seed_from(7).split("fleet"),
        );
        fleet.set_traffic(ServiceKind::Web, TrafficPattern::flat(1.5));
        let config = SystemConfig {
            obs: ObsConfig::on(),
            ..SystemConfig::default()
        };
        let mut system = DynamoSystem::build(
            &topo,
            &|_| service_class_of(ServiceKind::Web),
            config,
            &mut SimRng::seed_from(7).split("sys"),
        );
        fleet.set_leaf_spans(system.leaf_spans());
        if width > 1 {
            let pool = Arc::new(WorkerPool::new(width));
            fleet.attach_pool(Arc::clone(&pool));
            system.attach_pool(pool);
        }
        let dt = SimDuration::from_secs(1);
        let mut now = SimTime::ZERO;
        let mut events = Vec::new();
        for tick in 0..60 {
            fleet.step(now, dt);
            if tick == 30 {
                // A leaf cycle is due at t=30: it runs on the dirty
                // cache.
                fleet
                    .agent_mut(9)
                    .server_mut()
                    .rapl_mut()
                    .set_limit(Power::from_watts(120.0));
            }
            events.extend(system.tick(now, &mut fleet));
            now += dt;
        }
        assert!(!events.is_empty(), "tight RPP rating should cap");
        let power: Vec<u64> = (0..n as u32)
            .map(|s| fleet.power_of(s).as_watts().to_bits())
            .collect();
        (
            events,
            power,
            fleet.stats().capped_servers,
            dynobs::render_prometheus(system.observability().registry()),
        )
    };
    let one = run(1);
    assert_eq!(run(2), one, "width 2 diverged");
    assert_eq!(run(8), one, "width 8 diverged");
}
