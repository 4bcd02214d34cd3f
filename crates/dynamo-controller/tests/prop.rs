//! Randomized property tests for the controller decision logic — the
//! paper's safety argument rests on these invariants. Cases are drawn
//! from the deterministic [`SimRng`] stream, so every run checks the
//! same reproducible inputs.

use dcsim::{SimRng, SimTime};
use dynamo_controller::{
    distribute_power_cut, distribute_power_cut_with_stats, three_band_decision, BandDecision,
    ControlAction, LeafConfig, LeafController, ServerHandle, ServiceClass, ThreeBandConfig,
};
use dynrpc::{PowerReading, Request, Response};
use powerinfra::Power;

const CASES: usize = 300;

fn watts(v: f64) -> Power {
    Power::from_watts(v)
}

/// A random fleet of servers with power, priority and SLA floor.
fn random_fleet(rng: &mut SimRng) -> (Vec<ServerHandle>, Vec<Power>) {
    let n = 1 + rng.next_below(59) as usize;
    let mut handles = Vec::with_capacity(n);
    let mut powers = Vec::with_capacity(n);
    for i in 0..n {
        let power = rng.uniform(50.0, 400.0);
        let prio = rng.next_below(4) as u8;
        let sla = rng.uniform(40.0, 250.0);
        handles.push(ServerHandle {
            server_id: i as u32,
            service: ServiceClass::new(format!("svc{prio}"), prio, watts(sla)),
        });
        powers.push(watts(power));
    }
    (handles, powers)
}

/// Conservation: assigned cuts plus the reported leftover always equal
/// the requested cut.
#[test]
fn cuts_plus_leftover_equal_request() {
    let mut rng = SimRng::seed_from(0xC0_11).split("conservation");
    for case in 0..CASES {
        let (handles, powers) = random_fleet(&mut rng);
        let cut_w = rng.uniform(0.0, 5000.0);
        let (cuts, leftover) = distribute_power_cut(&handles, &powers, watts(cut_w), watts(20.0));
        let assigned: Power = cuts.iter().map(|c| c.cut).sum();
        assert!(
            ((assigned + leftover) - watts(cut_w)).abs().as_watts() < 1e-6,
            "case {case}: assigned {assigned} + leftover {leftover} != requested {cut_w} W"
        );
    }
}

/// No cap ever violates its server's SLA floor, and every cut is
/// positive and at most the server's headroom.
#[test]
fn caps_respect_floors_and_headroom() {
    let mut rng = SimRng::seed_from(0xC0_11).split("floors");
    for case in 0..CASES {
        let (handles, powers) = random_fleet(&mut rng);
        let cut_w = rng.uniform(1.0, 5000.0);
        let (cuts, _) = distribute_power_cut(&handles, &powers, watts(cut_w), watts(20.0));
        for c in &cuts {
            let handle = handles.iter().find(|h| h.server_id == c.server_id).unwrap();
            let power = powers[c.server_id as usize];
            assert!(
                c.cap >= handle.service.sla_min_cap - watts(1e-9),
                "case {case}: cap {} under SLA floor {}",
                c.cap,
                handle.service.sla_min_cap
            );
            assert!(c.cut.as_watts() > 0.0, "case {case}: non-positive cut");
            assert!(
                c.cut <= power.saturating_sub(handle.service.sla_min_cap) + watts(1e-9),
                "case {case}: cut {} exceeds headroom",
                c.cut
            );
        }
    }
}

/// Priority ordering: a higher-priority server is only cut if every
/// lower-priority group is already exhausted (all members at their
/// floors).
#[test]
fn higher_priority_cut_implies_lower_exhausted() {
    let mut rng = SimRng::seed_from(0xC0_11).split("priority");
    for case in 0..CASES {
        let (handles, powers) = random_fleet(&mut rng);
        let cut_w = rng.uniform(1.0, 20_000.0);
        let (cuts, _) = distribute_power_cut(&handles, &powers, watts(cut_w), watts(20.0));
        let cut_of = |sid: u32| cuts.iter().find(|c| c.server_id == sid).map(|c| c.cut);
        for c in &cuts {
            let prio = handles[c.server_id as usize].service.priority;
            for lower in handles.iter().filter(|h| h.service.priority < prio) {
                let headroom =
                    powers[lower.server_id as usize].saturating_sub(lower.service.sla_min_cap);
                let taken = cut_of(lower.server_id).unwrap_or(Power::ZERO);
                assert!(
                    (headroom - taken).as_watts() < 1e-6,
                    "case {case}: server {} (prio {prio}) cut while {} (prio {}) kept {} headroom",
                    c.server_id,
                    lower.server_id,
                    lower.service.priority,
                    headroom - taken
                );
            }
        }
    }
}

/// Duplicate-free output: each server receives at most one cut.
#[test]
fn at_most_one_cut_per_server() {
    let mut rng = SimRng::seed_from(0xC0_11).split("dedup");
    for case in 0..CASES {
        let (handles, powers) = random_fleet(&mut rng);
        let cut_w = rng.uniform(0.0, 10_000.0);
        let (cuts, _) = distribute_power_cut(&handles, &powers, watts(cut_w), watts(20.0));
        let mut ids: Vec<u32> = cuts.iter().map(|c| c.server_id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "case {case}: duplicate cut assignments");
    }
}

/// The leaf controller keeps a class index per server, not a handle,
/// and cuts by position; `distribute_power_cut_with_stats` is an adapter
/// from handles to the same walk. On random leaves — mixed priorities,
/// one name under two priorities, powers on a coarse grid so buckets tie,
/// floors close enough to bind, ids that are not positions — the
/// controller's cap commands must be the adapter's cuts: the same
/// servers in the same order, the same cap bits, the same leftover and
/// the same stats.
#[test]
fn the_controllers_cut_is_the_adapters() {
    let classes = [
        ("web", 1, 210.0),
        ("web", 2, 190.0),
        ("cache", 3, 260.0),
        ("hadoop", 0, 140.0),
        ("hadoop", 0, 230.0),
    ];
    let mut rng = SimRng::seed_from(0xC0_11).split("adapter");
    let (mut escalated, mut short, mut tied) = (0, 0, 0);
    for case in 0..CASES {
        let n = 1 + rng.next_below(60) as usize;
        let mut ids: Vec<u32> = (0..n as u32).map(|i| 1000 + 7 * i).collect();
        rng.shuffle(&mut ids);
        let handles: Vec<ServerHandle> = ids
            .iter()
            .map(|&server_id| {
                let (name, prio, sla) = classes[rng.next_below(classes.len() as u64) as usize];
                ServerHandle {
                    server_id,
                    service: ServiceClass::new(name, prio, watts(sla)),
                }
            })
            .collect();
        let powers: Vec<Power> = (0..n)
            .map(|_| watts(150.0 + 10.0 * rng.next_below(20) as f64))
            .collect();
        let total: f64 = powers.iter().map(|p| p.as_watts()).sum();
        let limit = watts(total * rng.uniform(0.5, 0.98));
        let mut leaf = LeafController::new("prop", LeafConfig::new(limit), handles.clone());
        let outcome = leaf.cycle(SimTime::ZERO, |sid, req| match req {
            Request::ReadPower => {
                let pos = ids.iter().position(|&id| id == sid).expect("a leaf server");
                Ok(Response::Power(PowerReading::total_only(powers[pos])))
            }
            _ => Ok(Response::CapAck { ok: true }),
        });
        let ControlAction::Capped {
            total_cut,
            commands,
        } = outcome.action
        else {
            panic!("case {case}: expected a cap, got {:?}", outcome.action);
        };
        let (cuts, leftover, stats) =
            distribute_power_cut_with_stats(&handles, &powers, total_cut, watts(20.0));
        let ours: Vec<(u32, u64)> = commands
            .iter()
            .map(|c| (c.server_id, c.cap.as_watts().to_bits()))
            .collect();
        let theirs: Vec<(u32, u64)> = cuts
            .iter()
            .map(|c| (c.server_id, c.cap.as_watts().to_bits()))
            .collect();
        assert_eq!(ours, theirs, "case {case}: victims and caps");
        let dist = leaf.last_distribution();
        assert_eq!(dist, stats, "case {case}: stats");
        assert_eq!(
            dist.leftover_watts.to_bits(),
            leftover.as_watts().to_bits(),
            "case {case}: leftover"
        );
        escalated += (stats.groups_touched > 1) as u32;
        short += (leftover > Power::ZERO) as u32;
        tied += (stats.victims > stats.buckets_expanded) as u32;
    }
    assert!(
        escalated > 10 && short > 10 && tied > 10,
        "vacuous: {escalated} escalations, {short} binding floors, {tied} tied buckets"
    );
}

/// Three-band decisions are exhaustive and consistent: capping only
/// above the threshold, uncapping only below the uncap band with active
/// caps, and the requested cut lands exactly on the target.
#[test]
fn three_band_consistency() {
    let mut rng = SimRng::seed_from(0xC0_11).split("threeband");
    for case in 0..CASES {
        let total_frac = rng.uniform(0.0, 1.5);
        let caps_active = rng.chance(0.5);
        let limit = watts(100_000.0);
        let bands = ThreeBandConfig::default();
        let total = limit * total_frac;
        match three_band_decision(total, limit, bands, caps_active) {
            BandDecision::Cap { total_cut } => {
                assert!(total_frac >= bands.capping_threshold, "case {case}");
                assert!(
                    ((total - total_cut) - bands.target_power(limit))
                        .abs()
                        .as_watts()
                        < 1e-6,
                    "case {case}: cut misses target"
                );
            }
            BandDecision::Uncap => {
                assert!(caps_active, "case {case}: uncap without active caps");
                assert!(total_frac <= bands.uncapping_threshold, "case {case}");
            }
            BandDecision::Hold => {
                assert!(
                    total_frac < bands.capping_threshold
                        && (!caps_active || total_frac > bands.uncapping_threshold),
                    "case {case}: hold outside the hold band"
                );
            }
        }
    }
}

/// Hysteresis: for any power level there is no (cap, uncap) pair at the
/// same level — the bands never overlap.
#[test]
fn no_simultaneous_cap_and_uncap() {
    let mut rng = SimRng::seed_from(0xC0_11).split("hysteresis");
    for case in 0..CASES {
        let total_frac = rng.uniform(0.0, 1.5);
        let limit = watts(50_000.0);
        let bands = ThreeBandConfig::default();
        let total = limit * total_frac;
        let with_caps = three_band_decision(total, limit, bands, true);
        let without = three_band_decision(total, limit, bands, false);
        let caps = matches!(without, BandDecision::Cap { .. });
        let uncaps = matches!(with_caps, BandDecision::Uncap);
        assert!(
            !(caps && uncaps),
            "case {case}: bands overlap at {total_frac}"
        );
    }
}
