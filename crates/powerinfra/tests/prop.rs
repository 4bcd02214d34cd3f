//! Randomized tests for the power delivery substrate, driven by the
//! deterministic [`SimRng`] stream.

use dcsim::{SimDuration, SimRng};
use powerinfra::{
    Breaker, BreakerStatus, DeviceId, DeviceLevel, Power, Topology, TopologyBuilder, TripCurve,
};

/// A breaker fed any waveform that never exceeds its rating never
/// leaves Nominal, and its thermal state stays at zero-ish.
#[test]
fn breaker_never_trips_under_rating() {
    let mut rng = SimRng::seed_from(0x1F_4A).split("under-rating");
    for _ in 0..100 {
        let n = 1 + rng.next_below(299) as usize;
        let mut b = Breaker::new(Power::from_kilowatts(190.0), TripCurve::rpp());
        for _ in 0..n {
            let w = rng.uniform(0.0, 190_000.0);
            let status = b.step(Power::from_watts(w), SimDuration::from_secs(1));
            assert_eq!(status, BreakerStatus::Nominal);
        }
        assert!(b.thermal_state() < 1e-9);
    }
}

/// Trip time decreases (weakly) with overload for any valid anchor
/// pair, and the curve passes near its anchors.
#[test]
fn trip_curve_monotone_for_any_anchors() {
    let mut rng = SimRng::seed_from(0x1F_4A).split("curve-monotone");
    for _ in 0..200 {
        let r1 = rng.uniform(1.01, 1.5);
        let r2 = r1 + rng.uniform(0.05, 1.0);
        let t2 = rng.uniform(5.0, 500.0);
        let t1 = t2 * rng.uniform(1.5, 50.0);
        let curve = TripCurve::from_anchors(r1, t1, r2, t2);
        let mut prev = f64::INFINITY;
        let mut r = 1.001;
        while r < 2.5 {
            let t = curve.trip_time(r).unwrap().as_secs_f64();
            assert!(t <= prev + 1e-9, "not monotone at {r}");
            prev = t;
            r += 0.01;
        }
        // Anchor fidelity (unless clamped by the 2 s floor / 3x region).
        if t1 > 2.5 && r1 < 3.0 {
            let at1 = curve.trip_time(r1).unwrap().as_secs_f64();
            assert!(
                (at1 - t1).abs() / t1 < 0.01,
                "anchor 1 missed: {at1} vs {t1}"
            );
        }
    }
}

/// The thermal accumulator trips within ~±15% of the analytic trip
/// time for any constant overload in the curved region.
#[test]
fn accumulator_matches_curve() {
    let mut rng = SimRng::seed_from(0x1F_4A).split("accumulator");
    for _ in 0..40 {
        let overload = rng.uniform(1.05, 2.0);
        let rating = Power::from_kilowatts(190.0);
        let mut b = Breaker::new(rating, TripCurve::rpp());
        let draw = rating * overload;
        let expect = TripCurve::rpp().trip_time(overload).unwrap().as_secs_f64();
        let mut elapsed = 0.0;
        while b.step(draw, SimDuration::from_millis(500)) != BreakerStatus::Tripped {
            elapsed += 0.5;
            assert!(elapsed < expect * 3.0 + 10.0, "never tripped");
        }
        assert!(
            (elapsed - expect).abs() <= expect * 0.15 + 1.0,
            "tripped at {elapsed}s, curve says {expect}s"
        );
    }
}

/// Any topology the builder accepts validates cleanly and has
/// consistent server bookkeeping.
#[test]
fn built_topologies_validate() {
    let mut rng = SimRng::seed_from(0x1F_4A).split("topologies");
    for _ in 0..40 {
        let sbs = 1 + rng.next_below(3) as usize;
        let rpps = 1 + rng.next_below(3) as usize;
        let racks = 1 + rng.next_below(3) as usize;
        let servers = 1 + rng.next_below(19) as usize;
        let topo = TopologyBuilder::new()
            .sbs_per_msb(sbs)
            .rpps_per_sb(rpps)
            .racks_per_rpp(racks)
            .servers_per_rack(servers)
            .build();
        assert!(topo.validate().is_empty());
        assert_eq!(topo.server_count(), sbs * rpps * racks * servers);
        // Every server's rack chain reaches the root.
        let root = topo.root();
        for s in 0..topo.server_count() as u32 {
            let rack = topo.rack_of(s);
            let ancestors = topo.ancestors(rack);
            assert_eq!(*ancestors.last().unwrap(), root);
        }
        // Quotas never exceed ratings anywhere.
        for dev in topo.iter() {
            assert!(dev.quota <= dev.rating);
        }
    }
}

/// A random shape of up to 2 suites × 2 MSBs × 3 SBs × 3 RPPs × 3
/// racks × 12 servers.
fn random_topology(rng: &mut SimRng) -> Topology {
    let mut count = |most: u64| 1 + rng.next_below(most) as usize;
    TopologyBuilder::new()
        .suites(count(2))
        .msbs_per_suite(count(2))
        .sbs_per_msb(count(3))
        .rpps_per_sb(count(3))
        .racks_per_rpp(count(3))
        .servers_per_rack(count(12))
        .build()
}

/// What `servers_under` returned when racks listed their servers: the
/// servers of every rack below `id`, collected transitively and sorted,
/// with rack `k` (in id order) holding the `k`-th block of
/// `servers_per_rack` ids.
fn collected_servers(topo: &Topology, id: DeviceId, per_rack: u32) -> Vec<u32> {
    let racks = topo.devices_at(DeviceLevel::Rack);
    let mut out = Vec::new();
    let mut stack = vec![id];
    while let Some(d) = stack.pop() {
        if let Some(k) = racks.iter().position(|&r| r == d) {
            out.extend(k as u32 * per_rack..(k as u32 + 1) * per_rack);
        }
        stack.extend_from_slice(&topo.device(d).children);
    }
    out.sort_unstable();
    out
}

/// Every device's server range is what the transitive collect-and-sort
/// returned, its children's ranges tile it in child order, the racks
/// tile the whole fleet in id order, and `rack_of` inverts the rack
/// ranges.
#[test]
fn server_ranges_tile_every_level() {
    let mut rng = SimRng::seed_from(0x1F_4A).split("server-ranges");
    for _ in 0..40 {
        let topo = random_topology(&mut rng);
        assert!(topo.validate().is_empty(), "{:?}", topo.validate());
        let racks = topo.devices_at(DeviceLevel::Rack);
        let per_rack = topo.device(racks[0]).servers.len() as u32;
        for dev in topo.iter() {
            let range = topo.servers_under(dev.id);
            assert_eq!(range, dev.servers);
            assert_eq!(
                range.clone().collect::<Vec<u32>>(),
                collected_servers(&topo, dev.id, per_rack),
                "{}",
                dev.name
            );
            let mut next = range.start;
            for &c in &dev.children {
                let child = topo.servers_under(c);
                assert_eq!(child.start, next, "{}'s children leave a gap", dev.name);
                assert!(!child.is_empty());
                next = child.end;
            }
            if !dev.children.is_empty() {
                assert_eq!(next, range.end, "{}'s children stop short", dev.name);
            }
        }
        let mut next = 0;
        for &rack in &racks {
            let range = topo.servers_under(rack);
            assert_eq!(range.start, next);
            for s in range.clone() {
                assert_eq!(topo.rack_of(s), rack);
            }
            next = range.end;
        }
        assert_eq!(next as usize, topo.server_count());
    }
}

/// Sibling quotas sum to no more than the parent's rating (the
/// planned-peak budget is feasible).
#[test]
fn sibling_quotas_fit_parent() {
    let mut rng = SimRng::seed_from(0x1F_4A).split("quotas");
    for _ in 0..40 {
        let sbs = 1 + rng.next_below(4) as usize;
        let rpps = 1 + rng.next_below(4) as usize;
        let topo = TopologyBuilder::new()
            .sbs_per_msb(sbs)
            .rpps_per_sb(rpps)
            .racks_per_rpp(1)
            .servers_per_rack(1)
            .build();
        for dev in topo.iter() {
            if dev.children.is_empty() {
                continue;
            }
            let quota_sum: Power = dev.children.iter().map(|&c| topo.device(c).quota).sum();
            assert!(
                quota_sum.as_watts() <= dev.rating.as_watts() * (1.0 + 1e-9),
                "quotas under {} exceed its rating",
                dev.name
            );
        }
    }
}

/// Power arithmetic: sums commute with scaling.
#[test]
fn power_sum_scales() {
    let mut rng = SimRng::seed_from(0x1F_4A).split("sum-scale");
    for _ in 0..300 {
        let n = 1 + rng.next_below(49) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.uniform(0.0, 1e6)).collect();
        let k = rng.uniform(0.0, 10.0);
        let sum: Power = values.iter().map(|&w| Power::from_watts(w)).sum();
        let scaled: Power = values.iter().map(|&w| Power::from_watts(w) * k).sum();
        assert!((sum * k - scaled).abs().as_watts() < 1e-6 * (1.0 + sum.as_watts()));
    }
}
