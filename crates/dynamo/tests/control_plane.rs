//! Control-plane behaviour through the public `DynamoSystem` API:
//! hierarchy construction, cycle scheduling, monitoring-only mode,
//! failover, staged rollout, and operator overrides.

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::{ControllerEventKind, DynamoSystem, Fleet, SystemConfig};
use powerinfra::{DeviceLevel, Power, Topology, TopologyBuilder};
use serverpower::{ServerConfig, ServerGeneration};
use workloads::ServiceKind;

fn topo() -> Topology {
    TopologyBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(1)
        .servers_per_rack(4)
        .build()
}

fn build_system(topo: &Topology, config: SystemConfig) -> DynamoSystem {
    let mut rng = SimRng::seed_from(1);
    let services = vec![ServiceKind::Web; topo.server_count()];
    DynamoSystem::build(topo, &services, config, &mut rng)
}

/// A fleet of `n` servers in the leaves of `spans`.
fn fleet_in(spans: &[std::ops::Range<usize>], n: usize) -> Fleet {
    Fleet::new(
        vec![ServerConfig::new(ServerGeneration::Haswell2015); n],
        vec![ServiceKind::Web; n],
        SimRng::seed_from(2),
        spans,
    )
}

/// A fleet built in `system`'s leaf spans, the way `Datacenter` wires
/// the pair.
fn fleet(system: &DynamoSystem, n: usize) -> Fleet {
    fleet_in(system.leaf_spans(), n)
}

#[test]
fn hierarchy_mirrors_the_topology() {
    let topo = topo();
    let system = build_system(&topo, SystemConfig::default());
    // One leaf per RPP; one upper per SB plus one per MSB.
    assert_eq!(system.leaf_count(), 4);
    assert_eq!(system.upper_count(), 3);
    for rpp in topo.devices_at(DeviceLevel::Rpp) {
        assert!(system.leaf_for(rpp).is_some());
        assert!(system.upper_for(rpp).is_none());
    }
    for sb in topo.devices_at(DeviceLevel::Sb) {
        assert!(system.upper_for(sb).is_some());
    }
    assert!(system.upper_for(topo.root()).is_some());
}

#[test]
fn leaf_controllers_cover_every_server_exactly_once() {
    let topo = topo();
    let system = build_system(&topo, SystemConfig::default());
    let mut covered: Vec<u32> = system
        .leaf_devices()
        .iter()
        .flat_map(|&d| system.leaf_for(d).unwrap().server_ids().to_vec())
        .collect();
    covered.sort_unstable();
    let expected: Vec<u32> = (0..topo.server_count() as u32).collect();
    assert_eq!(covered, expected);
}

#[test]
fn tick_respects_the_schedules() {
    let topo = topo();
    let mut system = build_system(&topo, SystemConfig::default());
    let mut fleet = fleet(&system, topo.server_count());
    fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
    // t=0: both tiers run. t=1,2: neither. t=3: leaves only.
    system.tick(SimTime::ZERO, &mut fleet);
    let leaf_cycles_t0 = system.leaf_for(system.leaf_devices()[0]).unwrap().cycles();
    assert_eq!(leaf_cycles_t0, 1);
    system.tick(SimTime::from_secs(1), &mut fleet);
    system.tick(SimTime::from_secs(2), &mut fleet);
    assert_eq!(
        system.leaf_for(system.leaf_devices()[0]).unwrap().cycles(),
        1
    );
    system.tick(SimTime::from_secs(3), &mut fleet);
    assert_eq!(
        system.leaf_for(system.leaf_devices()[0]).unwrap().cycles(),
        2
    );
}

#[test]
#[should_panic(expected = "the fleet's leaf spans are not the control plane's")]
fn ticking_a_fleet_built_in_other_leaves_panics() {
    let topo = topo();
    let mut system = build_system(&topo, SystemConfig::default());
    let n = topo.server_count();
    let mut one_leaf = fleet_in(std::slice::from_ref(&(0..n)), n);
    system.tick(SimTime::ZERO, &mut one_leaf);
}

#[test]
fn lockstep_phases_are_all_zero() {
    let topo = topo();
    let system = build_system(&topo, SystemConfig::default());
    for &d in system.leaf_devices() {
        assert_eq!(system.leaf_phase(d), Some(SimDuration::ZERO));
    }
}

#[test]
fn monitoring_only_mode_tracks_aggregates_without_cycles() {
    let topo = topo();
    let config = SystemConfig {
        capping_enabled: false,
        ..SystemConfig::default()
    };
    let mut system = build_system(&topo, config);
    let mut fleet = fleet(&system, topo.server_count());
    fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
    let events = system.tick(SimTime::ZERO, &mut fleet);
    assert!(events.is_empty());
    // Aggregates still update so telemetry and parents see power.
    let rpp = system.leaf_devices()[0];
    let agg = system.leaf_aggregate(rpp).unwrap();
    assert!(agg.as_watts() > 100.0);
    // But no controller cycles ran.
    assert_eq!(system.leaf_for(rpp).unwrap().cycles(), 0);
}

#[test]
fn failover_is_reported_once_and_recovers() {
    let topo = topo();
    let mut system = build_system(&topo, SystemConfig::default());
    let mut fleet = fleet(&system, topo.server_count());
    let rpp = system.leaf_devices()[0];
    system.fail_primary(rpp);
    let events = system.tick(SimTime::ZERO, &mut fleet);
    let failovers = events
        .iter()
        .filter(|e| matches!(e.kind, ControllerEventKind::Failover))
        .count();
    assert_eq!(failovers, 1);
    assert_eq!(system.failovers(), 1);
    // The next cycle runs normally on the backup.
    let events2 = system.tick(SimTime::from_secs(3), &mut fleet);
    assert!(!events2
        .iter()
        .any(|e| matches!(e.kind, ControllerEventKind::Failover)));
    assert_eq!(system.leaf_for(rpp).unwrap().cycles(), 1);
}

#[test]
fn staged_rollout_gates_actuation() {
    let topo = topo();
    let mut system = build_system(&topo, SystemConfig::default());
    // Phase 1: exactly one of the four leaves is live.
    assert_eq!(system.set_rollout_phase(1), 1);
    let dry: Vec<bool> = system
        .leaf_devices()
        .to_vec()
        .iter()
        .map(|&d| system.leaf_for(d).unwrap().config().dry_run)
        .collect();
    assert_eq!(dry.iter().filter(|&&x| !x).count(), 1);
    // Phase 3: half live; phase 4: all live.
    assert_eq!(system.set_rollout_phase(3), 2);
    assert_eq!(system.set_rollout_phase(4), 4);
    let all_live = system
        .leaf_devices()
        .to_vec()
        .iter()
        .all(|&d| !system.leaf_for(d).unwrap().config().dry_run);
    assert!(all_live);
}

#[test]
#[should_panic(expected = "rollout phase must be 1-4")]
fn invalid_rollout_phase_panics() {
    let topo = topo();
    let mut system = build_system(&topo, SystemConfig::default());
    system.set_rollout_phase(0);
}

#[test]
#[should_panic(expected = "no controller protects")]
fn failing_an_unprotected_device_panics() {
    let topo = topo();
    let mut system = build_system(&topo, SystemConfig::default());
    let rack = topo.devices_at(DeviceLevel::Rack)[0];
    system.fail_primary(rack);
}

#[test]
fn set_leaf_contract_round_trips() {
    let topo = topo();
    let mut system = build_system(&topo, SystemConfig::default());
    let rpp = system.leaf_devices()[0];
    system.set_leaf_contract(rpp, Some(Power::from_kilowatts(100.0)));
    assert_eq!(
        system.leaf_for(rpp).unwrap().contractual_limit(),
        Some(Power::from_kilowatts(100.0))
    );
    system.set_leaf_contract(rpp, None);
    assert_eq!(system.leaf_for(rpp).unwrap().contractual_limit(), None);
}
