//! Cross-cutting determinism guarantees: the whole simulation is a pure
//! function of its seed, which is what makes the experiment harness and
//! the property tests trustworthy. That it is the same function at any
//! thread count is the `determinism` case of `schedules.rs`.

mod common;

use common::mixed;
use dcsim::{SimDuration, SimRng};
use dynamo_repro::dynamo::{Datacenter, ObsConfig};
use dynamo_repro::powerinfra::DeviceLevel;

fn build(seed: u64, threads: usize) -> Datacenter {
    let mut spec = mixed([Some(18.0), None, None], 0.5, seed);
    spec.obs = ObsConfig::default();
    spec.builder(threads).build()
}

/// A fingerprint of the observable end state.
fn fingerprint(dc: &Datacenter) -> (u64, usize, usize, usize) {
    let total_bits = dc.fleet().stats().total_power.as_watts().to_bits();
    (
        total_bits,
        dc.telemetry().controller_events().len(),
        dc.fleet().stats().capped_servers,
        dc.system().alerts().len(),
    )
}

#[test]
fn same_seed_same_universe() {
    let run = |seed| {
        let mut dc = build(seed, 1);
        dc.run_for(SimDuration::from_mins(5));
        fingerprint(&dc)
    };
    assert_eq!(run(17), run(17));
    assert_ne!(run(17), run(18), "different seeds must diverge");
}

#[test]
fn rng_state_serializes_and_resumes() {
    // SimRng is serde-serializable; a restored generator continues the
    // exact stream (checkpoint/restore support).
    let mut rng = SimRng::seed_from(99);
    for _ in 0..10 {
        rng.next_u64();
    }
    let snapshot = rng.clone();
    let continued: Vec<u64> = (0..20).map(|_| rng.next_u64()).collect();
    let mut restored = snapshot;
    let resumed: Vec<u64> = (0..20).map(|_| restored.next_u64()).collect();
    assert_eq!(continued, resumed);
}

#[test]
fn telemetry_is_a_pure_function_of_the_run() {
    let trace = |seed: u64| {
        let mut dc = build(seed, 2);
        dc.run_for(SimDuration::from_mins(3));
        let rpp = dc.topology().devices_at(DeviceLevel::Rpp)[0];
        dc.telemetry().device_trace(rpp).unwrap().values().to_vec()
    };
    assert_eq!(trace(7), trace(7));
}
