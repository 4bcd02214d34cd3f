//! The fleet's snapshot: its dynamic columns as plain data
//! ([`FleetState`]) and the `state` / `restore` pair.

use dcsim::snap::{
    get_bool_vec, get_f64_vec, get_u64_vec, put_bool_slice, put_f64_slice, put_u64_slice,
    SnapError, SnapReader, SnapWriter, Snapshot,
};
use dcsim::{SimRng, SimTime};
use workloads::kernel::{burst_from_columns, burst_to_columns};
use workloads::{ServiceKind, WorkloadState};

use super::{get_bit, put_bit, Fleet};

impl Fleet {
    /// The service of the server stored at position `pos`.
    fn service_at(&self, pos: usize) -> ServiceKind {
        self.services[self.perm[pos] as usize]
    }

    /// Captures the fleet's dynamic state for a snapshot. Must be
    /// called at a tick boundary.
    pub fn state(&self) -> FleetState {
        let n = self.len();
        FleetState {
            agent_rng: self.agent_rng.clone(),
            running: (0..n).map(|i| get_bit(&self.running_bits, i)).collect(),
            generation: (0..n)
                .map(|i| self.model_of(i).config().generation.index() as u8)
                .collect(),
            // The wire keeps one `WorkloadState` per process; kind and
            // parameters are the server's service's.
            generators: (0..n)
                .map(|pos| {
                    let kind = self.service_at(pos);
                    WorkloadState {
                        kind: kind.index(),
                        params: kind.params(),
                        noise: self.wl_noise[pos],
                        burst: burst_from_columns(self.wl_burst_until[pos], self.wl_burst_add[pos]),
                        rng: self.wl_rng[pos].clone(),
                    }
                })
                .collect(),
            pending_restarts: self.pending_restarts.clone(),
            rng: self.rng.clone(),
            perm: self.perm.clone(),
            demand_w: self.demand_w.clone(),
            limit_w: self.limit_w.clone(),
            out_w: self.out_w.clone(),
            not_init: (0..n).map(|pos| self.not_init_at(pos)).collect(),
            alive: (0..n).map(|pos| self.alive_at(pos)).collect(),
            util: self.util.clone(),
            power_w: self.power_w.clone(),
            leaf_power_w: self.leaf_power_w.clone(),
            span_generation: self.span_generation,
            tick_index: self.tick_index,
            settled: (0..self.leaf_spans.len())
                .map(|l| self.is_settled(l))
                .collect(),
            last_draw_tick: self.last_draw_tick.clone(),
            leaf_epoch: self.leaf_epoch.clone(),
            agent_epoch: self.agent_epoch.clone(),
        }
    }

    /// Restores dynamic state captured by [`Fleet::state`] into a fleet
    /// rebuilt from the identical configuration (same server configs,
    /// services, leaf spans and seed). The stored permutation and
    /// hardware generations must equal the rebuilt ones — a mismatch
    /// means the topology or server mix drifted and the snapshot does
    /// not describe this fleet.
    pub fn restore(&mut self, state: &FleetState) -> Result<(), SnapError> {
        let n = self.len();
        if state.agent_rng.len() != n
            || state.running.len() != n
            || state.generation.len() != n
            || state.generators.len() != n
            || state.perm.len() != n
            || state.demand_w.len() != n
            || state.limit_w.len() != n
            || state.out_w.len() != n
            || state.not_init.len() != n
            || state.alive.len() != n
            || state.util.len() != n
            || state.power_w.len() != n
        {
            return Err(SnapError::Corrupt(format!(
                "fleet snapshot server count disagrees with rebuilt fleet of {n}"
            )));
        }
        if state.perm != self.perm {
            return Err(SnapError::Corrupt(
                "fleet snapshot permutation differs from the rebuilt layout \
                 (topology or server mix drifted since the snapshot)"
                    .into(),
            ));
        }
        // The settling state is only meaningful against the curve and
        // LUT it was stepped with.
        for (sid, &stored) in state.generation.iter().enumerate() {
            let rebuilt = self.model_of(sid).config().generation.index();
            if stored as usize != rebuilt {
                return Err(SnapError::Corrupt(format!(
                    "server {sid} generation changed: snapshot has LUT generation {stored}, \
                     config rebuilds generation {rebuilt}"
                )));
            }
        }
        // `+Inf` is "uncapped"; anything else must be a positive limit.
        if let Some(bad) = state.limit_w.iter().find(|l| l.is_nan() || **l <= 0.0) {
            return Err(SnapError::Corrupt(format!("bad RAPL limit {bad} W")));
        }
        let leaves = self.leaf_spans.len();
        if state.settled.len() != leaves
            || state.last_draw_tick.len() != leaves
            || state.leaf_epoch.len() != leaves
            || state.agent_epoch.len() != leaves
            || state.leaf_power_w.len() != leaves
        {
            return Err(SnapError::Corrupt(format!(
                "fleet snapshot leaf count disagrees with rebuilt fleet of {leaves} leaves"
            )));
        }
        // A leaf's partial is the ascending fold of its servers' watts,
        // and above rack level the partials are all the breaker pass
        // reads: a stored one that disagrees would mis-state every
        // RPP, SB and MSB draw.
        for (l, span) in self.leaf_spans.iter().enumerate() {
            let folded: f64 = state.power_w[span.clone()].iter().sum();
            if state.leaf_power_w[l].to_bits() != folded.to_bits() {
                return Err(SnapError::Corrupt(format!(
                    "leaf {l} power partial {} W is not the fold of its servers' power ({folded} W)",
                    state.leaf_power_w[l]
                )));
            }
        }
        // The demand pass hoists each run's service parameters, so a
        // process may only carry its own service's calibrated ones.
        for (pos, s) in state.generators.iter().enumerate() {
            let kind = self.service_at(pos);
            if s.kind != kind.index() || s.params != kind.params() {
                return Err(SnapError::Corrupt(format!(
                    "workload state at position {pos} (service kind {}) is not a calibrated \
                     {kind} process",
                    s.kind
                )));
            }
        }
        for (pos, s) in state.generators.iter().enumerate() {
            self.wl_rng[pos] = s.rng.clone();
            self.wl_noise[pos] = s.noise;
            (self.wl_burst_until[pos], self.wl_burst_add[pos]) = burst_to_columns(s.burst);
        }
        self.agent_rng.clone_from(&state.agent_rng);
        self.pending_restarts.clone_from(&state.pending_restarts);
        self.rng = state.rng.clone();
        self.demand_w.clone_from(&state.demand_w);
        self.limit_w.clone_from(&state.limit_w);
        self.out_w.clone_from(&state.out_w);
        // Every bit is written, so no stale state survives; tail bits
        // stay zero. The rebuilt region directory already matches:
        // spans and permutation were validated identical above.
        for i in 0..n {
            put_bit(&mut self.running_bits, i, state.running[i]);
            self.set_not_init_at(i, state.not_init[i]);
            self.set_alive_at(i, state.alive[i]);
        }
        self.util.clone_from(&state.util);
        self.power_w.clone_from(&state.power_w);
        self.leaf_power_w.clone_from(&state.leaf_power_w);
        self.span_generation = state.span_generation;
        self.tick_index = state.tick_index;
        for (l, &s) in state.settled.iter().enumerate() {
            self.set_settled(l, s);
        }
        self.last_draw_tick.clone_from(&state.last_draw_tick);
        self.leaf_epoch.clone_from(&state.leaf_epoch);
        self.agent_epoch.clone_from(&state.agent_epoch);
        // The tallies are functions of the columns: recount.
        self.capped_count = self.limit_w.iter().filter(|l| l.is_finite()).count();
        self.down_count = state.running.iter().filter(|&&up| !up).count();
        Ok(())
    }
}

/// Dynamic state of a [`Fleet`], snapshot-serializable. Everything
/// derivable from configuration (the permutation layout, runs, server
/// models, traffic patterns, LUTs) or from the columns themselves (the
/// capped / down tallies) is rebuilt, not stored; the permutation and
/// the per-server hardware generations are stored only to *verify* the
/// rebuilt fleet matches, and the per-leaf power partials only to be
/// verified against the fold of `power_w` they must equal.
#[derive(Debug, Clone)]
pub struct FleetState {
    /// Per-agent sensor-noise streams, server-id order.
    pub agent_rng: Vec<SimRng>,
    /// Agent process-up flags, server-id order.
    pub running: Vec<bool>,
    /// [`serverpower::ServerGeneration::index`] of each server at
    /// snapshot time, server-id order (validation only).
    pub generation: Vec<u8>,
    /// Per-server workload processes, *position* order.
    pub generators: Vec<WorkloadState>,
    /// Crashed agents pending watchdog restart.
    pub pending_restarts: Vec<(u32, SimTime)>,
    /// Fleet-event RNG stream (crash draws).
    pub rng: SimRng,
    /// Position → id permutation at snapshot time (validation only).
    pub perm: Vec<u32>,
    /// Batch arrays, position order (see the [`Fleet`] field docs).
    pub demand_w: Vec<f64>,
    /// RAPL limits in watts, `+Inf` = uncapped.
    pub limit_w: Vec<f64>,
    /// Settled RAPL output watts.
    pub out_w: Vec<f64>,
    /// First-step flags (set until the first live step).
    pub not_init: Vec<bool>,
    /// Liveness flags.
    pub alive: Vec<bool>,
    /// Post-clamp demand utilization.
    pub util: Vec<f64>,
    /// True power draw, server-id order.
    pub power_w: Vec<f64>,
    /// Per-leaf power partials: the ascending fold of `power_w` over
    /// each leaf span (restore rejects anything else).
    pub leaf_power_w: Vec<f64>,
    /// Span registration generation.
    pub span_generation: u64,
    /// Physics ticks completed.
    pub tick_index: u64,
    /// Per-leaf active-set flags.
    pub settled: Vec<bool>,
    /// Per-leaf tick of last demand redraw.
    pub last_draw_tick: Vec<u64>,
    /// Per-leaf power epochs.
    pub leaf_epoch: Vec<u64>,
    /// Per-leaf agent epochs.
    pub agent_epoch: Vec<u64>,
}

impl Snapshot for FleetState {
    const KIND: &'static str = "dynamo.FleetState";
    const VERSION: u32 = 2;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.agent_rng.len() as u64);
        for rng in &self.agent_rng {
            rng.encode_body(w);
        }
        put_bool_slice(w, &self.running);
        w.put_u64(self.generation.len() as u64);
        w.put_raw(&self.generation);
        w.put_u64(self.generators.len() as u64);
        for g in &self.generators {
            g.encode_body(w);
        }
        w.put_u64(self.pending_restarts.len() as u64);
        for &(sid, at) in &self.pending_restarts {
            w.put_u32(sid);
            w.put_u64(at.as_millis());
        }
        self.rng.encode_body(w);
        w.put_u64(self.perm.len() as u64);
        for &p in &self.perm {
            w.put_u32(p);
        }
        put_f64_slice(w, &self.demand_w);
        put_f64_slice(w, &self.limit_w);
        put_f64_slice(w, &self.out_w);
        put_bool_slice(w, &self.not_init);
        put_bool_slice(w, &self.alive);
        put_f64_slice(w, &self.util);
        put_f64_slice(w, &self.power_w);
        put_f64_slice(w, &self.leaf_power_w);
        w.put_u64(self.span_generation);
        w.put_u64(self.tick_index);
        put_bool_slice(w, &self.settled);
        put_u64_slice(w, &self.last_draw_tick);
        put_u64_slice(w, &self.leaf_epoch);
        put_u64_slice(w, &self.agent_epoch);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FleetState {
            agent_rng: r.get_vec(SimRng::decode_body)?,
            running: get_bool_vec(r)?,
            generation: r.get_vec(|r| r.get_u8())?,
            generators: r.get_vec(WorkloadState::decode_body)?,
            pending_restarts: r
                .get_vec(|r| Ok((r.get_u32()?, SimTime::from_millis(r.get_u64()?))))?,
            rng: SimRng::decode_body(r)?,
            perm: r.get_vec(|r| r.get_u32())?,
            demand_w: get_f64_vec(r)?,
            limit_w: get_f64_vec(r)?,
            out_w: get_f64_vec(r)?,
            not_init: get_bool_vec(r)?,
            alive: get_bool_vec(r)?,
            util: get_f64_vec(r)?,
            power_w: get_f64_vec(r)?,
            leaf_power_w: get_f64_vec(r)?,
            span_generation: r.get_u64()?,
            tick_index: r.get_u64()?,
            settled: get_bool_vec(r)?,
            last_draw_tick: get_u64_vec(r)?,
            leaf_epoch: get_u64_vec(r)?,
            agent_epoch: get_u64_vec(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimDuration;
    use serverpower::{ServerConfig, ServerGeneration};
    use workloads::ServiceKind;

    /// Eight web servers of one generation in two leaves.
    fn build(generation: ServerGeneration) -> Fleet {
        let mut f = Fleet::new(
            vec![ServerConfig::new(generation); 8],
            vec![ServiceKind::Web; 8],
            SimRng::seed_from(11),
        );
        f.set_leaf_spans(&[0..4, 4..8]);
        f
    }

    #[test]
    fn restore_rejects_a_snapshot_from_another_hardware_generation() {
        let mut haswell = build(ServerGeneration::Haswell2015);
        for s in 0..5 {
            haswell.step(SimTime::from_secs(s), SimDuration::from_secs(1));
        }
        let state = haswell.state();
        // Same shape, same permutation — only the LUT differs.
        let mut westmere = build(ServerGeneration::Westmere2011);
        match westmere.restore(&state) {
            Err(SnapError::Corrupt(msg)) => {
                assert!(msg.contains("generation changed"), "{msg}")
            }
            other => panic!("expected a generation mismatch, got {other:?}"),
        }
        build(ServerGeneration::Haswell2015)
            .restore(&state)
            .expect("same generation restores");
    }

    /// Above rack level the partials are all the breaker pass reads, so
    /// a stored one may only be the fold of the stored per-server
    /// watts — off by one ulp is a forgery.
    #[test]
    fn restore_rejects_a_leaf_partial_that_is_not_the_fold_of_its_servers() {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut fleet = fresh();
        for s in 0..5 {
            fleet.step(SimTime::from_secs(s), SimDuration::from_secs(1));
        }
        let state = fleet.state();

        let mut forged = state.clone();
        forged.leaf_power_w[1] = f64::from_bits(forged.leaf_power_w[1].to_bits() + 1);
        let mut target = fresh();
        match target.restore(&forged) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("leaf 1 power partial"), "{msg}"),
            other => panic!("a forged partial must be rejected, got {other:?}"),
        }
        // Rejected before anything was installed.
        assert_eq!(target.state().power_w, fresh().state().power_w);

        let mut twin = fresh();
        twin.restore(&state).expect("an honest snapshot restores");
        for f in [&mut fleet, &mut twin] {
            f.step(SimTime::from_secs(5), SimDuration::from_secs(1));
        }
        let (a, b) = (fleet.state(), twin.state());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.power_w), bits(&b.power_w));
        assert_eq!(bits(&a.leaf_power_w), bits(&b.leaf_power_w));
    }

    /// The demand pass hoists each run's service parameters out of the
    /// element loop, so a snapshot may not smuggle in a process with
    /// any others — and the columns must round-trip what they hold.
    #[test]
    fn restore_rejects_workload_states_that_are_not_the_services_own() {
        let build = || {
            let services: Vec<ServiceKind> = (0..12).map(|i| ServiceKind::all()[i % 6]).collect();
            let mut f = Fleet::new(
                vec![ServerConfig::new(ServerGeneration::Haswell2015); 12],
                services,
                SimRng::seed_from(19),
            );
            f.set_leaf_spans(&[0..6, 6..12]);
            f
        };
        let mut fleet = build();
        // Long enough that some process is mid-burst in the snapshot.
        let mut t = SimTime::ZERO;
        while !fleet.state().generators.iter().any(|g| g.burst.is_some()) {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
            assert!(t < SimTime::from_secs(20_000), "no burst ever started");
        }
        let state = fleet.state();

        let mut retuned = state.clone();
        retuned.generators[3].params.sigma *= 2.0;
        let mut rekinded = state.clone();
        rekinded.generators[3].kind = (rekinded.generators[3].kind + 1) % ServiceKind::COUNT;
        for (bad, what) in [(retuned, "params"), (rekinded, "kind")] {
            match build().restore(&bad) {
                Err(SnapError::Corrupt(msg)) => assert!(msg.contains("calibrated"), "{msg}"),
                other => panic!("foreign workload {what} must be rejected, got {other:?}"),
            }
        }

        // The untouched state restores, and what comes back out is what
        // went in — noise, bursts and streams through the columns.
        let mut twin = build();
        twin.restore(&state).expect("own state restores");
        assert_eq!(twin.state().generators, state.generators);
        for f in [&mut fleet, &mut twin] {
            f.step(t, SimDuration::from_secs(1));
        }
        assert_eq!(twin.state().generators, fleet.state().generators);
    }
}
