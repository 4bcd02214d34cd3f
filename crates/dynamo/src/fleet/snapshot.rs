//! The fleet's snapshot: its dynamic columns as plain data
//! ([`FleetState`]) and the `state` / `restore` pair.

use dcsim::snap::{
    get_bool_vec, get_count_vec, get_f64_vec, get_u64_vec, put_bool_slice, put_f64_slice,
    put_u64_slice, SnapError, SnapReader, SnapWriter, Snapshot,
};
use dcsim::{SimRng, SimTime};
use workloads::kernel::{burst_from_columns, burst_to_columns};
use workloads::WorkloadState;

use super::leaf::{get_bit, put_bit};
use super::{Fleet, LeafColumns};

impl Fleet {
    /// One column gathered across the leaves, in leaf order.
    fn column<T: Clone>(&self, col: impl Fn(&LeafColumns) -> &[T]) -> Vec<T> {
        let mut column = Vec::with_capacity(self.len());
        for leaf in &self.leaves {
            column.extend_from_slice(col(leaf));
        }
        column
    }

    /// One packed mask gathered across the leaves, a flag per server.
    fn flags(&self, mask: impl Fn(&LeafColumns) -> &[u64]) -> Vec<bool> {
        let mut flags = Vec::with_capacity(self.len());
        for leaf in &self.leaves {
            flags.extend((0..leaf.len()).map(|i| get_bit(mask(leaf), i)));
        }
        flags
    }

    /// Position → server id over the whole fleet: each leaf's
    /// permutation, offset to fleet ids (a leaf's positions are its id
    /// range).
    fn permutation(&self) -> impl Iterator<Item = u32> + '_ {
        self.leaves
            .iter()
            .flat_map(|l| l.perm.iter().map(|&id| l.first as u32 + id))
    }

    /// [`serverpower::ServerGeneration::index`] of every server, id
    /// order.
    fn generations(&self) -> impl Iterator<Item = usize> + '_ {
        self.leaves
            .iter()
            .flat_map(|l| &l.model_ix)
            .map(|&ix| self.models[ix as usize].config().generation.index())
    }

    /// Captures the fleet's dynamic state for a snapshot: the leaves'
    /// columns gathered into flat fleet-wide ones. Must be called at a
    /// tick boundary.
    pub fn state(&self) -> FleetState {
        let mut generators = Vec::with_capacity(self.len());
        for leaf in &self.leaves {
            for (pos, &id) in leaf.perm.iter().enumerate() {
                // The wire keeps one `WorkloadState` per process; kind
                // and parameters are the server's service's.
                let kind = self.services[leaf.first + id as usize];
                generators.push(WorkloadState {
                    kind: kind.index(),
                    params: kind.params(),
                    noise: leaf.wl_noise[pos],
                    burst: burst_from_columns(leaf.wl_burst_until[pos], leaf.wl_burst_add[pos]),
                    rng: leaf.wl_rng[pos].clone(),
                });
            }
        }
        FleetState {
            agent_rng: self.column(|l| &l.agent_rng),
            running: self.flags(|l| &l.running),
            generation: self.generations().map(|g| g as u8).collect(),
            generators,
            pending_restarts: self.pending_restarts.clone(),
            rng: self.rng.clone(),
            perm: self.permutation().collect(),
            demand_w: self.column(|l| &l.demand_w),
            limit_w: self.column(|l| &l.limit_w),
            out_w: self.column(|l| &l.out_w),
            not_init: self.flags(|l| &l.not_init),
            alive: self.flags(|l| &l.alive),
            util: self.column(|l| &l.util),
            power_w: self.column(|l| &l.power_w),
            leaf_power_w: self.leaves.iter().map(|l| l.partial_w).collect(),
            tick_index: self.tick_index,
            settled: self.leaves.iter().map(|l| l.settled).collect(),
            last_draw_tick: self.leaves.iter().map(|l| l.last_draw_tick).collect(),
            leaf_epoch: self.leaves.iter().map(|l| l.power_epoch).collect(),
            agent_epoch: self.leaves.iter().map(|l| l.agent_epoch).collect(),
        }
    }

    /// Restores dynamic state captured by [`Fleet::state`] into a fleet
    /// rebuilt from the identical configuration (same server configs,
    /// services, leaf spans and seed). The stored permutation and
    /// hardware generations must equal the rebuilt ones — a mismatch
    /// means the topology or server mix drifted and the snapshot does
    /// not describe this fleet. Everything is checked before anything
    /// is installed; the flat columns are then cut at the leaves'
    /// spans, so no length or id from the file is used unchecked.
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
        if !self.permutation().eq(state.perm.iter().copied()) {
            return Err(SnapError::Corrupt(
                "fleet snapshot permutation differs from the rebuilt layout \
                 (topology or server mix drifted since the snapshot)"
                    .into(),
            ));
        }
        // The settling state is only meaningful against the curve and
        // LUT it was stepped with.
        for (sid, (&stored, rebuilt)) in state.generation.iter().zip(self.generations()).enumerate()
        {
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
        // The breaker pass asserts on the draws folded from these.
        for (name, column) in [
            ("demand_w", &state.demand_w),
            ("out_w", &state.out_w),
            ("util", &state.util),
            ("power_w", &state.power_w),
        ] {
            if let Some(bad) = column.iter().find(|x| !(x.is_finite() && **x >= 0.0)) {
                return Err(SnapError::Corrupt(format!(
                    "fleet column {name} holds {bad}, not a finite non-negative value"
                )));
            }
        }
        let leaves = self.leaves.len();
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
        for (l, leaf) in self.leaves.iter().enumerate() {
            // A leaf's partial is the ascending fold of its servers'
            // watts, and above rack level the partials are all the
            // breaker pass reads: a stored one that disagrees would
            // mis-state every RPP, SB and MSB draw.
            let folded: f64 = state.power_w[leaf.span()].iter().sum();
            if state.leaf_power_w[l].to_bits() != folded.to_bits() {
                return Err(SnapError::Corrupt(format!(
                    "leaf {l} power partial {} W is not the fold of its servers' power ({folded} W)",
                    state.leaf_power_w[l]
                )));
            }
            // A redraw integrates the ticks since the last one: it
            // cannot have happened in the future.
            if state.last_draw_tick[l] > state.tick_index {
                return Err(SnapError::Corrupt(format!(
                    "leaf {l} last redrew at tick {}, after the snapshot's tick {}",
                    state.last_draw_tick[l], state.tick_index
                )));
            }
        }
        // The demand pass hoists each run's service parameters, so a
        // process may only carry its own service's calibrated ones.
        for (pos, (s, &sid)) in state.generators.iter().zip(&state.perm).enumerate() {
            let kind = self.services[sid as usize];
            if s.kind != kind.index() || s.params != kind.params() {
                return Err(SnapError::Corrupt(format!(
                    "workload state at position {pos} (service kind {}) is not a calibrated \
                     {kind} process",
                    s.kind
                )));
            }
        }
        // The watchdog restarts by server id.
        if let Some(&(sid, _)) = state.pending_restarts.iter().find(|r| r.0 as usize >= n) {
            return Err(SnapError::Corrupt(format!(
                "pending restart of server {sid} in a fleet of {n}"
            )));
        }
        for (l, leaf) in self.leaves.iter_mut().enumerate() {
            let span = leaf.span();
            for (pos, s) in state.generators[span.clone()].iter().enumerate() {
                leaf.wl_rng[pos] = s.rng.clone();
                leaf.wl_noise[pos] = s.noise;
                (leaf.wl_burst_until[pos], leaf.wl_burst_add[pos]) = burst_to_columns(s.burst);
            }
            leaf.agent_rng
                .clone_from_slice(&state.agent_rng[span.clone()]);
            leaf.demand_w.copy_from_slice(&state.demand_w[span.clone()]);
            leaf.limit_w.copy_from_slice(&state.limit_w[span.clone()]);
            leaf.out_w.copy_from_slice(&state.out_w[span.clone()]);
            leaf.util.copy_from_slice(&state.util[span.clone()]);
            leaf.power_w.copy_from_slice(&state.power_w[span.clone()]);
            // Every bit is written, so no stale state survives; tail
            // bits stay zero.
            for i in 0..span.len() {
                put_bit(&mut leaf.running, i, state.running[span.start + i]);
                put_bit(&mut leaf.not_init, i, state.not_init[span.start + i]);
                put_bit(&mut leaf.alive, i, state.alive[span.start + i]);
            }
            leaf.partial_w = state.leaf_power_w[l];
            leaf.settled = state.settled[l];
            leaf.last_draw_tick = state.last_draw_tick[l];
            leaf.power_epoch = state.leaf_epoch[l];
            leaf.agent_epoch = state.agent_epoch[l];
            // The tally is a function of the column: recount.
            leaf.capped = leaf.limit_w.iter().filter(|w| w.is_finite()).count();
        }
        self.pending_restarts.clone_from(&state.pending_restarts);
        self.rng = state.rng.clone();
        self.tick_index = state.tick_index;
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
        // The slot of the retired span generation: a fleet is built in
        // its leaves once, which the wire has always called 1.
        w.put_u64(1);
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
            tick_index: {
                r.get_u64()?; // the retired span-generation slot
                r.get_count()?
            },
            settled: get_bool_vec(r)?,
            last_draw_tick: get_u64_vec(r)?,
            leaf_epoch: get_count_vec(r)?,
            agent_epoch: get_count_vec(r)?,
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
        Fleet::new(
            vec![ServerConfig::new(generation); 8],
            vec![ServiceKind::Web; 8],
            SimRng::seed_from(11),
            &[0..4, 4..8],
        )
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

    /// `restore` hands `forged` to a fresh fleet and must refuse it,
    /// naming `what`, before installing anything — and the fleet must
    /// then still step (each forgery below used to restore `Ok` and
    /// panic in the next step).
    fn assert_refused(forged: &FleetState, what: &str) {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut target = fresh();
        match target.restore(forged) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a refusal naming {what:?}, got {other:?}"),
        }
        target.step(SimTime::ZERO, SimDuration::from_secs(1));
        let mut twin = fresh();
        twin.step(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(target.state().power_w, twin.state().power_w);
    }

    /// The breaker pass folds these columns and asserts on the result:
    /// one forged watt used to restore `Ok` and panic a step later as
    /// `invalid breaker draw`.
    #[test]
    fn restore_rejects_a_watt_column_that_is_negative_or_not_a_number() {
        let mut fleet = build(ServerGeneration::Haswell2015);
        fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
        for bad in [-3.06e210, f64::NAN, f64::INFINITY] {
            let mut forged = fleet.state();
            forged.out_w[3] = bad;
            assert_refused(&forged, "fleet column out_w");
            let mut forged = fleet.state();
            forged.demand_w[0] = bad;
            assert_refused(&forged, "fleet column demand_w");
        }
    }

    /// The watchdog restarts agents by server id: a pending restart of
    /// a server the fleet does not have is an index out of bounds one
    /// step later.
    #[test]
    fn restore_rejects_a_pending_restart_of_a_server_it_does_not_have() {
        let mut fleet = build(ServerGeneration::Haswell2015);
        fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
        let mut forged = fleet.state();
        forged.pending_restarts.push((8, SimTime::from_secs(1)));
        assert_refused(&forged, "pending restart of server 8");
    }

    /// A redraw integrates the ticks since the leaf's last one: a last
    /// redraw dated after the snapshot's own tick underflows that
    /// subtraction.
    #[test]
    fn restore_rejects_a_redraw_dated_after_the_snapshot() {
        let mut fleet = build(ServerGeneration::Haswell2015);
        fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
        let mut forged = fleet.state();
        forged.last_draw_tick[1] = forged.tick_index + 1;
        assert_refused(&forged, "leaf 1 last redrew at tick 2");
    }

    /// The demand pass hoists each run's service parameters out of the
    /// element loop, so a snapshot may not smuggle in a process with
    /// any others — and the columns must round-trip what they hold.
    #[test]
    fn restore_rejects_workload_states_that_are_not_the_services_own() {
        let build = || {
            let services: Vec<ServiceKind> = (0..12).map(|i| ServiceKind::all()[i % 6]).collect();
            Fleet::new(
                vec![ServerConfig::new(ServerGeneration::Haswell2015); 12],
                services,
                SimRng::seed_from(19),
                &[0..6, 6..12],
            )
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
