//! The fleet's snapshot: its leaves' columns written and read as flat
//! fleet-wide ones, by `save` and `load`.
//!
//! Everything derivable from configuration (the permutation layout,
//! runs, server models, traffic patterns, LUTs) or from the columns
//! themselves is rebuilt, not stored: the capped / down tallies,
//! demand (from utilization), drawn power (from output and liveness)
//! and the per-leaf power partials, through the code the step runs
//! ([`LeafColumns::derive`]). The permutation and the per-server
//! hardware generations are stored only to be *compared* with the
//! rebuilt fleet.

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{SimRng, SimTime};
use workloads::{get_process, put_process};

use super::leaf::{get_bit, put_bit};
use super::{Fleet, LeafColumns};

/// Writes one column gathered across the leaves, count first.
fn put_column<T>(
    w: &mut SnapWriter,
    leaves: &[LeafColumns],
    col: impl Fn(&LeafColumns) -> &[T],
    put: impl Fn(&mut SnapWriter, &T),
) {
    w.put_u64(leaves.iter().map(|l| col(l).len() as u64).sum());
    for x in leaves.iter().flat_map(col) {
        put(w, x);
    }
}

/// Reads a column written by [`put_column`] back into the leaves'.
fn get_column<T>(
    r: &mut SnapReader<'_>,
    leaves: &mut [LeafColumns],
    col: impl Fn(&mut LeafColumns) -> &mut [T],
    mut get: impl FnMut(&mut SnapReader<'_>) -> Result<T, SnapError>,
) -> Result<(), SnapError> {
    r.get_len(leaves.iter_mut().map(|l| col(l).len()).sum(), "servers")?;
    for x in leaves.iter_mut().flat_map(col) {
        *x = get(r)?;
    }
    Ok(())
}

/// Writes one packed mask gathered across the leaves, a flag per
/// server, count first.
fn put_flags(w: &mut SnapWriter, leaves: &[LeafColumns], mask: impl Fn(&LeafColumns) -> &[u64]) {
    w.put_u64(leaves.iter().map(|l| l.len() as u64).sum());
    for leaf in leaves {
        for i in 0..leaf.len() {
            w.put_bool(get_bit(mask(leaf), i));
        }
    }
}

/// Reads flags written by [`put_flags`] into the leaves' masks. Every
/// bit is written, so no stale state survives; tail bits stay zero.
fn get_flags(
    r: &mut SnapReader<'_>,
    leaves: &mut [LeafColumns],
    mask: impl Fn(&mut LeafColumns) -> &mut Vec<u64>,
) -> Result<(), SnapError> {
    r.get_len(leaves.iter().map(|l| l.len()).sum(), "servers")?;
    for leaf in leaves {
        for i in 0..leaf.len() {
            let v = r.get_bool()?;
            put_bit(mask(leaf), i, v);
        }
    }
    Ok(())
}

/// The breaker pass folds these columns and asserts on the result.
fn watts(name: &'static str) -> impl Fn(&mut SnapReader<'_>) -> Result<f64, SnapError> {
    move |r| match r.get_f64()? {
        x if x.is_finite() && x >= 0.0 => Ok(x),
        bad => Err(SnapError::Corrupt(format!(
            "fleet column {name} holds {bad}, not a finite non-negative value"
        ))),
    }
}

impl Fleet {
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

    /// Saves the fleet's dynamic state: the leaves' columns as flat
    /// fleet-wide ones, every `[..]` a `u64` count and then the
    /// elements. Must be called at a tick boundary.
    pub fn save(&self, w: &mut SnapWriter) {
        let leaves = &self.leaves[..];
        put_column(w, leaves, |l| &l.agent_rng, |w, rng| rng.save(w));
        put_flags(w, leaves, |l| &l.running);
        w.put_u64(self.len() as u64);
        for g in self.generations() {
            w.put_u8(g as u8);
        }
        // One process record per position; kind and parameters are the
        // server's service's.
        w.put_u64(self.len() as u64);
        for leaf in leaves {
            for (pos, &id) in leaf.perm.iter().enumerate() {
                let kind = self.services[leaf.first + id as usize];
                let burst = (leaf.wl_burst_until[pos], leaf.wl_burst_add[pos]);
                let (noise, rng) = (leaf.wl_noise[pos], &leaf.wl_rng[pos]);
                put_process(w, kind, &kind.params(), noise, burst, rng);
            }
        }
        w.put_u64(self.pending_restarts.len() as u64);
        for &(sid, at) in &self.pending_restarts {
            w.put_u32(sid);
            w.put_u64(at.as_millis());
        }
        self.rng.save(w);
        w.put_u64(self.len() as u64);
        for p in self.permutation() {
            w.put_u32(p);
        }
        let f64s = |w: &mut SnapWriter, x: &f64| w.put_f64(*x);
        put_column(w, leaves, |l| &l.limit_w, f64s);
        put_column(w, leaves, |l| &l.out_w, f64s);
        put_flags(w, leaves, |l| &l.not_init);
        put_flags(w, leaves, |l| &l.alive);
        put_column(w, leaves, |l| &l.util, f64s);
        let per_leaf = |w: &mut SnapWriter, put: &dyn Fn(&mut SnapWriter, &LeafColumns)| {
            w.put_u64(leaves.len() as u64);
            for leaf in leaves {
                put(w, leaf);
            }
        };
        w.put_u64(self.tick_index);
        per_leaf(w, &|w, l| w.put_bool(l.settled));
        per_leaf(w, &|w, l| w.put_u64(l.last_draw_tick));
        per_leaf(w, &|w, l| w.put_u64(l.epoch));
    }

    /// Loads what [`Fleet::save`] wrote into a fleet rebuilt from the
    /// identical configuration (same server configs, services, leaf
    /// spans and seed). Every count must be the rebuilt fleet's, so no
    /// length or id from the file is used unchecked. A stored
    /// permutation, hardware generation or workload calibration that is
    /// not the rebuilt one means the topology or server mix drifted: a
    /// mismatch ([`SnapReader::mismatch`]).
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = self.len();
        get_column(r, &mut self.leaves, |l| &mut l.agent_rng, SimRng::decode)?;
        get_flags(r, &mut self.leaves, |l| &mut l.running)?;
        // The settling state is only meaningful against the curve and
        // LUT it was stepped with.
        r.get_len(n, "servers")?;
        let mut changed = None;
        for (sid, rebuilt) in self.generations().enumerate() {
            let stored = r.get_u8()?;
            if stored as usize != rebuilt && changed.is_none() {
                changed = Some(SnapError::Corrupt(format!(
                    "server {sid} generation changed: snapshot has LUT generation {stored}, \
                     config rebuilds generation {rebuilt}"
                )));
            }
        }
        // The demand pass hoists each run's service parameters, so a
        // process may only carry its own service's calibrated ones.
        r.get_len(n, "servers")?;
        for leaf in &mut self.leaves {
            for pos in 0..leaf.len() {
                let burst = (&mut leaf.wl_burst_until[pos], &mut leaf.wl_burst_add[pos]);
                let (noise, rng) = (&mut leaf.wl_noise[pos], &mut leaf.wl_rng[pos]);
                let (kind, params) = get_process(r, noise, burst, rng)?;
                let svc = self.services[leaf.first + leaf.perm[pos] as usize];
                if (kind, params) != (svc.index() as u64, svc.params()) && changed.is_none() {
                    changed = Some(SnapError::Corrupt(format!(
                        "workload state at position {} (service kind {kind}) is not a \
                         calibrated {svc} process",
                        leaf.first + pos
                    )));
                }
            }
        }
        // The watchdog restarts by server id.
        self.pending_restarts = r.get_vec(|r| match r.get_u32()? {
            sid if (sid as usize) < n => Ok((sid, SimTime::from_millis(r.get_u64()?))),
            sid => Err(SnapError::Corrupt(format!(
                "pending restart of server {sid} in a fleet of {n}"
            ))),
        })?;
        self.rng = SimRng::decode(r)?;
        r.get_len(n, "servers")?;
        let mut drifted = false;
        for rebuilt in self.permutation() {
            drifted |= r.get_u32()? != rebuilt;
        }
        if drifted && changed.is_none() {
            changed = Some(SnapError::Corrupt(
                "fleet snapshot permutation differs from the rebuilt layout \
                 (topology or server mix drifted since the snapshot)"
                    .into(),
            ));
        }
        if let Some(e) = changed {
            r.mismatch(e);
        }
        let leaves = &mut self.leaves[..];
        // `+Inf` is "uncapped"; anything else must be a positive limit.
        get_column(
            r,
            leaves,
            |l| &mut l.limit_w,
            |r| match r.get_f64()? {
                bad if bad.is_nan() || bad <= 0.0 => {
                    Err(SnapError::Corrupt(format!("bad RAPL limit {bad} W")))
                }
                limit => Ok(limit),
            },
        )?;
        get_column(r, leaves, |l| &mut l.out_w, watts("out_w"))?;
        get_flags(r, leaves, |l| &mut l.not_init)?;
        get_flags(r, leaves, |l| &mut l.alive)?;
        get_column(r, leaves, |l| &mut l.util, watts("util"))?;
        self.tick_index = r.get_count()?;
        let tick = self.tick_index;
        let leaves = &mut self.leaves[..];
        r.get_len(leaves.len(), "leaves")?;
        for leaf in leaves.iter_mut() {
            leaf.settled = r.get_bool()?;
        }
        // A redraw integrates the ticks since the last one: it cannot
        // have happened in the future.
        r.get_len(leaves.len(), "leaves")?;
        for (l, leaf) in leaves.iter_mut().enumerate() {
            leaf.last_draw_tick = match r.get_u64()? {
                at if at > tick => {
                    return Err(SnapError::Corrupt(format!(
                        "leaf {l} last redrew at tick {at}, after the snapshot's tick {tick}"
                    )))
                }
                at => at,
            };
        }
        r.get_len(leaves.len(), "leaves")?;
        for leaf in leaves.iter_mut() {
            leaf.epoch = r.get_count()?;
            // The tally is a function of the column: recount.
            leaf.capped = leaf.limit_w.iter().filter(|w| w.is_finite()).count();
            leaf.derive();
        }
        let down = |l: &LeafColumns| (0..l.len()).filter(|&i| !get_bit(&l.running, i)).count();
        self.down_count = self.leaves.iter().map(down).sum();
        Ok(())
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

    fn saved(fleet: &Fleet) -> Vec<u8> {
        let mut w = SnapWriter::new();
        fleet.save(&mut w);
        w.into_bytes()
    }

    /// Loads `bytes` as a whole section: every byte read, no mismatch.
    fn load(fleet: &mut Fleet, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        fleet.load(&mut r)?;
        r.finish("fleet")
    }

    /// `bytes` as a file forged to say `edit` would: loaded into a
    /// fresh twin, edited there, saved again.
    fn forge(fresh: impl Fn() -> Fleet, bytes: &[u8], edit: impl FnOnce(&mut Fleet)) -> Vec<u8> {
        let mut twin = fresh();
        load(&mut twin, bytes).expect("honest bytes load");
        edit(&mut twin);
        saved(&twin)
    }

    #[test]
    fn load_rejects_a_snapshot_from_another_hardware_generation() {
        let mut haswell = build(ServerGeneration::Haswell2015);
        for s in 0..5 {
            haswell.step(SimTime::from_secs(s), SimDuration::from_secs(1));
        }
        let bytes = saved(&haswell);
        // Same shape, same permutation — only the LUT differs.
        let mut westmere = build(ServerGeneration::Westmere2011);
        match load(&mut westmere, &bytes) {
            Err(SnapError::Corrupt(msg)) => {
                assert!(msg.contains("generation changed"), "{msg}")
            }
            other => panic!("expected a generation mismatch, got {other:?}"),
        }
        load(&mut build(ServerGeneration::Haswell2015), &bytes).expect("same generation loads");
    }

    /// `load` derives drawn power (the output of a live server), each
    /// leaf's partial (the fold of its drawn power) and demand (the
    /// price of utilization) from the servers' state: the section
    /// carries none of them, so a file forged to draw more than its
    /// output, as an earlier format allowed, cannot be written. A fresh
    /// fleet holds idle watts, so a load that kept its own columns
    /// fails here.
    #[test]
    fn load_derives_drawn_power_partials_and_demand_from_the_servers_state() {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut fleet = fresh();
        for s in 0..5 {
            fleet.step(SimTime::from_secs(s), SimDuration::from_secs(1));
        }
        fleet.set_server_alive(6, false);
        let mut target = fresh();
        load(&mut target, &saved(&fleet)).expect("honest bytes load");
        for sid in 0..8 {
            let (leaf, id) = target.locate(sid);
            let pos = leaf.inv[id] as usize;
            let drawn = if leaf.is_alive(id) {
                leaf.out_w[pos]
            } else {
                0.0
            };
            assert_eq!(
                target.power_of(sid).as_watts().to_bits(),
                drawn.to_bits(),
                "server {sid} draws {} W on an output of {drawn} W",
                target.power_of(sid).as_watts()
            );
        }
        for (l, leaf) in target.leaves.iter().enumerate() {
            let folded: f64 = leaf.power_w.iter().sum();
            assert_eq!(
                leaf.partial_w.to_bits(),
                folded.to_bits(),
                "leaf {l} partial"
            );
            assert_eq!(leaf.demand_w, fleet.leaves[l].demand_w, "leaf {l} demand");
        }
    }

    /// `load` hands `forged` to a fresh fleet and must refuse it, naming
    /// `what`. The fleet then reloads the bytes it saved before the
    /// attempt — the datacenter's rollback — and must step exactly like
    /// an untouched twin (each forgery below used to restore `Ok` and
    /// panic in the next step).
    fn assert_refused(forged: &[u8], what: &str) {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut target = fresh();
        let before = saved(&target);
        match load(&mut target, forged) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a refusal naming {what:?}, got {other:?}"),
        }
        load(&mut target, &before).expect("a fleet reloads its own bytes");
        target.step(SimTime::ZERO, SimDuration::from_secs(1));
        let mut twin = fresh();
        twin.step(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(saved(&target), saved(&twin));
    }

    /// The breaker pass folds these columns and asserts on the result:
    /// one forged watt used to restore `Ok` and panic a step later as
    /// `invalid breaker draw`.
    #[test]
    fn load_rejects_a_watt_column_that_is_negative_or_not_a_number() {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut fleet = fresh();
        fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
        let bytes = saved(&fleet);
        for bad in [-3.06e210, f64::NAN, f64::INFINITY] {
            let forged = forge(fresh, &bytes, |f| f.leaves[0].out_w[3] = bad);
            assert_refused(&forged, "fleet column out_w");
        }
    }

    /// The watchdog restarts agents by server id: a pending restart of
    /// a server the fleet does not have is an index out of bounds one
    /// step later.
    #[test]
    fn load_rejects_a_pending_restart_of_a_server_it_does_not_have() {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut fleet = fresh();
        fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
        let forged = forge(fresh, &saved(&fleet), |f| {
            f.pending_restarts.push((8, SimTime::from_secs(1)))
        });
        assert_refused(&forged, "pending restart of server 8");
    }

    /// A redraw integrates the ticks since the leaf's last one: a last
    /// redraw dated after the snapshot's own tick underflows that
    /// subtraction.
    #[test]
    fn load_rejects_a_redraw_dated_after_the_snapshot() {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut fleet = fresh();
        fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
        let forged = forge(fresh, &saved(&fleet), |f| {
            f.leaves[1].last_draw_tick = f.tick_index + 1
        });
        assert_refused(&forged, "leaf 1 last redrew at tick 2");
    }

    /// The demand pass hoists each run's service parameters out of the
    /// element loop, so a snapshot may not smuggle in a process with
    /// any others — and the columns must round-trip what they hold.
    #[test]
    fn load_rejects_workload_states_that_are_not_the_services_own() {
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
        let bursting = |f: &Fleet| {
            let until = f.leaves.iter().flat_map(|l| &l.wl_burst_until);
            until.clone().any(|&u| u != SimTime::ZERO)
        };
        while !bursting(&fleet) {
            fleet.step(t, SimDuration::from_secs(1));
            t += SimDuration::from_secs(1);
            assert!(t < SimTime::from_secs(20_000), "no burst ever started");
        }
        let bytes = saved(&fleet);

        // Process 3's record: its kind, eight parameters, then its
        // noise, found as the first byte a flipped noise moves.
        let flipped = forge(build, &bytes, |f| {
            let noise = &mut f.leaves[0].wl_noise[3];
            *noise = f64::from_bits(!noise.to_bits());
        });
        let noise_at = bytes
            .iter()
            .zip(&flipped)
            .position(|(a, b)| a != b)
            .unwrap();
        let (kind_at, sigma_at) = (noise_at - 72, noise_at - 56);
        let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let mut retuned = bytes.clone();
        let sigma = f64::from_bits(word(&bytes, sigma_at)) * 2.0;
        retuned[sigma_at..sigma_at + 8].copy_from_slice(&sigma.to_bits().to_le_bytes());
        let mut rekinded = bytes.clone();
        let kind = (word(&bytes, kind_at) + 1) % ServiceKind::COUNT as u64;
        rekinded[kind_at..kind_at + 8].copy_from_slice(&kind.to_le_bytes());
        for (bad, what) in [(retuned, "params"), (rekinded, "kind")] {
            match load(&mut build(), &bad) {
                Err(SnapError::Corrupt(msg)) => assert!(msg.contains("calibrated"), "{msg}"),
                other => panic!("foreign workload {what} must be rejected, got {other:?}"),
            }
        }

        // The untouched bytes load, and what comes back out is what
        // went in — noise, bursts and streams through the columns.
        let mut twin = build();
        load(&mut twin, &bytes).expect("own bytes load");
        assert_eq!(saved(&twin), bytes);
        for f in [&mut fleet, &mut twin] {
            f.step(t, SimDuration::from_secs(1));
        }
        assert_eq!(saved(&twin), saved(&fleet));
    }
}
