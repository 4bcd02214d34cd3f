//! The fleet's snapshot: its leaves' columns written and read as flat
//! fleet-wide ones, by `save` and `load`.
//!
//! Everything derivable from configuration (the permutation layout,
//! runs, server models, traffic patterns, LUTs) or from the columns
//! themselves is rebuilt, not stored: the capped / down tallies,
//! demand (from utilization) and the per-leaf power partials (from
//! output and liveness, which drawn power is read off), through the
//! code the step runs ([`LeafColumns::derive`]). The configuration the state is only
//! meaningful against — the permutation, each server's service and
//! hardware generation, every service's calibration — is one digest
//! word ([`Fleet::fold_config`]).

use dcsim::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter};
use dcsim::{SimRng, SimTime};
use workloads::{get_process, put_process, ServiceKind, ServiceParams};

use super::leaf::get_bit;
use super::{Fleet, LeafColumns};

/// What a fleet's section is called in a refusal.
const SECTION: &str = "fleet";

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

/// Writes one packed mask gathered across the leaves as the words each
/// leaf holds it in, count first.
fn put_flags(w: &mut SnapWriter, leaves: &[LeafColumns], mask: impl Fn(&LeafColumns) -> &[u64]) {
    put_column(w, leaves, mask, |w, &word| w.put_u64(word));
}

/// Reads flags written by [`put_flags`] into the leaves' masks. Every
/// word is written, so no stale state survives; a bit past a leaf's
/// last server is refused, so tail bits stay zero.
fn get_flags(
    r: &mut SnapReader<'_>,
    leaves: &mut [LeafColumns],
    name: &str,
    mask: impl Fn(&mut LeafColumns) -> &mut Vec<u64>,
) -> Result<(), SnapError> {
    get_column(r, leaves, |l| &mut mask(l)[..], |r| r.get_u64())?;
    for (l, leaf) in leaves.iter_mut().enumerate() {
        let n = leaf.len();
        let tail = mask(leaf).last().map_or(0, |&word| word >> (n % 64));
        if n % 64 != 0 && tail != 0 {
            return Err(SnapError::Corrupt(format!(
                "fleet mask {name} of leaf {l} sets a bit past its {n} servers"
            )));
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
    /// Folds the fleet's configuration into its section's digest: the
    /// calibration `params` gives every service, then, position by
    /// position, the server there, its service and its hardware
    /// generation. The settling state is only meaningful against the
    /// curve and LUT it was stepped with, and the demand pass hoists
    /// each run's service parameters.
    fn fold_config(&self, d: &mut ConfigDigest, params: fn(ServiceKind) -> ServiceParams) {
        for p in ServiceKind::all().map(params) {
            for x in [
                p.base_util,
                p.sigma,
                p.theta,
                p.burst_rate,
                p.burst_min,
                p.burst_max,
                p.burst_dur_secs,
                p.traffic_sensitivity,
            ] {
                d.put_f64(x);
            }
        }
        for leaf in &self.leaves {
            for &id in &leaf.perm {
                let id = usize::from(id);
                let sid = leaf.first + id;
                let model = &self.models[usize::from(leaf.model_ix[id])];
                d.put_u64(sid as u64);
                d.put_u64(self.services[sid].index() as u64);
                d.put_u64(model.config().generation.index() as u64);
            }
        }
    }

    /// Saves the fleet's dynamic state: the configuration digest, then
    /// the leaves' columns as flat fleet-wide ones, every `[..]` a
    /// `u64` count and then the elements. Must be called at a tick
    /// boundary.
    pub fn save(&self, w: &mut SnapWriter) {
        let leaves = &self.leaves[..];
        w.put_config(|d| self.fold_config(d, ServiceKind::params));
        put_column(w, leaves, |l| &l.agent_rng, |w, rng| rng.save(w));
        put_flags(w, leaves, |l| &l.running);
        // One process record per position.
        w.put_u64(self.len() as u64);
        for leaf in leaves {
            for pos in 0..leaf.len() {
                let burst = (leaf.wl_burst_until[pos], leaf.wl_burst_add[pos]);
                put_process(w, leaf.wl_noise[pos], burst, &leaf.wl_rng[pos]);
            }
        }
        w.put_u64(self.pending_restarts.len() as u64);
        for &(sid, at) in &self.pending_restarts {
            w.put_u32(sid);
            w.put_u64(at.as_millis());
        }
        self.rng.save(w);
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

    /// The bytes DESIGN.md §13's fleet layout gives this fleet's state:
    /// per server its two streams, its process state (noise, and a
    /// burst in flight) and its limit, output and utilization; per leaf
    /// its three flag masks' words and three words of its own; the
    /// pending restarts, the fleet's stream, the counts, the tick and
    /// the digest. No configuration.
    #[cfg(test)]
    pub(crate) fn layout_len(&self) -> usize {
        let stream = |rng: &SimRng| {
            let mut w = SnapWriter::new();
            rng.save(&mut w);
            w.len()
        };
        let mut servers = 0;
        for leaf in &self.leaves {
            for pos in 0..leaf.len() {
                let burst = (leaf.wl_burst_until[pos], leaf.wl_burst_add[pos]);
                let process = 8
                    + 1
                    + 16 * workloads::kernel::burst_from_columns(burst.0, burst.1).map_or(0, |_| 1);
                let streams = stream(&leaf.agent_rng[pos]) + stream(&leaf.wl_rng[pos]);
                servers += streams + process + 3 * 8;
            }
        }
        let words: usize = self.leaves.iter().map(|l| l.len().div_ceil(64)).sum();
        let leaves = self.leaves.len();
        // Twelve counts, the tick and the digest.
        let words_of_its_own = 14 * 8;
        servers
            + 3 * 8 * words
            + (1 + 2 * 8) * leaves
            + 12 * self.pending_restarts.len()
            + stream(&self.rng)
            + words_of_its_own
    }

    /// Loads what [`Fleet::save`] wrote into a fleet rebuilt from the
    /// identical configuration (same server configs, services, leaf
    /// spans and seed). Every count must be the rebuilt fleet's, so no
    /// length or id from the file is used unchecked. A digest that is
    /// not the rebuilt fleet's means the topology or server mix drifted:
    /// a mismatch naming the section ([`SnapReader::config`]).
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = self.len();
        r.config(SECTION, |d| self.fold_config(d, ServiceKind::params))?;
        get_column(r, &mut self.leaves, |l| &mut l.agent_rng, SimRng::decode)?;
        get_flags(r, &mut self.leaves, "running", |l| &mut l.running)?;
        r.get_len(n, "servers")?;
        for leaf in &mut self.leaves {
            for pos in 0..leaf.len() {
                let burst = (&mut leaf.wl_burst_until[pos], &mut leaf.wl_burst_add[pos]);
                let (noise, rng) = (&mut leaf.wl_noise[pos], &mut leaf.wl_rng[pos]);
                get_process(r, noise, burst, rng)?;
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
        get_flags(r, leaves, "not_init", |l| &mut l.not_init)?;
        get_flags(r, leaves, "alive", |l| &mut l.alive)?;
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
                assert!(
                    msg.starts_with("fleet configuration is not this build's"),
                    "{msg}"
                )
            }
            other => panic!("expected the fleet's digest mismatch, got {other:?}"),
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
            let folded: f64 = (0..leaf.len())
                .map(|id| target.power_of((leaf.first + id) as u32).as_watts())
                .sum();
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

    /// A flag travels as the mask word it is held in: a word with a bit
    /// set past its leaf's last server would be counted by every fold
    /// of the mask, so it is refused.
    #[test]
    fn load_rejects_a_flag_past_a_leafs_last_server() {
        let fresh = || build(ServerGeneration::Haswell2015);
        let mut fleet = fresh();
        fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
        let forged = forge(fresh, &saved(&fleet), |f| f.leaves[0].alive[0] |= 1 << 4);
        assert_refused(
            &forged,
            "fleet mask alive of leaf 0 sets a bit past its 4 servers",
        );
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
    /// any others — a file written where a service is calibrated
    /// otherwise, or where a server runs another service, is refused
    /// for the fleet's digest — and the columns must round-trip what
    /// they hold.
    #[test]
    fn load_rejects_workload_states_that_are_not_the_services_own() {
        let services = |rekind: Option<usize>| {
            let mut services: Vec<ServiceKind> =
                (0..12).map(|i| ServiceKind::all()[i % 6]).collect();
            if let Some(sid) = rekind {
                let next = (services[sid].index() + 1) % ServiceKind::COUNT;
                services[sid] = ServiceKind::all()[next];
            }
            services
        };
        let build_with = |rekind| {
            Fleet::new(
                vec![ServerConfig::new(ServerGeneration::Haswell2015); 12],
                services(rekind),
                SimRng::seed_from(19),
                &[0..6, 6..12],
            )
        };
        let build = || build_with(None);
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

        // Process 3's service retuned (its sigma doubled), or the
        // server at position 3 running the next service.
        let retuned = |kind: ServiceKind| ServiceParams {
            sigma: kind.params().sigma * 2.0,
            ..kind.params()
        };
        let mut retuned_bytes = bytes.clone();
        let mut w = SnapWriter::new();
        w.put_config(|d| fleet.fold_config(d, retuned));
        retuned_bytes[..8].copy_from_slice(w.as_bytes());
        let rekinded = saved(&build_with(Some(fleet.leaves[0].perm[3] as usize)));
        for (bad, what) in [(retuned_bytes, "params"), (rekinded, "kind")] {
            match load(&mut build(), &bad) {
                Err(SnapError::Corrupt(msg)) => assert!(
                    msg.starts_with("fleet configuration is not this build's"),
                    "{msg}"
                ),
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
