//! Control-plane event types and the per-controller cycle dispatcher.
//!
//! Deployed Dynamo has no global tick: every leaf controller runs its
//! own 3 s pulling cycle and every upper controller a slower multiple of
//! it (§III-C, §IV), with nothing forcing the ~100 instances of a
//! datacenter to fire at the same instant. The [`CycleDispatcher`] here
//! is that architecture in miniature — one [`CycleSchedule`] per
//! controller instance, keyed on a deterministic [`EventQueue`] — while
//! [`PhasePolicy::Lockstep`] (all offsets zero) keeps the default
//! configuration bit-identical to the legacy global-schedule control
//! plane.

use std::sync::Arc;

use dcsim::{CycleSchedule, EventQueue, SimDuration, SimTime};
use powerinfra::{DeviceId, Power};

/// A notable controller action, for telemetry and assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerEvent {
    /// When it happened.
    pub at: SimTime,
    /// The protected device.
    pub device: DeviceId,
    /// The controller's name (interned — cloning events is cheap).
    pub controller: Arc<str>,
    /// What happened.
    pub kind: ControllerEventKind,
}

/// The kinds of controller events.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerEventKind {
    /// A leaf controller issued caps.
    LeafCapped {
        /// Aggregate power removed.
        total_cut: Power,
        /// Servers that received caps.
        servers: usize,
    },
    /// A leaf controller released its caps.
    LeafUncapped,
    /// A leaf controller declared its aggregation invalid.
    LeafInvalid {
        /// Pull failures that triggered it.
        failures: usize,
    },
    /// An upper controller pushed contractual limits.
    UpperCapped {
        /// Children that received contracts this cycle.
        contracts: usize,
    },
    /// An upper controller cleared its contracts.
    UpperUncapped,
    /// The backup controller took over after a primary failure (§III-E).
    Failover,
}

/// How per-controller cycle phases are assigned within a tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhasePolicy {
    /// Every controller fires at `0, period, 2·period, …` — the
    /// legacy global-schedule behaviour. Bit-identical output to the
    /// pre-event-driven control plane; the default.
    Lockstep,
    /// Controller `i` of an `n`-instance tier gets offset
    /// `spread · i / n`, staggering cycles evenly across the window.
    /// A spread of one leaf period spaces leaves maximally.
    EvenSpread(SimDuration),
}

impl PhasePolicy {
    /// The phase offsets for an `n`-instance tier under this policy.
    pub(crate) fn offsets(self, n: usize) -> Vec<SimDuration> {
        match self {
            PhasePolicy::Lockstep => vec![SimDuration::ZERO; n],
            // Widened: a saturated spread times an index leaves `u64`.
            PhasePolicy::EvenSpread(spread) => (0..n)
                .map(|i| spread.as_millis() as u128 * i as u128 / n as u128)
                .map(|ms| SimDuration::from_millis(ms as u64))
                .collect(),
        }
    }
}

/// Identifies one controller instance on the dispatcher's event queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CycleId {
    /// Leaf controller by tier index.
    Leaf(usize),
    /// Upper controller by tier index.
    Upper(usize),
}

/// The event-driven heart of the control plane: one pending queue entry
/// per controller instance, popped and re-armed each simulation tick.
///
/// [`CycleDispatcher::collect_due`] pops everything due at `now`,
/// coalesces boundaries a coarse outer tick may have skipped (each
/// controller still runs at most once per tick, like a real poller that
/// overslept), re-arms each schedule, and leaves the due indices —
/// sorted ascending — in reusable scratch buffers. Sorting restores the
/// serial build order for controllers due at the same instant, so a
/// phase-zero dispatch is indistinguishable from the old lockstep loop
/// and the batch hand-off to the sharded leaf dispatch stays
/// deterministic.
#[derive(Debug)]
pub(crate) struct CycleDispatcher {
    queue: EventQueue<CycleId>,
    leaf_cycles: Vec<CycleSchedule>,
    upper_cycles: Vec<CycleSchedule>,
    /// Scratch: leaf indices due this tick, ascending. Reused.
    leaf_due: Vec<usize>,
    /// Scratch: upper indices due this tick, ascending. Reused.
    upper_due: Vec<usize>,
}

impl CycleDispatcher {
    /// Arms one queue entry per controller at its first firing time.
    pub(crate) fn new(leaf_cycles: Vec<CycleSchedule>, upper_cycles: Vec<CycleSchedule>) -> Self {
        let mut queue = EventQueue::new();
        for (i, s) in leaf_cycles.iter().enumerate() {
            queue.schedule(s.next_at(), CycleId::Leaf(i));
        }
        for (i, s) in upper_cycles.iter().enumerate() {
            queue.schedule(s.next_at(), CycleId::Upper(i));
        }
        CycleDispatcher {
            queue,
            leaf_cycles,
            upper_cycles,
            leaf_due: Vec::new(),
            upper_due: Vec::new(),
        }
    }

    /// Pops every cycle due at `now` into the due buffers and re-arms
    /// its schedule. Call once per simulation tick, then read
    /// [`CycleDispatcher::leaf_due`] / [`CycleDispatcher::upper_due`].
    pub(crate) fn collect_due(&mut self, now: SimTime) {
        self.leaf_due.clear();
        self.upper_due.clear();
        while let Some((_, id)) = self.queue.pop_before(now) {
            match id {
                CycleId::Leaf(i) => {
                    self.leaf_cycles[i].fire(now);
                    self.queue.schedule(self.leaf_cycles[i].next_at(), id);
                    self.leaf_due.push(i);
                }
                CycleId::Upper(i) => {
                    self.upper_cycles[i].fire(now);
                    self.queue.schedule(self.upper_cycles[i].next_at(), id);
                    self.upper_due.push(i);
                }
            }
        }
        self.leaf_due.sort_unstable();
        self.upper_due.sort_unstable();
    }

    /// Leaf indices due at the last [`CycleDispatcher::collect_due`],
    /// ascending.
    pub(crate) fn leaf_due(&self) -> &[usize] {
        &self.leaf_due
    }

    /// Upper indices due at the last [`CycleDispatcher::collect_due`],
    /// ascending — SBs sort before MSBs, preserving the
    /// children-before-parents evaluation order.
    pub(crate) fn upper_due(&self) -> &[usize] {
        &self.upper_due
    }

    /// The cycle schedule of leaf `i` (phase introspection).
    pub(crate) fn leaf_cycle(&self, i: usize) -> &CycleSchedule {
        &self.leaf_cycles[i]
    }

    /// The per-tier cycle schedules, for snapshotting. The event queue
    /// itself is derived state: one armed entry per schedule at its
    /// `next_at`, so the schedules alone reconstruct it.
    pub(crate) fn schedules(&self) -> (&[CycleSchedule], &[CycleSchedule]) {
        (&self.leaf_cycles, &self.upper_cycles)
    }

    /// Restores the per-tier schedules from a snapshot and re-arms the
    /// event queue from them. Fresh queue sequence numbers are
    /// behaviourally identical: [`CycleDispatcher::collect_due`] sorts
    /// each tier's due list ascending, erasing pop order.
    pub(crate) fn restore_schedules(
        &mut self,
        leaf: Vec<CycleSchedule>,
        upper: Vec<CycleSchedule>,
    ) -> Result<(), dcsim::SnapError> {
        if leaf.len() != self.leaf_cycles.len() || upper.len() != self.upper_cycles.len() {
            return Err(dcsim::SnapError::Corrupt(format!(
                "dispatcher snapshot tier sizes ({}, {}) disagree with the rebuilt control \
                 plane ({}, {})",
                leaf.len(),
                upper.len(),
                self.leaf_cycles.len(),
                self.upper_cycles.len()
            )));
        }
        for (i, saved) in leaf.iter().enumerate() {
            let checked = self.leaf_cycles[i].restored(saved);
            checked.map_err(|e| e.within(format_args!("leaf controller {i}")))?;
        }
        for (i, saved) in upper.iter().enumerate() {
            let checked = self.upper_cycles[i].restored(saved);
            checked.map_err(|e| e.within(format_args!("upper controller {i}")))?;
        }
        self.leaf_cycles = leaf;
        self.upper_cycles = upper;
        let mut queue = EventQueue::new();
        for (i, s) in self.leaf_cycles.iter().enumerate() {
            queue.schedule(s.next_at(), CycleId::Leaf(i));
        }
        for (i, s) in self.upper_cycles.iter().enumerate() {
            queue.schedule(s.next_at(), CycleId::Upper(i));
        }
        self.queue = queue;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatcher(leaf_phases_ms: &[u64], upper_phases_ms: &[u64]) -> CycleDispatcher {
        let leaf = leaf_phases_ms
            .iter()
            .map(|&ms| {
                CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_millis(ms))
            })
            .collect();
        let upper = upper_phases_ms
            .iter()
            .map(|&ms| {
                CycleSchedule::with_phase(SimDuration::from_secs(9), SimDuration::from_millis(ms))
            })
            .collect();
        CycleDispatcher::new(leaf, upper)
    }

    #[test]
    fn phase_zero_fires_every_tier_on_its_grid() {
        let mut d = dispatcher(&[0, 0, 0], &[0]);
        d.collect_due(SimTime::ZERO);
        assert_eq!(d.leaf_due(), &[0, 1, 2]);
        assert_eq!(d.upper_due(), &[0]);
        d.collect_due(SimTime::from_secs(1));
        assert!(d.leaf_due().is_empty() && d.upper_due().is_empty());
        d.collect_due(SimTime::from_secs(3));
        assert_eq!(d.leaf_due(), &[0, 1, 2]);
        assert!(d.upper_due().is_empty());
        d.collect_due(SimTime::from_secs(9));
        assert_eq!(d.upper_due(), &[0]);
    }

    #[test]
    fn spread_phases_fire_at_distinct_instants() {
        let mut d = dispatcher(&[0, 1000, 2000], &[0]);
        let mut fired_at: Vec<Vec<u64>> = vec![Vec::new(); 3];
        for t in 0..12 {
            d.collect_due(SimTime::from_secs(t));
            for &i in d.leaf_due() {
                fired_at[i].push(t);
            }
        }
        assert_eq!(fired_at[0], vec![0, 3, 6, 9]);
        assert_eq!(fired_at[1], vec![1, 4, 7, 10]);
        assert_eq!(fired_at[2], vec![2, 5, 8, 11]);
    }

    #[test]
    fn coarse_ticks_coalesce_to_one_firing_per_controller() {
        let mut d = dispatcher(&[0, 750], &[]);
        d.collect_due(SimTime::ZERO);
        assert_eq!(d.leaf_due(), &[0]);
        // Jump 10 s: each leaf missed multiple boundaries, runs once.
        d.collect_due(SimTime::from_secs(10));
        assert_eq!(d.leaf_due(), &[0, 1]);
        // Grids recovered: 12 s for leaf 0, 12.75 s for leaf 1.
        assert_eq!(d.leaf_cycle(0).next_at(), SimTime::from_secs(12));
        assert_eq!(d.leaf_cycle(1).next_at(), SimTime::from_millis(12_750));
    }

    #[test]
    fn even_spread_offsets_partition_the_window() {
        let offsets = PhasePolicy::EvenSpread(SimDuration::from_secs(3)).offsets(4);
        let ms: Vec<u64> = offsets.iter().map(|o| o.as_millis()).collect();
        assert_eq!(ms, vec![0, 750, 1500, 2250]);
        // `--phase-spread 1e19` saturates the spread; the offsets still
        // partition it.
        let offsets = PhasePolicy::EvenSpread(SimDuration::from_millis(u64::MAX)).offsets(4);
        assert_eq!(offsets[3].as_millis(), (u64::MAX as u128 * 3 / 4) as u64);
    }
}
