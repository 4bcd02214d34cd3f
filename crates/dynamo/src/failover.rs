//! Primary/backup failover bookkeeping (§III-E).
//!
//! Production Dynamo runs every controller as a primary/backup pair;
//! when a primary dies, the backup — which polls the same devices and
//! keeps its own copy of the decision state — takes over at the next
//! cycle. The simulator models that as one skipped cycle per induced
//! failure. A leaf's pending-failure flag lives with the leaf (its
//! cycle consumes it, in whichever shard runs it); [`Failover`] holds
//! what is shared — the upper tier's flags, the per-controller
//! skipped-cycle tallies for reporting, and the running takeover count
//! — and [`FailoverState`] is the flat wire form of both.

use dcsim::snap::{
    get_bool_vec, get_count_vec, put_bool_slice, put_u64_slice, SnapError, SnapReader, SnapWriter,
    Snapshot,
};

/// Pending upper-tier primary failures, skipped-cycle tallies and the
/// cumulative failover count for both controller tiers.
#[derive(Debug, Clone)]
pub(crate) struct Failover {
    upper_failed: Vec<bool>,
    leaf_skipped: Vec<u64>,
    upper_skipped: Vec<u64>,
    count: u64,
}

/// The leaves' pending-failure flags plus [`Failover`], as snapshotted.
#[derive(Debug, Clone)]
pub(crate) struct FailoverState {
    pub(crate) leaf_failed: Vec<bool>,
    shared: Failover,
}

impl Failover {
    /// No failures pending, zero failovers recorded.
    pub(crate) fn new(leaf_count: usize, upper_count: usize) -> Self {
        Failover {
            upper_failed: vec![false; upper_count],
            leaf_skipped: vec![0; leaf_count],
            upper_skipped: vec![0; upper_count],
            count: 0,
        }
    }

    /// Marks upper `i`'s primary as crashed.
    pub(crate) fn fail_upper(&mut self, i: usize) {
        self.upper_failed[i] = true;
    }

    /// If upper `i` has a pending failure, consumes it (the backup
    /// takes over), records the failover, and returns `true`: the
    /// caller skips this cycle.
    pub(crate) fn take_upper(&mut self, i: usize) -> bool {
        if self.upper_failed[i] {
            self.upper_failed[i] = false;
            self.upper_skipped[i] += 1;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Records that leaf `i`'s backup took over (the leaf consumed its
    /// own flag).
    pub(crate) fn record_leaf(&mut self, i: usize) {
        self.leaf_skipped[i] += 1;
        self.count += 1;
    }

    /// Cycles each leaf controller skipped to a backup takeover.
    pub(crate) fn leaf_skipped(&self) -> &[u64] {
        &self.leaf_skipped
    }

    /// Total failovers so far.
    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// The wire form, with the leaves' pending-failure flags.
    pub(crate) fn state(&self, leaf_failed: Vec<bool>) -> FailoverState {
        FailoverState {
            leaf_failed,
            shared: self.clone(),
        }
    }

    /// Overwrites this state from a decoded snapshot, validating that
    /// the tier sizes match the rebuilt control plane. The caller
    /// installs `state.leaf_failed` on the leaves.
    pub(crate) fn restore(&mut self, state: &FailoverState) -> Result<(), SnapError> {
        if state.leaf_failed.len() != self.leaf_skipped.len()
            || state.shared.upper_failed.len() != self.upper_failed.len()
        {
            return Err(SnapError::Corrupt(format!(
                "failover snapshot tier sizes ({} leaves, {} uppers) disagree with the \
                 rebuilt control plane ({} leaves, {} uppers)",
                state.leaf_failed.len(),
                state.shared.upper_failed.len(),
                self.leaf_skipped.len(),
                self.upper_failed.len()
            )));
        }
        self.clone_from(&state.shared);
        Ok(())
    }
}

impl Snapshot for FailoverState {
    const KIND: &'static str = "dynamo.FailoverState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        put_bool_slice(w, &self.leaf_failed);
        put_bool_slice(w, &self.shared.upper_failed);
        put_u64_slice(w, &self.shared.leaf_skipped);
        put_u64_slice(w, &self.shared.upper_skipped);
        w.put_u64(self.shared.count);
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let leaf_failed = get_bool_vec(r)?;
        let upper_failed = get_bool_vec(r)?;
        let leaf_skipped = get_count_vec(r)?;
        let upper_skipped = get_count_vec(r)?;
        if leaf_skipped.len() != leaf_failed.len() || upper_skipped.len() != upper_failed.len() {
            return Err(SnapError::Corrupt(
                "failover skipped tallies disagree with flag arrays".into(),
            ));
        }
        Ok(FailoverState {
            leaf_failed,
            shared: Failover {
                upper_failed,
                leaf_skipped,
                upper_skipped,
                count: r.get_count()?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_consumes_the_flag_and_counts_once() {
        let mut f = Failover::new(2, 1);
        f.record_leaf(1);
        f.fail_upper(0);
        assert!(f.take_upper(0));
        assert!(!f.take_upper(0), "flag is consumed by the takeover");
        assert_eq!(f.count(), 2);
        assert_eq!(f.leaf_skipped(), &[0, 1]);
    }

    #[test]
    fn state_carries_the_leaf_flags_and_restore_checks_their_count() {
        let mut f = Failover::new(3, 1);
        f.record_leaf(2);
        let state = f.state(vec![true, false, true]);
        let back = FailoverState::from_snap_bytes(&state.to_snap_bytes()).expect("round-trips");
        assert_eq!(back.leaf_failed, [true, false, true]);
        let mut twin = Failover::new(3, 1);
        twin.restore(&back).expect("same tier sizes");
        assert_eq!((twin.count(), twin.leaf_skipped()), (1, &[0, 0, 1][..]));
        assert!(Failover::new(2, 1).restore(&back).is_err());
    }
}
