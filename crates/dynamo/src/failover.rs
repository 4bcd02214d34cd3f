//! Primary/backup failover bookkeeping (§III-E).
//!
//! Production Dynamo runs every controller as a primary/backup pair;
//! when a primary dies, the backup — which polls the same devices and
//! keeps its own copy of the decision state — takes over at the next
//! cycle. The simulator models that as one skipped cycle per induced
//! failure. A leaf's pending-failure flag lives with the leaf (its
//! cycle consumes it, in whichever shard runs it, and it is saved with
//! the leaf); [`Failover`] holds what is shared — the upper tier's
//! flags and the per-controller skipped-cycle tallies, whose sum is the
//! takeover count.

use dcsim::snap::{put_bool_slice, put_u64_slice, SnapError, SnapReader, SnapWriter};

/// Pending upper-tier primary failures and the skipped-cycle tallies
/// of both controller tiers.
#[derive(Debug)]
pub(crate) struct Failover {
    upper_failed: Vec<bool>,
    leaf_skipped: Vec<u64>,
    upper_skipped: Vec<u64>,
}

impl Failover {
    /// No failures pending, zero failovers recorded.
    pub(crate) fn new(leaf_count: usize, upper_count: usize) -> Self {
        Failover {
            upper_failed: vec![false; upper_count],
            leaf_skipped: vec![0; leaf_count],
            upper_skipped: vec![0; upper_count],
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
            true
        } else {
            false
        }
    }

    /// Records that leaf `i`'s backup took over (the leaf consumed its
    /// own flag).
    pub(crate) fn record_leaf(&mut self, i: usize) {
        self.leaf_skipped[i] += 1;
    }

    /// Cycles each leaf controller skipped to a backup takeover.
    pub(crate) fn leaf_skipped(&self) -> &[u64] {
        &self.leaf_skipped
    }

    /// Total failovers so far: every takeover skipped one cycle.
    pub(crate) fn count(&self) -> u64 {
        self.leaf_skipped.iter().chain(&self.upper_skipped).sum()
    }

    /// Saves the upper tier's flags and both tiers' tallies.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        put_bool_slice(w, &self.upper_failed);
        put_u64_slice(w, &self.leaf_skipped);
        put_u64_slice(w, &self.upper_skipped);
    }

    /// Loads what [`Failover::save`] wrote, checking the tier sizes
    /// against the rebuilt control plane.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.get_len(self.upper_failed.len(), "upper failover flags")?;
        for failed in &mut self.upper_failed {
            *failed = r.get_bool()?;
        }
        for tally in [&mut self.leaf_skipped, &mut self.upper_skipped] {
            r.get_len(tally.len(), "skipped-cycle tallies")?;
            for skipped in tally.iter_mut() {
                *skipped = r.get_count()?;
            }
        }
        Ok(())
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
    fn load_checks_the_tier_sizes_and_the_count_is_the_tallies() {
        let mut f = Failover::new(3, 1);
        f.record_leaf(2);
        f.fail_upper(0);
        let mut w = SnapWriter::new();
        f.save(&mut w);
        let bytes = w.into_bytes();
        let mut twin = Failover::new(3, 1);
        let mut r = SnapReader::new(&bytes);
        twin.load(&mut r).expect("same tier sizes");
        assert_eq!(r.remaining(), 0);
        assert!(twin.take_upper(0), "the pending flag survives");
        assert_eq!((twin.count(), twin.leaf_skipped()), (2, &[0, 0, 1][..]));
        let mut r = SnapReader::new(&bytes);
        assert!(Failover::new(2, 1).load(&mut r).is_err());
    }
}
