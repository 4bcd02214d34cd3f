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
//! — and saves both as one flat section.

use dcsim::snap::{put_bool_slice, put_u64_slice, SnapError, SnapReader, SnapWriter};

/// Pending upper-tier primary failures, skipped-cycle tallies and the
/// cumulative failover count for both controller tiers.
#[derive(Debug)]
pub(crate) struct Failover {
    upper_failed: Vec<bool>,
    leaf_skipped: Vec<u64>,
    upper_skipped: Vec<u64>,
    count: u64,
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

    /// Saves the leaves' pending-failure flags, `leaf_failed`, and
    /// this state.
    pub(crate) fn save(
        &self,
        w: &mut SnapWriter,
        leaf_failed: impl ExactSizeIterator<Item = bool>,
    ) {
        w.put_u64(leaf_failed.len() as u64);
        for failed in leaf_failed {
            w.put_bool(failed);
        }
        put_bool_slice(w, &self.upper_failed);
        put_u64_slice(w, &self.leaf_skipped);
        put_u64_slice(w, &self.upper_skipped);
        w.put_u64(self.count);
    }

    /// Loads what [`Failover::save`] wrote, the leaves' flags into
    /// `leaf_failed`, checking the tier sizes against the rebuilt
    /// control plane.
    pub(crate) fn load<'a>(
        &mut self,
        r: &mut SnapReader<'_>,
        leaf_failed: impl ExactSizeIterator<Item = &'a mut bool>,
    ) -> Result<(), SnapError> {
        r.get_len(leaf_failed.len(), "leaf failover flags")?;
        for failed in leaf_failed {
            *failed = r.get_bool()?;
        }
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
        self.count = r.get_count()?;
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
    fn save_carries_the_leaf_flags_and_load_checks_their_count() {
        let mut f = Failover::new(3, 1);
        f.record_leaf(2);
        let mut w = SnapWriter::new();
        f.save(&mut w, [true, false, true].into_iter());
        let bytes = w.into_bytes();
        let (mut twin, mut flags) = (Failover::new(3, 1), [false; 3]);
        let mut r = SnapReader::new(&bytes);
        twin.load(&mut r, flags.iter_mut())
            .expect("same tier sizes");
        assert_eq!(r.remaining(), 0);
        assert_eq!(flags, [true, false, true]);
        assert_eq!((twin.count(), twin.leaf_skipped()), (1, &[0, 0, 1][..]));
        let mut two = [false; 2];
        let mut r = SnapReader::new(&bytes);
        assert!(Failover::new(2, 1).load(&mut r, two.iter_mut()).is_err());
    }
}
