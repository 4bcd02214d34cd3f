//! Periodic task scheduling.

use serde::{Deserialize, Serialize};

use crate::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter};
use crate::{SimDuration, SimTime};

/// The cadence of one periodic loop inside a time-stepped simulation: a
/// fixed period plus a phase offset. Every periodic loop of the control
/// plane owns one — each leaf controller (3 s), each upper controller
/// (9 s), the breaker validation and the grid's economic controller
/// (60 s), telemetry sampling — and fires at `phase, phase + period,
/// phase + 2·period, …`.
///
/// The simulation calls [`CycleSchedule::fire`] every tick; it returns
/// `true` exactly when a boundary has been reached and advances itself.
/// If the caller's tick is coarser than the period, missed boundaries
/// coalesce into a single firing — an overslept poller runs once, not N
/// times — and the cadence snaps back to the phase grid.
///
/// # Example
///
/// ```
/// use dcsim::{CycleSchedule, SimDuration, SimTime};
///
/// let mut poll =
///     CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_millis(750));
/// assert!(!poll.fire(SimTime::ZERO));
/// assert!(poll.fire(SimTime::from_millis(750)));
/// assert_eq!(poll.next_at(), SimTime::from_millis(3750));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleSchedule {
    period: SimDuration,
    phase: SimDuration,
    next: SimTime,
}

impl CycleSchedule {
    /// Creates a phase-zero schedule: first firing at [`SimTime::ZERO`],
    /// then every `period`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        Self::with_phase(period, SimDuration::ZERO)
    }

    /// Creates a schedule offset by `phase`: firings at `phase`,
    /// `phase + period`, `phase + 2·period`, …
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn with_phase(period: SimDuration, phase: SimDuration) -> Self {
        assert!(!period.is_zero(), "schedule period must be positive");
        CycleSchedule {
            period,
            phase,
            next: SimTime::ZERO + phase,
        }
    }

    /// The period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The phase offset this schedule was built with.
    pub fn phase(&self) -> SimDuration {
        self.phase
    }

    /// The next firing time.
    pub fn next_at(&self) -> SimTime {
        self.next
    }

    /// True if the schedule would fire at `now` (without advancing).
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next
    }

    /// Fires if due, advancing to the next phase-grid boundary strictly
    /// after `now`. Returns whether the cycle should run this instant.
    pub fn fire(&mut self, now: SimTime) -> bool {
        if now < self.next {
            return false;
        }
        while self.next <= now {
            self.next += self.period;
        }
        true
    }

    /// Folds the schedule's configuration, its period and phase, into
    /// its section's digest.
    pub fn fold_config(&self, d: &mut ConfigDigest) {
        d.put_u64(self.period.as_millis());
        d.put_u64(self.phase.as_millis());
    }

    /// Writes the schedule's state: its next firing. Period and phase
    /// are configuration ([`CycleSchedule::fold_config`]).
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.next.as_millis());
    }

    /// Loads what [`CycleSchedule::save`] wrote into this schedule. The
    /// stored firing time must be a point of this schedule's grid, or
    /// the difference is noted ([`SnapReader::mismatch`]) and the
    /// schedule stays as it is.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let next = SimTime::from_millis(r.get_u64()?);
        let on_grid = (next.as_millis())
            .checked_sub(self.phase.as_millis())
            .is_some_and(|since| since % self.period.as_millis() == 0);
        if on_grid {
            self.next = next;
        } else {
            r.mismatch(SnapError::Corrupt(format!(
                "schedule firing at {next:?} in snapshot is not a position of the configured \
                 {self:?}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_every_boundary_with_fine_ticks() {
        let mut s = CycleSchedule::new(SimDuration::from_secs(3));
        let mut fired = Vec::new();
        for t in 0..10 {
            if s.fire(SimTime::from_secs(t)) {
                fired.push(t);
            }
        }
        assert_eq!(fired, vec![0, 3, 6, 9]);
    }

    #[test]
    fn coarse_ticks_coalesce_missed_boundaries() {
        let mut s = CycleSchedule::new(SimDuration::from_secs(3));
        assert!(s.fire(SimTime::ZERO));
        // Jump 10 s: one firing, then the next boundary is at 12 s.
        assert!(s.fire(SimTime::from_secs(10)));
        assert_eq!(s.next_at(), SimTime::from_secs(12));
        assert!(!s.fire(SimTime::from_secs(11)));
        assert!(s.fire(SimTime::from_secs(12)));
    }

    #[test]
    fn due_does_not_advance() {
        let s = CycleSchedule::new(SimDuration::from_secs(60));
        assert!(s.due(SimTime::ZERO));
        assert!(s.due(SimTime::from_secs(99)));
        assert_eq!(s.next_at(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        CycleSchedule::new(SimDuration::ZERO);
    }

    /// `saved` written as a section of one schedule and loaded into
    /// `into`: what the load refused, if anything, and where `into` then
    /// stands.
    fn load(saved: &CycleSchedule, mut into: CycleSchedule) -> (Result<(), SnapError>, SimTime) {
        let mut w = SnapWriter::new();
        w.put_config(|d| saved.fold_config(d));
        saved.save(&mut w);
        let mut r = SnapReader::new(w.as_bytes());
        r.config("schedule", |d| into.fold_config(d))
            .and_then(|()| into.load(&mut r))
            .expect("a schedule's bytes read");
        (r.finish("schedule"), into.next_at())
    }

    /// Whether `loaded` refused a file for its section's digest.
    fn digest_refused(loaded: &Result<(), SnapError>) -> bool {
        matches!(loaded, Err(SnapError::Corrupt(m)) if m.starts_with("schedule configuration"))
    }

    #[test]
    fn load_takes_next_and_nothing_else() {
        let configured =
            CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_millis(500));
        let mut moved = configured;
        moved.fire(SimTime::from_secs(7));
        assert_eq!(load(&moved, configured), (Ok(()), moved.next_at()));
        let start = configured.next_at();
        // Another period or phase: the section's digest differs.
        for saved in [
            CycleSchedule::with_phase(SimDuration::from_secs(4), SimDuration::from_millis(500)),
            CycleSchedule::new(SimDuration::from_secs(3)),
        ] {
            assert!(digest_refused(&load(&saved, configured).0), "{saved:?}");
        }
        // A firing time off the grid is noted, and not taken.
        let mut off_grid = moved;
        off_grid.next = SimTime::from_millis(7_600);
        let (loaded, at) = load(&off_grid, configured);
        assert!(
            matches!(&loaded, Err(SnapError::Corrupt(m)) if m.contains("not a position")),
            "{loaded:?}"
        );
        assert_eq!(at, start);
    }

    /// A zero period in the file is another period than any schedule's.
    #[test]
    fn a_zero_period_does_not_load() {
        let zero = CycleSchedule {
            period: SimDuration::ZERO,
            phase: SimDuration::ZERO,
            next: SimTime::ZERO,
        };
        let configured = CycleSchedule::new(SimDuration::from_secs(3));
        assert!(digest_refused(&load(&zero, configured).0));
    }

    #[test]
    fn cycle_phase_shifts_the_whole_grid() {
        let mut s =
            CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_millis(1500));
        assert_eq!(s.phase(), SimDuration::from_millis(1500));
        let mut fired = Vec::new();
        for t in 0..12 {
            if s.fire(SimTime::from_secs(t)) {
                fired.push(t);
            }
        }
        // First boundary 1.5 s is reached at t=2 s; cadence then follows
        // the 1.5 s + 3k grid: 4.5 s -> t=5, 7.5 s -> t=8, 10.5 s -> t=11.
        assert_eq!(fired, vec![2, 5, 8, 11]);
    }

    #[test]
    fn cycle_coalesces_and_returns_to_the_phase_grid() {
        let mut s = CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_secs(1));
        assert!(s.fire(SimTime::from_secs(1)));
        // Oversleep past three boundaries: one firing, grid preserved.
        assert!(s.fire(SimTime::from_secs(11)));
        assert_eq!(s.next_at(), SimTime::from_secs(13));
    }
}
