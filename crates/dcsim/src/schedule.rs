//! Periodic task scheduling.

use serde::{Deserialize, Serialize};

use crate::snap::{SnapError, SnapReader, SnapWriter};
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

    /// Writes the schedule: its period and phase, then its next
    /// firing.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.period.as_millis());
        w.put_u64(self.phase.as_millis());
        w.put_u64(self.next.as_millis());
    }

    /// Loads what [`CycleSchedule::save`] wrote into this schedule.
    /// Period and phase are configuration: the stored ones must be this
    /// schedule's own, and the stored firing time a point of their
    /// grid, or the difference is noted ([`SnapReader::mismatch`]) and
    /// the schedule stays as it is. Only `next` moves.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let saved = CycleSchedule {
            period: SimDuration::from_millis(r.get_u64()?),
            phase: SimDuration::from_millis(r.get_u64()?),
            next: SimTime::from_millis(r.get_u64()?),
        };
        let on_grid = saved
            .next
            .as_millis()
            .checked_sub(self.phase.as_millis())
            .is_some_and(|since| since % self.period.as_millis() == 0);
        if (saved.period, saved.phase) == (self.period, self.phase) && on_grid {
            self.next = saved.next;
        } else {
            r.mismatch(SnapError::Corrupt(format!(
                "schedule {saved:?} in snapshot is not a position of the configured {self:?}"
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

    /// `saved`'s bytes loaded into `into`: whether they were taken,
    /// and where `into` then stands.
    fn load(saved: &CycleSchedule, mut into: CycleSchedule) -> (bool, SimTime) {
        let mut w = SnapWriter::new();
        saved.save(&mut w);
        let mut r = SnapReader::new(w.as_bytes());
        into.load(&mut r).expect("a schedule's bytes read");
        (r.finish("schedule").is_ok(), into.next_at())
    }

    #[test]
    fn load_takes_next_and_nothing_else() {
        let configured =
            CycleSchedule::with_phase(SimDuration::from_secs(3), SimDuration::from_millis(500));
        let mut moved = configured;
        moved.fire(SimTime::from_secs(7));
        assert_eq!(load(&moved, configured), (true, moved.next_at()));
        let start = configured.next_at();
        // Another period or phase, and a firing time off the grid.
        let mut off_grid = moved;
        off_grid.next = SimTime::from_millis(7_600);
        for saved in [
            CycleSchedule::with_phase(SimDuration::from_secs(4), SimDuration::from_millis(500)),
            CycleSchedule::new(SimDuration::from_secs(3)),
            off_grid,
        ] {
            assert_eq!(load(&saved, configured), (false, start), "{saved:?}");
        }
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
        assert_eq!(load(&zero, configured), (false, SimTime::ZERO));
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
