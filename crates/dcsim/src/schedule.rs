//! Periodic task scheduling.

use serde::{Deserialize, Serialize};

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
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

    /// A schedule standing at `next`, as a snapshot recorded it. Only
    /// the period is checked here; [`CycleSchedule::restored`] checks
    /// the rest against the configured schedule.
    ///
    /// # Errors
    ///
    /// [`SnapError::Corrupt`] if `period` is zero.
    pub fn from_parts(
        period: SimDuration,
        phase: SimDuration,
        next: SimTime,
    ) -> Result<Self, SnapError> {
        if period.is_zero() {
            return Err(SnapError::Corrupt("zero cycle period".into()));
        }
        Ok(CycleSchedule {
            period,
            phase,
            next,
        })
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

    /// This schedule moved to where `saved` stood. Period and phase are
    /// configuration: `saved` must carry this schedule's own, and a
    /// firing time on their grid.
    pub fn restored(&self, saved: &CycleSchedule) -> Result<CycleSchedule, SnapError> {
        let on_grid = saved
            .next
            .as_millis()
            .checked_sub(self.phase.as_millis())
            .is_some_and(|since| since % self.period.as_millis() == 0);
        if (saved.period, saved.phase) != (self.period, self.phase) || !on_grid {
            return Err(SnapError::Corrupt(format!(
                "schedule {saved:?} in snapshot is not a position of the configured {self:?}"
            )));
        }
        Ok(*saved)
    }
}

impl Snapshot for CycleSchedule {
    const KIND: &'static str = "dcsim.CycleSchedule";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.period.as_millis());
        w.put_u64(self.phase.as_millis());
        w.put_u64(self.next.as_millis());
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let period = SimDuration::from_millis(r.get_u64()?);
        let phase = SimDuration::from_millis(r.get_u64()?);
        CycleSchedule::from_parts(period, phase, SimTime::from_millis(r.get_u64()?))
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

    #[test]
    fn a_zero_period_does_not_decode() {
        let zero = CycleSchedule::from_parts(SimDuration::ZERO, SimDuration::ZERO, SimTime::ZERO);
        assert!(matches!(zero, Err(SnapError::Corrupt(_))));
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
