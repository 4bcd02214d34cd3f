//! Periodic task scheduling.

use serde::{Deserialize, Serialize};

use crate::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::{SimDuration, SimTime};

/// Tracks a fixed-period task inside a time-stepped simulation.
///
/// The simulation calls [`PeriodicSchedule::fire`] every tick; it
/// returns `true` exactly when a period boundary has been reached and
/// advances itself. Dynamo's control plane runs on three of these
/// (3 s leaf cycles, 9 s upper cycles, 60 s breaker validation).
///
/// If the caller's tick is coarser than the period, missed boundaries
/// are coalesced into a single firing — matching how a real poller that
/// overslept runs once, not N times.
///
/// # Example
///
/// ```
/// use dcsim::{PeriodicSchedule, SimDuration, SimTime};
///
/// let mut poll = PeriodicSchedule::new(SimDuration::from_secs(3));
/// assert!(poll.fire(SimTime::ZERO));          // first tick fires
/// assert!(!poll.fire(SimTime::from_secs(1)));
/// assert!(!poll.fire(SimTime::from_secs(2)));
/// assert!(poll.fire(SimTime::from_secs(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeriodicSchedule {
    period: SimDuration,
    next: SimTime,
}

impl PeriodicSchedule {
    /// Creates a schedule that first fires at [`SimTime::ZERO`].
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: SimDuration) -> Self {
        Self::starting_at(period, SimTime::ZERO)
    }

    /// Creates a schedule whose first firing is at `start` (phase
    /// offsets keep co-located controllers from polling in lockstep).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn starting_at(period: SimDuration, start: SimTime) -> Self {
        assert!(!period.is_zero(), "schedule period must be positive");
        PeriodicSchedule {
            period,
            next: start,
        }
    }

    /// The period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The next firing time.
    pub fn next_at(&self) -> SimTime {
        self.next
    }

    /// True if the schedule would fire at `now` (without advancing).
    pub fn due(&self, now: SimTime) -> bool {
        now >= self.next
    }

    /// Fires if due, advancing to the next boundary after `now`.
    /// Returns whether the task should run this tick.
    pub fn fire(&mut self, now: SimTime) -> bool {
        if now < self.next {
            return false;
        }
        // Coalesce any missed boundaries: next firing is the first
        // boundary strictly after `now`.
        while self.next <= now {
            self.next += self.period;
        }
        true
    }

    /// This schedule moved to where `saved` stood. The period is
    /// configuration: `saved` must carry this schedule's own, and a
    /// firing time on this schedule's grid.
    pub fn restored(&self, saved: &PeriodicSchedule) -> Result<PeriodicSchedule, SnapError> {
        let period = self.period.as_millis();
        if saved.period != self.period
            || saved.next.as_millis() % period != self.next.as_millis() % period
        {
            return Err(SnapError::Corrupt(format!(
                "schedule {saved:?} in snapshot is not a position of the configured {self:?}"
            )));
        }
        Ok(*saved)
    }
}

impl Snapshot for PeriodicSchedule {
    const KIND: &'static str = "dcsim.PeriodicSchedule";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.period.as_millis());
        w.put_u64(self.next.as_millis());
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let period = SimDuration::from_millis(r.get_u64()?);
        if period.is_zero() {
            return Err(SnapError::Corrupt("zero schedule period".into()));
        }
        Ok(PeriodicSchedule {
            period,
            next: SimTime::from_millis(r.get_u64()?),
        })
    }
}

/// The cycle schedule of one controller instance: a fixed period plus a
/// per-instance phase offset.
///
/// Where [`PeriodicSchedule`] models a single global cadence shared by a
/// whole tier, `CycleSchedule` is the event-driven counterpart: every
/// controller owns one, fires at `phase, phase + period, phase +
/// 2·period, …`, and the control plane keys an [`crate::EventQueue`]
/// entry on [`CycleSchedule::next_at`]. Phase zero is bit-compatible
/// with a `PeriodicSchedule` of the same period, which is what keeps a
/// lockstep configuration reproducible after the event-driven refactor.
///
/// Missed boundaries coalesce exactly like [`PeriodicSchedule::fire`]:
/// an overslept poller runs once, not N times, and cadence snaps back to
/// the original phase grid.
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
    /// then every `period` — identical to [`PeriodicSchedule::new`].
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
        if period.is_zero() {
            return Err(SnapError::Corrupt("zero cycle period".into()));
        }
        Ok(CycleSchedule {
            period,
            phase: SimDuration::from_millis(r.get_u64()?),
            next: SimTime::from_millis(r.get_u64()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_every_boundary_with_fine_ticks() {
        let mut s = PeriodicSchedule::new(SimDuration::from_secs(3));
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
        let mut s = PeriodicSchedule::new(SimDuration::from_secs(3));
        assert!(s.fire(SimTime::ZERO));
        // Jump 10 s: one firing, then the next boundary is at 12 s.
        assert!(s.fire(SimTime::from_secs(10)));
        assert_eq!(s.next_at(), SimTime::from_secs(12));
        assert!(!s.fire(SimTime::from_secs(11)));
        assert!(s.fire(SimTime::from_secs(12)));
    }

    #[test]
    fn phase_offset_delays_the_first_firing() {
        let mut s = PeriodicSchedule::starting_at(SimDuration::from_secs(9), SimTime::from_secs(4));
        assert!(!s.fire(SimTime::ZERO));
        assert!(!s.fire(SimTime::from_secs(3)));
        assert!(s.fire(SimTime::from_secs(4)));
        assert_eq!(s.next_at(), SimTime::from_secs(13));
    }

    #[test]
    fn due_does_not_advance() {
        let s = PeriodicSchedule::new(SimDuration::from_secs(60));
        assert!(s.due(SimTime::ZERO));
        assert!(s.due(SimTime::from_secs(99)));
        assert_eq!(s.next_at(), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        PeriodicSchedule::new(SimDuration::ZERO);
    }

    #[test]
    fn cycle_phase_zero_matches_periodic_schedule() {
        let mut cycle = CycleSchedule::new(SimDuration::from_secs(3));
        let mut periodic = PeriodicSchedule::new(SimDuration::from_secs(3));
        for t in 0..20 {
            let now = SimTime::from_secs(t);
            assert_eq!(cycle.due(now), periodic.due(now));
            assert_eq!(cycle.fire(now), periodic.fire(now), "diverged at t={t}");
            assert_eq!(cycle.next_at(), periodic.next_at());
        }
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
