//! Ready-made traffic scenarios for the paper's operational events.
//!
//! Two of the case studies in §IV hinge on a traffic shape: a
//! production load test (Figure 11) and a site outage followed by a
//! recovery surge (Figure 12). These constructors build those shapes so
//! experiments, tests and downstream users share one calibrated
//! definition. Figure 14's seven batch job waves are listed where
//! `experiments::fig14` builds them.

use dcsim::{SimDuration, SimTime};

use crate::traffic::{TrafficEvent, TrafficPattern};

/// Figure 11's scenario: a morning diurnal ramp with a production load
/// test that shifts `intensity`× extra user traffic onto the cluster
/// during `[start, end)`, ramping over ten minutes at each edge.
///
/// `t = 0` corresponds to the diurnal trough (early morning); the
/// pattern climbs toward its peak twelve hours in, like the 8:00 →
/// midday rise in the figure.
///
/// # Panics
///
/// Panics if `end <= start` or `intensity` is not positive.
pub fn production_load_test(start: SimTime, end: SimTime, intensity: f64) -> TrafficPattern {
    TrafficPattern::diurnal_with(0.55, 10.0)
        .with_event(TrafficEvent::new(start, end, intensity).with_ramp(SimDuration::from_mins(10)))
}

/// Figure 12's scenario relative to an outage at `outage_start`: a
/// sharp traffic collapse, two failed partial recoveries that make
/// power oscillate, a successful recovery whose surge overshoots to
/// `surge`× normal (returning users plus simultaneous server
/// restarts), and finally a load shift away from the site.
///
/// # Panics
///
/// Panics if `surge <= 1.0` — a recovery surge must overshoot.
pub fn site_recovery(outage_start: SimTime, surge: f64) -> TrafficPattern {
    assert!(
        surge > 1.0,
        "recovery surge must exceed normal traffic, got {surge}"
    );
    let m = |mins: u64| outage_start + SimDuration::from_mins(mins);
    let ramp = SimDuration::from_secs(60);
    let ev = |a: SimTime, b: SimTime, f: f64| TrafficEvent::new(a, b, f).with_ramp(ramp);
    TrafficPattern::flat(1.0)
        // Collapse.
        .with_event(ev(outage_start, m(10), 0.25))
        // Failed partial recoveries: oscillation.
        .with_event(ev(m(10), m(20), 0.6))
        .with_event(ev(m(20), m(30), 0.35))
        .with_event(ev(m(30), m(40), 0.7))
        .with_event(ev(m(40), m(48), 0.4))
        // Successful recovery: the surge.
        .with_event(ev(m(48), m(95), surge))
        // Traffic shifted to other datacenters.
        .with_event(ev(m(95), m(120), 0.95))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_test_rises_plateaus_and_falls() {
        let p = production_load_test(SimTime::from_mins(160), SimTime::from_mins(225), 2.5);
        let at = |mins: u64| p.multiplier(SimTime::from_mins(mins));
        assert!(
            at(100) < at(150) * 1.2,
            "pre-test traffic should be diurnal scale"
        );
        assert!(
            at(190) > at(150) * 2.0,
            "plateau should carry the shifted traffic"
        );
        assert!(
            at(240) < at(190) * 0.6,
            "traffic should return after the test"
        );
    }

    #[test]
    fn site_recovery_has_trough_oscillation_and_surge() {
        let t0 = SimTime::from_mins(54);
        let p = site_recovery(t0, 1.5);
        let at = |mins: u64| p.multiplier(SimTime::from_mins(mins));
        assert!(at(40) > 0.95, "normal before the outage");
        assert!(at(59) < 0.4, "collapse during the outage");
        // Oscillation: a rise then another dip.
        assert!(at(69) > at(79), "partial recovery then relapse");
        assert!(at(110) > 1.4, "recovery surge overshoots");
        assert!((at(175) - 1.0).abs() < 0.1, "back to normal at the end");
    }

    #[test]
    #[should_panic(expected = "surge must exceed")]
    fn undershooting_surge_panics() {
        site_recovery(SimTime::ZERO, 0.9);
    }
}
