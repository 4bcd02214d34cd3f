//! Figure 12: how Dynamo prevented a potential power outage — a site
//! issue, oscillating recovery attempts, then a recovery surge driving
//! one SB toward its breaker limit; the upper-level controller caps the
//! offender rows.

use dcsim::{SimDuration, SimTime};
use dynamo::ControllerEventKind;
use powerinfra::{DeviceLevel, Power};
use workloads::ServiceKind;

use crate::common::{datacenter, fmt_f, render_table, Scale};

/// One two-minute sample of the Figure 12 timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// Minutes from the start of the trace (11:06 AM in the paper).
    pub minutes: u64,
    /// SB power (kW).
    pub sb_kw: f64,
    /// Per-row (RPP) power (kW).
    pub rows_kw: Vec<f64>,
    /// Servers capped.
    pub capped: usize,
}

/// The regenerated Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// The SB breaker rating (kW).
    pub sb_limit_kw: f64,
    /// Two-minute samples.
    pub rows: Vec<Fig12Row>,
    /// Minutes when the SB upper controller first pushed contracts.
    pub first_sb_cap_min: Option<u64>,
    /// Maximum rows contracted in one upper cycle (paper: 3 offender
    /// rows).
    pub max_rows_contracted: usize,
    /// Whether the SB (or anything else) tripped — must be false.
    pub tripped: bool,
    /// Peak SB power after capping engaged (kW).
    pub held_peak_kw: f64,
}

/// Replays the Altoona event: normal load, a sharp outage drop,
/// oscillating partial recoveries, then a successful recovery whose
/// surge (returning users + simultaneous server restarts) drives the SB
/// to ~1.3× its normal draw.
pub fn run(scale: Scale) -> Fig12 {
    let (racks, per_rack, sb_kw, rpp_kw) = scale.pick((2, 15, 34.0, 15.0), (4, 30, 135.0, 50.0));
    // Outage at minute 54, oscillating partial recoveries, a 1.5x
    // recovery surge at minute 102, load shifted away at minute 149.
    let pattern = workloads::scenarios::site_recovery(SimTime::from_mins(54), 1.5);

    let mut dc = datacenter()
        .sbs_per_msb(1)
        .rpps_per_sb(4)
        .racks_per_rpp(racks)
        .servers_per_rack(per_rack)
        .rpp_rating(Power::from_kilowatts(rpp_kw))
        .sb_rating(Power::from_kilowatts(sb_kw))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, pattern)
        .seed(12)
        .build();
    let sb = dc.topology().devices_at(DeviceLevel::Sb)[0];
    let rpps = dc.topology().devices_at(DeviceLevel::Rpp);

    let total_mins = 200;
    let mut rows = Vec::new();
    let mut held_peak_kw = 0.0f64;
    for m in 0..total_mins {
        dc.run_for(SimDuration::from_mins(1));
        let sb_kw_now = dc.device_power(sb).as_kilowatts();
        let capped = dc.capped_under(sb);
        if capped > 0 {
            held_peak_kw = held_peak_kw.max(sb_kw_now);
        }
        if m % 2 == 0 {
            rows.push(Fig12Row {
                minutes: m,
                sb_kw: sb_kw_now,
                rows_kw: rpps
                    .iter()
                    .map(|&r| dc.device_power(r).as_kilowatts())
                    .collect(),
                capped,
            });
        }
    }

    let events = dc.telemetry().controller_events();
    let first_sb_cap_min = events
        .iter()
        .find(|e| matches!(e.kind, ControllerEventKind::UpperCapped { .. }))
        .map(|e| e.at.as_secs() / 60);
    let max_rows_contracted = events
        .iter()
        .filter_map(|e| match e.kind {
            ControllerEventKind::UpperCapped { contracts } => Some(contracts),
            _ => None,
        })
        .max()
        .unwrap_or(0);

    Fig12 {
        sb_limit_kw: sb_kw,
        rows,
        first_sb_cap_min,
        max_rows_contracted,
        tripped: !dc.telemetry().breaker_trips().is_empty(),
        held_peak_kw,
    }
}

impl std::fmt::Display for Fig12 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 12: SB-level capping during a site-recovery power surge\n\
             SB limit {:.0} kW; timeline: outage at min 54, oscillating recovery,\n\
             successful recovery surge at min 102, load shifted away at min 149",
            self.sb_limit_kw
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                let mut cells = vec![r.minutes.to_string(), fmt_f(r.sb_kw, 1)];
                cells.extend(r.rows_kw.iter().map(|&kw| fmt_f(kw, 1)));
                cells.push(r.capped.to_string());
                cells
            })
            .collect();
        f.write_str(&render_table(
            &["min", "SB kW", "row0", "row1", "row2", "row3", "capped"],
            &rows,
        ))?;
        writeln!(
            f,
            "SB capping at min {:?} (paper: ~12:48); offender rows contracted: {} \
             (paper: 3); held peak {:.1} kW; tripped: {}",
            self.first_sb_cap_min, self.max_rows_contracted, self.held_peak_kw, self.tripped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surge_triggers_sb_capping_and_no_trip() {
        let fig = run(Scale::Quick);
        let cap_min = fig.first_sb_cap_min.expect("SB capping must fire");
        assert!(
            cap_min >= 100,
            "capping at min {cap_min}, before the recovery surge"
        );
        assert!(!fig.tripped, "SB breaker tripped despite Dynamo");
        assert!(
            fig.held_peak_kw <= fig.sb_limit_kw * 1.02,
            "held {}",
            fig.held_peak_kw
        );
    }

    #[test]
    fn multiple_offender_rows_are_contracted() {
        let fig = run(Scale::Quick);
        assert!(
            fig.max_rows_contracted >= 2,
            "only {} rows contracted (paper capped 3)",
            fig.max_rows_contracted
        );
    }

    #[test]
    fn outage_shows_a_power_trough_before_the_surge() {
        let fig = run(Scale::Quick);
        let at = |m: u64| fig.rows.iter().find(|r| r.minutes == m).unwrap().sb_kw;
        let normal = at(40);
        let trough = at(60);
        let surge_peak = fig
            .rows
            .iter()
            .filter(|r| (104..=145).contains(&r.minutes))
            .map(|r| r.sb_kw)
            .fold(0.0, f64::max);
        assert!(
            trough < normal * 0.6,
            "no outage trough: {normal} -> {trough}"
        );
        assert!(
            surge_peak > normal * 1.1,
            "no recovery surge: {normal} -> {surge_peak}"
        );
    }
}
