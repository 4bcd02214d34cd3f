//! Figure 11: a leaf-controller capping event in a front-end cluster —
//! morning traffic ramp, a production load test pushing a 127.5 kW PDU
//! breaker over its capping threshold, capping, and later uncapping.

use dcsim::{SimDuration, SimTime};

use dynamo::ControllerEventKind;
use powerinfra::{DeviceLevel, Power};
use workloads::ServiceKind;

use crate::common::{datacenter, fmt_f, render_table, Scale};

/// One five-minute sample of the Figure 11 timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig11Row {
    /// Wall-clock label, minutes after the 8:00 AM start.
    pub minutes: u64,
    /// PDU power (kW).
    pub power_kw: f64,
    /// Servers under a cap at that moment.
    pub capped: usize,
}

/// The regenerated Figure 11.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Breaker rating (kW).
    pub limit_kw: f64,
    /// Capping threshold / target / uncap threshold (kW).
    pub bands_kw: (f64, f64, f64),
    /// Five-minute samples across the 4.5 h window.
    pub rows: Vec<Fig11Row>,
    /// Minutes after start when capping first triggered.
    pub first_cap_min: Option<u64>,
    /// Minutes after start when uncapping happened.
    pub uncap_min: Option<u64>,
    /// Whether any breaker tripped (must be false).
    pub tripped: bool,
    /// Peak power observed while caps were active (kW).
    pub held_peak_kw: f64,
}

/// Replays the Figure 11 timeline. `t = 0` is 8:00 AM; the morning
/// diurnal ramp rises toward a midday shoulder; a production load test
/// shifts extra user traffic in from 10:40 to 11:45.
pub fn run(scale: Scale) -> Fig11 {
    // Full scale: 10 racks × 42 = 420 front-end web servers on a
    // 127.5 kW PDU breaker (the paper's setup). Quick scale divides
    // everything by four.
    let (racks, per_rack, limit_kw) = scale.pick((5, 21, 31.875), (10, 42, 127.5));
    // 10:40 - 11:45, shifting 2.5x user traffic onto the cluster.
    let pattern = workloads::scenarios::production_load_test(
        SimTime::from_mins(160),
        SimTime::from_mins(225),
        2.5,
    );

    let mut dc = datacenter()
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(racks)
        .servers_per_rack(per_rack)
        .rpp_rating(Power::from_kilowatts(limit_kw))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, pattern)
        .seed(11)
        .build();
    let rpp = dc.topology().devices_at(DeviceLevel::Rpp)[0];

    let total_mins = 270; // 8:00 → 12:30
    let mut rows = Vec::new();
    let mut held_peak_kw = 0.0f64;
    for m in 0..total_mins {
        dc.run_for(SimDuration::from_mins(1));
        let power_kw = dc.device_power(rpp).as_kilowatts();
        let capped = dc.capped_under(rpp);
        if capped > 0 {
            held_peak_kw = held_peak_kw.max(power_kw);
        }
        if m % 5 == 0 {
            rows.push(Fig11Row {
                minutes: m,
                power_kw,
                capped,
            });
        }
    }

    let events = dc.telemetry().controller_events();
    let first_cap_min = events
        .iter()
        .find(|e| matches!(e.kind, ControllerEventKind::LeafCapped { .. }))
        .map(|e| e.at.as_secs() / 60);
    let uncap_min = events
        .iter()
        .find(|e| matches!(e.kind, ControllerEventKind::LeafUncapped))
        .map(|e| e.at.as_secs() / 60);

    let bands = dynamo_controller::PAPER_BANDS;
    Fig11 {
        limit_kw,
        bands_kw: (
            limit_kw * bands.capping_threshold,
            limit_kw * bands.capping_target,
            limit_kw * bands.uncapping_threshold,
        ),
        rows,
        first_cap_min,
        uncap_min,
        tripped: !dc.telemetry().breaker_trips().is_empty(),
        held_peak_kw,
    }
}

fn clock(minutes: u64) -> String {
    let h = 8 + minutes / 60;
    format!("{:02}:{:02}", h, minutes % 60)
}

impl std::fmt::Display for Fig11 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 11: leaf capping during a production load test\n\
             PDU breaker {} kW | threshold {:.1} | target {:.1} | uncap {:.1} kW",
            self.limit_kw, self.bands_kw.0, self.bands_kw.1, self.bands_kw.2
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| vec![clock(r.minutes), fmt_f(r.power_kw, 1), r.capped.to_string()])
            .collect();
        f.write_str(&render_table(&["time", "power kW", "capped"], &rows))?;
        match (self.first_cap_min, self.uncap_min) {
            (Some(c), Some(u)) => writeln!(
                f,
                "capping triggered at {} (paper: ~11:15); uncapped at {} (paper: ~12:00); \
                 held peak {:.1} kW; tripped: {}",
                clock(c),
                clock(u),
                self.held_peak_kw,
                self.tripped
            ),
            _ => writeln!(f, "WARNING: capping/uncapping did not both occur"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capping_fires_during_the_load_test_and_holds_power() {
        let fig = run(Scale::Quick);
        let cap = fig.first_cap_min.expect("capping must trigger");
        // The load test starts at minute 160.
        assert!(cap >= 160, "capping at minute {cap}, before the load test");
        assert!(
            cap <= 225,
            "capping at minute {cap}, after the load test ended"
        );
        // Held below the breaker limit, near the target band.
        assert!(
            fig.held_peak_kw <= fig.limit_kw * 1.01,
            "held peak {}",
            fig.held_peak_kw
        );
        assert!(!fig.tripped, "breaker tripped despite capping");
    }

    #[test]
    fn uncap_follows_the_test_end() {
        let fig = run(Scale::Quick);
        let cap = fig.first_cap_min.unwrap();
        let uncap = fig.uncap_min.expect("uncap must follow");
        assert!(uncap > cap);
        // The load test's ramp-down starts at minute 215; uncapping any
        // time from there on matches the paper's "traffic ... started to
        // return to normal" then uncap.
        assert!(
            uncap >= 213,
            "uncapped at minute {uncap}, before the load test wound down"
        );
    }

    #[test]
    fn morning_ramp_is_visible() {
        let fig = run(Scale::Quick);
        let at = |m: u64| fig.rows.iter().find(|r| r.minutes == m).unwrap().power_kw;
        assert!(
            at(150) > at(5) * 1.05,
            "no diurnal ramp: {} vs {}",
            at(5),
            at(150)
        );
    }
}
