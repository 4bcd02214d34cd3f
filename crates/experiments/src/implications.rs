//! §II-C "Design Implications": the analysis that fixes Dynamo's
//! control-loop timing by combining the breaker characterization
//! (Figure 3) with the power-variation characterization (Figure 5).
//!
//! The paper's argument: power can rise by 3% (MSB) to ~30% (rack)
//! within 60 s; overdraws of that size trip breakers within minutes;
//! therefore a datacenter-wide capping system must sample at sub-minute
//! granularity and complete capping within two minutes (Dynamo targets
//! 10 s). This module recomputes the same chain from *our measured*
//! variations and trip curves. It is a derivation, not an experiment:
//! the rises are the 60 s column of the table Figure 5 computed.

use dcsim::SimDuration;
use powerinfra::{DeviceLevel, TripCurve};

use crate::common::{fmt_f, render_table, Scale};
use crate::fig5;

/// One level's deadline derivation.
#[derive(Debug, Clone, Copy)]
pub struct ImplicationRow {
    /// Hierarchy level.
    pub level: DeviceLevel,
    /// Measured p99 power rise within 60 s (% of peak-hour mean).
    pub rise_60s_pct: f64,
    /// Trip time if a device running at its rating absorbs that rise
    /// (seconds; `None` when the rise stays under the rating).
    pub trip_secs: Option<f64>,
}

/// The regenerated §II-C analysis.
#[derive(Debug, Clone)]
pub struct Implications {
    /// Per-level rows, rack first.
    pub rows: Vec<ImplicationRow>,
    /// The binding (smallest) trip deadline across levels, seconds.
    pub binding_deadline_secs: f64,
}

/// The column of a Figure 5 table that holds the 60 s window.
const RISE_WINDOW: usize = 2;
const _: () = assert!(fig5::WINDOWS_SECS[RISE_WINDOW] == 60);

/// Derives the control-loop deadlines from Figure 5's 60 s rises and the
/// Figure 3 trip curves. The rises are the table the last
/// [`fig5::run`] at `scale` recorded; only when there is none does this
/// run Figure 5's simulation itself.
pub fn run(scale: Scale) -> Implications {
    from_table(&fig5::recorded(scale).unwrap_or_else(|| fig5::run(scale).table()))
}

/// Derives the control-loop deadlines from the 60 s column of a Figure 5
/// table and the Figure 3 trip curves.
pub fn from_table(table: &fig5::Table) -> Implications {
    let curve_of = |level: DeviceLevel| match level {
        DeviceLevel::Rack => TripCurve::rack(),
        DeviceLevel::Rpp => TripCurve::rpp(),
        DeviceLevel::Sb => TripCurve::sb(),
        DeviceLevel::Msb => TripCurve::msb(),
    };
    let rows: Vec<ImplicationRow> = fig5::PAPER_P99
        .iter()
        .zip(table)
        .map(|(&(level, _), p99)| {
            let rise = p99[RISE_WINDOW];
            // A device at 100% of its rating hit by a `rise`% surge
            // lands at (1 + rise/100)x — the §II-C worst case under
            // full subscription.
            let overload = 1.0 + rise / 100.0;
            let trip_secs = curve_of(level)
                .trip_time(overload)
                .map(|d: SimDuration| d.as_secs_f64());
            ImplicationRow {
                level,
                rise_60s_pct: rise,
                trip_secs,
            }
        })
        .collect();
    let binding_deadline_secs = rows
        .iter()
        .filter_map(|r| r.trip_secs)
        .fold(f64::INFINITY, f64::min);
    Implications {
        rows,
        binding_deadline_secs,
    }
}

impl Implications {
    /// Whether the paper's derived budgets hold against our measured
    /// deadlines: 60 s sampling resolves the variation, and the capping
    /// path (sampling + decision + RAPL settling, ≲ 2 min) beats every
    /// trip deadline.
    pub fn two_minute_budget_is_sound(&self) -> bool {
        self.binding_deadline_secs >= 120.0
    }
}

impl std::fmt::Display for Implications {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Design implications (§II-C): measured 60 s p99 power rise per level,\n\
             and how long a fully-subscribed breaker would sustain that surge"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.level.label().to_string(),
                    fmt_f(r.rise_60s_pct, 1),
                    r.trip_secs.map_or("never".to_string(), |t| fmt_f(t, 0)),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &["level", "p99 rise in 60s (%)", "trip time (s)"],
            &rows,
        ))?;
        writeln!(
            f,
            "binding deadline: {:.0} s -> sample at sub-minute granularity and finish\n\
             capping well inside 2 minutes (Dynamo: 3 s sampling, ~10 s action budget).\n\
             paper's numbers: 3% (MSB) .. 30% (rack) rises; ~2 min MSB trip at ~5% overdraw.\n\
             two-minute capping budget sound: {}",
            self.binding_deadline_secs,
            self.two_minute_budget_is_sound()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_justify_the_papers_budgets() {
        let imp = run(Scale::Quick);
        // Every level with a finite deadline gives the controller at
        // least the paper's two-minute window...
        assert!(
            imp.two_minute_budget_is_sound(),
            "deadline {}",
            imp.binding_deadline_secs
        );
        // ...but not unboundedly more: minute-granularity sampling (as
        // prior work used) would leave less than a handful of samples
        // before a trip at some level.
        assert!(
            imp.binding_deadline_secs < 3600.0,
            "no level is ever at risk — the scenario is too easy"
        );
    }

    #[test]
    fn rack_rises_most_and_msb_least() {
        let imp = run(Scale::Quick);
        let rack = imp
            .rows
            .iter()
            .find(|r| r.level == DeviceLevel::Rack)
            .unwrap();
        let msb = imp
            .rows
            .iter()
            .find(|r| r.level == DeviceLevel::Msb)
            .unwrap();
        assert!(rack.rise_60s_pct > msb.rise_60s_pct);
    }

    #[test]
    fn display_renders_all_levels() {
        let s = run(Scale::Quick).to_string();
        for label in ["Rack", "RPP", "SB", "MSB"] {
            assert!(s.contains(label));
        }
        assert!(s.contains("binding deadline"));
    }
}
