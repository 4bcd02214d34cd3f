//! Grid-interactive demand response: what honoring a utility
//! curtailment costs, and what ignoring one would have drawn.
//!
//! The Dynamo paper stops at protecting the datacenter's own breakers;
//! its §III-D contractual-limit path, however, is exactly the lever a
//! site economic controller needs to participate in utility demand
//! response. This experiment runs the same fleet twice through a
//! 10-minute curtailment window (the utility drops the site allowance
//! to 80% of interconnect capacity): once grid-blind, once with the
//! grid layer live (economic controller pushing MSB contracts, DCUPS
//! banks buffering the step). Reported: the metered mean utility draw
//! over the window against the allowance, containment, and the
//! performance price paid for compliance.

use dcsim::SimDuration;
use dynamo::{Datacenter, DatacenterBuilder, GridSummary, ServicePlan};
use powerinfra::{DeviceLevel, Power};
use workloads::ServiceKind;

use crate::common::{datacenter, fmt_f, render_table, Scale};

/// Window sampling for one run: mean utility draw and mean performance
/// over the curtailment window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowOutcome {
    /// Mean utility draw across the window, kW.
    pub mean_draw_kw: f64,
    /// Mean fleet performance factor across the window (1.0 = uncapped).
    pub performance: f64,
}

/// The regenerated experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct GridExperiment {
    /// Curtailment window, seconds of simulated time.
    pub window: (u64, u64),
    /// The curtailed utility allowance, kW (80% of interconnect).
    pub allowance_kw: f64,
    /// The grid-blind run: draws straight through the window.
    pub baseline: WindowOutcome,
    /// The grid-aware run.
    pub grid: WindowOutcome,
    /// The grid layer's own accounting at the end of the run.
    pub summary: GridSummary,
}

impl GridExperiment {
    /// Performance given up for compliance, percent of baseline.
    pub fn performance_cost_pct(&self) -> f64 {
        (1.0 - self.grid.performance / self.baseline.performance) * 100.0
    }

    /// True when every curtailment was metered as contained.
    pub fn contained(&self) -> bool {
        self.summary.curtailments > 0
            && self.summary.contained == self.summary.curtailments
            && self.summary.violation_secs == 0
    }
}

fn base(scale: Scale, seed: u64) -> DatacenterBuilder {
    datacenter()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(scale.pick(4, 16))
        // Realistic bank sizing: DCUPS capacity follows the leaf design
        // load, so the rating must track the fleet instead of the
        // 190 kW default or the batteries would absorb the whole window
        // and the contract path would never engage.
        .rpp_rating(Power::from_kilowatts(scale.pick(2.5, 10.0)))
        .service_plan(ServicePlan::Mix(vec![
            (ServiceKind::Web, 0.6),
            (ServiceKind::Cache, 0.4),
        ]))
        .seed(seed)
}

fn build(scale: Scale, seed: u64, msb_rating: Power, grid: bool) -> Datacenter {
    let b = base(scale, seed).msb_rating(msb_rating);
    if grid {
        b.grid_scenario("curtailment-window").build()
    } else {
        b.build()
    }
}

/// Steps through the full scenario, sampling draw and performance over
/// the curtailment window. Utility draw is the grid layer's metered
/// value when one is live, the raw site draw otherwise.
fn run_one(dc: &mut Datacenter, window: (u64, u64)) -> WindowOutcome {
    let msb = dc.topology().devices_at(DeviceLevel::Msb)[0];
    let mut draw_acc = 0.0;
    let mut perf_acc = 0.0;
    let mut samples = 0u64;
    for t in 0..window.1 + 300 {
        dc.step();
        if (window.0..window.1).contains(&t) {
            let utility = match dc.grid() {
                Some(g) => g.utility_draw(),
                None => dc.device_power(msb),
            };
            draw_acc += utility.as_kilowatts();
            perf_acc += dc.performance_under(msb);
            samples += 1;
        }
    }
    WindowOutcome {
        mean_draw_kw: draw_acc / samples as f64,
        performance: perf_acc / samples as f64,
    }
}

/// Runs grid-blind and grid-aware side by side.
pub fn run(scale: Scale) -> GridExperiment {
    let seed = 77;
    // Pin the interconnect 15% above the unconstrained draw so the 80%
    // allowance actually binds (at ~87% of capacity the fleet would
    // otherwise sail through the window untouched).
    let msb_rating = {
        let mut probe = base(scale, seed).build();
        probe.run_for(SimDuration::from_secs(60));
        probe.fleet().stats().total_power * 1.15
    };
    // The curtailment-window preset: allowance drops to 80% of capacity
    // for 300..900 s.
    let window = (300u64, 900u64);
    let allowance_kw = msb_rating.as_kilowatts() * 0.80;

    let mut blind = build(scale, seed, msb_rating, false);
    let baseline = run_one(&mut blind, window);
    let mut aware = build(scale, seed, msb_rating, true);
    let grid = run_one(&mut aware, window);
    let summary = aware.grid().expect("grid configured").summary();

    GridExperiment {
        window,
        allowance_kw,
        baseline,
        grid,
        summary,
    }
}

impl std::fmt::Display for GridExperiment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Grid-interactive demand response: {}..{} s curtailment window, \
             utility allowance {:.1} kW",
            self.window.0, self.window.1, self.allowance_kw
        )?;
        let row = |name: &str, o: &WindowOutcome| {
            vec![
                name.to_string(),
                fmt_f(o.mean_draw_kw, 2),
                fmt_f((o.mean_draw_kw / self.allowance_kw - 1.0) * 100.0, 1),
                fmt_f(o.performance * 100.0, 1),
            ]
        };
        f.write_str(&render_table(
            &[
                "run",
                "window mean draw (kW)",
                "vs allowance (%)",
                "performance (%)",
            ],
            &[
                row("grid-blind", &self.baseline),
                row("grid-aware", &self.grid),
            ],
        ))?;
        let s = &self.summary;
        writeln!(
            f,
            "grid layer: {}/{} curtailments contained, {} s violation, \
             {} limit pushes over {} econ cycles, dcups low water {:.1}%{}",
            s.contained,
            s.curtailments,
            s.violation_secs,
            s.limit_changes,
            s.econ_cycles,
            s.charge_low_water * 100.0,
            match s.last_containment_secs {
                Some(t) => format!(", contained in {t} s"),
                None => String::new(),
            }
        )?;
        writeln!(
            f,
            "compliance costs {:.1}% of fleet performance for the window — the\n\
             economic choice the site controller trades against the tariff.",
            self.performance_cost_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curtailment_is_contained_where_baseline_overdraws() {
        let e = run(Scale::Quick);
        assert!(e.contained(), "window not contained: {e}");
        assert!(
            e.baseline.mean_draw_kw > e.allowance_kw,
            "vacuity: baseline must overdraw the allowance for the \
             experiment to show anything: {e}"
        );
        assert!(
            e.grid.mean_draw_kw <= e.allowance_kw * 1.01,
            "grid-aware window mean must honor the allowance: {e}"
        );
    }

    #[test]
    fn compliance_has_a_bounded_performance_price() {
        let e = run(Scale::Quick);
        assert!(
            e.grid.performance <= e.baseline.performance + 1e-9,
            "capping cannot improve performance: {e}"
        );
        assert!(
            e.performance_cost_pct() < 15.0,
            "a 20% curtailment should not cost 15%+ of performance: {e}"
        );
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = run(Scale::Quick);
        let b = run(Scale::Quick);
        assert_eq!(a, b, "same scale, same seed, different outcome");
    }

    #[test]
    fn display_reports_both_runs() {
        let s = run(Scale::Quick).to_string();
        for needle in ["grid-blind", "grid-aware", "contained", "performance"] {
            assert!(s.contains(needle), "missing {needle} in\n{s}");
        }
    }
}
