//! Figure 5: power-variation CDFs at each hierarchy level (rack, RPP,
//! SB, MSB) across time windows from 3 s to 600 s, reported as p99s.

use dcsim::SimDuration;
use dynamo::{Datacenter, ServicePlan};
use powerinfra::DeviceLevel;
use powerstats::{quantile_of, sliding_variation, Trace};
use workloads::{ServiceKind, TrafficPattern};

use crate::common::{datacenter, fmt_f, render_table, Scale};

/// The window sizes of the paper's Figure 5.
pub const WINDOWS_SECS: [u64; 6] = [3, 30, 60, 150, 300, 600];

/// The paper's published p99 variation (%) per level per window.
pub const PAPER_P99: [(DeviceLevel, [f64; 6]); 4] = [
    (DeviceLevel::Rack, [12.8, 26.6, 31.6, 36.7, 40.0, 42.7]),
    (DeviceLevel::Rpp, [3.4, 11.1, 13.3, 16.7, 19.3, 21.6]),
    (DeviceLevel::Sb, [1.5, 3.4, 3.9, 4.5, 5.1, 5.9]),
    (DeviceLevel::Msb, [1.4, 2.9, 3.3, 3.9, 4.4, 5.2]),
];

/// One level's regenerated p99 row.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Hierarchy level.
    pub level: DeviceLevel,
    /// Measured p99 variation (%) per window in [`WINDOWS_SECS`] order.
    pub p99: [f64; 6],
    /// Paper's p99 values.
    pub paper_p99: [f64; 6],
}

/// The regenerated Figure 5.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// Rack → MSB rows.
    pub rows: Vec<Fig5Row>,
    /// Servers simulated.
    pub servers: usize,
    /// Simulated hours.
    pub hours: u64,
}

/// The simulated suite Figure 5 is read from: a mixed-service suite
/// with Dynamo in monitoring-only mode, every level's devices traced.
pub struct Fig5Suite {
    dc: Datacenter,
    hours: u64,
}

/// Simulates the Figure 5 suite — the expensive half of [`run`], shared
/// with the §II-C analysis, which reads one window of it.
pub fn simulate(scale: Scale) -> Fig5Suite {
    let hours = scale.pick(2, 12);
    let mut dc = datacenter()
        .sbs_per_msb(scale.pick(2, 4))
        .rpps_per_sb(scale.pick(2, 4))
        .racks_per_rpp(4)
        .servers_per_rack(scale.pick(15, 30))
        // Services are placed in contiguous per-row blocks, the way real
        // clusters are racked: servers sharing a rack mostly share a
        // service, which preserves the intra-rack correlation that
        // drives rack-level variation in the paper's Figure 5.
        .service_plan(ServicePlan::RowComposition(vec![
            (ServiceKind::Web, 36),
            (ServiceKind::Cache, 18),
            (ServiceKind::Hadoop, 24),
            (ServiceKind::Database, 12),
            (ServiceKind::NewsFeed, 18),
            (ServiceKind::F4Storage, 12),
        ]))
        .traffic(ServiceKind::Web, TrafficPattern::diurnal())
        .traffic(ServiceKind::NewsFeed, TrafficPattern::diurnal())
        .traffic(ServiceKind::Cache, TrafficPattern::diurnal_with(0.7, 20.0))
        .traffic(
            ServiceKind::Database,
            TrafficPattern::diurnal_with(0.7, 20.0),
        )
        .capping_enabled(false)
        .watch_levels(vec![
            DeviceLevel::Rack,
            DeviceLevel::Rpp,
            DeviceLevel::Sb,
            DeviceLevel::Msb,
        ])
        .seed(5)
        .build();
    dc.run_for(SimDuration::from_hours(hours));
    Fig5Suite { dc, hours }
}

impl Fig5Suite {
    /// The p99 of the variations of every `level` device pooled, in %
    /// of each device's peak-hour mean, for each window (seconds).
    pub fn p99_variation<const N: usize>(&self, level: DeviceLevel, windows: [u64; N]) -> [f64; N] {
        let normalized: Vec<(&Trace, f64)> = self
            .dc
            .topology()
            .devices_at(level)
            .iter()
            .map(|&dev| {
                let trace = self
                    .dc
                    .telemetry()
                    .device_trace(dev)
                    .expect("level was watched");
                (trace, trace.peak_mean(0.3))
            })
            .collect();
        windows.map(|wsecs| {
            let mut pooled = Vec::new();
            for &(trace, norm) in &normalized {
                for v in sliding_variation(trace, SimDuration::from_secs(wsecs)) {
                    pooled.push(v / norm * 100.0);
                }
            }
            quantile_of(&mut pooled, 0.99)
        })
    }
}

/// Regenerates Figure 5 by running a mixed-service suite with Dynamo in
/// monitoring-only mode and pooling per-device sliding variations.
pub fn run(scale: Scale) -> Fig5 {
    let suite = simulate(scale);
    let rows = PAPER_P99
        .iter()
        .map(|&(level, paper_p99)| Fig5Row {
            level,
            p99: suite.p99_variation(level, WINDOWS_SECS),
            paper_p99,
        })
        .collect();
    Fig5 {
        rows,
        servers: suite.dc.fleet().len(),
        hours: suite.hours,
    }
}

impl std::fmt::Display for Fig5 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 5: p99 power variation (%) per hierarchy level and window size\n\
             ({} servers, {} simulated hours, 3 s samples; paper values in parentheses)",
            self.servers, self.hours
        )?;
        let header: Vec<String> = std::iter::once("level".to_string())
            .chain(WINDOWS_SECS.iter().map(|w| format!("{w}s")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                std::iter::once(r.level.label().to_string())
                    .chain(
                        r.p99
                            .iter()
                            .zip(&r.paper_p99)
                            .map(|(m, p)| format!("{} ({})", fmt_f(*m, 1), fmt_f(*p, 1))),
                    )
                    .collect()
            })
            .collect();
        f.write_str(&render_table(&header_refs, &rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variation_shapes_match_paper() {
        let fig = run(Scale::Quick);
        // Observation 1: larger windows, larger (or equal) variation.
        for row in &fig.rows {
            for w in row.p99.windows(2) {
                assert!(
                    w[1] >= w[0] * 0.95,
                    "{}: p99 decreased with window size: {:?}",
                    row.level,
                    row.p99
                );
            }
        }
        // Observation 2: higher levels, smaller relative variation
        // (load multiplexing).
        for wi in 0..WINDOWS_SECS.len() {
            let rack = fig.rows[0].p99[wi];
            let rpp = fig.rows[1].p99[wi];
            let msb = fig.rows[3].p99[wi];
            assert!(rack > rpp, "rack {rack} <= rpp {rpp} at window {wi}");
            assert!(rpp > msb, "rpp {rpp} <= msb {msb} at window {wi}");
        }
    }

    #[test]
    fn magnitudes_are_plausible() {
        let fig = run(Scale::Quick);
        // Rack-level 60 s p99 should be tens of percent; MSB-level a few.
        let rack_60 = fig.rows[0].p99[2];
        let msb_60 = fig.rows[3].p99[2];
        assert!((5.0..80.0).contains(&rack_60), "rack 60s p99 {rack_60}");
        assert!(msb_60 < 15.0, "msb 60s p99 {msb_60}");
    }
}
