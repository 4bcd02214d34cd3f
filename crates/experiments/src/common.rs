//! Shared experiment scaffolding.

use std::fmt::Write as _;

/// How big to run an experiment.
///
/// The paper's measurements span months on tens of thousands of servers;
/// the reproduction offers two operating points instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds of wall-clock: small fleets and short horizons. Used by
    /// benches and CI. Shapes hold; percentile tails are noisier.
    Quick,
    /// The default for generating `EXPERIMENTS.md` numbers: larger
    /// fleets, hours-to-days of simulated time, minutes of wall-clock.
    Full,
}

impl Scale {
    /// Picks between the quick and full variant of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// The builder every experiment starts from: the library's defaults on
/// as many threads as the host has cores. A result never depends on the
/// width (every target prints the same bytes at any), a one-core host
/// builds no pool, and a datacenter never holds more threads than it
/// has leaves ([`dynamo::Datacenter::set_worker_threads`]).
pub fn datacenter() -> DatacenterBuilder {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    DatacenterBuilder::new().worker_threads(cores)
}

/// Renders an aligned text table: a header row plus data rows.
///
/// # Panics
///
/// Panics if any row's length differs from the header's.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let cols = header.len();
    for row in rows {
        assert_eq!(row.len(), cols, "table row width mismatch");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, (cell, w)) in cells.iter().zip(widths).enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:>w$}", w = w);
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    fmt_row(&header_cells, &widths, &mut out);
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Formats a float with the given number of decimals.
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::DatacenterBuilder;
use powerstats::{for_each_variation, variation_windows, Trace};
use serverpower::ServerGeneration;
use workloads::{ServiceKind, ServiceWorkload};

/// Runs `n_servers` independent utilization processes of one service for
/// `hours` of simulated time (3 s sampling, nominal traffic) and pools
/// the per-window power variations, normalized to each server's
/// peak-hour mean power — the §II-B / Figure 6 methodology. The pool is
/// allocated once, at its exact size.
pub fn service_variation_samples(
    kind: ServiceKind,
    n_servers: usize,
    hours: u64,
    window: SimDuration,
    seed: u64,
) -> Vec<f64> {
    let curve = ServerGeneration::Haswell2015.power_curve();
    let mut root = SimRng::seed_from(seed);
    let mut all = Vec::new();
    let dt = SimDuration::from_secs(3);
    let samples = (hours * 1200) as usize;
    for i in 0..n_servers {
        let mut wl = ServiceWorkload::new(kind, root.split_index(i as u64));
        let mut t = SimTime::ZERO;
        let mut values = Vec::with_capacity(samples);
        for _ in 0..samples {
            let u = wl.utilization(t, 1.0, dt);
            values.push(curve.power_at(u).as_watts());
            t += dt;
        }
        let trace = Trace::new(dt, values);
        if i == 0 {
            // Every server's trace is as long as this one.
            all.reserve_exact(n_servers * variation_windows(&trace, window));
        }
        let norm = trace.peak_mean(0.3);
        for_each_variation(&trace, window, |v| all.push(v / norm * 100.0));
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.0".into()],
                vec!["long-name".into(), "22.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name") && lines[0].contains("value"));
        assert!(lines[3].contains("long-name"));
        // All rows equal width.
        assert_eq!(
            lines[0].len(),
            lines[2].len().max(lines[0].len())
                - (lines[2].len() - lines[0].len().min(lines[2].len()))
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn ragged_rows_panic() {
        render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn fmt_f_rounds() {
        assert_eq!(fmt_f(1.2345, 2), "1.23");
        assert_eq!(fmt_f(10.0, 1), "10.0");
    }
}
