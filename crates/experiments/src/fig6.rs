//! Figure 6: per-service power variation at the 60 s window, read as
//! (p50, p99) per service.

use dcsim::SimDuration;
use powerstats::quantile_of;
use workloads::ServiceKind;

use crate::common::{fmt_f, render_table, service_variation_samples, Scale};

/// The paper's published (p50, p99) per service, in percent.
pub const PAPER_VALUES: [(ServiceKind, f64, f64); 6] = [
    (ServiceKind::F4Storage, 5.9, 87.7),
    (ServiceKind::Cache, 9.2, 26.2),
    (ServiceKind::Hadoop, 11.1, 30.8),
    (ServiceKind::Database, 15.1, 45.8),
    (ServiceKind::Web, 37.2, 62.2),
    (ServiceKind::NewsFeed, 42.4, 78.1),
];

/// One service's regenerated median and tail.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// The service.
    pub service: ServiceKind,
    /// Measured p50 variation (%).
    pub p50: f64,
    /// Measured p99 variation (%).
    pub p99: f64,
    /// Paper's p50.
    pub paper_p50: f64,
    /// Paper's p99.
    pub paper_p99: f64,
}

/// The regenerated Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6 {
    /// One row per service, in the paper's p50 order.
    pub rows: Vec<Fig6Row>,
}

/// Regenerates Figure 6: 30 servers per service (paper's sample size)
/// at [`Scale::Full`], fewer at [`Scale::Quick`].
pub fn run(scale: Scale) -> Fig6 {
    let n_servers = scale.pick(6, 30);
    let hours = scale.pick(2, 12);
    let window = SimDuration::from_secs(60);
    let rows = PAPER_VALUES
        .iter()
        .map(|&(service, paper_p50, paper_p99)| {
            // One service's pool at a time, read by two selections
            // and dropped before the next service's is drawn.
            let mut pool = service_variation_samples(service, n_servers, hours, window, 600);
            Fig6Row {
                service,
                p50: quantile_of(&mut pool, 0.5),
                p99: quantile_of(&mut pool, 0.99),
                paper_p50,
                paper_p99,
            }
        })
        .collect();
    Fig6 { rows }
}

impl std::fmt::Display for Fig6 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 6: 60 s power variation by service — (p50, p99) in % of peak-hour mean"
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.service.label().to_string(),
                    fmt_f(r.p50, 1),
                    fmt_f(r.paper_p50, 1),
                    fmt_f(r.p99, 1),
                    fmt_f(r.paper_p99, 1),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &["service", "p50", "paper p50", "p99", "paper p99"],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p50_ordering_matches_paper() {
        let fig = run(Scale::Quick);
        for w in fig.rows.windows(2) {
            assert!(
                w[0].p50 < w[1].p50,
                "{} p50 {:.1} should be below {} p50 {:.1}",
                w[0].service.label(),
                w[0].p50,
                w[1].service.label(),
                w[1].p50
            );
        }
    }

    #[test]
    fn f4_has_heaviest_tail() {
        let fig = run(Scale::Quick);
        let f4 = fig
            .rows
            .iter()
            .find(|r| r.service == ServiceKind::F4Storage)
            .unwrap();
        for r in &fig.rows {
            if r.service != ServiceKind::F4Storage {
                assert!(
                    f4.p99 > r.p99,
                    "f4 p99 {:.1} <= {} p99 {:.1}",
                    f4.p99,
                    r.service,
                    r.p99
                );
            }
        }
    }

    #[test]
    fn display_lists_all_services() {
        let s = run(Scale::Quick).to_string();
        for kind in ServiceKind::all() {
            assert!(s.contains(kind.label()), "missing {kind}");
        }
    }
}
