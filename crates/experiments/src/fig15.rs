//! Figure 15: workload-aware power capping — a mixed row (web + cache +
//! news feed) where an operator-triggered cap throttles web and feed
//! servers while cache servers (higher priority group) are untouched.

use dcsim::SimTime;
use dynamo::{Datacenter, ServicePlan};
use powerinfra::{DeviceId, DeviceLevel, Power};
use workloads::{ServiceKind, TrafficPattern};

use crate::common::{datacenter, fmt_f, render_table, Scale};

/// One 15-second sample of the Figure 15 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig15Row {
    /// Seconds from trace start.
    pub secs: u64,
    /// Total row power (kW).
    pub total_kw: f64,
    /// Web power (kW).
    pub web_kw: f64,
    /// Cache power (kW).
    pub cache_kw: f64,
    /// News feed power (kW).
    pub feed_kw: f64,
}

/// The regenerated Figure 15.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// 15-second samples across the experiment.
    pub rows: Vec<Fig15Row>,
    /// When the operator lowered the effective limit (s).
    pub cap_start_s: u64,
    /// When the override was removed (s).
    pub cap_end_s: u64,
    /// Web/cache/feed servers capped at the height of the event.
    pub capped_counts: (usize, usize, usize),
}

/// The shared Figure 15/16 scenario: one RPP row of ≈200 web + 200
/// cache + 40 feed servers (paper's composition; quick scale divides by
/// four), with capping triggered manually mid-run the way production
/// end-to-end tests do (§IV-C).
pub fn row_scenario(scale: Scale) -> (Datacenter, DeviceId) {
    let (web_n, cache_n, feed_n, racks, per_rack) =
        scale.pick((50, 50, 10, 11, 10), (200, 200, 40, 11, 40));
    let dc = datacenter()
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(racks)
        .servers_per_rack(per_rack)
        .rpp_rating(Power::from_kilowatts(scale.pick(33.0, 130.0)))
        .service_plan(ServicePlan::RowComposition(vec![
            (ServiceKind::Web, web_n),
            (ServiceKind::Cache, cache_n),
            (ServiceKind::NewsFeed, feed_n),
        ]))
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.3))
        .traffic(ServiceKind::NewsFeed, TrafficPattern::flat(1.3))
        .traffic(ServiceKind::Cache, TrafficPattern::flat(1.0))
        .seed(15)
        .build();
    let rpp = dc.topology().devices_at(DeviceLevel::Rpp)[0];
    (dc, rpp)
}

/// The operator's contractual override for the scenario: a few percent
/// below the row's natural draw, forcing a moderate cut.
pub fn override_limit(dc: &Datacenter, rpp: DeviceId) -> Power {
    // 96% of the current draw puts the capping threshold below power
    // while the needed cut stays inside the web/feed headroom, so the
    // cache group is never touched.
    dc.device_power(rpp) * 0.96
}

/// Replays Figure 15.
pub fn run(scale: Scale) -> Fig15 {
    let (mut dc, rpp) = row_scenario(scale);
    let warmup_s: u64 = 300;
    let cap_start_s: u64 = warmup_s + 180;
    let cap_hold_s: u64 = 720; // ~12 minutes of capping, as in the paper
    let tail_s: u64 = 300;

    let mut rows = Vec::new();
    let mut capped_counts = (0usize, 0usize, 0usize);
    let total_s = cap_start_s + cap_hold_s + tail_s;
    let mut override_set = false;
    for s in (0..total_s).step_by(15) {
        if !override_set && s >= cap_start_s {
            let limit = override_limit(&dc, rpp);
            dc.system_mut().set_leaf_contract(rpp, Some(limit));
            override_set = true;
        }
        dc.run_until(SimTime::from_secs(s + 15));
        if s == cap_start_s + cap_hold_s {
            dc.system_mut().set_leaf_contract(rpp, None);
        }
        rows.push(Fig15Row {
            secs: s,
            total_kw: dc.device_power(rpp).as_kilowatts(),
            web_kw: dc.service_power(rpp, ServiceKind::Web).as_kilowatts(),
            cache_kw: dc.service_power(rpp, ServiceKind::Cache).as_kilowatts(),
            feed_kw: dc.service_power(rpp, ServiceKind::NewsFeed).as_kilowatts(),
        });
        // Track capped-per-service at mid-event.
        if s == cap_start_s + cap_hold_s / 2 {
            let mut counts = (0, 0, 0);
            for (sid, kind) in dc.fleet().iter_services() {
                if dc.fleet().cap_of(sid).is_some() {
                    match kind {
                        ServiceKind::Web => counts.0 += 1,
                        ServiceKind::Cache => counts.1 += 1,
                        ServiceKind::NewsFeed => counts.2 += 1,
                        _ => {}
                    }
                }
            }
            capped_counts = counts;
        }
    }

    Fig15 {
        rows,
        cap_start_s,
        cap_end_s: cap_start_s + cap_hold_s,
        capped_counts,
    }
}

impl std::fmt::Display for Fig15 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 15: workload-aware capping of a mixed row (web + cache + feed)\n\
             operator cap active {}s – {}s",
            self.cap_start_s, self.cap_end_s
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .step_by(4) // print every minute
            .map(|r| {
                vec![
                    r.secs.to_string(),
                    fmt_f(r.total_kw, 1),
                    fmt_f(r.web_kw, 1),
                    fmt_f(r.cache_kw, 1),
                    fmt_f(r.feed_kw, 1),
                ]
            })
            .collect();
        f.write_str(&render_table(
            &["t (s)", "total kW", "web", "cache", "feed"],
            &rows,
        ))?;
        writeln!(
            f,
            "capped at mid-event: web {}, cache {}, feed {}  (paper: cache untouched)",
            self.capped_counts.0, self.capped_counts.1, self.capped_counts.2
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_in(fig: &Fig15, lo: u64, hi: u64, get: impl Fn(&Fig15Row) -> f64) -> f64 {
        let pts: Vec<f64> = fig
            .rows
            .iter()
            .filter(|r| r.secs >= lo && r.secs < hi)
            .map(get)
            .collect();
        pts.iter().sum::<f64>() / pts.len() as f64
    }

    #[test]
    fn cache_is_untouched_web_and_feed_are_cut() {
        let fig = run(Scale::Quick);
        assert_eq!(fig.capped_counts.1, 0, "cache servers were capped");
        assert!(fig.capped_counts.0 > 0, "no web servers capped");

        let mid = (fig.cap_start_s, fig.cap_end_s);
        let before_web = mean_in(&fig, 60, fig.cap_start_s - 60, |r| r.web_kw);
        let during_web = mean_in(&fig, mid.0 + 120, mid.1, |r| r.web_kw);
        assert!(
            during_web < before_web * 0.97,
            "web power not reduced: {before_web} -> {during_web}"
        );

        let before_cache = mean_in(&fig, 60, fig.cap_start_s - 60, |r| r.cache_kw);
        let during_cache = mean_in(&fig, mid.0 + 120, mid.1, |r| r.cache_kw);
        assert!(
            (during_cache - before_cache).abs() < before_cache * 0.05,
            "cache power moved under capping: {before_cache} -> {during_cache}"
        );
    }

    #[test]
    fn total_power_drops_during_the_event_and_recovers() {
        let fig = run(Scale::Quick);
        let before = mean_in(&fig, 60, fig.cap_start_s - 60, |r| r.total_kw);
        let during = mean_in(&fig, fig.cap_start_s + 120, fig.cap_end_s, |r| r.total_kw);
        let after = mean_in(&fig, fig.cap_end_s + 120, fig.cap_end_s + 280, |r| {
            r.total_kw
        });
        assert!(
            during < before * 0.98,
            "no visible capping: {before} -> {during}"
        );
        assert!(after > during, "power did not recover after uncap");
    }
}
