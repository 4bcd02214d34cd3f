//! Figure 14: Dynamo-enabled dynamic power oversubscription — Turbo
//! Boost on a production Hadoop cluster over 24 hours, with the SB
//! power held near its limit and several capping episodes.

use dcsim::SimDuration;
use dcsim::SimTime;
use powerinfra::{DeviceLevel, Power};
use workloads::{ServiceKind, TrafficEvent, TrafficPattern};

use crate::common::{datacenter, fmt_f, render_table, Scale};

/// One hourly sample of the Figure 14 timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig14Row {
    /// Hour of the 24 h window.
    pub hour: u64,
    /// SB power (kW).
    pub sb_kw: f64,
    /// Servers capped at that instant.
    pub capped: usize,
}

/// A contiguous capping episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Episode {
    /// Start minute.
    pub start_min: u64,
    /// Duration in minutes.
    pub duration_min: u64,
    /// Peak number of servers capped during the episode.
    pub peak_capped: usize,
}

/// The regenerated Figure 14.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// SB breaker rating (kW).
    pub sb_limit_kw: f64,
    /// Cluster size.
    pub servers: usize,
    /// Hourly samples.
    pub rows: Vec<Fig14Row>,
    /// Capping episodes over the 24 h (paper: 7, lasting 10 min–2 h,
    /// each throttling 600–900 servers slightly).
    pub episodes: Vec<Episode>,
    /// Mean performance factor with Turbo + Dynamo (≈1.13× = +13%).
    pub mean_performance: f64,
    /// True if any breaker tripped (must be false).
    pub tripped: bool,
}

/// Runs the Hadoop cluster with Turbo Boost enabled for 24 h under an
/// SB sized so worst-case (turbo) peak exceeds the limit while the
/// average stays below — the paper's dynamic-oversubscription setup.
pub fn run(scale: Scale) -> Fig14 {
    let (rpps, racks, per_rack, sb_kw, rpp_kw, hours) =
        scale.pick((2, 4, 30, 80.0, 48.0, 8), (8, 4, 30, 320.0, 48.0, 24));
    // Batch job waves across the day: several deterministic surges on a
    // base load low enough that caps release between waves (so each
    // wave is its own capping episode, as in the paper's seven).
    let mut pattern = TrafficPattern::flat(0.85);
    let waves: [(u64, u64, f64); 7] = [
        (60, 150, 1.50),
        (260, 310, 1.55),
        (420, 540, 1.48),
        (600, 640, 1.60),
        (760, 880, 1.50),
        (1000, 1060, 1.55),
        (1200, 1320, 1.52),
    ];
    for &(s, e, f) in &waves {
        if s / 60 < hours {
            pattern = pattern.with_event(
                TrafficEvent::new(SimTime::from_secs(s * 60), SimTime::from_secs(e * 60), f)
                    .with_ramp(SimDuration::from_mins(5)),
            );
        }
    }

    let mut dc = datacenter()
        .sbs_per_msb(1)
        .rpps_per_sb(rpps)
        .racks_per_rpp(racks)
        .servers_per_rack(per_rack)
        .rpp_rating(Power::from_kilowatts(rpp_kw))
        .sb_rating(Power::from_kilowatts(sb_kw))
        .uniform_service(ServiceKind::Hadoop)
        .turbo(ServiceKind::Hadoop)
        .traffic(ServiceKind::Hadoop, pattern)
        .seed(14)
        .build();
    let sb = dc.topology().devices_at(DeviceLevel::Sb)[0];
    let servers = dc.fleet().len();

    let mut rows = Vec::new();
    let mut capped_per_min = powerstats::Trace::empty(SimDuration::from_mins(1));
    let mut perf_acc = 0.0;
    let mut perf_n = 0u64;
    for m in 0..(hours * 60) {
        dc.run_for(SimDuration::from_mins(1));
        let capped = dc.capped_under(sb);
        capped_per_min.push(capped as f64);
        perf_acc += dc.performance_under(sb);
        perf_n += 1;
        if m % 60 == 0 {
            rows.push(Fig14Row {
                hour: m / 60,
                sb_kw: dc.device_power(sb).as_kilowatts(),
                capped,
            });
        }
    }

    // Episodes of capping activity, bridging dropouts under 5 minutes.
    let episodes: Vec<Episode> = powerstats::episodes_above(&capped_per_min, 0.5, 5)
        .into_iter()
        .map(|e| Episode {
            start_min: e.start as u64,
            duration_min: e.len as u64,
            peak_capped: e.peak as usize,
        })
        .collect();

    Fig14 {
        sb_limit_kw: sb_kw,
        servers,
        rows,
        episodes,
        mean_performance: perf_acc / perf_n as f64,
        tripped: !dc.telemetry().breaker_trips().is_empty(),
    }
}

impl std::fmt::Display for Fig14 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 14: Hadoop + Turbo Boost over {} h, {} servers, SB limit {:.0} kW",
            self.rows.len(),
            self.servers,
            self.sb_limit_kw
        )?;
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| vec![r.hour.to_string(), fmt_f(r.sb_kw, 1), r.capped.to_string()])
            .collect();
        f.write_str(&render_table(&["hour", "SB kW", "capped"], &rows))?;
        writeln!(
            f,
            "capping episodes: {} (paper: 7 in 24 h)",
            self.episodes.len()
        )?;
        for e in &self.episodes {
            writeln!(
                f,
                "  start min {:>5}, duration {:>4} min, peak capped {:>4} servers",
                e.start_min, e.duration_min, e.peak_capped
            )?;
        }
        writeln!(
            f,
            "mean performance factor {:.3} (turbo-off uncapped = 1.0; paper: +13%); tripped: {}",
            self.mean_performance, self.tripped
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capping_episodes_occur_without_trips() {
        let fig = run(Scale::Quick);
        assert!(
            !fig.episodes.is_empty(),
            "no capping episodes despite oversubscription"
        );
        assert!(!fig.tripped, "SB tripped despite Dynamo");
    }

    #[test]
    fn power_stays_close_to_but_below_limit() {
        let fig = run(Scale::Quick);
        let peak = fig.rows.iter().map(|r| r.sb_kw).fold(0.0, f64::max);
        assert!(
            peak <= fig.sb_limit_kw * 1.01,
            "peak {peak} above limit {}",
            fig.sb_limit_kw
        );
        assert!(
            peak >= fig.sb_limit_kw * 0.80,
            "peak {peak} far below limit {} — oversubscription not exercised",
            fig.sb_limit_kw
        );
    }

    #[test]
    fn turbo_performance_gain_is_close_to_13_pct() {
        let fig = run(Scale::Quick);
        assert!(
            (1.05..1.14).contains(&fig.mean_performance),
            "mean performance {:.3} outside the Turbo-minus-capping band",
            fig.mean_performance
        );
    }

    #[test]
    fn episodes_throttle_a_large_fraction_of_the_cluster() {
        let fig = run(Scale::Quick);
        let max_capped = fig.episodes.iter().map(|e| e.peak_capped).max().unwrap();
        // Paper: 600-900 of several thousand servers (~25-60%); accept a
        // broad band at quick scale.
        let frac = max_capped as f64 / fig.servers as f64;
        assert!(frac > 0.10, "only {frac:.2} of the cluster ever capped");
    }
}
