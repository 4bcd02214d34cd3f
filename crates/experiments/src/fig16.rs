//! Figure 16: a snapshot of per-server power and computed power caps
//! during the Figure 15 event, showing the high-bucket-first rule: the
//! cut lands on the highest-power web/feed servers, caps respect the
//! 210 W SLA floor, and cache servers carry no caps.

use dcsim::SimDuration;
use workloads::ServiceKind;

use crate::common::{fmt_f, render_table, Scale};
use crate::fig15::{override_limit, row_scenario};

/// One server in the snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig16Server {
    /// Server id.
    pub server_id: u32,
    /// Service.
    pub service: ServiceKind,
    /// The reading (or estimate) the capping decision used (W).
    pub reading_w: f64,
    /// Computed cap, if one is in force (W).
    pub cap_w: Option<f64>,
}

/// The regenerated Figure 16 snapshot.
#[derive(Debug, Clone)]
pub struct Fig16 {
    /// All servers, sorted by service then descending power.
    pub servers: Vec<Fig16Server>,
    /// The minimum cap observed (must respect the 210 W SLA floor).
    pub min_cap_w: f64,
    /// Lowest power among capped web/feed servers.
    pub min_capped_power_w: f64,
    /// Highest power among *uncapped* web/feed servers.
    pub max_uncapped_power_w: f64,
}

/// Runs the Figure 15 scenario until the leaf controller issues a
/// capping decision, then snapshots the controller's own view: the
/// power readings the decision used and the caps it computed — exactly
/// the two point sets the paper's figure plots.
pub fn run(scale: Scale) -> Fig16 {
    let (mut dc, rpp) = row_scenario(scale);
    dc.run_for(SimDuration::from_secs(300));
    let limit = override_limit(&dc, rpp);
    dc.system_mut().set_leaf_contract(rpp, Some(limit));
    // Step until the capping decision lands (it arrives within a poll
    // cycle or two of the override).
    let mut seen_caps = 0;
    for _ in 0..60 {
        dc.step();
        let caps = dc
            .telemetry()
            .controller_events()
            .iter()
            .filter(|e| matches!(e.kind, dynamo::ControllerEventKind::LeafCapped { .. }))
            .count();
        if caps > seen_caps {
            seen_caps = caps;
            break;
        }
    }
    assert!(seen_caps > 0, "override did not trigger capping");

    let leaf = dc
        .system()
        .leaf_for(rpp)
        .expect("rpp has a leaf controller");
    let readings = leaf.last_power();
    let caps_map = leaf.active_caps();
    let mut servers: Vec<Fig16Server> = dc
        .fleet()
        .iter_services()
        .map(|(sid, service)| Fig16Server {
            server_id: sid,
            service,
            reading_w: readings.get(&sid).map_or(0.0, |p| p.as_watts()),
            cap_w: caps_map.get(&sid).map(|p| p.as_watts()),
        })
        .collect();
    servers.sort_by(|a, b| {
        a.service
            .cmp(&b.service)
            .then(b.reading_w.partial_cmp(&a.reading_w).expect("finite power"))
    });

    let caps: Vec<f64> = servers.iter().filter_map(|s| s.cap_w).collect();
    let min_cap_w = caps.iter().cloned().fold(f64::INFINITY, f64::min);
    let throttleable =
        |s: &&Fig16Server| matches!(s.service, ServiceKind::Web | ServiceKind::NewsFeed);
    let min_capped_power_w = servers
        .iter()
        .filter(throttleable)
        .filter(|s| s.cap_w.is_some())
        .map(|s| s.reading_w)
        .fold(f64::INFINITY, f64::min);
    let max_uncapped_power_w = servers
        .iter()
        .filter(throttleable)
        .filter(|s| s.cap_w.is_none())
        .map(|s| s.reading_w)
        .fold(0.0, f64::max);

    Fig16 {
        servers,
        min_cap_w,
        min_capped_power_w,
        max_uncapped_power_w,
    }
}

impl std::fmt::Display for Fig16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Figure 16: per-server power (and cap) snapshot during capping,\n\
             sorted by current power within each service"
        )?;
        for kind in [ServiceKind::Web, ServiceKind::Cache, ServiceKind::NewsFeed] {
            let group: Vec<&Fig16Server> =
                self.servers.iter().filter(|s| s.service == kind).collect();
            let capped = group.iter().filter(|s| s.cap_w.is_some()).count();
            writeln!(
                f,
                "\n{}: {} servers, {} capped",
                kind.label(),
                group.len(),
                capped
            )?;
            let rows: Vec<Vec<String>> = group
                .iter()
                .take(12)
                .map(|s| {
                    vec![
                        s.server_id.to_string(),
                        fmt_f(s.reading_w, 1),
                        s.cap_w.map_or("-".to_string(), |c| fmt_f(c, 1)),
                    ]
                })
                .collect();
            f.write_str(&render_table(&["server", "power W", "cap W"], &rows))?;
        }
        writeln!(
            f,
            "\nmin cap {:.1} W (SLA floor 210 W); cut boundary: capped web/feed >= {:.1} W, \
             uncapped <= {:.1} W",
            self.min_cap_w, self.min_capped_power_w, self.max_uncapped_power_w
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_respect_the_sla_floor() {
        let fig = run(Scale::Quick);
        assert!(
            fig.min_cap_w >= 210.0 - 1e-6,
            "min cap {} below floor",
            fig.min_cap_w
        );
    }

    #[test]
    fn cache_has_no_caps() {
        let fig = run(Scale::Quick);
        let cache_capped = fig
            .servers
            .iter()
            .filter(|s| s.service == ServiceKind::Cache && s.cap_w.is_some())
            .count();
        assert_eq!(cache_capped, 0);
    }

    #[test]
    fn high_bucket_first_cuts_the_heavy_end() {
        let fig = run(Scale::Quick);
        assert!(
            fig.min_capped_power_w.is_finite(),
            "no capped web/feed servers in the snapshot"
        );
        // Caps may be a cycle stale against moving power, so allow a
        // generous 40 W band around the bucket boundary.
        assert!(
            fig.min_capped_power_w + 40.0 > fig.max_uncapped_power_w,
            "cut set is not the high-power end: capped down to {:.1} W but {:.1} W ran free",
            fig.min_capped_power_w,
            fig.max_uncapped_power_w
        );
    }

    #[test]
    fn caps_are_physically_sensible() {
        let fig = run(Scale::Quick);
        for s in fig.servers.iter().filter(|s| s.cap_w.is_some()) {
            let cap = s.cap_w.unwrap();
            // Caps are computed as power-at-decision minus a cut, so they
            // live between the SLA floor and the fleet's peak power.
            assert!(
                (210.0..=345.0).contains(&cap),
                "server {} cap {cap:.1}",
                s.server_id
            );
            // At decision time the cap equals the reading minus the cut,
            // so it can never exceed the reading.
            assert!(
                cap <= s.reading_w + 1e-6,
                "server {} cap {cap:.1} W above its {:.1} W decision-time reading",
                s.server_id,
                s.reading_w
            );
        }
    }
}
