//! Figure 9: single-server power capping/uncapping transient through
//! the agent + RAPL path ("it takes about two seconds ... to take
//! effect ... and stabilize").

use dcsim::{SimDuration, SimRng};
use dynamo_agent::Agent;
use dynrpc::{AgentEndpoint, Request};
use powerinfra::Power;
use serverpower::{Server, ServerConfig, ServerGeneration};

use crate::common::{fmt_f, render_table};

/// The regenerated Figure 9 trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9 {
    /// `(time_s, watts)` at 100 ms resolution over an 18 s run.
    pub series: Vec<(f64, f64)>,
    /// When the cap command was issued (paper: 4.650 s).
    pub cap_at: f64,
    /// When the uncap command was issued (paper: 12.067 s).
    pub uncap_at: f64,
    /// Seconds from cap command to within 5% of the cap target.
    pub cap_settle_secs: f64,
    /// Seconds from uncap command to within 5% of the uncapped level.
    pub uncap_settle_secs: f64,
}

/// Replays the paper's single-server test: a ~230 W web server is
/// capped to 180 W at t=4.65 s and uncapped at t=12.067 s.
pub fn run() -> Fig9 {
    let mut server = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
    server.set_demand(0.72); // ≈230 W on the 2015 curve
    let mut agent = Agent::new(server, SimRng::seed_from(9));
    let dt = SimDuration::from_millis(100);
    let cap_at = 4.65;
    let uncap_at = 12.067;
    let cap_level = Power::from_watts(180.0);

    let mut series = Vec::new();
    let mut capped = false;
    let mut uncapped = false;
    let mut uncapped_level = 0.0;
    for step in 0..180 {
        let t = step as f64 * 0.1;
        if !capped && t >= cap_at {
            agent.handle(Request::SetCap(cap_level));
            capped = true;
        }
        if !uncapped && t >= uncap_at {
            agent.handle(Request::ClearCap);
            uncapped = true;
        }
        let p = agent.server_mut().step(dt);
        if t < cap_at {
            uncapped_level = p.as_watts();
        }
        series.push((t, p.as_watts()));
    }

    let settle = |from: f64, target: f64| -> f64 {
        series
            .iter()
            .find(|&&(t, p)| t >= from && (p - target).abs() / target < 0.05)
            .map(|&(t, _)| t - from)
            .unwrap_or(f64::INFINITY)
    };
    let cap_settle_secs = settle(cap_at, cap_level.as_watts());
    let uncap_settle_secs = settle(uncap_at, uncapped_level);
    Fig9 {
        series,
        cap_at,
        uncap_at,
        cap_settle_secs,
        uncap_settle_secs,
    }
}

impl std::fmt::Display for Fig9 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 9: single-server RAPL cap/uncap transient")?;
        writeln!(
            f,
            "cap issued at {:.3} s, uncap at {:.3} s (paper: 4.650 / 12.067)",
            self.cap_at, self.uncap_at
        )?;
        // Print every 0.5 s for readability.
        let rows: Vec<Vec<String>> = self
            .series
            .iter()
            .step_by(5)
            .map(|&(t, p)| vec![fmt_f(t, 1), fmt_f(p, 1)])
            .collect();
        f.write_str(&render_table(&["time (s)", "power (W)"], &rows))?;
        writeln!(
            f,
            "settling: cap {:.1} s, uncap {:.1} s  (paper: ~2 s each)",
            self.cap_settle_secs, self.uncap_settle_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settles_in_about_two_seconds() {
        let fig = run();
        assert!(
            fig.cap_settle_secs <= 2.5,
            "cap settle {}",
            fig.cap_settle_secs
        );
        assert!(
            fig.uncap_settle_secs <= 2.5,
            "uncap settle {}",
            fig.uncap_settle_secs
        );
        assert!(
            fig.cap_settle_secs > 0.3,
            "settling should not be instantaneous"
        );
    }

    #[test]
    fn power_drops_then_recovers() {
        let fig = run();
        let at = |t: f64| fig.series.iter().find(|&&(x, _)| x >= t).unwrap().1;
        let before = at(4.0);
        let during = at(10.0);
        let after = at(17.0);
        assert!(
            during < before - 30.0,
            "cap had no effect: {before} -> {during}"
        );
        assert!(
            (after - before).abs() < 10.0,
            "uncap did not recover: {before} vs {after}"
        );
        assert!(
            (during - 180.0).abs() < 6.0,
            "capped level {during} not near 180 W"
        );
    }

    #[test]
    fn display_reports_settling() {
        let s = run().to_string();
        assert!(s.contains("settling"));
        assert!(s.contains("4.650"));
    }
}
