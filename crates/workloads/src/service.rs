//! Per-service utilization processes (Figure 6 of the paper).

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{SimDuration, SimRng, SimTime};
use powerinfra::Power;
use serde::{Deserialize, Serialize};

use crate::kernel::{self, DrawStep};

/// The six Facebook services whose power behaviour the paper
/// characterizes (§II-B, Figure 6), plus their capping priority metadata
/// (§III-C3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServiceKind {
    /// Front-end web servers. Strongly diurnal, high short-term
    /// variation (p50 37.2%, p99 62.2% in Figure 6).
    Web,
    /// Cache servers (TAO-style). Smooth (p50 9.2%, p99 26.2%), high
    /// priority: "a small number of cache servers may affect a large
    /// number of users".
    Cache,
    /// Hadoop/map-reduce batch. Steady high utilization with phase
    /// changes (p50 11.1%, p99 30.8%), lowest capping priority.
    Hadoop,
    /// MySQL database tier (p50 15.1%, p99 45.8%).
    Database,
    /// News feed ranking/aggregation. The most variable service
    /// (p50 42.4%, p99 78.1%).
    NewsFeed,
    /// f4 warm BLOB/photo storage. Near-idle with rare huge bursts —
    /// lowest median, heaviest tail (p50 5.9%, p99 87.7%).
    F4Storage,
}

impl ServiceKind {
    /// Number of service kinds — the length of [`ServiceKind::all`].
    pub const COUNT: usize = 6;

    /// All services in a stable order.
    pub fn all() -> [ServiceKind; ServiceKind::COUNT] {
        [
            ServiceKind::Web,
            ServiceKind::Cache,
            ServiceKind::Hadoop,
            ServiceKind::Database,
            ServiceKind::NewsFeed,
            ServiceKind::F4Storage,
        ]
    }

    /// Dense index of this service, consistent with the ordering of
    /// [`ServiceKind::all`]. Lets hot paths use fixed arrays instead of
    /// hash maps when storing per-service values.
    pub fn index(self) -> usize {
        match self {
            ServiceKind::Web => 0,
            ServiceKind::Cache => 1,
            ServiceKind::Hadoop => 2,
            ServiceKind::Database => 3,
            ServiceKind::NewsFeed => 4,
            ServiceKind::F4Storage => 5,
        }
    }

    /// Short lowercase label matching the paper's figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ServiceKind::Web => "webserver",
            ServiceKind::Cache => "cache",
            ServiceKind::Hadoop => "hadoop",
            ServiceKind::Database => "database",
            ServiceKind::NewsFeed => "newsfeed",
            ServiceKind::F4Storage => "f4storage",
        }
    }

    /// Capping priority group; higher numbers are capped *later*
    /// (§III-C3: cut power from the lowest priority group first).
    pub fn priority(self) -> u8 {
        match self {
            ServiceKind::Hadoop => 0,
            ServiceKind::Web | ServiceKind::NewsFeed => 1,
            ServiceKind::Database | ServiceKind::F4Storage => 2,
            ServiceKind::Cache => 3,
        }
    }

    /// The service-level agreement on the lowest allowable per-server
    /// power cap (§III-C3: "each priority group has its own SLA in terms
    /// of the lowest allowable power cap"). Figure 16 shows a 210 W
    /// floor for the web/feed group.
    pub fn sla_min_cap(self) -> Power {
        let watts = match self {
            ServiceKind::Hadoop => 140.0,
            ServiceKind::Web | ServiceKind::NewsFeed => 210.0,
            ServiceKind::Database => 250.0,
            ServiceKind::F4Storage => 220.0,
            ServiceKind::Cache => 260.0,
        };
        Power::from_watts(watts)
    }

    /// The tuned stochastic-process parameters for this service.
    pub fn params(self) -> ServiceParams {
        // base_util: nominal peak-hour utilization.
        // sigma: stationary std-dev of the mean-reverting component.
        // theta: mean-reversion rate (1/s).
        // burst_rate: Poisson burst arrivals (1/s).
        // burst span: additive utilization during a burst.
        // burst_dur: mean burst duration (s).
        // sensitivity: how strongly target follows cluster traffic.
        match self {
            ServiceKind::Web => ServiceParams {
                base_util: 0.55,
                sigma: 0.105,
                theta: 0.15,
                burst_rate: 1.0 / 600.0,
                burst_min: 0.15,
                burst_max: 0.30,
                burst_dur_secs: 15.0,
                traffic_sensitivity: 1.0,
            },
            ServiceKind::Cache => ServiceParams {
                base_util: 0.40,
                sigma: 0.020,
                theta: 0.20,
                burst_rate: 1.0 / 900.0,
                burst_min: 0.10,
                burst_max: 0.20,
                burst_dur_secs: 10.0,
                traffic_sensitivity: 0.7,
            },
            ServiceKind::Hadoop => ServiceParams {
                base_util: 0.70,
                sigma: 0.050,
                theta: 0.10,
                burst_rate: 1.0 / 600.0,
                burst_min: 0.10,
                burst_max: 0.25,
                burst_dur_secs: 30.0,
                // Batch load follows job-submission waves at about half
                // the elasticity of user-facing traffic.
                traffic_sensitivity: 0.5,
            },
            ServiceKind::Database => ServiceParams {
                base_util: 0.45,
                sigma: 0.043,
                theta: 0.15,
                burst_rate: 1.0 / 500.0,
                burst_min: 0.20,
                burst_max: 0.35,
                burst_dur_secs: 20.0,
                traffic_sensitivity: 0.5,
            },
            ServiceKind::NewsFeed => ServiceParams {
                base_util: 0.50,
                sigma: 0.120,
                theta: 0.15,
                burst_rate: 1.0 / 400.0,
                burst_min: 0.20,
                burst_max: 0.40,
                burst_dur_secs: 20.0,
                traffic_sensitivity: 1.0,
            },
            ServiceKind::F4Storage => ServiceParams {
                base_util: 0.18,
                sigma: 0.009,
                theta: 0.20,
                burst_rate: 1.0 / 2000.0,
                burst_min: 0.42,
                burst_max: 0.62,
                burst_dur_secs: 30.0,
                traffic_sensitivity: 0.2,
            },
        }
    }
}

impl std::fmt::Display for ServiceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Stochastic-process parameters for one service. See
/// [`ServiceKind::params`] for the calibrated values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceParams {
    /// Nominal peak-hour CPU utilization.
    pub base_util: f64,
    /// Stationary standard deviation of the mean-reverting noise.
    pub sigma: f64,
    /// Mean-reversion rate of the noise (1/s).
    pub theta: f64,
    /// Burst arrival rate (1/s).
    pub burst_rate: f64,
    /// Minimum additive utilization of a burst.
    pub burst_min: f64,
    /// Maximum additive utilization of a burst.
    pub burst_max: f64,
    /// Mean burst duration (seconds, exponentially distributed).
    pub burst_dur_secs: f64,
    /// 0 = ignores cluster traffic, 1 = proportional to it.
    pub traffic_sensitivity: f64,
}

/// Precomputed coefficients of the discretized Ornstein-Uhlenbeck
/// update for one `(params, dt)` pair.
///
/// The per-step `exp` and `sqrt` depend only on the service parameters
/// and the tick length, so hot loops stepping thousands of generators of
/// the same service can compute them once per tick
/// ([`OuCoeffs::for_params`]) and reuse them via
/// [`ServiceWorkload::utilization_with`] or a [`DrawStep`].
/// [`ServiceWorkload::utilization`] computes the same coefficients per
/// call, so all three are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OuCoeffs {
    /// `exp(-theta * dt)`.
    pub decay: f64,
    /// `sigma * sqrt(1 - decay^2)` — the per-step innovation std-dev.
    pub innovation: f64,
}

impl OuCoeffs {
    /// Computes the coefficients for one parameter set and tick length.
    pub fn for_params(params: &ServiceParams, dt: SimDuration) -> OuCoeffs {
        let decay = (-params.theta * dt.as_secs_f64()).exp();
        OuCoeffs {
            decay,
            innovation: params.sigma * (1.0 - decay * decay).sqrt(),
        }
    }

    /// Coefficients for a service's calibrated parameters.
    pub fn for_kind(kind: ServiceKind, dt: SimDuration) -> OuCoeffs {
        OuCoeffs::for_params(&kind.params(), dt)
    }
}

/// The utilization process for a single server running one service.
///
/// A mean-reverting (Ornstein-Uhlenbeck) component models request-level
/// noise; a Poisson process of additive bursts models the heavy tail
/// (garbage collection, compactions, batch phase changes, storage
/// scans); and the target level follows the cluster's
/// [`crate::TrafficPattern`] according to the service's sensitivity.
///
/// # Example
///
/// ```
/// use dcsim::{SimDuration, SimRng, SimTime};
/// use workloads::{ServiceKind, ServiceWorkload};
///
/// let mut wl = ServiceWorkload::new(ServiceKind::Cache, SimRng::seed_from(3));
/// let u = wl.utilization(SimTime::ZERO, 1.0, SimDuration::from_secs(1));
/// assert!((0.0..=1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceWorkload {
    kind: ServiceKind,
    params: ServiceParams,
    /// Mean-reverting noise state.
    noise: f64,
    /// Active burst as the two scalars [`kernel::step_element`] steps:
    /// expiry (`SimTime::ZERO` when none) and additional utilization.
    burst_until: SimTime,
    burst_add: f64,
    rng: SimRng,
}

impl ServiceWorkload {
    /// Creates the process with its own RNG stream.
    pub fn new(kind: ServiceKind, rng: SimRng) -> Self {
        ServiceWorkload::with_params(kind, kind.params(), rng)
    }

    /// Creates the process with custom parameters (ablations, tests).
    pub fn with_params(kind: ServiceKind, params: ServiceParams, rng: SimRng) -> Self {
        let (burst_until, burst_add) = kernel::burst_to_columns(None);
        ServiceWorkload {
            kind,
            params,
            noise: 0.0,
            burst_until,
            burst_add,
            rng,
        }
    }

    /// The service this process models.
    pub fn kind(&self) -> ServiceKind {
        self.kind
    }

    /// Advances the process by `dt` and returns the demanded CPU
    /// utilization in `[0.02, 1.0]` given the cluster traffic
    /// multiplier at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `traffic_mult` is negative or not finite, or `dt` is
    /// zero.
    pub fn utilization(&mut self, now: SimTime, traffic_mult: f64, dt: SimDuration) -> f64 {
        let ou = OuCoeffs::for_params(&self.params, dt);
        self.utilization_with(now, traffic_mult, dt, ou)
    }

    /// [`ServiceWorkload::utilization`] with the OU coefficients supplied
    /// by the caller, so batch steppers can hoist the per-tick `exp` /
    /// `sqrt` out of their inner loop. `ou` must equal
    /// [`OuCoeffs::for_params`] of this process's parameters and `dt` for
    /// the result to match `utilization` bit-for-bit. The update itself
    /// is [`kernel::step_element`], shared with the column kernel.
    ///
    /// # Panics
    ///
    /// Panics if `traffic_mult` is negative or not finite, or `dt` is
    /// zero.
    pub fn utilization_with(
        &mut self,
        now: SimTime,
        traffic_mult: f64,
        dt: SimDuration,
        ou: OuCoeffs,
    ) -> f64 {
        let step = DrawStep::new(&self.params, now, traffic_mult, dt, ou);
        kernel::step_element(
            &step,
            &mut self.rng,
            &mut self.noise,
            &mut self.burst_until,
            &mut self.burst_add,
        )
    }

    /// True while a burst is in flight.
    #[cfg(test)]
    pub fn in_burst(&self) -> bool {
        kernel::burst_from_columns(self.burst_until, self.burst_add).is_some()
    }

    /// Writes the process with [`put_process`], as a checkpoint writes
    /// each process a fleet keeps as columns.
    #[cfg(test)]
    pub(crate) fn put(&self, w: &mut SnapWriter) {
        let burst = (self.burst_until, self.burst_add);
        put_process(w, self.noise, burst, &self.rng);
    }
}

/// A process on the wire: its noise, its burst in flight and its
/// stream. Its kind and parameters are configuration, folded into the
/// digest of the section that holds it. A fleet keeps its processes as
/// columns and writes each one with it.
pub fn put_process(
    w: &mut SnapWriter,
    noise: f64,
    (burst_until, burst_add): (SimTime, f64),
    rng: &SimRng,
) {
    w.put_f64(noise);
    match kernel::burst_from_columns(burst_until, burst_add) {
        Some((until, add)) => {
            w.put_bool(true);
            w.put_u64(until.as_millis());
            w.put_f64(add);
        }
        None => w.put_bool(false),
    }
    rng.save(w);
}

/// Reads a process written by [`put_process`] into its dynamic parts —
/// noise, burst columns, stream.
pub fn get_process(
    r: &mut SnapReader<'_>,
    noise: &mut f64,
    (burst_until, burst_add): (&mut SimTime, &mut f64),
    rng: &mut SimRng,
) -> Result<(), SnapError> {
    let stored_noise = r.get_f64()?;
    let burst = if r.get_bool()? {
        let until = SimTime::from_millis(r.get_u64()?);
        Some((until, r.get_f64()?))
    } else {
        None
    };
    // Both are summed into a utilization every redraw.
    if !stored_noise.is_finite() || burst.is_some_and(|(_, add)| !add.is_finite()) {
        return Err(SnapError::Corrupt(format!(
            "workload noise {stored_noise} / burst {burst:?} is not finite"
        )));
    }
    *noise = stored_noise;
    (*burst_until, *burst_add) = kernel::burst_to_columns(burst);
    *rng = SimRng::decode(r)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimDuration;
    use powerstats::{sliding_variation, Cdf, Trace};
    use serverpower::ServerGeneration;

    #[test]
    fn priorities_match_paper_ordering() {
        // Cache must outrank web and news feed (§III-C3); hadoop is the
        // natural batch victim.
        assert!(ServiceKind::Cache.priority() > ServiceKind::Web.priority());
        assert!(ServiceKind::Cache.priority() > ServiceKind::NewsFeed.priority());
        assert_eq!(
            ServiceKind::Web.priority(),
            ServiceKind::NewsFeed.priority()
        );
        assert!(ServiceKind::Hadoop.priority() < ServiceKind::Web.priority());
    }

    #[test]
    fn utilization_stays_in_bounds() {
        for kind in ServiceKind::all() {
            let mut wl = ServiceWorkload::new(kind, SimRng::seed_from(17));
            let mut t = SimTime::ZERO;
            for _ in 0..5000 {
                let u = wl.utilization(t, 1.0, SimDuration::from_secs(1));
                assert!((0.0..=1.0).contains(&u), "{kind}: {u}");
                t += SimDuration::from_secs(1);
            }
        }
    }

    #[test]
    fn same_seed_is_deterministic() {
        let run = || {
            let mut wl = ServiceWorkload::new(ServiceKind::Web, SimRng::seed_from(5));
            let mut t = SimTime::ZERO;
            (0..100)
                .map(|_| {
                    let u = wl.utilization(t, 1.0, SimDuration::from_secs(1));
                    t += SimDuration::from_secs(1);
                    u
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traffic_sensitivity_scales_target() {
        // Web follows traffic; hadoop ignores it.
        let mean_util = |kind: ServiceKind, mult: f64| {
            let mut wl = ServiceWorkload::new(kind, SimRng::seed_from(23));
            let mut t = SimTime::ZERO;
            let mut acc = 0.0;
            let n = 3000;
            for _ in 0..n {
                acc += wl.utilization(t, mult, SimDuration::from_secs(1));
                t += SimDuration::from_secs(1);
            }
            acc / n as f64
        };
        let web_low = mean_util(ServiceKind::Web, 0.6);
        let web_high = mean_util(ServiceKind::Web, 1.3);
        assert!(web_high > web_low + 0.2, "web {web_low} -> {web_high}");
        // Hadoop follows job waves but far less elastically than web.
        let hadoop_low = mean_util(ServiceKind::Hadoop, 0.6);
        let hadoop_high = mean_util(ServiceKind::Hadoop, 1.3);
        assert!(hadoop_high - hadoop_low < (web_high - web_low) * 0.75);
    }

    /// Runs `n` servers of a service for `hours` and returns the pooled
    /// 60 s power-variation samples, normalized to per-server peak-hour
    /// mean power — the Figure 6 methodology.
    fn variation_samples(kind: ServiceKind, n: usize, hours: u64, seed: u64) -> Vec<f64> {
        let curve = ServerGeneration::Haswell2015.power_curve();
        let mut root = SimRng::seed_from(seed);
        let mut all = Vec::new();
        for i in 0..n {
            let mut wl = ServiceWorkload::new(kind, root.split_index(i as u64));
            let mut t = SimTime::ZERO;
            let mut trace = Trace::empty(SimDuration::from_secs(3));
            for _ in 0..(hours * 1200) {
                let u = wl.utilization(t, 1.0, SimDuration::from_secs(3));
                trace.push(curve.power_at(u).as_watts());
                t += SimDuration::from_secs(3);
            }
            let norm = trace.peak_mean(0.3);
            for v in sliding_variation(&trace, SimDuration::from_secs(60)) {
                all.push(v / norm * 100.0);
            }
        }
        all
    }

    #[test]
    fn figure6_service_ordering_holds() {
        // The published p50 ordering:
        //   f4 (5.9) < cache (9.2) < hadoop (11.1) < database (15.1)
        //   < webserver (37.2) < newsfeed (42.4)
        // and f4 has the heaviest p99 tail (87.7).
        let services = [
            ServiceKind::F4Storage,
            ServiceKind::Cache,
            ServiceKind::Hadoop,
            ServiceKind::Database,
            ServiceKind::Web,
            ServiceKind::NewsFeed,
        ];
        let cdfs: Vec<Cdf> = services
            .iter()
            .map(|&k| Cdf::from_samples(variation_samples(k, 6, 2, 101)))
            .collect();
        let p50s: Vec<f64> = cdfs.iter().map(|c| c.quantile(0.5)).collect();
        for (i, w) in p50s.windows(2).enumerate() {
            assert!(
                w[0] < w[1],
                "p50 ordering broken between {} ({:.1}) and {} ({:.1})",
                services[i].label(),
                w[0],
                services[i + 1].label(),
                w[1]
            );
        }
        // f4's p99 dominates every other service's p99.
        let p99s: Vec<f64> = cdfs.iter().map(|c| c.quantile(0.99)).collect();
        let f4_p99 = p99s[0];
        for (s, &p) in services.iter().zip(&p99s).skip(1) {
            assert!(
                f4_p99 > p,
                "f4 p99 {f4_p99:.1} should exceed {} p99 {p:.1}",
                s.label()
            );
        }
    }

    #[test]
    fn figure6_magnitudes_are_in_band() {
        // Loose absolute bands around the published p50s.
        let check = |kind: ServiceKind, lo: f64, hi: f64| {
            let cdf = Cdf::from_samples(variation_samples(kind, 6, 2, 202));
            let p50 = cdf.quantile(0.5);
            assert!(
                (lo..hi).contains(&p50),
                "{}: p50 {p50:.1} outside [{lo},{hi})",
                kind.label()
            );
        };
        check(ServiceKind::Web, 20.0, 55.0);
        check(ServiceKind::Cache, 4.0, 18.0);
        check(ServiceKind::F4Storage, 2.0, 12.0);
        check(ServiceKind::Hadoop, 5.0, 20.0);
    }

    #[test]
    fn bursts_eventually_fire_and_expire() {
        let mut wl = ServiceWorkload::new(ServiceKind::NewsFeed, SimRng::seed_from(9));
        let mut t = SimTime::ZERO;
        let mut saw_burst = false;
        let mut saw_quiet_after_burst = false;
        for _ in 0..20_000 {
            wl.utilization(t, 1.0, SimDuration::from_secs(1));
            if wl.in_burst() {
                saw_burst = true;
            } else if saw_burst {
                saw_quiet_after_burst = true;
            }
            t += SimDuration::from_secs(1);
        }
        assert!(saw_burst && saw_quiet_after_burst);
    }

    #[test]
    #[should_panic(expected = "invalid traffic multiplier")]
    fn negative_traffic_panics() {
        let mut wl = ServiceWorkload::new(ServiceKind::Web, SimRng::seed_from(1));
        wl.utilization(SimTime::ZERO, -1.0, SimDuration::from_secs(1));
    }

    #[test]
    fn sla_floors_are_positive_and_ordered() {
        for kind in ServiceKind::all() {
            assert!(kind.sla_min_cap().as_watts() > 0.0);
        }
        // The batch tier may be squeezed hardest.
        assert!(ServiceKind::Hadoop.sla_min_cap() < ServiceKind::Cache.sla_min_cap());
    }

    #[test]
    fn labels_match_figure6_legend() {
        assert_eq!(ServiceKind::Web.label(), "webserver");
        assert_eq!(ServiceKind::F4Storage.label(), "f4storage");
        assert_eq!(ServiceKind::all().len(), 6);
    }
}
