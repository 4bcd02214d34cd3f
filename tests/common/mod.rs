//! What the datacenter tests build from: a [`Spec`], which the product's
//! builder and the reference oracle (`oracle/mod.rs`) both read, and the
//! few fleets the tests share. A test file uses what it needs of it.

#![allow(dead_code)]

use dcsim::SimDuration;
use dynamo_repro::dynamo::{DatacenterBuilder, ObsConfig, ServicePlan};
use dynamo_repro::dynrpc::LinkProfile;
use dynamo_repro::powerinfra::{DeviceLevel, Power};
use dynamo_repro::workloads::{ServiceKind, TrafficPattern};

/// A datacenter's configuration. `None` and the zero values keep the
/// builder's defaults.
#[derive(Clone, Default)]
pub struct Spec {
    /// SBs per MSB, RPPs per SB, racks per RPP, servers per rack.
    pub shape: [usize; 4],
    /// RPP, SB and MSB ratings in kW.
    pub kw: [Option<f64>; 3],
    pub plan: Option<ServicePlan>,
    pub traffic: Vec<(ServiceKind, TrafficPattern)>,
    pub turbo: Option<ServiceKind>,
    pub crash_rate: f64,
    pub rpc: Option<LinkProfile>,
    pub obs: ObsConfig,
    pub hold: Option<u32>,
    pub monitor_only: bool,
    pub dry_run: bool,
    pub spread: SimDuration,
    pub watch: Option<Vec<DeviceLevel>>,
    pub grid: Option<&'static str>,
    pub seed: u64,
}

/// `b`, given `value` through `set` when there is one.
fn maybe<B, T>(b: B, value: Option<T>, set: impl FnOnce(B, T) -> B) -> B {
    match value {
        Some(v) => set(b, v),
        None => b,
    }
}

impl Spec {
    /// A web fleet of `shape` on the builder's defaults, seeded.
    pub fn new(shape: [usize; 4], seed: u64) -> Spec {
        Spec {
            shape,
            seed,
            ..Spec::default()
        }
    }

    /// The product's builder for this spec at `width` worker threads.
    pub fn builder(&self, width: usize) -> DatacenterBuilder {
        let [sbs, rpps, racks, servers] = self.shape;
        let mut b = DatacenterBuilder::new()
            .sbs_per_msb(sbs)
            .rpps_per_sb(rpps)
            .racks_per_rpp(racks)
            .servers_per_rack(servers)
            .agent_crash_rate(self.crash_rate)
            .observability(self.obs.clone())
            .capping_enabled(!self.monitor_only)
            .dry_run(self.dry_run)
            .phase_spread(self.spread)
            .worker_threads(width)
            .seed(self.seed);
        let kw = self.kw.map(|kw| kw.map(Power::from_kilowatts));
        b = maybe(b, kw[0], DatacenterBuilder::rpp_rating);
        b = maybe(b, kw[1], DatacenterBuilder::sb_rating);
        b = maybe(b, kw[2], DatacenterBuilder::msb_rating);
        b = maybe(b, self.plan.clone(), DatacenterBuilder::service_plan);
        for (kind, pattern) in &self.traffic {
            b = b.traffic(*kind, pattern.clone());
        }
        b = maybe(b, self.turbo, DatacenterBuilder::turbo);
        b = maybe(b, self.rpc, DatacenterBuilder::rpc_profile);
        b = maybe(b, self.hold, DatacenterBuilder::demand_hold);
        b = maybe(b, self.watch.clone(), DatacenterBuilder::watch_levels);
        maybe(b, self.grid, DatacenterBuilder::grid_scenario)
    }
}

pub fn web(pattern: TrafficPattern) -> Vec<(ServiceKind, TrafficPattern)> {
    vec![(ServiceKind::Web, pattern)]
}

/// A web fleet of `shape` under `pattern`, behind RPPs of `rpp_kw`.
pub fn flat(shape: [usize; 4], rpp_kw: f64, pattern: TrafficPattern, seed: u64) -> Spec {
    let (kw, traffic) = ([Some(rpp_kw), None, None], web(pattern));
    Spec {
        kw,
        traffic,
        ..Spec::new(shape, seed)
    }
}

/// Two SBs of two RPPs of two 16-server racks, half web, 30% cache and
/// 20% Hadoop, web traffic diurnal, observed.
pub fn mixed(kw: [Option<f64>; 3], crash_rate: f64, seed: u64) -> Spec {
    use ServiceKind::*;
    let plan = Some(ServicePlan::Mix(vec![
        (Web, 0.5),
        (Cache, 0.3),
        (Hadoop, 0.2),
    ]));
    let (traffic, obs) = (web(TrafficPattern::diurnal()), ObsConfig::on());
    Spec {
        kw,
        plan,
        traffic,
        crash_rate,
        obs,
        ..Spec::new([2, 2, 2, 16], seed)
    }
}

/// A counter's value in a Prometheus exposition.
pub fn metric(text: &str, name: &str) -> u64 {
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let value = lines
        .find(|l| l.starts_with(name))
        .and_then(|l| l.rsplit(' ').next());
    value
        .and_then(|v| v.parse::<f64>().ok())
        .map_or(0, |v| v as u64)
}
