//! A naive reference datacenter: what `Datacenter::step` computes,
//! written again from the scalar parts and the public API alone.
//!
//! One `dynamo_agent::Agent` (owning its `serverpower::Server`) and one
//! `workloads::ServiceWorkload` per server, stepped one at a time; one
//! `LeafController` per RPP pulling its agents one call at a time
//! through `Network::call`; one `UpperController` per SB and MSB; the
//! breakers in device order. None of the product's machinery is here:
//! no columns, shards or pool, no active-set skip, no rack memo, no
//! two-pass pull, no epochs. DESIGN.md's "The reference oracle" says
//! what the product must equal and what the oracle leaves out. A test
//! file's scripts use what they need of its acts.

#![allow(dead_code)]

use std::ops::Range;
use std::sync::Arc;

use dcsim::{CycleSchedule, SimDuration, SimRng, SimTime};
use dynamo_repro::dynamo::Datacenter;
use dynamo_repro::dynamo::{service_class_of, ControllerEvent, ControllerEventKind as Kind};
use dynamo_repro::dynamo_agent::Agent;
use dynamo_repro::dynamo_controller::{ChildDirective, ChildReport, ClassTable, ControlAction};
use dynamo_repro::dynamo_controller::{LeafConfig, LeafController, UpperConfig, UpperController};
use dynamo_repro::dynrpc::{Network, RpcError};
use dynamo_repro::powerinfra::{BreakerStatus, DeviceId, DeviceLevel, Power, Topology};
use dynamo_repro::serverpower::{Server, ServerConfig, ServerGeneration};
use dynamo_repro::workloads::{OuCoeffs, ServiceKind, ServiceWorkload};

use crate::common::Spec;

const TICK: SimDuration = SimDuration::from_secs(1);

/// Everything a run is judged by: controller events, each leaf's last
/// aggregate and cycle count, every breaker transition, each watched
/// device's trace, the capped and total series and every server's final
/// watts. Runs are compared by `Debug` text, which prints floats exactly.
#[derive(Debug, Default)]
pub struct Observed {
    pub events: Vec<ControllerEvent>,
    pub leaves: Vec<(Power, u64)>,
    pub breakers: Vec<(SimTime, DeviceId, BreakerStatus)>,
    pub traces: Vec<(DeviceId, Vec<f64>)>,
    pub capped: Vec<f64>,
    pub total: Vec<f64>,
    pub watts: Vec<f64>,
}

impl Observed {
    /// What `dc` shows of its run so far.
    pub fn of(dc: &Datacenter) -> Observed {
        let (system, telemetry, fleet) = (dc.system(), dc.telemetry(), dc.fleet());
        let leaf = |&d| {
            let cycles = system.leaf_for(d).unwrap().cycles();
            (system.leaf_aggregate(d).unwrap(), cycles)
        };
        let trace = |d: DeviceId| Some((d, telemetry.device_trace(d)?.values().to_vec()));
        let breakers = telemetry.breaker_events().iter();
        let watts = (0..fleet.len() as u32).map(|s| fleet.power_of(s).as_watts());
        Observed {
            events: telemetry.controller_events().to_vec(),
            leaves: system.leaf_devices().iter().map(leaf).collect(),
            breakers: breakers.map(|e| (e.at, e.device, e.status)).collect(),
            traces: dc.topology().iter().filter_map(|d| trace(d.id)).collect(),
            capped: telemetry.capped_servers().values().to_vec(),
            total: telemetry.total_power().values().to_vec(),
            watts: watts.collect(),
        }
    }
}

/// A device by its level and its index at that level.
pub type Dev = (DeviceLevel, usize);

/// What a scenario script does before a tick's step.
pub enum Act {
    /// An act on the controller or breaker protecting a device.
    At(Dev, On),
    /// Power servers off, or back on, out of band.
    Kill(Range<u32>),
    Revive(Range<u32>),
    /// See [`Site::audit`].
    Audit,
}

/// What an [`Act::At`] does to its device.
pub enum On {
    /// Fail the primary controller.
    Fail,
    /// Note the flat ascending draw, for a contract to be sized off.
    Measure,
    /// Contract the controller to a factor times the `n`-th noted draw,
    /// or clear its contract.
    Contract(Option<(usize, f64)>),
    Reset,
}

/// The datacenter under test, or the oracle: what a script acts on.
pub trait Site {
    fn topology(&self) -> &Topology;
    /// Does `on` to device `d`, noting a measured draw in `noted`.
    fn on(&mut self, d: DeviceId, on: &On, noted: &mut Vec<Power>);
    fn set_alive(&mut self, sid: u32, alive: bool);
    /// Every device's draw, as the tick reads it, must equal a fresh
    /// fold; the oracle keeps no draw to go stale.
    fn audit(&mut self) {}
    fn step(&mut self);

    fn act(&mut self, act: &Act, noted: &mut Vec<Power>) {
        match act {
            Act::At((level, i), on) => self.on(self.topology().devices_at(*level)[*i], on, noted),
            Act::Kill(sids) => sids.clone().for_each(|s| self.set_alive(s, false)),
            Act::Revive(sids) => sids.clone().for_each(|s| self.set_alive(s, true)),
            Act::Audit => self.audit(),
        }
    }
}

/// The limit a contract of `factor` times the `n`-th of `noted` sets.
fn limit(contract: &Option<(usize, f64)>, noted: &[Power]) -> Option<Power> {
    contract.map(|(n, factor)| noted[n] * factor)
}

impl Site for Datacenter {
    fn topology(&self) -> &Topology {
        Datacenter::topology(self)
    }
    fn on(&mut self, d: DeviceId, on: &On, noted: &mut Vec<Power>) {
        let leaf = self.topology().device(d).level == DeviceLevel::Rpp;
        match on {
            On::Fail => self.system_mut().fail_primary(d),
            On::Measure => noted.push(self.device_power(d)),
            On::Contract(c) if leaf => self.system_mut().set_leaf_contract(d, limit(c, noted)),
            On::Contract(c) => self.system_mut().set_upper_contract(d, limit(c, noted)),
            On::Reset => self.reset_breaker(d),
        }
    }
    fn set_alive(&mut self, sid: u32, alive: bool) {
        self.fleet_mut().set_server_alive(sid, alive);
    }
    fn audit(&mut self) {
        assert!(
            self.draw_cache_is_exact(),
            "a stale draw at {:?}",
            self.now()
        );
    }
    fn step(&mut self) {
        Datacenter::step(self);
    }
}

/// One RPP's controller and what the tick keeps beside it.
struct Leaf {
    device: DeviceId,
    controller: LeafController,
    schedule: CycleSchedule,
    network: Network,
    last_draw: u64,
    /// The last real cycle was a clean Hold — no pull failures, no caps
    /// left active, not a takeover — and no directive or contract
    /// override has reached the leaf since.
    quiet: bool,
    /// Since the last real cycle, a server of the leaf was redrawn,
    /// changed its RAPL output bits, crashed, was restarted or changed
    /// liveness. True before the first cycle.
    touched: bool,
}

/// The naive datacenter.
pub struct Oracle {
    spec: Spec,
    capping: bool,
    now: SimTime,
    topo: Topology,
    /// Per server: its agent, its workload and its leaf.
    servers: Vec<(Agent, ServiceWorkload, usize)>,
    leaves: Vec<Leaf>,
    uppers: Vec<(DeviceId, UpperController, CycleSchedule)>,
    /// By device index: the last aggregate (leaf) or total (upper) its
    /// controller computed, and whether its primary has crashed, making
    /// the next due cycle the backup's takeover.
    reported: Vec<Power>,
    failed: Vec<bool>,
    crashes: SimRng,
    restarts: Vec<(u32, SimTime)>,
    seen: Observed,
}

impl Oracle {
    /// The oracle of `spec`, over `dc`'s topology, service plan and
    /// control-plane configuration as built. Every random stream is
    /// re-derived from the seed as the builder derives it: the streams
    /// split off one parent in the builder's order, each consumed in id
    /// order.
    pub fn new(spec: &Spec, dc: &Datacenter) -> Oracle {
        let (topo, sys) = (dc.topology().clone(), dc.system().config());
        let mut root = SimRng::seed_from(spec.seed);
        root.split("service-plan");
        let mut sensors = root.split("sensors");
        let mut fleet = root.split("fleet");
        let mut system = root.split("system");
        let (mut agents, mut workloads) = (fleet.split("agents"), fleet.split("workloads"));

        let rpps = topo.devices_at(DeviceLevel::Rpp);
        let server = |(sid, kind)| {
            let mut config = ServerConfig::new(ServerGeneration::Haswell2015);
            if sensors.chance(0.02) {
                config = config.without_sensor().with_estimator_bias(0.0);
            }
            if spec.turbo == Some(kind) {
                config = config.with_turbo();
            }
            let agent = Agent::new(Server::new(sid, config), agents.split_index(sid.into()));
            let workload = ServiceWorkload::new(kind, workloads.split_index(sid.into()));
            let leaf = rpps.partition_point(|&d| topo.servers_under(d).end <= sid);
            (agent, workload, leaf)
        };
        let servers: Vec<_> = dc.fleet().iter_services().map(server).collect();

        // Controller `i` of an `n`-instance tier cycling every `period`
        // seconds, its phase staggered evenly over the spread.
        let schedule = |period, i, n| {
            let phase = sys.phase_spread.as_millis() as u128 * i as u128 / n as u128;
            let phase = SimDuration::from_millis(phase as u64);
            CycleSchedule::with_phase(SimDuration::from_secs(period), phase)
        };
        let classes = ServiceKind::all().map(service_class_of).to_vec();
        let classes = Arc::new(ClassTable::new(classes));
        let leaf = |(i, &device): (usize, &DeviceId)| {
            let dev = topo.device(device);
            let mut config = LeafConfig::new(dev.rating);
            config.dry_run = sys.dry_run;
            let ids: Vec<u32> = dev.servers.clone().collect();
            let kind = |&s: &u32| servers[s as usize].1.kind().index() as u16;
            let kinds = ids.iter().map(kind).collect();
            let (classes, name) = (Arc::clone(&classes), &*dev.name);
            Leaf {
                device,
                controller: LeafController::with_classes(name, config, ids, classes, kinds),
                schedule: schedule(3, i, rpps.len()),
                network: Network::new(sys.rpc, system.split(name)),
                last_draw: 0,
                quiet: false,
                touched: true,
            }
        };
        let leaves = rpps.iter().enumerate().map(leaf).collect();
        let uppers = [DeviceLevel::Sb, DeviceLevel::Msb]
            .map(|l| topo.devices_at(l))
            .concat();
        let upper = |(i, &d): (usize, &DeviceId)| {
            let dev = topo.device(d);
            let config = UpperConfig::new(dev.rating);
            let upper = UpperController::new(&*dev.name, config, dev.children.len());
            (d, upper, schedule(9, i, uppers.len()))
        };
        let uppers = uppers.iter().enumerate().map(upper).collect();
        let levels = [DeviceLevel::Rpp, DeviceLevel::Sb, DeviceLevel::Msb];
        let watch = spec.watch.clone().unwrap_or(levels.to_vec());
        let watched = topo.iter().filter(|d| watch.contains(&d.level));
        let traces = watched.map(|d| (d.id, Vec::new())).collect();
        let seen = Observed {
            traces,
            ..Observed::default()
        };
        Oracle {
            spec: spec.clone(),
            capping: sys.capping_enabled,
            now: SimTime::ZERO,
            servers,
            leaves,
            uppers,
            reported: vec![Power::ZERO; topo.device_count()],
            failed: vec![false; topo.device_count()],
            crashes: fleet.split("fleet-events"),
            restarts: Vec::new(),
            seen,
            topo,
        }
    }

    /// What the oracle's run shows.
    pub fn observed(mut self) -> Observed {
        for leaf in &self.leaves {
            let aggregate = self.reported[leaf.device.index()];
            self.seen.leaves.push((aggregate, leaf.controller.cycles()));
        }
        self.seen.watts = (0..self.servers.len() as u32)
            .map(|s| self.watts(s))
            .collect();
        self.seen
    }

    fn watts(&self, sid: u32) -> f64 {
        self.servers[sid as usize].0.server().power().as_watts()
    }

    fn flat(&self, servers: Range<u32>) -> f64 {
        servers.map(|s| self.watts(s)).sum()
    }

    /// What device `d`'s breaker sees: a rack or an RPP is the flat
    /// ascending fold of its servers; an SB or MSB sums its leaves'
    /// flat folds in leaf order.
    fn draw(&self, d: DeviceId) -> Power {
        let dev = self.topo.device(d);
        if dev.level >= DeviceLevel::Rpp {
            return Power::from_watts(self.flat(dev.servers.clone()));
        }
        let leaves = self
            .leaves
            .iter()
            .map(|leaf| self.topo.servers_under(leaf.device));
        let under = leaves.filter(|s| dev.servers.contains(&s.start));
        Power::from_watts(under.map(|s| self.flat(s)).sum())
    }

    fn touch(&mut self, sid: u32) {
        let leaf = self.servers[sid as usize].2;
        self.leaves[leaf].touched = true;
    }

    fn set_contract(&mut self, device: DeviceId, limit: Option<Power>) {
        if let Some(leaf) = self.leaves.iter_mut().find(|l| l.device == device) {
            leaf.quiet = false;
            return leaf.controller.set_contractual_limit(limit);
        }
        let upper = self.uppers.iter_mut().find(|u| u.0 == device);
        upper.expect("a controller").1.set_contractual_limit(limit);
    }

    /// Every server every tick. A leaf redraws its servers' demand when
    /// its phase of the hold comes round, over the ticks since its last
    /// redraw.
    fn physics(&mut self, tick: u64) {
        let (now, hold) = (self.now, u64::from(self.spec.hold.unwrap_or(1)));
        for (l, leaf) in self.leaves.iter_mut().enumerate() {
            let due = tick % hold == l as u64 % hold;
            let dt = TICK * (tick - leaf.last_draw).max(1);
            if due {
                (leaf.last_draw, leaf.touched) = (tick, true);
            }
            let span = self.topo.servers_under(leaf.device);
            for (agent, workload, _) in &mut self.servers[span.start as usize..span.end as usize] {
                if due {
                    let kind = workload.kind();
                    let traffic = self.spec.traffic.iter().find(|(k, _)| *k == kind);
                    let mult = traffic.map_or(1.0, |(_, p)| p.multiplier(now));
                    let ou = OuCoeffs::for_kind(kind, dt);
                    let util = workload.utilization_with(now, mult, dt, ou);
                    agent.server_mut().set_demand(util);
                }
                let before = agent.server().rapl().output().as_watts();
                agent.server_mut().step(TICK);
                let after = agent.server().rapl().output().as_watts();
                leaf.touched |= after.to_bits() != before.to_bits();
            }
        }
    }

    /// Agent crashes, Poisson per running agent in id order, and the
    /// watchdog restarting each 30 s after its crash.
    fn failures(&mut self) {
        let now = self.now;
        let p = self.spec.crash_rate * TICK.as_secs_f64() / 3600.0;
        for sid in 0..self.servers.len() as u32 {
            let agent = &mut self.servers[sid as usize].0;
            if p > 0.0 && agent.is_running() && self.crashes.chance(p) {
                agent.crash();
                self.touch(sid);
                self.restarts.push((sid, now + SimDuration::from_secs(30)));
            }
        }
        for (sid, at) in std::mem::take(&mut self.restarts) {
            if at <= now {
                self.servers[sid as usize].0.restart();
                self.touch(sid);
            } else {
                self.restarts.push((sid, at));
            }
        }
    }

    /// The breakers in device order, each against the draw read at that
    /// moment: a trip blacks out its subtree for every later device.
    fn breakers(&mut self) {
        for d in (0..self.topo.device_count()).map(DeviceId::from_index) {
            let draw = self.draw(d);
            let breaker = &mut self.topo.device_mut(d).breaker;
            let (was, status) = (breaker.status(), breaker.step(draw, TICK));
            if status != was {
                self.seen.breakers.push((self.now, d, status));
            }
            if status != was && status == BreakerStatus::Tripped {
                for sid in self.topo.servers_under(d) {
                    self.set_alive(sid, false);
                }
            }
        }
    }

    fn event(&mut self, device: DeviceId, kind: Kind) {
        let at = self.now;
        self.seen.events.push(ControllerEvent { at, device, kind });
    }

    /// Leaf `i`'s due cycle: the backup's takeover if its primary failed;
    /// without capping, tracking its flat fold; elided when quiet and
    /// untouched on a lossless link.
    fn leaf_cycle(&mut self, i: usize) {
        let (now, device) = (self.now, self.leaves[i].device);
        let span = self.topo.servers_under(device);
        let fold = Power::from_watts(self.flat(span.clone()));
        let failed = std::mem::take(&mut self.failed[device.index()]);
        let leaf = &mut self.leaves[i];
        if failed {
            (leaf.quiet, leaf.touched) = (false, false);
            return self.event(device, Kind::Failover);
        }
        if !self.capping {
            self.reported[device.index()] = fold;
            return;
        }
        if leaf.quiet && !leaf.touched && leaf.network.profile().is_lossless() {
            return;
        }
        let agents = &mut self.servers[span.start as usize..span.end as usize];
        let network = &mut leaf.network;
        let outcome = leaf.controller.cycle(now, |sid, req| {
            let agent = &mut agents[(sid - span.start) as usize].0;
            if !agent.is_running() {
                return Err(RpcError::AgentDown);
            }
            network.call(agent, req)
        });
        if let Some(aggregate) = outcome.aggregated {
            self.reported[device.index()] = aggregate;
        }
        let (failures, caps) = (outcome.pull_failures, leaf.controller.active_cap_count());
        let hold = matches!(outcome.action, ControlAction::Hold);
        (leaf.quiet, leaf.touched) = (hold && failures == 0 && caps == 0, false);
        let kind = match outcome.action {
            ControlAction::Capped {
                total_cut,
                commands,
            } => {
                let servers = commands.len();
                Kind::LeafCapped { total_cut, servers }
            }
            ControlAction::Uncapped => Kind::LeafUncapped,
            ControlAction::Invalid => Kind::LeafInvalid { failures },
            ControlAction::Hold => return,
        };
        self.event(device, kind);
    }

    /// Upper `u`'s due cycle over its children's reports, pushing the
    /// contracts it decides; or the backup's takeover.
    fn upper_cycle(&mut self, u: usize) {
        let device = self.uppers[u].0;
        if std::mem::take(&mut self.failed[device.index()]) {
            return self.event(device, Kind::Failover);
        }
        let children = self.topo.device(device).children.clone();
        let report = |&c: &DeviceId| {
            let (power, dev) = (self.reported[c.index()], self.topo.device(c));
            let (quota, physical_limit) = (dev.quota, dev.rating);
            ChildReport {
                power,
                quota,
                physical_limit,
            }
        };
        let reports: Vec<ChildReport> = children.iter().map(report).collect();
        let outcome = self.uppers[u].1.cycle(self.now, &reports);
        self.reported[device.index()] = outcome.total;
        let mut contracts = 0;
        for (&child, directive) in children.iter().zip(&outcome.directives) {
            match *directive {
                ChildDirective::SetContract(limit) => {
                    contracts += 1;
                    self.set_contract(child, Some(limit));
                }
                ChildDirective::ClearContract => self.set_contract(child, None),
                ChildDirective::Unchanged => {}
            }
        }
        if outcome.capped {
            self.event(device, Kind::UpperCapped { contracts });
        } else if outcome.uncapped {
            self.event(device, Kind::UpperUncapped);
        }
    }
}

impl Site for Oracle {
    fn topology(&self) -> &Topology {
        &self.topo
    }

    fn on(&mut self, d: DeviceId, on: &On, noted: &mut Vec<Power>) {
        match on {
            On::Fail => self.failed[d.index()] = true,
            On::Measure => noted.push(Power::from_watts(self.flat(self.topo.servers_under(d)))),
            On::Contract(c) => self.set_contract(d, limit(c, noted)),
            // The servers below come back on unless another open breaker
            // still covers them.
            On::Reset => {
                self.topo.device_mut(d).breaker.reset();
                let tripped = BreakerStatus::Tripped;
                let open = self.topo.iter().filter(|d| d.breaker.status() == tripped);
                let dark: Vec<Range<u32>> = open.map(|d| d.servers.clone()).collect();
                for sid in self.topo.servers_under(d) {
                    if !dark.iter().any(|r| r.contains(&sid)) {
                        self.set_alive(sid, true);
                    }
                }
            }
        }
    }

    fn set_alive(&mut self, sid: u32, alive: bool) {
        let server = self.servers[sid as usize].0.server_mut();
        if server.is_alive() != alive {
            server.set_alive(alive);
            self.touch(sid);
        }
    }

    /// Physics and agent failures, the breaker pass, the due leaves'
    /// cycles in leaf order and the due uppers' (none without capping),
    /// and the 3 s telemetry sample.
    fn step(&mut self) {
        let (now, tick) = (self.now, self.now.as_millis() / TICK.as_millis());
        self.physics(tick);
        self.failures();
        self.breakers();
        let first = self.seen.events.len();
        for i in 0..self.leaves.len() {
            if self.leaves[i].schedule.fire(now) {
                self.leaf_cycle(i);
            }
        }
        for u in 0..self.uppers.len() {
            if self.uppers[u].2.fire(now) && self.capping {
                self.upper_cycle(u);
            }
        }
        // The recorder keeps each tick's events in device order.
        self.seen.events[first..].sort_by_key(|e| e.device);
        if tick % 3 == 0 {
            for k in 0..self.seen.traces.len() {
                let draw = self.draw(self.seen.traces[k].0);
                self.seen.traces[k].1.push(draw.as_watts());
            }
            let limits = self.servers.iter().map(|s| s.0.server().rapl().limit());
            self.seen.capped.push(limits.flatten().count() as f64);
            let total = self.flat(0..self.servers.len() as u32);
            self.seen.total.push(total);
        }
        self.now += TICK;
    }
}
