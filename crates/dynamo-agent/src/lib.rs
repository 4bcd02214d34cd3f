//! The Dynamo agent (§III-B of the paper).
//!
//! "Dynamo agent is a light-weight program running on every server in a
//! data center. At a high level, Dynamo agent functions like a request
//! handler daemon." It handles exactly two request types:
//!
//! * **Power read** — returns current power and, when the platform
//!   provides it, a component breakdown. Servers with an on-board sensor
//!   read it; sensorless servers evaluate the calibrated estimation
//!   model. Both paths live in [`serverpower`]; the agent just routes.
//! * **Power cap/uncap** — programs or clears the host RAPL limit and
//!   acknowledges whether the operation succeeded.
//!
//! Agents hold *no* fleet-level intelligence ("we place most of the
//! intelligence of the system in the controller") and never talk to each
//! other — they only answer controller requests, which is why this crate
//! is small by design.
//!
//! The request handler is written once, as [`Host`]'s
//! [`AgentEndpoint`] implementation: a borrowed view of the host state
//! one request touches. [`Agent`] — the standalone model, owning a
//! scalar [`Server`] — serves every request through a `Host` over its
//! own fields; the fleet in `dynamo` builds the same `Host` over its
//! per-server columns.
//!
//! The agent also models the §III-E failure story: the process can
//! crash; a watchdog (driven by the harness) restarts it.
//!
//! # Example
//!
//! ```
//! use dcsim::{SimDuration, SimRng};
//! use dynrpc::{AgentEndpoint, Request, Response};
//! use dynamo_agent::Agent;
//! use powerinfra::Power;
//! use serverpower::{Server, ServerConfig, ServerGeneration};
//!
//! let server = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
//! let mut agent = Agent::new(server, SimRng::seed_from(1));
//! agent.server_mut().set_demand(0.7);
//! agent.server_mut().step(SimDuration::from_secs(1));
//!
//! match agent.handle(Request::ReadPower) {
//!     Response::Power(reading) => assert!(reading.total.as_watts() > 100.0),
//!     _ => unreachable!(),
//! }
//! let ack = agent.handle(Request::SetCap(Power::from_watts(180.0)));
//! assert_eq!(ack, Response::CapAck { ok: true });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dcsim::SimRng;
use dynrpc::{AgentEndpoint, PowerReading, Request, Response, WireBreakdown};
use powerinfra::Power;
use serverpower::{Server, ServerModel};

/// The per-server Dynamo agent: owns the host model and services
/// controller requests.
#[derive(Debug, Clone)]
pub struct Agent {
    server: Server,
    rng: SimRng,
    running: bool,
    /// Counters exposed for monitoring (§VI: "Monitoring is as important
    /// as capping").
    stats: AgentStats,
}

/// Request counters kept by an agent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Power reads served.
    pub reads: u64,
    /// Cap/uncap operations applied.
    pub cap_ops: u64,
    /// Requests rejected (invalid cap value, process down).
    pub rejected: u64,
    /// Times the process crashed.
    pub crashes: u64,
    /// Times the watchdog restarted it.
    pub restarts: u64,
}

impl Agent {
    /// Creates an agent for `server` with its own RNG stream (sensor
    /// noise).
    pub fn new(server: Server, rng: SimRng) -> Self {
        Agent {
            server,
            rng,
            running: true,
            stats: AgentStats::default(),
        }
    }

    /// The host server model.
    pub fn server(&self) -> &Server {
        &self.server
    }

    /// Mutable host access — the simulation harness uses this to drive
    /// workload demand and step physics; it is not part of the RPC
    /// surface.
    pub fn server_mut(&mut self) -> &mut Server {
        &mut self.server
    }

    /// Whether the agent process is running. A crashed agent cannot
    /// answer RPCs (the harness surfaces this as
    /// [`dynrpc::RpcError::AgentDown`]).
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Simulates a process crash (§III-E fault-tolerance testing).
    pub fn crash(&mut self) {
        if self.running {
            self.running = false;
            self.stats.crashes += 1;
        }
    }

    /// Watchdog restart: "a script periodically checks the health of an
    /// agent and restarts the agents in case the agent crashes."
    ///
    /// A restarted agent keeps the host's RAPL state — the limit lives
    /// in hardware, not in the process.
    pub fn restart(&mut self) {
        if !self.running {
            self.running = true;
            self.stats.restarts += 1;
        }
    }

    /// Monitoring counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// The power limit currently programmed on the host, if any.
    pub fn current_cap(&self) -> Option<Power> {
        self.server.rapl().limit()
    }
}

/// The host as its agent sees it for the duration of one request: the
/// immutable hardware model, the sensor-noise stream, and the few
/// scalars §III-B reads (drawn power, liveness, whether the agent
/// process is up) or writes (the RAPL limit). Whoever owns those
/// scalars builds a `Host` over them, calls
/// [`handle`](AgentEndpoint::handle) and stores `limit` back.
#[derive(Debug)]
pub struct Host<'a> {
    /// The host's per-configuration model.
    pub model: &'a ServerModel,
    /// Sensor-noise stream.
    pub rng: &'a mut SimRng,
    /// Whether the agent process is up.
    pub running: bool,
    /// Whether the host itself is powered.
    pub alive: bool,
    /// True power drawn right now (zero while the host is dead).
    pub drawn: Power,
    /// The programmed RAPL limit; cap requests overwrite it.
    pub limit: Option<Power>,
}

impl AgentEndpoint for Host<'_> {
    fn handle(&mut self, req: Request) -> Response {
        if !self.running {
            // A down process answers nothing useful; the transport layer
            // normally turns this into AgentDown before we get here, but
            // guard anyway for direct callers.
            return Response::CapAck { ok: false };
        }
        match req {
            Request::ReadPower => {
                let total = self.model.read_power(self.drawn, self.alive, self.rng);
                let from_sensor = self.model.config().has_sensor;
                // Breakdown is only available from the sensor firmware
                // path (§III-B: "If possible, it also returns the
                // breakdown of the power").
                let breakdown = from_sensor.then(|| {
                    let b = self.model.breakdown(self.drawn);
                    WireBreakdown {
                        cpu: b.cpu,
                        memory: b.memory,
                        other: b.other,
                        conversion_loss: b.conversion_loss,
                    }
                });
                Response::Power(PowerReading {
                    total,
                    breakdown,
                    from_sensor,
                })
            }
            Request::SetCap(limit) => {
                if !limit.is_valid_draw() || limit.as_watts() <= 0.0 {
                    return Response::CapAck { ok: false };
                }
                self.limit = Some(limit);
                Response::CapAck { ok: true }
            }
            Request::ClearCap => {
                self.limit = None;
                Response::CapAck { ok: true }
            }
        }
    }
}

impl AgentEndpoint for Agent {
    fn handle(&mut self, req: Request) -> Response {
        let mut host = Host {
            model: self.server.model(),
            rng: &mut self.rng,
            running: self.running,
            alive: self.server.is_alive(),
            drawn: self.server.power(),
            limit: self.server.rapl().limit(),
        };
        let resp = host.handle(req);
        let limit = host.limit;
        match limit {
            Some(l) => self.server.rapl_mut().set_limit(l),
            None => self.server.rapl_mut().clear_limit(),
        }
        match resp {
            Response::Power(_) => self.stats.reads += 1,
            Response::CapAck { ok: true } => self.stats.cap_ops += 1,
            Response::CapAck { ok: false } => self.stats.rejected += 1,
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::SimDuration;
    use serverpower::{ServerConfig, ServerGeneration};

    fn agent_with(config: ServerConfig) -> Agent {
        let mut server = Server::new(0, config);
        server.set_demand(0.8);
        for _ in 0..5 {
            server.step(SimDuration::from_secs(1));
        }
        Agent::new(server, SimRng::seed_from(42))
    }

    fn sensored() -> Agent {
        agent_with(ServerConfig::new(ServerGeneration::Haswell2015))
    }

    #[test]
    fn read_power_returns_sensor_reading_with_breakdown() {
        let mut a = sensored();
        match a.handle(Request::ReadPower) {
            Response::Power(r) => {
                assert!(r.from_sensor);
                let b = r.breakdown.expect("sensored servers report breakdowns");
                let sum = b.cpu + b.memory + b.other + b.conversion_loss;
                // Breakdown reflects true power; reading has sensor noise.
                assert!((sum - r.total).abs().as_watts() < 15.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(a.stats().reads, 1);
    }

    #[test]
    fn sensorless_reads_are_estimates_without_breakdown() {
        let mut a = agent_with(ServerConfig::new(ServerGeneration::Westmere2011).without_sensor());
        match a.handle(Request::ReadPower) {
            Response::Power(r) => {
                assert!(!r.from_sensor);
                assert!(r.breakdown.is_none());
                assert!(r.total.as_watts() > 100.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_cap_programs_rapl_and_takes_effect() {
        let mut a = sensored();
        let before = a.server().power();
        let target = before - Power::from_watts(50.0);
        assert_eq!(
            a.handle(Request::SetCap(target)),
            Response::CapAck { ok: true }
        );
        assert_eq!(a.current_cap(), Some(target));
        for _ in 0..5 {
            a.server_mut().step(SimDuration::from_secs(1));
        }
        assert!((a.server().power() - target).abs().as_watts() < 3.0);
    }

    #[test]
    fn clear_cap_restores_demand() {
        let mut a = sensored();
        let uncapped = a.server().power();
        a.handle(Request::SetCap(uncapped - Power::from_watts(60.0)));
        for _ in 0..5 {
            a.server_mut().step(SimDuration::from_secs(1));
        }
        a.handle(Request::ClearCap);
        assert_eq!(a.current_cap(), None);
        for _ in 0..5 {
            a.server_mut().step(SimDuration::from_secs(1));
        }
        assert!((a.server().power() - uncapped).abs().as_watts() < 5.0);
    }

    #[test]
    fn invalid_cap_is_rejected() {
        let mut a = sensored();
        assert_eq!(
            a.handle(Request::SetCap(Power::ZERO)),
            Response::CapAck { ok: false }
        );
        assert_eq!(
            a.handle(Request::SetCap(Power::from_watts(-10.0))),
            Response::CapAck { ok: false }
        );
        assert_eq!(a.current_cap(), None);
        assert_eq!(a.stats().rejected, 2);
    }

    #[test]
    fn crash_and_restart_lifecycle() {
        let mut a = sensored();
        assert!(a.is_running());
        a.crash();
        assert!(!a.is_running());
        assert_eq!(a.handle(Request::ReadPower), Response::CapAck { ok: false });
        a.restart();
        assert!(a.is_running());
        assert!(matches!(a.handle(Request::ReadPower), Response::Power(_)));
        assert_eq!(a.stats().crashes, 1);
        assert_eq!(a.stats().restarts, 1);
        // Idempotent.
        a.restart();
        assert_eq!(a.stats().restarts, 1);
    }

    #[test]
    fn rapl_state_survives_agent_restart() {
        let mut a = sensored();
        let cap = Power::from_watts(200.0);
        a.handle(Request::SetCap(cap));
        a.crash();
        a.restart();
        assert_eq!(a.current_cap(), Some(cap));
    }

    #[test]
    fn cap_op_counter_tracks_operations() {
        let mut a = sensored();
        a.handle(Request::SetCap(Power::from_watts(200.0)));
        a.handle(Request::ClearCap);
        assert_eq!(a.stats().cap_ops, 2);
    }
}
