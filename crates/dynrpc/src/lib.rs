//! Simulated RPC layer between Dynamo controllers and agents.
//!
//! The production system uses Thrift (§III-A) for "efficient and reliable
//! communication between controllers and agents". What the *control
//! logic* depends on is not Thrift itself but its failure surface: power
//! pulls can time out or fail, actuation requests can be lost, and
//! latency is small compared to the 3 s pulling cycle. This crate
//! reproduces exactly that surface:
//!
//! * [`Request`] / [`Response`] — the two-verb agent protocol (§III-B):
//!   power read, and power cap/uncap.
//! * [`AgentEndpoint`] — the server-side handler trait the Dynamo agent
//!   implements.
//! * [`Network`] — a fallible transport with configurable drop/timeout
//!   probabilities and latency, deterministic under a seed.
//! * [`codec`] — the compact binary wire format (one tag byte +
//!   little-endian fields), the simulator's stand-in for Thrift binary.
//!
//! Controller-to-controller coordination does not go through this layer:
//! as in the deployed system, "all controller instances for neighboring
//! devices in a data center suite are consolidated into one binary"
//! (§IV), communicating through shared memory.
//!
//! # Example
//!
//! ```
//! use dcsim::SimRng;
//! use dynrpc::{AgentEndpoint, LinkProfile, Network, Request, Response};
//! use powerinfra::Power;
//!
//! struct FakeAgent;
//! impl AgentEndpoint for FakeAgent {
//!     fn handle(&mut self, req: Request) -> Response {
//!         match req {
//!             Request::ReadPower => Response::Power(dynrpc::PowerReading::total_only(
//!                 Power::from_watts(200.0),
//!             )),
//!             Request::SetCap(_) | Request::ClearCap => Response::CapAck { ok: true },
//!         }
//!     }
//! }
//!
//! let mut net = Network::new(LinkProfile::reliable(), SimRng::seed_from(1));
//! let resp = net.call(&mut FakeAgent, Request::ReadPower).unwrap();
//! assert!(matches!(resp, Response::Power(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};
use dcsim::{SimDuration, SimRng};
use powerinfra::Power;
use serde::{Deserialize, Serialize};

/// A request from a leaf power controller to a Dynamo agent (§III-B:
/// "There are two basic types of requests a Dynamo agent handles").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Read the server's current power (with breakdown when available).
    ReadPower,
    /// Set the server's power limit to the given value.
    SetCap(Power),
    /// Remove the server's power limit.
    ClearCap,
}

/// Power reading returned by an agent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerReading {
    /// Total server power.
    pub total: Power,
    /// Component breakdown, when the platform reports one.
    pub breakdown: Option<WireBreakdown>,
    /// True if the value came from an on-board sensor; false if it was
    /// estimated from system statistics (§III-B).
    pub from_sensor: bool,
}

impl PowerReading {
    /// A sensor reading with no breakdown.
    pub fn total_only(total: Power) -> Self {
        PowerReading {
            total,
            breakdown: None,
            from_sensor: true,
        }
    }
}

/// Wire form of a power breakdown (all watts).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WireBreakdown {
    /// CPU socket power.
    pub cpu: Power,
    /// Memory power.
    pub memory: Power,
    /// Other board components.
    pub other: Power,
    /// AC-DC conversion loss.
    pub conversion_loss: Power,
}

/// A response from an agent.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Reply to [`Request::ReadPower`].
    Power(PowerReading),
    /// Reply to [`Request::SetCap`] / [`Request::ClearCap`]; `ok` tells
    /// the controller whether the operation executed (§III-B: the agent
    /// "returns the status of the operation to the leaf controller").
    CapAck {
        /// Whether the actuation succeeded on the host.
        ok: bool,
    },
}

/// Why an RPC failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RpcError {
    /// No reply within the deadline.
    Timeout,
    /// The request or reply was lost.
    Dropped,
    /// The remote agent process is down.
    AgentDown,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            RpcError::Timeout => "rpc timed out",
            RpcError::Dropped => "rpc dropped",
            RpcError::AgentDown => "agent process down",
        };
        f.write_str(s)
    }
}

impl std::error::Error for RpcError {}

/// The server-side handler implemented by the Dynamo agent.
pub trait AgentEndpoint {
    /// Handles one request. Infallible at this level: transport failures
    /// are injected by [`Network`], host failures by the endpoint
    /// reporting `CapAck { ok: false }` or being marked down in the
    /// harness.
    fn handle(&mut self, req: Request) -> Response;
}

impl<T: AgentEndpoint + ?Sized> AgentEndpoint for &mut T {
    fn handle(&mut self, req: Request) -> Response {
        (**self).handle(req)
    }
}

/// Loss/latency characteristics of the controller↔agent links.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkProfile {
    /// Probability a call is dropped outright.
    pub drop_prob: f64,
    /// Probability a call times out (agent busy, network congestion).
    pub timeout_prob: f64,
    /// Mean one-way latency.
    pub mean_latency: SimDuration,
}

impl LinkProfile {
    /// A perfect network (unit tests, baselines).
    pub fn reliable() -> Self {
        LinkProfile {
            drop_prob: 0.0,
            timeout_prob: 0.0,
            mean_latency: SimDuration::from_millis(1),
        }
    }

    /// A realistic datacenter profile: sub-millisecond transport with a
    /// small combined failure probability (~0.5%), well under the 20%
    /// aggregation-invalidity threshold of §III-C1.
    pub fn datacenter() -> Self {
        LinkProfile {
            drop_prob: 0.002,
            timeout_prob: 0.003,
            mean_latency: SimDuration::from_millis(2),
        }
    }

    /// A degraded network used for fault-injection experiments.
    ///
    /// # Panics
    ///
    /// Panics if probabilities are outside `[0, 1]`.
    pub fn lossy(drop_prob: f64, timeout_prob: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&drop_prob),
            "invalid drop prob {drop_prob}"
        );
        assert!(
            (0.0..=1.0).contains(&timeout_prob),
            "invalid timeout prob {timeout_prob}"
        );
        LinkProfile {
            drop_prob,
            timeout_prob,
            mean_latency: SimDuration::from_millis(5),
        }
    }

    /// True when no call over this link can fail: zero drop probability
    /// and zero timeout probability. On such a link the outcome of an
    /// RPC is fully determined by the agent's state — the precondition
    /// for the control plane's quiescent-cycle elision.
    pub fn is_lossless(&self) -> bool {
        self.drop_prob == 0.0 && self.timeout_prob == 0.0
    }
}

/// Running counters kept by a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Calls attempted.
    pub calls: u64,
    /// Calls that returned a response.
    pub successes: u64,
    /// Calls that timed out.
    pub timeouts: u64,
    /// Calls dropped.
    pub drops: u64,
    /// Total simulated round-trip latency across successful and
    /// timed-out attempts (a timed-out request still occupied the wire
    /// until its deadline).
    pub latency_sum: SimDuration,
}

impl NetworkStats {
    /// Fraction of calls that failed (0.0 when no calls were made).
    pub fn failure_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            (self.timeouts + self.drops) as f64 / self.calls as f64
        }
    }
}

/// A fallible, deterministic transport between one controller and its
/// agents.
#[derive(Debug, Clone)]
pub struct Network {
    profile: LinkProfile,
    /// Exponential rate matching `profile.mean_latency`, precomputed at
    /// profile-set time: `draw_rtt` runs once per RPC attempt and the
    /// rate only changes when the profile does.
    rtt_rate: f64,
    rng: SimRng,
    stats: NetworkStats,
}

/// The exponential rate parameter for a profile's mean latency. Kept
/// as a named helper so the cached value and a from-scratch derivation
/// are the same expression (bit-identical draws either way).
fn rtt_rate_of(profile: &LinkProfile) -> f64 {
    1.0 / profile.mean_latency.as_secs_f64().max(1e-6)
}

impl Network {
    /// Creates a transport with the given profile and RNG stream.
    pub fn new(profile: LinkProfile, rng: SimRng) -> Self {
        Network {
            rtt_rate: rtt_rate_of(&profile),
            profile,
            rng,
            stats: NetworkStats::default(),
        }
    }

    /// Performs one call. On success returns the response and the
    /// simulated round-trip latency (always well below the 3 s pulling
    /// cycle).
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Dropped`] or [`RpcError::Timeout`] according
    /// to the link profile.
    pub fn call<E: AgentEndpoint>(
        &mut self,
        endpoint: &mut E,
        req: Request,
    ) -> Result<Response, RpcError> {
        self.call_with_latency(endpoint, req).map(|(resp, _)| resp)
    }

    /// Like [`Network::call`] but also reports the simulated round-trip
    /// latency.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Network::call`].
    pub fn call_with_latency<E: AgentEndpoint>(
        &mut self,
        endpoint: &mut E,
        req: Request,
    ) -> Result<(Response, SimDuration), RpcError> {
        let rtt = self.attempt()?;
        Ok((endpoint.handle(req), rtt))
    }

    /// Decides the fate of one call on the link, with no endpoint
    /// involved: the only definition of the link's semantics — drop
    /// draw, then timeout draw, then the latency draw — which
    /// [`Network::call_with_latency`] runs before handing the request to
    /// its endpoint, and a batched caller runs for a whole leaf before
    /// reading any delivered server (the link stream and the agents'
    /// streams are independent, so the order between them is
    /// unobservable). `Ok` carries the round-trip latency of a
    /// delivered call; every outcome is counted in
    /// [`Network::stats`].
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Dropped`] or [`RpcError::Timeout`] according
    /// to the link profile.
    // `always`: a batched caller's loop is this body; out of line, every
    // call reloads the profile and spills the stream's state.
    #[inline(always)]
    pub fn attempt(&mut self) -> Result<SimDuration, RpcError> {
        self.stats.calls += 1;
        if self.rng.chance(self.profile.drop_prob) {
            self.stats.drops += 1;
            return Err(RpcError::Dropped);
        }
        let timed_out = self.rng.chance(self.profile.timeout_prob);
        // A timed-out request still went on the wire: it consumes the
        // attempt's latency draw, so calls after a timeout see exactly
        // the RNG stream they would have seen after a success. Without
        // this a single timeout would permanently shift every later
        // draw on this link.
        let rtt = self.draw_rtt();
        self.stats.latency_sum += rtt;
        if timed_out {
            self.stats.timeouts += 1;
            return Err(RpcError::Timeout);
        }
        self.stats.successes += 1;
        Ok(rtt)
    }

    /// Draws one exponential round-trip latency. Exactly one draw per
    /// non-dropped attempt, success or timeout — the stream-stability
    /// invariant the regression tests pin.
    fn draw_rtt(&mut self) -> SimDuration {
        SimDuration::from_secs_f64(2.0 * self.rng.exponential(self.rtt_rate))
    }

    /// The accumulated call statistics.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// The link profile in use.
    pub fn profile(&self) -> LinkProfile {
        self.profile
    }

    /// Replaces the link profile (degrading the network mid-run in
    /// fault-injection tests).
    pub fn set_profile(&mut self, profile: LinkProfile) {
        self.rtt_rate = rtt_rate_of(&profile);
        self.profile = profile;
    }

    /// Captures the transport's dynamic state (RNG stream position and
    /// call counters). The profile and its derived `rtt_rate` are
    /// configuration, rebuilt by the owner.
    pub fn state(&self) -> NetworkState {
        NetworkState {
            rng: self.rng.clone(),
            stats: self.stats,
        }
    }

    /// Restores state captured by [`Network::state`].
    pub fn restore(&mut self, state: &NetworkState) {
        self.rng = state.rng.clone();
        self.stats = state.stats;
    }
}

/// The dynamic state of one [`Network`]: the in-flight RNG stream and the
/// latency/outcome counters. Implements [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkState {
    /// RNG stream driving drop/timeout/latency draws.
    pub rng: SimRng,
    /// Accumulated call statistics.
    pub stats: NetworkStats,
}

impl Snapshot for NetworkState {
    const KIND: &'static str = "dynrpc.NetworkState";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        self.rng.encode_body(w);
        w.put_u64(self.stats.calls);
        w.put_u64(self.stats.successes);
        w.put_u64(self.stats.timeouts);
        w.put_u64(self.stats.drops);
        w.put_u64(self.stats.latency_sum.as_millis());
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(NetworkState {
            rng: SimRng::decode_body(r)?,
            stats: NetworkStats {
                calls: r.get_count()?,
                successes: r.get_count()?,
                timeouts: r.get_count()?,
                drops: r.get_count()?,
                latency_sum: SimDuration::from_millis(r.get_count()?),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct EchoAgent {
        reads: u32,
        power: Power,
    }

    impl AgentEndpoint for EchoAgent {
        fn handle(&mut self, req: Request) -> Response {
            match req {
                Request::ReadPower => {
                    self.reads += 1;
                    Response::Power(PowerReading::total_only(self.power))
                }
                Request::SetCap(p) => Response::CapAck {
                    ok: p.as_watts() > 0.0,
                },
                Request::ClearCap => Response::CapAck { ok: true },
            }
        }
    }

    fn agent() -> EchoAgent {
        EchoAgent {
            reads: 0,
            power: Power::from_watts(222.0),
        }
    }

    #[test]
    fn reliable_network_always_succeeds() {
        let mut net = Network::new(LinkProfile::reliable(), SimRng::seed_from(1));
        let mut a = agent();
        for _ in 0..1000 {
            let resp = net.call(&mut a, Request::ReadPower).unwrap();
            match resp {
                Response::Power(r) => assert_eq!(r.total, Power::from_watts(222.0)),
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert_eq!(net.stats().successes, 1000);
        assert_eq!(net.stats().failure_rate(), 0.0);
        assert_eq!(a.reads, 1000);
    }

    #[test]
    fn lossy_network_fails_at_configured_rate() {
        let mut net = Network::new(LinkProfile::lossy(0.1, 0.1), SimRng::seed_from(2));
        let mut a = agent();
        let n = 20_000;
        let mut failures = 0;
        for _ in 0..n {
            if net.call(&mut a, Request::ReadPower).is_err() {
                failures += 1;
            }
        }
        let rate = failures as f64 / n as f64;
        // drop 10% + timeout 10% of the remainder ≈ 19%.
        assert!((rate - 0.19).abs() < 0.02, "failure rate {rate}");
        assert_eq!(net.stats().failure_rate(), rate);
    }

    #[test]
    fn dropped_calls_never_reach_the_agent() {
        let mut net = Network::new(LinkProfile::lossy(1.0, 0.0), SimRng::seed_from(3));
        let mut a = agent();
        assert_eq!(net.call(&mut a, Request::ReadPower), Err(RpcError::Dropped));
        assert_eq!(a.reads, 0);
    }

    #[test]
    fn latency_is_reported_and_small() {
        let mut net = Network::new(LinkProfile::datacenter(), SimRng::seed_from(4));
        let mut a = agent();
        let mut total = SimDuration::ZERO;
        let mut n = 0;
        for _ in 0..1000 {
            if let Ok((_, rtt)) = net.call_with_latency(&mut a, Request::ReadPower) {
                total += rtt;
                n += 1;
            }
        }
        let mean_ms = total.as_millis() as f64 / n as f64;
        // RTT mean should be about 2x the one-way 2ms latency, and far
        // below the 3s pulling cycle.
        assert!((1.0..20.0).contains(&mean_ms), "mean rtt {mean_ms}ms");
    }

    #[test]
    fn cap_requests_round_trip() {
        let mut net = Network::new(LinkProfile::reliable(), SimRng::seed_from(5));
        let mut a = agent();
        let ok = net
            .call(&mut a, Request::SetCap(Power::from_watts(180.0)))
            .unwrap();
        assert_eq!(ok, Response::CapAck { ok: true });
        let cleared = net.call(&mut a, Request::ClearCap).unwrap();
        assert_eq!(cleared, Response::CapAck { ok: true });
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut net = Network::new(LinkProfile::lossy(0.3, 0.2), SimRng::seed_from(seed));
            let mut a = agent();
            (0..100)
                .map(|_| net.call(&mut a, Request::ReadPower).is_ok())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn profile_can_degrade_mid_run() {
        let mut net = Network::new(LinkProfile::reliable(), SimRng::seed_from(6));
        let mut a = agent();
        assert!(net.call(&mut a, Request::ReadPower).is_ok());
        net.set_profile(LinkProfile::lossy(1.0, 0.0));
        assert!(net.call(&mut a, Request::ReadPower).is_err());
    }

    #[test]
    fn timeout_consumes_the_latency_draw_so_streams_stay_aligned() {
        // Two networks on the same seed. B is forced to time out on its
        // third call, then restored. Every call after the timeout must
        // draw exactly the latency A draws — i.e. a timeout consumes
        // one latency draw, leaving the stream aligned.
        let profile = LinkProfile::datacenter();
        let mut clean = Network::new(
            LinkProfile {
                timeout_prob: 0.0,
                drop_prob: 0.0,
                ..profile
            },
            SimRng::seed_from(42),
        );
        let mut faulty = clean.clone();
        let mut a = agent();
        let mut b = agent();
        for call in 0..10 {
            let lhs = clean.call_with_latency(&mut a, Request::ReadPower).unwrap();
            if call == 2 {
                faulty.set_profile(LinkProfile {
                    timeout_prob: 1.0,
                    ..faulty.profile()
                });
                assert_eq!(
                    faulty.call_with_latency(&mut b, Request::ReadPower),
                    Err(RpcError::Timeout)
                );
                faulty.set_profile(clean.profile());
                continue;
            }
            let rhs = faulty
                .call_with_latency(&mut b, Request::ReadPower)
                .unwrap();
            assert_eq!(lhs.1, rhs.1, "call {call}: latency streams diverged");
        }
        assert_eq!(faulty.stats().timeouts, 1);
        // The timed-out attempt's latency is still accounted for.
        assert_eq!(faulty.stats().latency_sum, clean.stats().latency_sum);
    }

    #[test]
    fn attempt_is_the_link_half_of_a_call() {
        // Same seed, same lossy link: deciding each call's fate with no
        // endpoint must consume the stream and count the outcomes
        // exactly as the full call does.
        let mut calls = Network::new(LinkProfile::lossy(0.2, 0.2), SimRng::seed_from(12));
        let mut fates = calls.clone();
        let mut a = agent();
        for _ in 0..500 {
            let full = calls.call_with_latency(&mut a, Request::ReadPower);
            assert_eq!(fates.attempt(), full.map(|(_, rtt)| rtt));
        }
        assert_eq!(fates.state(), calls.state());
        let stats = fates.stats();
        assert!(stats.drops > 0 && stats.timeouts > 0 && stats.successes > 0);
        assert_eq!(a.reads as u64, stats.successes);
    }

    #[test]
    fn latency_sum_accumulates_on_success() {
        let mut net = Network::new(LinkProfile::reliable(), SimRng::seed_from(8));
        let mut a = agent();
        let mut expect = SimDuration::ZERO;
        for _ in 0..50 {
            let (_, rtt) = net.call_with_latency(&mut a, Request::ReadPower).unwrap();
            expect += rtt;
        }
        assert_eq!(net.stats().latency_sum, expect);
    }

    #[test]
    #[should_panic(expected = "invalid drop prob")]
    fn bad_profile_panics() {
        LinkProfile::lossy(1.5, 0.0);
    }

    #[test]
    fn error_display() {
        assert_eq!(RpcError::Timeout.to_string(), "rpc timed out");
        assert_eq!(RpcError::AgentDown.to_string(), "agent process down");
    }
}
