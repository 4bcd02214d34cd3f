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
//!   probabilities and latency, deterministic under a seed. Every call
//!   draws its round trip; a [`RoundTrip`] is converted to simulated
//!   time only by a caller that records it, read off an [`RttTable`]
//!   for the link's rate.
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

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{exponential_quantile, SimDuration, SimRng};
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

/// A fallible, deterministic transport between one controller and its
/// agents. Two links are equal when their profiles and stream positions
/// are.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    profile: LinkProfile,
    /// Exponential rate matching `profile.mean_latency`, precomputed at
    /// profile-set time: every RPC attempt's [`RoundTrip`] carries it,
    /// and it only changes when the profile does.
    rtt_rate: f64,
    rng: SimRng,
}

/// The exponential rate parameter for a profile's mean latency: checked
/// here, where a profile is set, and never again on a conversion.
fn rtt_rate_of(profile: &LinkProfile) -> f64 {
    let rate = 1.0 / profile.mean_latency.as_secs_f64().max(1e-6);
    assert!(rate > 0.0, "round-trip rate must be positive, got {rate}");
    rate
}

/// The round trip of one call that went on the wire, drawn but not yet
/// converted: the attempt's latency uniform and the link's rate when it
/// was drawn. Converting is an `ln` and a rounding, so a caller that
/// records round trips reads them off an [`RttTable`] (or calls
/// [`RoundTrip::duration`]) and every other caller drops the token for
/// free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTrip {
    u: f64,
    rate: f64,
}

impl RoundTrip {
    /// The simulated round trip: twice one exponential one-way latency
    /// at the link's mean, to the millisecond — bit for bit
    /// `SimDuration::from_secs_f64(2.0 * rng.exponential(rate))` on the
    /// stream that drew the uniform, and well below the 3 s pulling
    /// cycle.
    #[inline]
    pub fn duration(self) -> SimDuration {
        SimDuration::from_secs_f64(2.0 * exponential_quantile(self.u, self.rate))
    }
}

/// Whole-millisecond round trips of one link rate, read off a table
/// instead of converted. `at[k]` is the smallest `f64` uniform whose
/// round trip ([`RoundTrip::duration`]) is at least `k + 1` ms, found
/// by bisection over the bit patterns of `[0, 1)`; the conversion is
/// monotone in the uniform, so a round trip under
/// [`RttTable::SPAN_MS`] is the number of thresholds at or below its
/// uniform — the conversion's milliseconds, bit for bit, with no `ln`.
/// Only the tail past the table converts: at a 2 ms mean one way,
/// about one round trip in ten million.
#[derive(Debug, Clone, PartialEq)]
pub struct RttTable {
    rate: f64,
    /// `1.0` (past every uniform) for a millisecond count no uniform
    /// reaches.
    at: [f64; RttTable::SPAN_MS],
}

impl RttTable {
    /// Round trips shorter than this many milliseconds are looked up.
    pub const SPAN_MS: usize = 64;

    /// The table for links with `profile`'s mean latency: 64
    /// bisections, each a few conversions.
    pub fn new(profile: &LinkProfile) -> Self {
        let rate = rtt_rate_of(profile);
        let millis = |bits: u64| {
            let u = f64::from_bits(bits);
            RoundTrip { u, rate }.duration().as_millis()
        };
        let one = 1.0f64.to_bits();
        let mut at = [1.0; Self::SPAN_MS];
        // The bits of a uniform that falls short of every threshold
        // still to be found: 0.0 converts to 0 ms.
        let mut short = 0u64;
        for (k, threshold) in (1u64..).zip(&mut at) {
            // Invariant: `short` converts to under `k` ms; `reach` is 1.0
            // or converts to at least `k` ms. The conversion crosses
            // k - 0.5 ms within a few ulps of `guess`, so a bracket 64
            // ulps either side of it almost always holds and leaves a
            // few steps; where it does not, the search covers the rest.
            let mut reach = one;
            let guess = (-(-rate * (k as f64 - 0.5) / 2000.0).exp_m1()).to_bits();
            let (below, above) = (guess.saturating_sub(64), guess + 64);
            if below > short && millis(below) < k {
                short = below;
            }
            if above < one && millis(above) >= k {
                reach = above;
            }
            while reach - short > 1 {
                let mid = short + (reach - short) / 2;
                if millis(mid) >= k {
                    reach = mid;
                } else {
                    short = mid;
                }
            }
            *threshold = f64::from_bits(reach);
        }
        RttTable { rate, at }
    }

    /// The round trip's whole milliseconds:
    /// `rtt.duration().as_millis()`, bit for bit. A round trip under
    /// [`RttTable::SPAN_MS`] of this table's rate is a branch-free
    /// binary search of the thresholds; one past it, or of another
    /// rate, converts.
    #[inline]
    pub fn millis(&self, rtt: RoundTrip) -> u64 {
        if rtt.u < self.at[Self::SPAN_MS - 1] && rtt.rate == self.rate {
            let mut below = 0;
            let mut step = Self::SPAN_MS / 2;
            while step > 0 {
                below += usize::from(self.at[below + step - 1] <= rtt.u) * step;
                step /= 2;
            }
            below as u64
        } else {
            rtt.duration().as_millis()
        }
    }
}

impl Network {
    /// Creates a transport with the given profile and RNG stream.
    pub fn new(profile: LinkProfile, rng: SimRng) -> Self {
        Network {
            rtt_rate: rtt_rate_of(&profile),
            profile,
            rng,
        }
    }

    /// Performs one call: [`Network::attempt`], then the endpoint
    /// handles a delivered request.
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
        self.attempt()?;
        Ok(endpoint.handle(req))
    }

    /// Decides the fate of one call on the link, with no endpoint
    /// involved: the only definition of the link's semantics — drop
    /// draw, then timeout draw, then the latency draw — which
    /// [`Network::call`] runs before handing the request to its
    /// endpoint, and a batched caller runs for a whole leaf before
    /// reading any delivered server (the link stream and the agents'
    /// streams are independent, so the order between them is
    /// unobservable). `Ok` carries the [`RoundTrip`] of a delivered
    /// call, unconverted.
    ///
    /// # Errors
    ///
    /// Returns [`RpcError::Dropped`] or [`RpcError::Timeout`] according
    /// to the link profile.
    // `always`: a batched caller's loop is this body; out of line, every
    // call reloads the profile and spills the stream's state.
    #[inline(always)]
    pub fn attempt(&mut self) -> Result<RoundTrip, RpcError> {
        if self.rng.chance(self.profile.drop_prob) {
            return Err(RpcError::Dropped);
        }
        let timed_out = self.rng.chance(self.profile.timeout_prob);
        // A timed-out request still went on the wire: it consumes the
        // attempt's latency draw, so calls after a timeout see exactly
        // the RNG stream they would have seen after a success. Without
        // this a single timeout would permanently shift every later
        // draw on this link.
        let rtt = RoundTrip {
            u: self.rng.next_f64(),
            rate: self.rtt_rate,
        };
        if timed_out {
            return Err(RpcError::Timeout);
        }
        Ok(rtt)
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

    /// Saves the transport's dynamic state: its RNG stream position.
    /// The profile and its derived `rtt_rate` are configuration, rebuilt
    /// by the owner.
    pub fn save(&self, w: &mut SnapWriter) {
        self.rng.save(w);
    }

    /// Loads a stream position written by [`Network::save`].
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = SimRng::decode(r)?;
        Ok(())
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
        assert_eq!(a.reads, n - failures);
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
        let mut total = SimDuration::ZERO;
        let mut n = 0;
        for _ in 0..1000 {
            if let Ok(rtt) = net.attempt() {
                total += rtt.duration();
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
        let mut timeouts = 0;
        for call in 0..10 {
            assert!(clean.call(&mut a, Request::ReadPower).is_ok());
            if call == 2 {
                faulty.set_profile(LinkProfile {
                    timeout_prob: 1.0,
                    ..faulty.profile()
                });
                if faulty.call(&mut b, Request::ReadPower) == Err(RpcError::Timeout) {
                    timeouts += 1;
                }
                faulty.set_profile(clean.profile());
            } else {
                assert!(faulty.call(&mut b, Request::ReadPower).is_ok());
            }
            assert_eq!(faulty, clean, "call {call}: streams diverged");
        }
        assert_eq!(timeouts, 1);
        assert_eq!((a.reads, b.reads), (10, 9));
        // Aligned streams draw the same round trips from here on.
        for _ in 0..10 {
            assert_eq!(faulty.attempt(), clean.attempt());
        }
    }

    #[test]
    fn attempt_is_the_link_half_of_a_call() {
        // Same seed, same lossy link: deciding each call's fate with no
        // endpoint must consume the stream exactly as the full call does
        // and reach the same outcomes.
        let mut calls = Network::new(LinkProfile::lossy(0.2, 0.2), SimRng::seed_from(12));
        let mut fates = calls.clone();
        let mut a = agent();
        let (mut drops, mut timeouts, mut delivered) = (0u32, 0u32, 0u32);
        for _ in 0..500 {
            let full = calls.call(&mut a, Request::ReadPower).map(|_| ());
            assert_eq!(fates.attempt().map(|_| ()), full);
            match full {
                Ok(()) => delivered += 1,
                Err(RpcError::Dropped) => drops += 1,
                Err(RpcError::Timeout) => timeouts += 1,
                Err(RpcError::AgentDown) => unreachable!("a link never answers for an agent"),
            }
        }
        assert_eq!(fates, calls);
        assert!(drops > 0 && timeouts > 0 && delivered > 0);
        assert_eq!(a.reads, delivered);
    }

    /// A round trip converted late is the one the link used to convert
    /// on the spot: over a lossy link whose profile changes mid-run,
    /// each delivered call's token equals the exponential a twin stream
    /// draws in the same place, bit for bit, and a dropped or timed-out
    /// call consumes exactly the twin's draws.
    #[test]
    fn round_trips_convert_like_the_exponential_they_defer() {
        const ATTEMPTS: u32 = 100_000;
        let first = LinkProfile::lossy(0.1, 0.1);
        let second = LinkProfile {
            mean_latency: SimDuration::from_millis(37),
            ..LinkProfile::lossy(0.05, 0.2)
        };
        let mut net = Network::new(first, SimRng::seed_from(77));
        let mut twin = SimRng::seed_from(77);
        let mut profile = first;
        let (mut drops, mut timeouts, mut delivered) = (0u32, 0u32, 0u32);
        for i in 0..ATTEMPTS {
            if i == ATTEMPTS / 2 {
                net.set_profile(second);
                profile = second;
            }
            let got = net.attempt();
            if twin.chance(profile.drop_prob) {
                assert_eq!(got, Err(RpcError::Dropped), "attempt {i}");
                drops += 1;
                continue;
            }
            let timed_out = twin.chance(profile.timeout_prob);
            let rate = 1.0 / profile.mean_latency.as_secs_f64();
            let rtt = SimDuration::from_secs_f64(2.0 * twin.exponential(rate));
            if timed_out {
                assert_eq!(got, Err(RpcError::Timeout), "attempt {i}");
                timeouts += 1;
            } else {
                assert_eq!(got.map(RoundTrip::duration), Ok(rtt), "attempt {i}");
                delivered += 1;
            }
        }
        let mut saved = SnapWriter::new();
        net.save(&mut saved);
        let mut stream = SnapWriter::new();
        twin.save(&mut stream);
        assert_eq!(
            saved.into_bytes(),
            stream.into_bytes(),
            "streams ended apart"
        );
        assert!(drops > 1000 && timeouts > 1000 && delivered > 1000);
    }

    /// The profiles whose tables the exactness tests read: 1 ms
    /// (`reliable`), 2 ms (`datacenter`), 5 ms (`lossy`) and 20 ms one
    /// way.
    fn table_profiles() -> [LinkProfile; 4] {
        [
            LinkProfile::reliable(),
            LinkProfile::datacenter(),
            LinkProfile::lossy(0.01, 0.01),
            LinkProfile {
                mean_latency: SimDuration::from_millis(20),
                ..LinkProfile::lossy(0.01, 0.01)
            },
        ]
    }

    /// A table's milliseconds are the conversion's for 10⁶ uniforms off
    /// a stream, and on both sides of every threshold: the threshold's
    /// `f64` neighbours below and above, and the threshold itself.
    #[test]
    fn the_table_reads_the_conversion_bit_for_bit() {
        for profile in table_profiles() {
            let table = RttTable::new(&profile);
            let rate = rtt_rate_of(&profile);
            let check = |u: f64| {
                let rtt = RoundTrip { u, rate };
                assert_eq!(
                    table.millis(rtt),
                    rtt.duration().as_millis(),
                    "u = {u:e} at {:?}",
                    profile.mean_latency
                );
            };
            let mut rng = SimRng::seed_from(0x7AB1E);
            for _ in 0..1_000_000 {
                check(rng.next_f64());
            }
            let reached: Vec<f64> = table.at.iter().copied().filter(|&t| t < 1.0).collect();
            assert!(reached.windows(2).all(|w| w[0] < w[1]), "thresholds ascend");
            for (k, &t) in (1u64..).zip(&reached) {
                assert_eq!(RoundTrip { u: t, rate }.duration().as_millis(), k);
                for u in [t.next_down(), t, t.next_up()] {
                    check(u);
                }
            }
            // Every link reaches the table's end, even the 1 ms one
            // (within 1.3e-14 of 1).
            assert_eq!(reached.len(), RttTable::SPAN_MS, "{profile:?}");
            check(1.0f64.next_down());
        }
    }

    /// A table answers a round trip of another rate by converting it.
    #[test]
    fn a_round_trip_of_another_rate_converts() {
        let [reliable, _, _, slow] = table_profiles();
        let table = RttTable::new(&reliable);
        let mut net = Network::new(slow, SimRng::seed_from(5));
        assert_ne!(net.rtt_rate, table.rate);
        let check = |net: &mut Network| {
            let mut seen = 0;
            while seen < 1000 {
                if let Ok(rtt) = net.attempt() {
                    assert_eq!(table.millis(rtt), rtt.duration().as_millis());
                    seen += 1;
                }
            }
        };
        check(&mut net);
        // Moved back to the table's own rate, the link reads it again.
        net.set_profile(reliable);
        assert_eq!(net.rtt_rate, table.rate);
        check(&mut net);
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
