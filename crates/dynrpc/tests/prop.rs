//! Randomized tests for the RPC layer and wire codec, driven by the
//! deterministic [`SimRng`] stream.

use dcsim::SimRng;
use dynrpc::codec::{decode_request, decode_response, encode_request, encode_response};
use dynrpc::{LinkProfile, Network, PowerReading, Request, Response, RpcError, WireBreakdown};
use powerinfra::Power;

const CASES: usize = 300;

fn random_request(rng: &mut SimRng) -> Request {
    match rng.next_below(3) {
        0 => Request::ReadPower,
        1 => Request::SetCap(Power::from_watts(rng.uniform(0.1, 100_000.0))),
        _ => Request::ClearCap,
    }
}

fn random_response(rng: &mut SimRng) -> Response {
    if rng.chance(0.5) {
        let breakdown = rng.chance(0.5).then(|| WireBreakdown {
            cpu: Power::from_watts(rng.uniform(0.0, 1e4)),
            memory: Power::from_watts(rng.uniform(0.0, 1e4)),
            other: Power::from_watts(rng.uniform(0.0, 1e4)),
            conversion_loss: Power::from_watts(rng.uniform(0.0, 1e4)),
        });
        Response::Power(PowerReading {
            total: Power::from_watts(rng.uniform(0.0, 100_000.0)),
            from_sensor: rng.chance(0.5),
            breakdown,
        })
    } else {
        Response::CapAck {
            ok: rng.chance(0.5),
        }
    }
}

/// Every representable request round-trips through the codec.
#[test]
fn request_round_trip() {
    let mut rng = SimRng::seed_from(0x5_FC).split("req-roundtrip");
    for _ in 0..CASES {
        let req = random_request(&mut rng);
        let bytes = encode_request(&req);
        assert_eq!(decode_request(&bytes), Ok(req));
    }
}

/// Every representable response round-trips through the codec.
#[test]
fn response_round_trip() {
    let mut rng = SimRng::seed_from(0x5_FC).split("resp-roundtrip");
    for _ in 0..CASES {
        let resp = random_response(&mut rng);
        let bytes = encode_response(&resp);
        assert_eq!(decode_response(&bytes), Ok(resp));
    }
}

/// The decoder is total: any byte soup yields Ok or Err, never a panic,
/// and never reads past the buffer.
#[test]
fn decoder_is_total() {
    let mut rng = SimRng::seed_from(0x5_FC).split("decoder-total");
    for _ in 0..CASES {
        let len = rng.next_below(64) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_request(&bytes[..]);
        let _ = decode_response(&bytes[..]);
    }
}

/// Truncating any valid message yields an error, not garbage.
#[test]
fn truncation_is_detected() {
    let mut rng = SimRng::seed_from(0x5_FC).split("truncation");
    for _ in 0..CASES {
        let resp = random_response(&mut rng);
        let bytes = encode_response(&resp);
        let cut = ((bytes.len() as f64) * rng.uniform(0.0, 1.0)) as usize;
        if cut >= bytes.len() {
            continue;
        }
        assert!(decode_response(&bytes[..cut]).is_err());
    }
}

/// Network outcomes stay internally consistent at any configured
/// drop/timeout rates: every call is delivered, dropped or timed out,
/// the endpoint sees exactly the delivered ones, and the link stream
/// ends where a twin deciding the same fates without an endpoint ends.
#[test]
fn network_stats_are_consistent() {
    struct Counting(u32);
    impl dynrpc::AgentEndpoint for Counting {
        fn handle(&mut self, _: Request) -> Response {
            self.0 += 1;
            Response::CapAck { ok: true }
        }
    }
    let mut meta = SimRng::seed_from(0x5_FC).split("net-stats");
    for _ in 0..30 {
        let seed = meta.next_u64();
        let drop = meta.uniform(0.0, 0.5);
        let timeout = meta.uniform(0.0, 0.5);
        let mut net = Network::new(LinkProfile::lossy(drop, timeout), SimRng::seed_from(seed));
        let mut twin = net.clone();
        let mut endpoint = Counting(0);
        let (mut delivered, mut drops, mut timeouts) = (0u32, 0u32, 0u32);
        for _ in 0..300 {
            let outcome = net.call(&mut endpoint, Request::ReadPower);
            assert_eq!(outcome.is_ok(), twin.attempt().is_ok());
            match outcome {
                Ok(_) => delivered += 1,
                Err(RpcError::Dropped) => drops += 1,
                Err(RpcError::Timeout) => timeouts += 1,
                Err(RpcError::AgentDown) => panic!("the link answered for an agent"),
            }
        }
        assert_eq!(delivered + drops + timeouts, 300);
        assert_eq!(endpoint.0, delivered);
        assert_eq!(net, twin);
    }
}
