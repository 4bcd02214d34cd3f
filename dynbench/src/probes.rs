//! Layer probes: each layer's public functions timed on stand-alone
//! objects sized like the workload, with the calibrated loop the
//! repository's own benches use (`bench::measure_ns`, best of three
//! 25 ms batches).

use std::hint::black_box;

use bench::measure_ns;
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo_agent::Agent;
use dynamo_controller::{
    distribute_power_cut, ChildReport, LeafConfig, LeafController, ServerHandle, ServiceClass,
    UpperConfig, UpperController,
};
use dynpool::WorkerPool;
use dynrpc::codec::{
    decode_response, decode_telemetry_batch_into, encode_response, encode_telemetry_batch_into,
    TelemetryEvent, TelemetryEventKind,
};
use dynrpc::{AgentEndpoint, LinkProfile, Network, PowerReading, Request, Response};
use powerinfra::{Breaker, Power, TripCurve};
use powerstats::{sliding_variation, Cdf, Trace};
use serverpower::{kernel, PowerLut, Server, ServerConfig, ServerGeneration};
use workloads::{ServiceKind, ServiceWorkload};

use crate::metrics::Values;

/// Servers under one leaf controller in every simulator workload.
pub const LEAF_SERVERS: usize = 160;
/// Children of one upper controller (RPPs per SB).
const UPPER_CHILDREN: usize = 16;
const CDF_SAMPLES: usize = 50_000;
const VARIATION_SAMPLES: usize = 100_000;
const TELEMETRY_BATCH: usize = 8;

fn watts(w: f64) -> Power {
    Power::from_watts(w)
}

fn leaf_handles() -> Vec<ServerHandle> {
    (0..LEAF_SERVERS)
        .map(|i| {
            let (name, priority, sla) = match i % 3 {
                0 => ("web", 1, 210.0),
                1 => ("cache", 3, 260.0),
                _ => ("hadoop", 0, 140.0),
            };
            ServerHandle {
                server_id: i as u32,
                service: ServiceClass::new(name, priority, watts(sla)),
            }
        })
        .collect()
}

fn leaf_powers() -> Vec<Power> {
    (0..LEAF_SERVERS)
        .map(|i| watts(220.0 + (i % 120) as f64))
        .collect()
}

/// One leaf control cycle over canned readings, in ns per server.
/// `limit_frac` of the leaf's total draw is its limit: above 1 the
/// cycle holds, just below 1 it computes and sends a cut every time.
fn leaf_cycle_ns(limit_frac: f64) -> f64 {
    let powers = leaf_powers();
    let total: f64 = powers.iter().map(|p| p.as_watts()).sum();
    let mut leaf = LeafController::new(
        "probe",
        LeafConfig::new(watts(total * limit_frac)),
        leaf_handles(),
    );
    let mut t = 0u64;
    measure_ns(|| {
        t += 3;
        leaf.cycle(SimTime::from_secs(t), |sid, req| match req {
            Request::ReadPower => Ok(Response::Power(PowerReading::total_only(
                powers[sid as usize],
            ))),
            _ => Ok(Response::CapAck { ok: true }),
        })
    }) / LEAF_SERVERS as f64
}

struct FixedReading(Response);

impl AgentEndpoint for FixedReading {
    fn handle(&mut self, _req: Request) -> Response {
        self.0
    }
}

/// Runs every probe and records one metric per probe. `servers` sizes
/// the arrays of the per-server kernels; `pool_width` is the worker
/// pool width the workload uses.
pub fn run(servers: usize, pool_width: usize, out: &mut Values) {
    let n = servers.max(1);
    let per_server = |ns: f64| ns / n as f64;
    let dt = SimDuration::from_secs(1);

    let mut rng = SimRng::seed_from(1);
    out.set("dcsim.rng_normal_ns", measure_ns(|| rng.normal(0.0, 1.0)));

    let mut root = SimRng::seed_from(2);
    let mut draws: Vec<ServiceWorkload> = (0..n)
        .map(|i| ServiceWorkload::new(ServiceKind::Web, root.split_index(i as u64)))
        .collect();
    let mut t = SimTime::ZERO;
    let mut util = vec![0.0f64; n];
    out.set(
        "workloads.draw_ns",
        per_server(measure_ns(|| {
            t += dt;
            for (u, wl) in util.iter_mut().zip(&mut draws) {
                *u = wl.utilization(t, 1.0, dt);
            }
        })),
    );
    drop(draws);

    let lut = PowerLut::from_curve(&ServerGeneration::Haswell2015.power_curve());
    let mut demand = vec![0.0f64; n];
    out.set(
        "serverpower.lut_ns",
        per_server(measure_ns(|| {
            lut.power_batch_w(black_box(&util), &mut demand)
        })),
    );

    // Half the servers capped below their demand, so the kernel keeps
    // moving outputs instead of sitting on a fixed point.
    let limit: Vec<f64> = (0..n)
        .map(|i| if i % 2 == 0 { f64::INFINITY } else { 200.0 })
        .collect();
    let alive = vec![1.0f64; n];
    let mut not_init = vec![1.0f64; n];
    let mut settled = vec![0.0f64; n];
    let alpha = kernel::settle_alpha(1.0, 2.0);
    // Alternate between two demand levels so there is always a gap to
    // settle.
    let demand_high: Vec<f64> = demand.iter().map(|w| w + 40.0).collect();
    let mut flip = false;
    out.set(
        "serverpower.settle_ns",
        per_server(measure_ns(|| {
            flip = !flip;
            let d = if flip { &demand_high } else { &demand };
            kernel::step_batch(d, &limit, &alive, &mut not_init, &mut settled, alpha)
        })),
    );

    out.set("dynamo-controller.leaf_cycle_hold_ns", leaf_cycle_ns(1.10));
    out.set("dynamo-controller.leaf_cycle_cap_ns", leaf_cycle_ns(0.98));

    let handles = leaf_handles();
    let powers = leaf_powers();
    let cut = watts(30.0 * LEAF_SERVERS as f64 / 4.0);
    out.set(
        "dynamo-controller.distribute_cut_ns",
        measure_ns(|| {
            distribute_power_cut(black_box(&handles), black_box(&powers), cut, watts(20.0))
        }),
    );

    let reports: Vec<ChildReport> = (0..UPPER_CHILDREN)
        .map(|i| ChildReport {
            power: Power::from_kilowatts(180.0 + (i % 7) as f64 * 5.0),
            quota: Power::from_kilowatts(170.0),
            physical_limit: Power::from_kilowatts(190.0),
        })
        .collect();
    let mut upper = UpperController::new(
        "probe",
        UpperConfig::new(Power::from_kilowatts(185.0 * UPPER_CHILDREN as f64)),
        UPPER_CHILDREN,
    );
    let mut t = 0u64;
    out.set(
        "dynamo-controller.upper_cycle_ns",
        measure_ns(|| {
            t += 9;
            upper.cycle(SimTime::from_secs(t), black_box(&reports))
        }),
    );

    let mut server = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
    server.set_demand(0.7);
    server.step(dt);
    let mut agent = Agent::new(server, SimRng::seed_from(3));
    out.set(
        "dynamo-agent.handle_read_ns",
        measure_ns(|| agent.handle(Request::ReadPower)),
    );

    let reading = agent.handle(Request::ReadPower);
    out.set(
        "dynrpc.codec_roundtrip_ns",
        measure_ns(|| decode_response(encode_response(black_box(&reading)))),
    );

    let events: Vec<TelemetryEvent> = (0..TELEMETRY_BATCH)
        .map(|i| TelemetryEvent {
            at_ms: 3000 * i as u64,
            device: i as u32,
            kind: if i % 2 == 0 {
                TelemetryEventKind::Capped {
                    cut_watts: 1234.5,
                    servers: 40,
                }
            } else {
                TelemetryEventKind::Uncapped
            },
        })
        .collect();
    let mut wire = Vec::new();
    let mut decoded = Vec::new();
    out.set(
        "dynrpc.telemetry_batch_ns",
        measure_ns(|| {
            wire.clear();
            decoded.clear();
            encode_telemetry_batch_into(&mut wire, black_box(&events));
            decode_telemetry_batch_into(&wire, &mut decoded)
        }),
    );

    let mut network = Network::new(LinkProfile::datacenter(), SimRng::seed_from(4));
    let mut endpoint = FixedReading(reading);
    out.set(
        "dynrpc.network_call_ns",
        measure_ns(|| network.call(&mut endpoint, Request::ReadPower)),
    );

    let mut breaker = Breaker::new(Power::from_kilowatts(190.0), TripCurve::rpp());
    let draw = Power::from_kilowatts(185.0);
    out.set(
        "powerinfra.breaker_step_ns",
        measure_ns(|| breaker.step(black_box(draw), dt)),
    );

    let pool = WorkerPool::new(pool_width.max(1));
    let mut items = vec![0u64; pool.workers()];
    out.set(
        "dynpool.dispatch_ns",
        measure_ns(|| pool.run_on(&mut items, |w, item| *item += w as u64)),
    );
    drop(pool);

    let mut rng = SimRng::seed_from(5);
    let samples: Vec<f64> = (0..CDF_SAMPLES).map(|_| rng.normal(100.0, 15.0)).collect();
    out.set(
        "powerstats.cdf_build_ns",
        measure_ns(|| Cdf::from_samples(black_box(samples.clone()))) / CDF_SAMPLES as f64,
    );
    let values: Vec<f64> = (0..VARIATION_SAMPLES)
        .map(|_| 1000.0 + rng.normal(0.0, 20.0))
        .collect();
    let trace = Trace::new(SimDuration::from_secs(3), values);
    out.set(
        "powerstats.sliding_variation_ns",
        measure_ns(|| sliding_variation(black_box(&trace), SimDuration::from_secs(60)))
            / VARIATION_SAMPLES as f64,
    );
}
