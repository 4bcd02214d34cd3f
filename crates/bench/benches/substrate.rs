//! Substrate microbenchmarks: the primitives the simulator leans on.

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::{service_class_of, DynamoSystem, Fleet, SystemConfig};
use dynrpc::{AgentEndpoint, LinkProfile, Network, PowerReading, Request, Response};
use powerinfra::{Breaker, Power, TopologyBuilder, TripCurve};
use powerstats::{sliding_variation, Trace};
use serverpower::{Server, ServerConfig, ServerGeneration};
use std::hint::black_box;
use workloads::kernel::{draw_batch, DrawStep};
use workloads::{OuCoeffs, ServiceKind, ServiceWorkload};

/// Servers behind one RPP at paper scale: the leaf the per-server rows
/// below are measured over.
const LEAF_SERVERS: usize = 160;

fn bench_rng() {
    let mut rng = SimRng::seed_from(1);
    bench::bench("rng_next_u64", || rng.next_u64());
    let mut rng = SimRng::seed_from(1);
    bench::bench("rng_normal", || rng.normal(0.0, 1.0));
}

fn bench_breaker_step() {
    let mut breaker = Breaker::new(Power::from_kilowatts(190.0), TripCurve::rpp());
    let draw = Power::from_kilowatts(185.0);
    bench::bench("breaker_step", || {
        breaker.step(draw, SimDuration::from_secs(1))
    });
}

fn bench_server_step() {
    let mut server = Server::new(0, ServerConfig::new(ServerGeneration::Haswell2015));
    server.set_demand(0.7);
    bench::bench("server_step", || server.step(SimDuration::from_secs(1)));
}

fn bench_workload_step() {
    let mut wl = ServiceWorkload::new(ServiceKind::Web, SimRng::seed_from(2));
    let mut t = SimTime::ZERO;
    bench::bench("workload_utilization", || {
        t += SimDuration::from_secs(1);
        wl.utilization(t, 1.0, SimDuration::from_secs(1))
    });
}

/// The same draw as `workload_utilization`, as the fleet runs it: one
/// column kernel over a 160-server Web leaf, ns per server.
fn bench_workload_column_draw() {
    let n = LEAF_SERVERS;
    let dt = SimDuration::from_secs(1);
    let params = ServiceKind::Web.params();
    let ou = OuCoeffs::for_params(&params, dt);
    let mut root = SimRng::seed_from(2);
    let mut rng: Vec<SimRng> = (0..n).map(|i| root.split_index(i as u64)).collect();
    let mut noise = vec![0.0; n];
    let mut until = vec![SimTime::ZERO; n];
    let mut add = vec![0.0; n];
    let mut util = vec![0.0; n];
    let mut t = SimTime::ZERO;
    let ns = bench::measure_ns(|| {
        t += dt;
        let step = DrawStep::new(&params, t, 1.0, dt, ou);
        draw_batch(&step, &mut rng, &mut noise, &mut until, &mut add, &mut util);
        util[0]
    });
    bench::report("workload_column_draw (per server)", ns / n as f64);
}

struct FixedReading(Response);

impl AgentEndpoint for FixedReading {
    fn handle(&mut self, _req: Request) -> Response {
        self.0
    }
}

/// One scalar call on a datacenter link, endpoint cost excluded.
fn bench_network_call() {
    let mut network = Network::new(LinkProfile::datacenter(), SimRng::seed_from(4));
    let mut endpoint = FixedReading(Response::Power(PowerReading::total_only(
        Power::from_watts(234.0),
    )));
    bench::bench("network_call", || {
        network.call(&mut endpoint, Request::ReadPower)
    });
}

/// One holding leaf's control tick through the fleet's columns — the
/// two-pass pull (link pass, then sensor reads) plus the few ns per
/// server of aggregation and band decision — on a 160-server Web leaf
/// over datacenter links, ns per server.
fn bench_leaf_pull() {
    let topo = TopologyBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(1)
        .racks_per_rpp(4)
        .servers_per_rack(LEAF_SERVERS / 4)
        .build();
    let service_of = |_sid: u32| service_class_of(ServiceKind::Web);
    let mut rng = SimRng::seed_from(5);
    let mut system = DynamoSystem::build(&topo, &service_of, SystemConfig::default(), &mut rng);
    let mut fleet = Fleet::new(
        vec![ServerConfig::new(ServerGeneration::Haswell2015); LEAF_SERVERS],
        vec![ServiceKind::Web; LEAF_SERVERS],
        SimRng::seed_from(6),
    );
    fleet.set_leaf_spans(system.leaf_spans());
    fleet.step(SimTime::ZERO, SimDuration::from_secs(1));
    let mut t = SimTime::ZERO;
    let ns = bench::measure_ns(|| {
        // Every third second the leaf is due; the fleet is not stepped,
        // so each tick is the same pull over settled columns.
        t += SimDuration::from_secs(3);
        system.tick(t, &mut fleet).len()
    });
    bench::report("leaf_pull_two_pass (per server)", ns / LEAF_SERVERS as f64);
}

fn bench_sliding_variation() {
    for &n in &[10_000usize, 100_000] {
        let mut rng = SimRng::seed_from(3);
        let values: Vec<f64> = (0..n).map(|_| 1000.0 + rng.normal(0.0, 20.0)).collect();
        let trace = Trace::new(SimDuration::from_secs(3), values);
        bench::bench(&format!("sliding_variation/{n}"), || {
            sliding_variation(black_box(&trace), SimDuration::from_secs(60))
        });
    }
}

fn bench_codec() {
    use dynrpc::codec::{decode_response, encode_response};
    use dynrpc::{PowerReading, Response};
    let resp = Response::Power(PowerReading::total_only(Power::from_watts(234.5)));
    bench::bench("codec_encode_response", || {
        encode_response(black_box(&resp))
    });
    let bytes = encode_response(&resp);
    bench::bench("codec_decode_response", || {
        decode_response(black_box(&bytes[..])).unwrap()
    });
}

fn bench_cdf() {
    use powerstats::Cdf;
    let mut rng = SimRng::seed_from(4);
    let samples: Vec<f64> = (0..50_000).map(|_| rng.normal(100.0, 15.0)).collect();
    bench::bench("cdf_build_50k", || {
        Cdf::from_samples(black_box(samples.clone()))
    });
    let cdf = Cdf::from_samples(samples);
    bench::bench("cdf_p99", || black_box(&cdf).p99());
}

fn main() {
    bench_rng();
    bench_breaker_step();
    bench_server_step();
    bench_workload_step();
    bench_workload_column_draw();
    bench_network_call();
    bench_leaf_pull();
    bench_sliding_variation();
    bench_codec();
    bench_cdf();
}
