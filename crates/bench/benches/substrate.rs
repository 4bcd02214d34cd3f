//! Per-server probes of the tick's two shipping column kernels — the
//! only per-layer rows no `dynbench` metric isolates (its
//! `workloads.draw_ns` and `dynrpc.network_call_ns` time the scalar
//! entry points). They move into `dynbench` when that package is next
//! editable; every other per-layer number already lives there.

use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::{DynamoSystem, Fleet, SystemConfig};
use powerinfra::TopologyBuilder;
use serverpower::{ServerConfig, ServerGeneration};
use workloads::kernel::{draw_batch, DrawStep};
use workloads::{OuCoeffs, ServiceKind};

/// Servers behind one RPP at paper scale: the leaf both rows are
/// measured over.
const LEAF_SERVERS: usize = 160;

/// The utilization draw as the fleet runs it: one column kernel over a
/// 160-server Web leaf, ns per server.
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
    let services = vec![ServiceKind::Web; LEAF_SERVERS];
    let mut rng = SimRng::seed_from(5);
    let mut system = DynamoSystem::build(&topo, &services, SystemConfig::default(), &mut rng);
    let mut fleet = Fleet::new(
        vec![ServerConfig::new(ServerGeneration::Haswell2015); LEAF_SERVERS],
        services,
        SimRng::seed_from(6),
        system.leaf_spans(),
    );
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

fn main() {
    bench_workload_column_draw();
    bench_leaf_pull();
}
