//! Steady-state allocation discipline: once warmed up, the leaf
//! control-plane hot loop (fleet physics + leaf pulling cycles in the
//! Hold band) must not touch the heap at all. Controller names are
//! interned, per-cycle readings live in reusable scratch buffers, and
//! traffic multipliers are a fixed array — a regression here shows up
//! as a nonzero count below.
//!
//! The counter is process-wide, so this file is its own harness
//! (`harness = false`): `main` runs the cases one after another on one
//! thread, with no test-runner threads allocating alongside them. A
//! failed case panics, which fails the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapWriter, Snapshot, SECTION_MAGIC};
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::{DatacenterState, DynamoSystem, Fleet, ObsConfig, SystemConfig, WorkerPool};
use powerinfra::TopologyBuilder;
use serverpower::{ServerConfig, ServerGeneration};
use workloads::ServiceKind;

/// Counts heap operations (and the bytes they ask for) while armed;
/// forwards everything to the system allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    f();
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// A 64-server, 2-leaf setup with ample power headroom (Hold band),
/// reliable RPC, no crashes: the steady state a healthy datacenter
/// spends almost all of its life in. The fleet is registered with the
/// system's leaf spans (`[0..32, 32..64]`), as `Datacenter` does.
fn build_with(obs: ObsConfig) -> (Fleet, DynamoSystem) {
    let topo = TopologyBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .build();
    let n = topo.server_count();
    let configs = vec![ServerConfig::new(ServerGeneration::Haswell2015); n];
    let services = vec![ServiceKind::Web; n];
    let mut fleet = Fleet::new(configs, services, SimRng::seed_from(11).split("fleet"));
    let config = SystemConfig {
        rpc: dynrpc::LinkProfile::reliable(),
        obs,
        ..SystemConfig::default()
    };
    let service_of = |_: u32| dynamo::service_class_of(ServiceKind::Web);
    let system = DynamoSystem::build(
        &topo,
        &service_of,
        config,
        &mut SimRng::seed_from(11).split("sys"),
    );
    fleet.set_leaf_spans(system.leaf_spans());
    (fleet, system)
}

fn build() -> (Fleet, DynamoSystem) {
    build_with(ObsConfig::default())
}

/// Warms up, then counts heap operations across 20 leaf-only ticks.
/// The fleet step and the leaf dispatch are sharded over whatever pool
/// the caller attached to both (one inline shard without one).
fn measure_steady_state(mut fleet: Fleet, mut system: DynamoSystem) -> u64 {
    let dt = SimDuration::from_secs(3);

    // Warm up: fill scratch buffers, controller state and event
    // vectors, covering both leaf (3 s) and upper (9 s) cycles.
    let mut now = SimTime::ZERO;
    for _ in 0..12 {
        fleet.step(now, dt);
        let events = system.tick(now, &mut fleet);
        assert!(events.is_empty(), "expected a quiet Hold-band run");
        now += dt;
    }

    // Measure leaf-only ticks (skip the 9 s grid: upper cycles build
    // their directive list on the heap by design).
    let mut measured = 0;
    let mut total = 0u64;
    while measured < 20 {
        if now.as_secs().is_multiple_of(9) {
            fleet.step(now, dt);
            system.tick(now, &mut fleet);
            now += dt;
            continue;
        }
        total += count_allocs(|| {
            fleet.step(now, dt);
            let events = system.tick(now, &mut fleet);
            assert!(events.is_empty());
        });
        now += dt;
        measured += 1;
    }
    total
}

fn steady_state_leaf_ticks_do_not_allocate() {
    let (fleet, system) = build();
    assert_eq!(
        measure_steady_state(fleet, system),
        0,
        "heap allocations leaked into the steady-state leaf tick path"
    );
}

/// The zero-alloc guarantee must hold with observability recording
/// live: shards, rings and histogram buckets are all preallocated, and
/// span/flight scratch reaches steady capacity during warmup.
fn steady_state_leaf_ticks_do_not_allocate_with_observability() {
    let (fleet, system) = build_with(ObsConfig::on());
    assert_eq!(
        measure_steady_state(fleet, system),
        0,
        "observability recording allocated in the steady-state leaf tick path"
    );
}

/// A four-wide pool whose three spawned threads have all run once. The
/// fleet has two leaves, so the tick only ever arms one of them: without
/// this hand-shake the other two could still be in thread start-up
/// (which allocates) while a measurement is armed.
fn warm_pool() -> Arc<WorkerPool> {
    let pool = Arc::new(WorkerPool::new(4));
    pool.run_on(&mut [(); 4], |_, _| {});
    pool
}

/// The zero-alloc guarantee must also hold at width 4 once the pool is
/// warm: arming pool threads (spinning or parked), carving stack-slot
/// shards, running the first shard on the caller and merging
/// results must never touch the heap — with observability recording
/// live.
fn steady_state_pooled_ticks_do_not_allocate() {
    let (mut fleet, mut system) = build_with(ObsConfig::on());
    let pool = warm_pool();
    fleet.attach_pool(Arc::clone(&pool));
    system.attach_pool(pool);
    assert_eq!(
        measure_steady_state(fleet, system),
        0,
        "pooled dispatch allocated in the steady-state leaf tick path"
    );
}

/// Fleet with the active set engaged: a demand-hold so leaves actually
/// settle between redraws.
fn build_active(obs: ObsConfig, hold: u32) -> (Fleet, DynamoSystem) {
    let (mut fleet, system) = build_with(obs);
    fleet.set_demand_hold(hold);
    (fleet, system)
}

/// Active-set skipping must not buy its speed with heap traffic: the
/// settled-leaf skip, the demand-hold redraw (including the off-grid
/// OU coefficient recompute when `elapsed > 1`) and the agent views
/// the dispatch serves its RPCs through are all allocation-free.
fn steady_state_active_set_ticks_do_not_allocate() {
    let (fleet, system) = build_active(ObsConfig::on(), 30);
    assert_eq!(
        measure_steady_state(fleet, system),
        0,
        "active-set physics allocated in the steady-state leaf tick path"
    );
}

/// Same guarantee at width 4: the per-leaf settled/last-draw/epoch
/// slices ride in the same stack-slot shards.
fn steady_state_active_set_pooled_ticks_do_not_allocate() {
    let (mut fleet, mut system) = build_active(ObsConfig::on(), 30);
    let pool = warm_pool();
    fleet.attach_pool(Arc::clone(&pool));
    system.attach_pool(pool);
    assert_eq!(
        measure_steady_state(fleet, system),
        0,
        "active-set pooled dispatch allocated in the steady-state leaf tick path"
    );
}

/// The skip must actually engage under measurement conditions, or the
/// two cases above prove nothing: after warmup, a held fleet spends
/// most ticks with every leaf settled.
fn active_set_engages_in_steady_state() {
    let (mut fleet, mut system) = build_active(ObsConfig::default(), 30);
    let dt = SimDuration::from_secs(3);
    let mut now = SimTime::ZERO;
    let mut max_settled = 0;
    for _ in 0..40 {
        fleet.step(now, dt);
        system.tick(now, &mut fleet);
        max_settled = max_settled.max(fleet.settled_leaf_count());
        now += dt;
    }
    assert_eq!(
        max_settled, 2,
        "both leaves should settle between demand redraws"
    );
}

/// The grid-interactive layer rides the same hot loop: with a quiet
/// (nominal) utility signal the per-tick work — signal lookup, episode
/// check, DCUPS availability scan over the reusable scratch buffer,
/// settlement accumulation and gauge updates — must stay off the heap.
/// Econ-cycle ticks (60 s) and upper-cycle ticks (9 s) are skipped for
/// the same reason the leaf-only measurement skips them: those paths
/// build directive lists by design.
fn steady_state_grid_ticks_do_not_allocate() {
    let mut dc = dynamo::DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, workloads::TrafficPattern::flat(1.0))
        .observability(ObsConfig::on())
        .grid_scenario("nominal")
        .seed(11)
        .build();
    // Warm up past several leaf, upper and econ cycles.
    dc.run_for(SimDuration::from_secs(130));
    let mut measured = 0;
    let mut total = 0u64;
    while measured < 20 {
        let t = dc.now().as_secs();
        if t.is_multiple_of(9) || (t + 1).is_multiple_of(60) || t.is_multiple_of(60) {
            dc.step();
            continue;
        }
        total += count_allocs(|| dc.step());
        measured += 1;
    }
    assert_eq!(
        total, 0,
        "grid layer allocated in the steady-state tick path"
    );
}

/// The whole tick at width 4 at once: four real workers (`Pooled` does
/// not clamp on small hosts), observability recording, the grid layer,
/// the per-leaf telemetry scratch with its in-shard RPC codec
/// round-trip (warm wire buffers), the breaker pass (rack memos
/// allocated at assembly) and the tick-phase profiler (preallocated
/// histograms, `Instant` laps) must all stay off the heap in the
/// steady state.
fn steady_state_parallel_profiled_grid_ticks_do_not_allocate() {
    let mut dc = dynamo::DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, workloads::TrafficPattern::flat(1.0))
        .observability(ObsConfig::on())
        .grid_scenario("nominal")
        .worker_threads(4)
        .parallel_mode(dynamo::ParallelMode::Pooled)
        .profile_ticks(true)
        .seed(11)
        .build();
    // Warm up past several leaf, upper and econ cycles so every
    // scratch buffer — including the per-worker wire/event buffers and
    // the fold chunk plan — reaches steady capacity.
    dc.run_for(SimDuration::from_secs(130));
    let mut measured = 0;
    let mut total = 0u64;
    while measured < 20 {
        let t = dc.now().as_secs();
        if t.is_multiple_of(9) || (t + 1).is_multiple_of(60) || t.is_multiple_of(60) {
            dc.step();
            continue;
        }
        total += count_allocs(|| dc.step());
        measured += 1;
    }
    assert_eq!(
        total, 0,
        "parallel profiled tick allocated in the steady-state path"
    );
}

/// The Hold-band guarantee must survive an active cap: a capped fleet
/// in steady state (caps placed, nothing to change) is equally hot.
fn idle_fleet_step_does_not_allocate() {
    let (mut fleet, _system) = build();
    let dt = SimDuration::from_secs(3);
    let mut now = SimTime::ZERO;
    for _ in 0..8 {
        fleet.step(now, dt);
        now += dt;
    }
    let mut total = 0u64;
    for _ in 0..20 {
        total += count_allocs(|| fleet.step(now, dt));
        now += dt;
    }
    assert_eq!(total, 0, "fleet physics allocated in steady state");
}

/// A resumed run must be as quiet as the run it resumes. The snapshot
/// is taken with the span ring part full, decoded from bytes (so its
/// rings are only as large as what they hold), and restored into a twin
/// whose scratch is already warm: the very next leaf ticks push spans,
/// and must find the ring's configured capacity still reserved.
///
/// The only heap traffic allowed is the telemetry recorder's: its two
/// fleet-level series (no device is watched) are growing `Vec`s by
/// design, a restore leaves each exactly full, and each grows once at
/// its next sample.
fn resumed_run_with_a_part_full_ring_does_not_allocate() {
    const GROWING_SERIES: u64 = 2;
    let build = || {
        dynamo::DatacenterBuilder::new()
            .sbs_per_msb(1)
            .rpps_per_sb(2)
            .racks_per_rpp(2)
            .servers_per_rack(16)
            .uniform_service(ServiceKind::Web)
            .traffic(ServiceKind::Web, workloads::TrafficPattern::flat(1.0))
            .observability(ObsConfig::on())
            .watch_levels(Vec::new())
            .seed(11)
            .build()
    };
    let mut source = build();
    source.run_for(SimDuration::from_secs(130));
    let trace = source.system().observability().trace();
    let spans = trace.total_recorded();
    assert!(
        !trace.is_empty() && trace.len() < trace.capacity(),
        "{} spans: the trace ring must be part full",
        trace.len()
    );
    let bytes = source.state().to_snap_bytes();
    let state = DatacenterState::from_snap_bytes(&bytes).expect("own snapshot decodes");

    let mut twin = build();
    twin.run_for(SimDuration::from_secs(130));
    twin.restore(&state).expect("twin restores");
    let mut measured = 0;
    let mut total = 0u64;
    while measured < 20 {
        if twin.now().as_secs().is_multiple_of(9) {
            twin.step();
            continue;
        }
        total += count_allocs(|| twin.step());
        measured += 1;
    }
    assert!(
        twin.system().observability().trace().total_recorded() > spans,
        "vacuous: no span was recorded after the resume"
    );
    assert_eq!(
        total, GROWING_SERIES,
        "the first ticks after a resume allocated beyond the telemetry series"
    );
}

/// One ring section with a forged header — `cap` and the record count
/// both `u64::MAX` — and a tail that ends inside the first record.
fn forged_ring_section(kind: &str, version: u32) -> Vec<u8> {
    let mut body = SnapWriter::new();
    for header in [u64::MAX, 0, 0, u64::MAX] {
        body.put_u64(header);
    }
    body.put_raw(&[0; 7]);
    let body = body.into_bytes();
    let mut w = SnapWriter::new();
    w.put_u32(SECTION_MAGIC);
    w.put_str(kind);
    w.put_u32(version);
    w.put_u64(body.len() as u64);
    w.put_raw(&body);
    w.into_bytes()
}

/// The observability rings store their capacity on the wire; like any
/// count it is untrusted, and decoding must reserve for what the input
/// can back, not for what the header claims.
fn forged_ring_capacity_allocates_within_the_input() {
    use dynobs::{FlightRecorder, TraceRing};
    let trace = forged_ring_section(TraceRing::KIND, TraceRing::VERSION);
    let flight = forged_ring_section(FlightRecorder::KIND, FlightRecorder::VERSION);
    let mut results = (None, None);
    count_allocs(|| {
        results = (
            Some(TraceRing::from_snap_bytes(&trace).map(drop)),
            Some(FlightRecorder::from_snap_bytes(&flight).map(drop)),
        )
    });
    assert!(
        matches!(
            results,
            (
                Some(Err(SnapError::UnexpectedEof { .. })),
                Some(Err(SnapError::UnexpectedEof { .. }))
            )
        ),
        "a truncated ring body must be a typed error, got {results:?}"
    );
    let asked = BYTES.load(Ordering::SeqCst);
    let input = (trace.len() + flight.len()) as u64;
    assert!(
        asked <= input,
        "decoding {input} hostile bytes asked the heap for {asked}"
    );
}

/// A snapshot is untrusted input: a body that ends right after a forged
/// element count must come back as a typed error, having asked the heap
/// for no more than the input's own size — never for what the count
/// promises.
fn forged_snapshot_count_allocates_within_the_input() {
    let mut w = SnapWriter::new();
    w.put_u32(SECTION_MAGIC);
    w.put_str(DatacenterState::KIND);
    w.put_u32(DatacenterState::VERSION);
    w.put_u64(16);
    w.put_u64(0); // now_ms
    w.put_u64(u64::MAX); // the fleet section's first element count
    let bytes = w.into_bytes();
    let mut result = None;
    count_allocs(|| result = Some(DatacenterState::from_snap_bytes(&bytes)));
    assert!(
        matches!(result, Some(Err(SnapError::UnexpectedEof { .. }))),
        "a truncated body must be a typed error"
    );
    let asked = BYTES.load(Ordering::SeqCst);
    assert!(
        asked <= bytes.len() as u64,
        "decoding {} hostile bytes asked the heap for {asked}",
        bytes.len()
    );
}

fn main() {
    let cases: &[(&str, fn())] = &[
        (
            "steady_state_leaf_ticks_do_not_allocate",
            steady_state_leaf_ticks_do_not_allocate,
        ),
        (
            "steady_state_leaf_ticks_do_not_allocate_with_observability",
            steady_state_leaf_ticks_do_not_allocate_with_observability,
        ),
        (
            "steady_state_pooled_ticks_do_not_allocate",
            steady_state_pooled_ticks_do_not_allocate,
        ),
        (
            "steady_state_active_set_ticks_do_not_allocate",
            steady_state_active_set_ticks_do_not_allocate,
        ),
        (
            "steady_state_active_set_pooled_ticks_do_not_allocate",
            steady_state_active_set_pooled_ticks_do_not_allocate,
        ),
        (
            "active_set_engages_in_steady_state",
            active_set_engages_in_steady_state,
        ),
        (
            "steady_state_grid_ticks_do_not_allocate",
            steady_state_grid_ticks_do_not_allocate,
        ),
        (
            "steady_state_parallel_profiled_grid_ticks_do_not_allocate",
            steady_state_parallel_profiled_grid_ticks_do_not_allocate,
        ),
        (
            "idle_fleet_step_does_not_allocate",
            idle_fleet_step_does_not_allocate,
        ),
        (
            "resumed_run_with_a_part_full_ring_does_not_allocate",
            resumed_run_with_a_part_full_ring_does_not_allocate,
        ),
        (
            "forged_snapshot_count_allocates_within_the_input",
            forged_snapshot_count_allocates_within_the_input,
        ),
        (
            "forged_ring_capacity_allocates_within_the_input",
            forged_ring_capacity_allocates_within_the_input,
        ),
    ];
    for (name, case) in cases {
        case();
        println!("alloc::{name} ... ok");
    }
}
