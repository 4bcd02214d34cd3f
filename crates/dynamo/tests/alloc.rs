//! Steady-state allocation discipline: once warmed up, the leaf
//! control-plane hot loop (fleet physics + leaf pulling cycles in the
//! Hold band) must not touch the heap at all. Controller names are
//! interned, per-cycle readings live in reusable scratch buffers, and
//! traffic multipliers are a fixed array — a regression here shows up
//! as a nonzero count below. The same allocator keeps the live and
//! peak-live byte counts behind the site footprint gate.
//!
//! The counter is process-wide, so this file is its own harness
//! (`harness = false`): `main` runs the cases one after another on one
//! thread, with no test-runner threads allocating alongside them. A
//! failed case panics, which fails the run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot, SECTION_MAGIC};
use dcsim::{SimDuration, SimRng, SimTime};
use dynamo::{
    DatacenterBuilder, DatacenterState, DynamoSystem, Fleet, ObsConfig, SystemConfig, WorkerPool,
};
use powerinfra::{Topology, TopologyBuilder};
use serverpower::{ServerConfig, ServerGeneration};
use workloads::ServiceKind;

/// Counts heap operations (and the bytes they ask for) while armed, and
/// the bytes live and their high-water mark always; forwards everything
/// to the system allocator.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Heap bytes `f` leaves live, and the most it held live above the
/// starting point at any moment, as `(live, peak)`.
fn live_and_peak<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let value = f();
    let live = LIVE.load(Ordering::SeqCst) - before;
    (value, live, PEAK.load(Ordering::SeqCst) - before)
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
/// spends almost all of its life in. The fleet is built in the
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
    let config = SystemConfig {
        rpc: dynrpc::LinkProfile::reliable(),
        obs,
        ..SystemConfig::default()
    };
    let system = DynamoSystem::build(
        &topo,
        &services,
        config,
        &mut SimRng::seed_from(11).split("sys"),
    );
    let fleet = Fleet::new(
        configs,
        services,
        SimRng::seed_from(11).split("fleet"),
        system.leaf_spans(),
    );
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
/// The telemetry recorder's two fleet-level series (no device is
/// watched) take a 512-byte block only when the one they write fills,
/// and none fills in these ticks: nothing is allowed.
fn resumed_run_with_a_part_full_ring_does_not_allocate() {
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
    assert_eq!(total, 0, "the first ticks after a resume allocated");
}

/// Allocations restoring a datacenter with a full trace ring may make:
/// the rollback snapshot as it grows, the two series' blocks, the
/// controllers' alert lists, the flight records' kinds — and none per
/// span, of which there are 16,384.
const FULL_RING_RESTORE_ALLOCS: u64 = 256;

/// A span record carries no name, on the wire or in memory: restoring a
/// full 16,384-span ring costs the heap nothing per span.
fn restoring_a_full_span_ring_allocates_no_name_per_span() {
    let build = || {
        dynamo::DatacenterBuilder::new()
            .sbs_per_msb(2)
            .rpps_per_sb(4)
            .racks_per_rpp(2)
            .servers_per_rack(4)
            .uniform_service(ServiceKind::Web)
            .observability(ObsConfig::on())
            .watch_levels(Vec::new())
            .seed(11)
            .build()
    };
    let mut source = build();
    while {
        let trace = source.system().observability().trace();
        trace.len() < trace.capacity()
    } {
        source.step();
    }
    let state = DatacenterState::from_snap_bytes(&source.state().to_snap_bytes())
        .expect("own snapshot decodes");
    let spans = source.system().observability().trace().len();
    let mut twin = build();
    let allocs = count_allocs(|| twin.restore(&state).expect("twin restores"));
    println!("alloc::full_ring_restore: {allocs} allocations for {spans} spans");
    assert!(
        allocs <= FULL_RING_RESTORE_ALLOCS,
        "restoring {spans} spans made {allocs} allocations: a name per span is back"
    );
}

/// A ring's bytes with the forged header `[next, total, count]` and a
/// tail that ends inside the first record.
fn forged_ring(header: [u64; 3]) -> Vec<u8> {
    let mut w = SnapWriter::new();
    header.into_iter().for_each(|word| w.put_u64(word));
    w.put_raw(&[0; 7]);
    w.into_bytes()
}

/// The observability rings store their record count on the wire (their
/// capacity is configuration, in the control plane's digest); like any
/// count it is untrusted, and loading a ring into a live one must ask
/// the heap for nothing the header claims: a count that promises the
/// moon is refused, at the cost of the refusal's message alone, and a
/// full ring's header over seven bytes of record ends in a truncation
/// having asked for no more than the input's size.
fn forged_ring_capacity_allocates_within_the_input() {
    use dynobs::{FlightRecorder, TraceRing};
    const CAP: usize = 256;
    let (mut trace, mut flight) = (TraceRing::new(CAP), FlightRecorder::new(CAP));
    let cap = CAP as u64;
    for (header, truncated) in [([0, 0, u64::MAX], false), ([0, cap, cap], true)] {
        let bytes = forged_ring(header);
        let mut results = Vec::with_capacity(2);
        count_allocs(|| {
            results.push(trace.load(&mut SnapReader::new(&bytes)));
            results.push(flight.load(&mut SnapReader::new(&bytes)));
        });
        let asked = BYTES.load(Ordering::SeqCst);
        let mut budget = 2 * bytes.len() as u64;
        for result in &results {
            match result {
                Err(SnapError::UnexpectedEof { .. }) if truncated => {}
                // A message's `format!` grows its buffer at most twice
                // over the text.
                Err(SnapError::Corrupt(msg)) if !truncated => budget += 4 * msg.len() as u64,
                other => panic!("{header:?}: expected a typed refusal, got {other:?}"),
            }
        }
        assert!(
            asked <= budget,
            "{header:?}: loading hostile bytes asked the heap for {asked} (budget {budget})"
        );
    }
}

/// A snapshot is untrusted input: a body that ends right after a forged
/// element count decodes to its bytes having asked the heap for no more
/// than the input's own size, and `restore` refuses it with a typed
/// error — never reserving what the count promises. What restore asks
/// for on top of the input is the datacenter's own snapshot (the bytes
/// it saves to roll back to, which cost what `state` costs) and the
/// error. The datacenter is freshly built, so reloading those bytes
/// asks for nothing.
fn forged_snapshot_count_allocates_within_the_input() {
    let mut w = SnapWriter::new();
    w.put_u32(SECTION_MAGIC);
    w.put_str(DatacenterState::KIND);
    w.put_u32(DatacenterState::VERSION);
    w.put_u64(24);
    w.put_u64(0); // now_ms
    w.put_u64(0); // the fleet section's configuration digest
    w.put_u64(u64::MAX); // the fleet section's first element count
    let bytes = w.into_bytes();
    let input = bytes.len() as u64;
    let mut decoded = None;
    count_allocs(|| decoded = Some(DatacenterState::from_snap_bytes(&bytes)));
    let asked = BYTES.load(Ordering::SeqCst);
    assert!(
        asked <= input,
        "decoding {input} hostile bytes asked the heap for {asked}"
    );
    let state = decoded
        .expect("decoded")
        .expect("a body is bytes until a datacenter loads it");

    let mut dc = dynamo::DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .uniform_service(ServiceKind::Web)
        .seed(11)
        .build();
    count_allocs(|| drop(dc.state()));
    let own = BYTES.load(Ordering::SeqCst);
    let mut refused = None;
    count_allocs(|| refused = Some(dc.restore(&state)));
    assert!(
        matches!(refused, Some(Err(SnapError::Corrupt(_)))),
        "a forged count must be a typed refusal, got {refused:?}"
    );
    let asked = BYTES.load(Ordering::SeqCst);
    assert!(
        asked <= input + own,
        "restoring {input} hostile bytes asked the heap for {asked}, its own snapshot {own}"
    );
}

/// A telemetry series' bit count is untrusted too: a series claiming
/// 2^46 bits (2^40 words) over sixteen bytes of input is refused before
/// a block is taken for it. Restoring the forgery asks the heap for no
/// more than its input beyond what restoring the honest file asks (the
/// bytes `restore` saves to roll back to, and reloading them).
fn forged_series_length_allocates_within_the_input() {
    let mut dc = dynamo::DatacenterBuilder::new()
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .uniform_service(ServiceKind::Web)
        .watch_levels(Vec::new())
        .seed(11)
        .build();
    dc.run_for(SimDuration::from_secs(30));
    let honest = dc.state().to_snap_bytes();
    let head = 4 + 8 + DatacenterState::KIND.len() + 4 + 8;
    // No device series, then the two fleet-level series from t=0, each
    // packed as held: its start, sample count, bit count and words.
    let mut key = SnapWriter::new();
    key.put_u64(0);
    for series in [
        dc.telemetry().capped_servers(),
        dc.telemetry().total_power(),
    ] {
        let mut packed = powerstats::PackedTrace::empty(series.interval());
        series.values().iter().for_each(|&v| packed.push(v));
        packed.save(&mut key);
    }
    let key = key.into_bytes();
    let body = &honest[head..];
    let at: Vec<usize> = (body.windows(key.len()).enumerate())
        .filter(|(_, w)| *w == key)
        .map(|(i, _)| i + 24)
        .collect();
    assert_eq!(at.len(), 1, "the telemetry section's fleet-level series");
    let mut forged_body = body[..at[0]].to_vec();
    forged_body.extend_from_slice(&(1u64 << 46).to_le_bytes());
    forged_body.extend_from_slice(&[0; 16]);
    let mut w = SnapWriter::new();
    w.put_u32(SECTION_MAGIC);
    w.put_str(DatacenterState::KIND);
    w.put_u32(DatacenterState::VERSION);
    w.put_u64(forged_body.len() as u64);
    w.put_raw(&forged_body);
    let forged = w.into_bytes();
    let input = forged.len() as u64;
    let forged = DatacenterState::from_snap_bytes(&forged).expect("a body is bytes");
    let honest = DatacenterState::from_snap_bytes(&honest).expect("own snapshot decodes");

    count_allocs(|| dc.restore(&honest).expect("the honest file restores"));
    let restored = BYTES.load(Ordering::SeqCst);
    let mut refused = None;
    count_allocs(|| refused = Some(dc.restore(&forged)));
    assert!(
        matches!(refused, Some(Err(SnapError::UnexpectedEof { .. }))),
        "a forged series length must be a truncation, got {refused:?}"
    );
    let asked = BYTES.load(Ordering::SeqCst);
    assert!(
        asked <= input + restored,
        "restoring {input} hostile bytes asked the heap for {asked}, the honest file {restored}"
    );
}

/// A leaf controller's failed-pull list is sized for the most failures a
/// valid cycle can have: the very first cycle, losing a fifth of its
/// pulls and estimating every one from peers, touches no heap.
fn a_first_cycle_losing_a_fifth_of_its_pulls_does_not_allocate() {
    use dynamo_controller::{ControlAction, LeafConfig, LeafController, ServerHandle};
    use dynrpc::{PowerReading, Response, RpcError};
    let servers = (0..160)
        .map(|server_id| ServerHandle {
            server_id,
            service: dynamo::service_class_of(ServiceKind::Web),
        })
        .collect();
    let limit = powerinfra::Power::from_kilowatts(100.0);
    let mut leaf = LeafController::new("rpp", LeafConfig::new(limit), servers);
    let mut outcome = None;
    let allocations = count_allocs(|| {
        outcome = Some(leaf.cycle(SimTime::ZERO, |sid, _| match sid % 5 {
            0 => Err(RpcError::Timeout),
            _ => Ok(Response::Power(PowerReading::total_only(
                powerinfra::Power::from_watts(250.0),
            ))),
        }))
    });
    let outcome = outcome.expect("the cycle ran");
    assert_eq!(
        (outcome.pull_failures, outcome.estimated, outcome.action),
        (32, 32, ControlAction::Hold)
    );
    assert_eq!(allocations, 0, "a valid cycle's failed pulls allocated");
}

/// The full ~30 MW site: 12 MSBs x 4 SBs x 16 RPPs x 4 racks x 40
/// servers = 768 leaves, 122,880 servers (Web, the builder's default) —
/// the shape of `dynbench`'s two site workloads.
fn site() -> DatacenterBuilder {
    DatacenterBuilder::new()
        .msbs_per_suite(12)
        .sbs_per_msb(4)
        .rpps_per_sb(16)
        .racks_per_rpp(4)
        .servers_per_rack(40)
}

fn site_topology() -> Topology {
    TopologyBuilder::new()
        .msbs_per_suite(12)
        .sbs_per_msb(4)
        .rpps_per_sb(16)
        .racks_per_rpp(4)
        .servers_per_rack(40)
        .build()
}

/// Live heap bytes of the site's control plane right after it is built
/// (40.8 B a server): per server an id, a service-class index and three
/// eight-byte power slots (reading, cap, scratch) — 32 B — plus per
/// leaf its controller, network link, recording shard (no value
/// buffers: the site is unobserved) and a failed-pull list sized for
/// the most failures a valid cycle can have (~1.7 KB), one class
/// table for all the leaves, a pointer to every device's name (the
/// topology holds the name, and its controller shares it) and the two
/// rings' nameless records.
/// Growth fails the gate; a change that adds per-server state on
/// purpose re-baselines it in the same diff (DESIGN.md §7, "What a
/// server costs").
const SITE_CONTROL_PLANE_BYTES: u64 = 5_009_690;

/// Live heap bytes of the rest of the built site (170.2 B a server) —
/// the fleet's columns (~157 B a server, two 40-byte RNG streams among
/// them), topology (a server-id range per device, no per-server list),
/// subtrees, breakers, telemetry and validator — under the same
/// discipline.
const SITE_FLEET_BYTES: u64 = 20_919_872;

/// The memory a site datacenter costs once built, split into control
/// plane and fleet, against the baked constants; and the build's
/// high-water mark, which must stay within 5% of what it leaves live —
/// no staging copy of the fleet, no fleet-sized buffer freed at the
/// end. Live bytes, not RSS: exact, and independent of the allocator's
/// habits of returning memory.
fn site_build_footprint_has_not_grown() {
    let topo = site_topology();
    let services = vec![ServiceKind::Web; topo.server_count()];
    let (system, control_plane, _) = live_and_peak(|| {
        DynamoSystem::build(
            &topo,
            &services,
            SystemConfig::default(),
            &mut SimRng::seed_from(0),
        )
    });
    let servers = topo.server_count() as u64;
    drop((system, topo));
    let (dc, live, peak) = live_and_peak(|| site().build());
    assert_eq!(dc.fleet().len() as u64, servers);
    let fleet = live - control_plane;
    let per_server = |bytes: u64| bytes as f64 / servers as f64;
    println!(
        "alloc::site_build_footprint: control plane {control_plane} B ({:.1} B/server), \
         fleet and the rest {fleet} B ({:.1} B/server), peak {peak} B during the build",
        per_server(control_plane),
        per_server(fleet)
    );
    assert!(
        control_plane <= SITE_CONTROL_PLANE_BYTES,
        "the site's control plane grew: {control_plane} B live, baseline {SITE_CONTROL_PLANE_BYTES}"
    );
    assert!(
        fleet <= SITE_FLEET_BYTES,
        "the site's fleet grew: {fleet} B live, baseline {SITE_FLEET_BYTES}"
    );
    assert!(
        peak as f64 <= 1.05 * live as f64,
        "building the site peaked at {peak} B live for {live} B kept: a staging copy is back"
    );
}

/// Heap allocations a site build may make per power device.
const SITE_BUILD_ALLOCS_PER_DEVICE: u64 = 12;

/// Building a datacenter allocates per device and per leaf, never per
/// server: every device feeds a server-id range, and nothing on the
/// build path makes a handle, a class or a string per server. The
/// site's build stays under [`SITE_BUILD_ALLOCS_PER_DEVICE`] allocations
/// a device, and doubling the servers behind each rack moves the count
/// by under 1%.
fn site_build_allocations_scale_with_devices() {
    let devices = site_topology().device_count() as u64;
    let count = |servers_per_rack: usize| {
        let builder = site().servers_per_rack(servers_per_rack);
        let mut dc = None;
        let allocs = count_allocs(|| dc = Some(builder.build()));
        drop(dc);
        allocs
    };
    let (at_40, at_80) = (count(40), count(80));
    println!(
        "alloc::site_build_allocations: {at_40} for {devices} devices at 40 servers a rack, \
         {at_80} at 80"
    );
    assert!(
        at_40 <= SITE_BUILD_ALLOCS_PER_DEVICE * devices,
        "building the site made {at_40} allocations for {devices} devices"
    );
    assert!(
        at_40.abs_diff(at_80) as f64 <= 0.01 * at_40 as f64,
        "doubling the servers a rack moved the build's allocations from {at_40} to {at_80}"
    );
}

fn main() {
    let cases: &[(&str, fn())] = &[
        (
            "site_build_footprint_has_not_grown",
            site_build_footprint_has_not_grown,
        ),
        (
            "site_build_allocations_scale_with_devices",
            site_build_allocations_scale_with_devices,
        ),
        (
            "steady_state_leaf_ticks_do_not_allocate",
            steady_state_leaf_ticks_do_not_allocate,
        ),
        (
            "restoring_a_full_span_ring_allocates_no_name_per_span",
            restoring_a_full_span_ring_allocates_no_name_per_span,
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
            "forged_series_length_allocates_within_the_input",
            forged_series_length_allocates_within_the_input,
        ),
        (
            "forged_ring_capacity_allocates_within_the_input",
            forged_ring_capacity_allocates_within_the_input,
        ),
        (
            "a_first_cycle_losing_a_fifth_of_its_pulls_does_not_allocate",
            a_first_cycle_losing_a_fifth_of_its_pulls_does_not_allocate,
        ),
    ];
    for (name, case) in cases {
        case();
        println!("alloc::{name} ... ok");
    }
}
