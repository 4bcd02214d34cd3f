//! One tick at every width.
//!
//! The fleet step and the leaf dispatch each exist once, over one
//! store of server state, with one serial breaker pass between them;
//! worker threads only change how many shards the two fan-outs are
//! carved into. This suite pins what the deleted serial / scoped /
//! unfused twins used to cross-check:
//!
//! * a fault-churn run reproduces, at threads 1/2/8/64, the fingerprint
//!   recorded at the last commit that still had all the twins;
//! * the same run's incident dumps and chrome trace are pinned byte for
//!   byte at threads 1/2/8;
//! * the sampled total power equals an independent flat fold at every
//!   telemetry sample of a capping episode;
//! * a cap programmed out of band through `Fleet::agent_rpc` takes
//!   effect at the next step, identically at every width.

use dcsim::snap::Snapshot;
use dcsim::SimDuration;
use dynamo::{Datacenter, DatacenterBuilder, RunReport};
use dynobs::ObsConfig;
use dynrpc::{Request, Response};
use powerinfra::Power;
use workloads::{ServiceKind, TrafficPattern};

/// A 2 SB / 4 RPP / 64-server site with an RPP rating tight enough
/// that leaf capping engages immediately.
fn site(threads: usize) -> DatacenterBuilder {
    DatacenterBuilder::new()
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(8)
        .rpp_rating(Power::from_kilowatts(3.2))
        .uniform_service(ServiceKind::Web)
        .traffic(ServiceKind::Web, TrafficPattern::flat(1.5))
        .observability(ObsConfig::on())
        .seed(42)
        .worker_threads(threads)
}

/// [`site`] with the SB breakers squeezed too, so they overload faster
/// than the slow upper tier can protect them: a run exercises caps,
/// trips and blackouts organically.
fn build(threads: usize) -> Datacenter {
    build_with_obs(threads, ObsConfig::on())
}

/// [`build`] observed as `obs` says.
fn build_with_obs(threads: usize, obs: ObsConfig) -> Datacenter {
    site(threads)
        .sb_rating(Power::from_kilowatts(4.0))
        .observability(obs)
        .build()
}

/// Deterministic fault-churn script: every mutation site that feeds
/// the dispatch's deferred bookkeeping fires at least once.
fn churn(dc: &mut Datacenter) {
    dc.run_for(SimDuration::from_secs(45));

    // Kill/revive: the breaker-blackout hook, driven directly.
    dc.fleet_mut().set_server_alive(3, false);
    dc.fleet_mut().set_server_alive(17, false);
    dc.run_for(SimDuration::from_secs(15));
    dc.fleet_mut().set_server_alive(3, true);
    dc.run_for(SimDuration::from_secs(15));
    dc.fleet_mut().set_server_alive(17, true);

    // Primary failover on the first leaf.
    let victim = dc.system().leaf_devices()[0];
    dc.system_mut().fail_primary(victim);
    dc.run_for(SimDuration::from_secs(30));

    // Breaker reset: revive whatever the tight SB ratings tripped.
    let tripped: Vec<_> = dc
        .telemetry()
        .breaker_trips()
        .iter()
        .map(|e| e.device)
        .collect();
    for d in tripped {
        dc.reset_breaker(d);
    }
    dc.run_for(SimDuration::from_secs(45));
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// FNV-1a over everything a run externalizes: the human-readable
/// report, the full Prometheus exposition, and the raw bits of both
/// fleet-wide traces.
fn fingerprint(dc: &Datacenter) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fnv1a(
        &mut hash,
        RunReport::from_datacenter(dc).to_string().as_bytes(),
    );
    fnv1a(
        &mut hash,
        dynobs::render_prometheus(dc.system().observability().registry()).as_bytes(),
    );
    for trace in [
        dc.telemetry().total_power().values(),
        dc.telemetry().capped_servers().values(),
    ] {
        for v in trace {
            fnv1a(&mut hash, &v.to_bits().to_le_bytes());
        }
    }
    hash
}

/// [`fingerprint`] of the churn run at commit 9efe935, where the
/// serial, scoped and unfused twins all still existed and the deleted
/// `fusion.rs` suite held every one of them to this same output. The
/// script then ended by re-registering the fleet's own leaf spans; at
/// 4980b82, the last commit that could, the run without that step
/// gives this same hash, so dropping it changed nothing observable.
const CHURN_GOLDEN: u64 = 0xa741_d300_2029_3672;

#[test]
fn churn_reproduces_the_pre_collapse_golden_at_every_width() {
    for threads in [1usize, 2, 8, 64] {
        let mut dc = build(threads);
        churn(&mut dc);
        if threads == 1 {
            // The script must exercise real churn or the hash pins
            // nothing.
            assert!(
                !dc.telemetry().breaker_trips().is_empty(),
                "tight SB rating should have tripped a breaker"
            );
            let report = RunReport::from_datacenter(&dc);
            assert!(report.leaf_cap_events > 0, "tight RPP rating should cap");
            assert!(report.failovers > 0, "injected failover not recorded");
        }
        assert_eq!(
            fingerprint(&dc),
            CHURN_GOLDEN,
            "churn run diverged from the golden at threads={threads}"
        );
    }
}

/// FNV-1a of the framed snapshot bytes after the churn run, recorded at
/// 4980b82 for this script: the last commit that could re-register a
/// fleet's spans mid-run, which restarted the leaf epochs the snapshot
/// carries, so the bytes moved when the script lost that step. That commit's snapshot of the older script
/// matched the one recorded at ca5d916, the last commit where server
/// state was fleet-wide columns and controller state parallel arrays.
/// The snapshot is the flat wire form of both; however storage is
/// divided among leaves, it must gather back into these bytes.
/// Re-recorded when each leaf link's five `u64` — calls, successes,
/// timeouts, drops and the latency sum — left the wire and the
/// `DatacenterState` version went 3 → 4 (it was `0x365308a5b2daec9a`);
/// `CHURN_GOLDEN` did not move. Re-recorded when the breakers' cooling
/// constant left their bodies, each leaf's three elision markers and two
/// epochs became one epoch, and the version went 4 → 5 (it was
/// `0x959366f1146ae94c`); `CHURN_GOLDEN` did not move. Re-recorded when
/// drawn power, demand, the leaf partials, the unread span-generation
/// slot, the takeover count and the grid's recharge flag left the wire,
/// each leaf's failover flag and band moved into the leaf tier's
/// section, and the version went 5 → 6 (it was `0xddb944be018edd1b`);
/// `CHURN_GOLDEN` did not move. Re-recorded when the breaker-status
/// section, a copy of the status each breaker body holds, left the wire,
/// telemetry came to save its schedule as every schedule is saved
/// (period, phase, next), and the version went 6 → 7 (it was
/// `0x87fe83188f1b9cdd`); `CHURN_GOLDEN` did not move. Re-recorded when
/// configuration left the wire for one digest per section (each
/// server's service calibration, generation and place in the
/// permutation; breakers' ratings and curves, DCUPS sizing, schedules'
/// periods and phases, rings' capacities), span and flight records
/// stopped writing the names their tracks give (and alerts the name of
/// the controller that holds them), telemetry series went
/// out packed as held, the fleet's flags as their mask words and a
/// leaf's band only in an observed run (behind a one-byte tag), and the
/// version went 7 → 8 (it
/// was `0x15b81c023b626152`); `CHURN_GOLDEN` did not move. Re-recorded
/// when a controller event stopped writing its controller's name (its
/// device names the controller) and the version went 8 → 9 (it was
/// `0x729d8f4bc08211ca`); `CHURN_GOLDEN` and `CHURN_INCIDENT_GOLDEN` did
/// not move.
const CHURN_SNAPSHOT_GOLDEN: u64 = 0xc423_be22_3735_f2af;

#[test]
fn churn_snapshot_bytes_are_pinned_at_every_width() {
    for threads in [1usize, 2, 8] {
        let mut dc = build(threads);
        churn(&mut dc);
        let mut hash = 0xcbf2_9ce4_8422_2325;
        fnv1a(&mut hash, &dc.state().to_snap_bytes());
        assert_eq!(
            hash, CHURN_SNAPSHOT_GOLDEN,
            "snapshot bytes moved at threads={threads}: {hash:#018x}"
        );
    }
}

/// FNV-1a over every `incident-*.json` the churn run wrote, in name
/// order (name and bytes), then its chrome trace. Recorded before the
/// leaf tier stopped buffering spans and flight records in its shards
/// and the serial merge began to build them from each leaf's event.
const CHURN_INCIDENT_GOLDEN: u64 = 0x29d2_2d77_a9ed_1136;

#[test]
fn churn_incident_dumps_are_pinned_at_every_width() {
    for threads in [1usize, 2, 8] {
        let dir = std::env::temp_dir().join(format!(
            "dynamo-one-tick-incidents-{}-{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut dc = build_with_obs(
            threads,
            ObsConfig {
                enabled: true,
                incident_dir: Some(dir.clone()),
            },
        );
        churn(&mut dc);
        let mut dumps: Vec<(String, String)> = std::fs::read_dir(&dir)
            .expect("the churn run wrote incident dumps")
            .map(|e| e.expect("incident dir entry").path())
            .filter_map(|p| {
                let name = p.file_name()?.to_string_lossy().into_owned();
                let json = std::fs::read_to_string(&p).expect("read incident dump");
                name.starts_with("incident-").then_some((name, json))
            })
            .collect();
        dumps.sort();
        std::fs::remove_dir_all(&dir).expect("remove incident dir");

        if threads == 1 {
            // Not vacuous: a leaf-triggered dump fired on a tick an
            // upper controller also recorded on, so the dump pins that
            // leaf triggers fire before the tick's upper records.
            let leaves = dc.system().leaf_count() as u32;
            let upper_at = |at_ms: u64| {
                dumps.iter().any(|(_, json)| {
                    (leaves..leaves + dc.system().upper_count() as u32).any(|track| {
                        json.contains(&format!("{{\"at_ms\":{at_ms},\"track\":{track},"))
                    })
                })
            };
            let shared = dumps.iter().any(|(name, json)| {
                let leaf_trigger =
                    name.ends_with("-capping-episode.json") || name.ends_with("-failover.json");
                let at_ms: u64 = json
                    .split("\"at_ms\":")
                    .nth(1)
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|n| n.parse().ok())
                    .expect("a dump names its tick");
                leaf_trigger && upper_at(at_ms)
            });
            assert!(
                shared,
                "vacuous: no leaf-triggered dump shares its tick with an upper record \
                 ({} dumps)",
                dumps.len()
            );
        }
        let mut hash = 0xcbf2_9ce4_8422_2325;
        for (name, json) in &dumps {
            fnv1a(&mut hash, name.as_bytes());
            fnv1a(&mut hash, json.as_bytes());
        }
        fnv1a(
            &mut hash,
            dc.system().observability().chrome_trace().as_bytes(),
        );
        assert_eq!(
            hash, CHURN_INCIDENT_GOLDEN,
            "incident dumps or chrome trace moved at threads={threads}: {hash:#018x}"
        );
    }
}

/// Across a capping episode — caps placed, power bent downward, caps
/// released — every recorded total-power sample must carry the bits of
/// a flat ascending fold over the per-server draws, computed here from
/// `power_of` alone.
#[test]
fn sampled_total_power_equals_a_flat_fold_at_every_sample() {
    let mut dc = build(1);
    let servers = dc.fleet().len() as u32;
    let mut samples = 0;
    for _ in 0..360 {
        dc.step();
        let total = dc.telemetry().total_power();
        let recorded = total.values();
        if recorded.len() == samples {
            continue;
        }
        samples = recorded.len();
        let flat: f64 = (0..servers)
            .map(|s| dc.fleet().power_of(s).as_watts())
            .sum();
        assert_eq!(
            recorded[samples - 1].to_bits(),
            flat.to_bits(),
            "sample {samples} at {:?} is not the flat fold",
            dc.now()
        );
        assert_eq!(
            dc.fleet().stats().total_power.as_watts().to_bits(),
            flat.to_bits()
        );
    }
    assert!(samples >= 100, "expected a dense stream, got {samples}");
    assert!(
        RunReport::from_datacenter(&dc).leaf_cap_events > 0,
        "episode never capped"
    );
}

/// The columns are the only store, so a request served between two
/// datacenter steps needs no recovery: a cap programmed through
/// `agent_rpc` is reported at once, moves no power until the next step,
/// is what that step settles toward — and every device's draw is exact
/// on both sides of it. What comes out must not depend on the width.
#[test]
fn an_out_of_band_cap_takes_effect_at_the_next_step_at_every_width() {
    let run = |threads: usize| {
        let mut dc = site(threads).build();
        dc.run_for(SimDuration::from_secs(40));
        // The controllers are capping already: cut one server well
        // below anything they would program.
        let sid = 5;
        let drawn = dc.fleet().power_of(sid);
        let cap = drawn * 0.7;
        let capped_before = dc.fleet().stats().capped_servers;
        let was_capped = dc.fleet().cap_of(sid).is_some();

        let ack = dc.fleet_mut().agent_rpc(sid, Request::SetCap(cap));
        assert_eq!(ack, Response::CapAck { ok: true });
        assert_eq!(dc.fleet().cap_of(sid), Some(cap));
        assert_eq!(
            dc.fleet().stats().capped_servers,
            capped_before + usize::from(!was_capped)
        );
        assert_eq!(
            dc.fleet().power_of(sid),
            drawn,
            "no power moves before a step"
        );
        assert!(dc.draw_cache_is_exact(), "stale draw before the step");

        dc.step();
        let after = dc.fleet().power_of(sid);
        assert!(
            cap < after && after < drawn,
            "threads={threads}: one step moves toward the cap: {drawn} -> {after}"
        );
        assert!(dc.draw_cache_is_exact(), "stale draw after the step");

        dc.run_for(SimDuration::from_secs(40));
        (
            RunReport::from_datacenter(&dc).to_string(),
            dynobs::render_prometheus(dc.system().observability().registry()),
        )
    };
    let one = run(1);
    assert_eq!(run(2), one, "threads=2 diverged");
    assert_eq!(run(8), one, "threads=8 diverged");
}
