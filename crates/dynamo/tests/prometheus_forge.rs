//! A forged Prometheus exposition is refused or parsed, never a panic:
//! `dynobs::parse_prometheus` is fed forgeries of real expositions, and
//! every `Ok` it returns must keep the contract its doc states.
//!
//! The expositions are those of a `suite_day`-shaped run — a six-service
//! suite through a load rise, peak and fall with observability on and a
//! controller failover — read every 7.5 simulated minutes of its hour.
//! Each is forged by truncation at every byte, by deleting, duplicating
//! and swapping each line with its neighbour, and by replacing each
//! numeric token (a sample value or a bucket bound) with each of
//! [`TOKENS`]: over 10⁵ forgeries, ~10 s in a release build. A debug
//! build parses ~20× slower, so it skips the loop; `cargo test
//! --release` runs it.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dcsim::{SimDuration, SimTime};
use dynamo::{DatacenterBuilder, ObsConfig, ServicePlan};
use dynobs::{parse_prometheus, ParsedFamily, ParsedKind};
use powerinfra::Power;
use workloads::{ServiceKind, TrafficEvent, TrafficPattern};

/// What a numeric token is replaced with.
const TOKENS: [&str; 7] = [
    "NaN",
    "-1",
    "1e309",
    "+Inf",
    "",
    "18446744073709551616",
    "é",
];

/// The expositions of one observed day: a trough, a 15-minute rise from
/// minute 5, a plateau, a fall, the trough again; the first leaf's
/// primary fails at minute 12. Every value is simulated, so every run
/// forges the same texts.
fn expositions() -> Vec<String> {
    let day = TrafficPattern::flat(0.55).with_event(
        TrafficEvent::new(
            SimTime::from_secs(300),
            SimTime::from_secs(3000),
            1.0 / 0.55,
        )
        .with_ramp(SimDuration::from_secs(900)),
    );
    let mut b = DatacenterBuilder::new()
        .msbs_per_suite(1)
        .sbs_per_msb(1)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .servers_per_rack(16)
        .service_plan(ServicePlan::Mix(vec![
            (ServiceKind::Web, 0.40),
            (ServiceKind::Cache, 0.20),
            (ServiceKind::Hadoop, 0.15),
            (ServiceKind::Database, 0.10),
            (ServiceKind::NewsFeed, 0.10),
            (ServiceKind::F4Storage, 0.05),
        ]))
        // Tight enough that the peak caps.
        .rpp_rating(Power::from_kilowatts(6.5))
        .phase_spread(SimDuration::from_secs(2))
        .observability(ObsConfig::on())
        .seed(2016);
    for kind in ServiceKind::all() {
        b = b.traffic(kind, day.clone());
    }
    let mut dc = b.build();
    let first_leaf = dc.system().leaf_devices()[0];
    let mut out = Vec::new();
    for reading in 1..=8 {
        let at = SimTime::from_secs(450 * reading);
        if reading == 2 {
            dc.run_until(SimTime::from_mins(12));
            dc.system_mut().fail_primary(first_leaf);
        }
        dc.run_until(at);
        out.push(dc.system().observability().prometheus_text());
    }
    out
}

/// Every forgery of `text`, each handed to `each` as it is made.
fn forge(text: &str, mut each: impl FnMut(&str)) {
    let bytes = text.as_bytes();
    for cut in 0..=bytes.len() {
        each(&String::from_utf8_lossy(&bytes[..cut]));
    }
    let lines: Vec<&str> = text.lines().collect();
    let join = |lines: &[&str]| lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    for i in 0..lines.len() {
        let mut v = lines.clone();
        v.remove(i);
        each(&join(&v));
        let mut v = lines.clone();
        v.insert(i, lines[i]);
        each(&join(&v));
        if i + 1 < lines.len() {
            let mut v = lines.clone();
            v.swap(i, i + 1);
            each(&join(&v));
        }
    }
    for (i, line) in lines.iter().enumerate() {
        for (start, end) in numeric_tokens(line) {
            for token in TOKENS {
                let mut v = lines.clone();
                let forged = format!("{}{token}{}", &line[..start], &line[end..]);
                v[i] = &forged;
                each(&join(&v));
            }
        }
    }
}

/// Byte ranges of a sample line's numeric tokens: its value, and a
/// bucket's `le` bound.
fn numeric_tokens(line: &str) -> Vec<(usize, usize)> {
    if line.starts_with('#') || line.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    if let Some(space) = line.rfind(' ') {
        out.push((space + 1, line.len()));
    }
    if let Some(le) = line.find("le=\"") {
        let start = le + 4;
        if let Some(len) = line[start..].find('"') {
            out.push((start, start + len));
        }
    }
    out
}

/// The contract an accepted exposition keeps, or why it does not.
fn breach(families: &[ParsedFamily]) -> Option<String> {
    for f in families {
        match (f.kind, &f.histogram) {
            (ParsedKind::Counter, _) if !(f.value.is_finite() && f.value >= 0.0) => {
                return Some(format!("counter {} = {}", f.name, f.value));
            }
            (ParsedKind::Histogram, None) => return Some(format!("{} has no buckets", f.name)),
            (ParsedKind::Histogram, Some(h)) => {
                let last = h.buckets.last().copied();
                if last.map(|(bound, _)| bound) != Some(f64::INFINITY) {
                    return Some(format!("{} does not end in +Inf", f.name));
                }
                if last.map(|(_, count)| count) != Some(h.count) {
                    return Some(format!("{} _count is not its +Inf bucket", f.name));
                }
                for w in h.buckets.windows(2) {
                    if w[0].0.partial_cmp(&w[1].0) != Some(std::cmp::Ordering::Less)
                        || w[1].1 < w[0].1
                    {
                        return Some(format!("{} buckets not monotone: {w:?}", f.name));
                    }
                }
            }
            _ => {}
        }
    }
    None
}

#[test]
#[cfg_attr(debug_assertions, ignore = "10⁵ parses: run with --release")]
fn a_forged_exposition_is_refused_or_keeps_the_contract_never_a_panic() {
    let all = expositions();
    for text in &all {
        parse_prometheus(text).expect("an honest exposition parses");
    }
    // Vacuity: by its end the day has capped and failed over.
    let day = &all[all.len() - 1];
    assert!(day.contains("dynamo_failovers_total 1\n"), "no failover");
    assert!(
        !day.contains("dynamo_leaf_band_cap_total 0\n"),
        "no leaf capped"
    );
    let (mut forgeries, mut refused, mut panics) = (0u64, 0u64, Vec::new());
    let mut breaches = Vec::new();
    for text in &all {
        forge(text, |forged| {
            forgeries += 1;
            match catch_unwind(AssertUnwindSafe(|| parse_prometheus(forged))) {
                Err(_) => panics.push(forged.to_string()),
                Ok(Err(_)) => refused += 1,
                Ok(Ok(families)) => {
                    if let Some(why) = breach(&families) {
                        breaches.push((why, forged.to_string()));
                    }
                }
            }
        });
    }
    println!(
        "{forgeries} forgeries: {refused} refused, {} accepted, {} panics",
        forgeries - refused - panics.len() as u64,
        panics.len()
    );
    assert!(forgeries >= 100_000, "only {forgeries} forgeries");
    assert!(
        panics.is_empty(),
        "{} panics; first forgery:\n{}",
        panics.len(),
        panics[0]
    );
    assert!(
        breaches.is_empty(),
        "{} accepted forgeries break the contract; first: {}\n{}",
        breaches.len(),
        breaches[0].0,
        breaches[0].1
    );
}
