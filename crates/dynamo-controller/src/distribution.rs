//! Performance-aware power-cut distribution (§III-C3).
//!
//! Two nested rules decide *who* absorbs a power cut:
//!
//! 1. **Priority groups**: victims come from the lowest-priority group
//!    first; only if that group cannot absorb the whole cut (bounded by
//!    its SLA floors) does the next group get touched.
//! 2. **High-bucket-first** within a group: "analogous to tax brackets",
//!    servers are bucketed by current power consumption and the cut is
//!    taken from the highest bucket first, expanding downward bucket by
//!    bucket until the cut fits. Within the included set every server
//!    takes an even cut, bounded by its SLA floor (water-filling).

use powerinfra::Power;
use serde::{Deserialize, Serialize};

use crate::types::ServerHandle;

/// One server's computed share of a power cut.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CutAssignment {
    /// Target server.
    pub server_id: u32,
    /// Power removed from this server.
    pub cut: Power,
    /// The resulting cap (`current power − cut`, never below the SLA
    /// floor).
    pub cap: Power,
}

/// How a power-cut distribution unfolded — which knobs the bucket walk
/// actually had to turn. Zero-cost to produce (a handful of integer
/// bumps alongside work the distributor does anyway) and cheap to feed
/// into the observability registry.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DistributionStats {
    /// Priority groups that had members cut (rule 1 escalations).
    pub groups_touched: u32,
    /// Power buckets included across all groups before the cut fit
    /// (rule 2 expansions); 1 means the top bucket absorbed it.
    pub buckets_expanded: u32,
    /// Servers that received a cut assignment.
    pub victims: u32,
    /// Watts that could not be absorbed because every SLA floor was
    /// reached (mirrors the leftover return value).
    pub leftover_watts: f64,
}

/// Distributes `total_cut` across `servers` with measured `powers`,
/// returning the per-server assignments and the amount that could *not*
/// be absorbed because every SLA floor was reached (zero in healthy
/// configurations).
///
/// `powers[i]` is the latest power reading for `servers[i]`. Servers
/// already at or below their SLA floor take no cut.
///
/// # Panics
///
/// Panics if the slices disagree in length, `bucket_width` is not
/// positive, or `total_cut` is negative/non-finite.
///
/// # Example
///
/// ```
/// use dynamo_controller::{distribute_power_cut, ServerHandle, ServiceClass};
/// use powerinfra::Power;
///
/// let hadoop = ServiceClass::new("hadoop", 0, Power::from_watts(140.0));
/// let cache = ServiceClass::new("cache", 3, Power::from_watts(260.0));
/// let servers = vec![
///     ServerHandle { server_id: 0, service: hadoop.clone() },
///     ServerHandle { server_id: 1, service: cache.clone() },
/// ];
/// let powers = vec![Power::from_watts(300.0), Power::from_watts(300.0)];
/// let (cuts, leftover) = distribute_power_cut(
///     &servers, &powers, Power::from_watts(50.0), Power::from_watts(20.0));
/// // The whole cut lands on the hadoop box; cache is untouched.
/// assert_eq!(cuts.len(), 1);
/// assert_eq!(cuts[0].server_id, 0);
/// assert_eq!(leftover, Power::ZERO);
/// ```
pub fn distribute_power_cut(
    servers: &[ServerHandle],
    powers: &[Power],
    total_cut: Power,
    bucket_width: Power,
) -> (Vec<CutAssignment>, Power) {
    let (assignments, leftover, _) =
        distribute_power_cut_with_stats(servers, powers, total_cut, bucket_width);
    (assignments, leftover)
}

/// Like [`distribute_power_cut`], additionally reporting
/// [`DistributionStats`] describing how the distribution unfolded. An
/// adapter from server handles to the position-indexed walk the
/// controllers run.
///
/// # Panics
///
/// Same conditions as [`distribute_power_cut`].
pub fn distribute_power_cut_with_stats(
    servers: &[ServerHandle],
    powers: &[Power],
    total_cut: Power,
    bucket_width: Power,
) -> (Vec<CutAssignment>, Power, DistributionStats) {
    assert_eq!(
        servers.len(),
        powers.len(),
        "servers/powers length mismatch"
    );
    let mut assignments = Vec::new();
    let (leftover, stats) = distribute_cut(
        servers.len(),
        |i| (servers[i].service.priority, servers[i].service.sla_min_cap),
        |i| powers[i],
        total_cut,
        bucket_width,
        &mut |i, cut, cap| {
            assignments.push(CutAssignment {
                server_id: servers[i].server_id,
                cut,
                cap,
            })
        },
    );
    (assignments, leftover, stats)
}

/// The one cut distribution, over positions `0..n`: `class(i)` is
/// position `i`'s priority group and SLA floor, `power(i)` its latest
/// reading. Each victim is reported as `assign(position, cut, cap)` in
/// the order the walk reaches it; returns the unabsorbed remainder and
/// the walk's stats.
///
/// # Panics
///
/// Panics if `bucket_width` is not positive or `total_cut` is
/// negative/non-finite.
pub(crate) fn distribute_cut(
    n: usize,
    class: impl Fn(usize) -> (u8, Power),
    power: impl Fn(usize) -> Power,
    total_cut: Power,
    bucket_width: Power,
    assign: &mut dyn FnMut(usize, Power, Power),
) -> (Power, DistributionStats) {
    assert!(
        bucket_width.as_watts() > 0.0,
        "bucket width must be positive"
    );
    assert!(
        total_cut.as_watts().is_finite() && total_cut.as_watts() >= 0.0,
        "invalid total cut {total_cut:?}"
    );
    let mut stats = DistributionStats::default();
    if total_cut == Power::ZERO || n == 0 {
        stats.leftover_watts = total_cut.as_watts();
        return (total_cut, stats);
    }

    // Priority groups, lowest first.
    let mut priorities: Vec<u8> = (0..n).map(|i| class(i).0).collect();
    priorities.sort_unstable();
    priorities.dedup();

    let mut remaining = total_cut;
    for prio in priorities {
        if remaining.as_watts() <= f64::EPSILON {
            break;
        }
        // (index, power, headroom above SLA floor) for this group.
        let members: Vec<(usize, Power, Power)> = (0..n)
            .filter_map(|i| {
                let (priority, floor) = class(i);
                (priority == prio).then(|| (i, power(i), power(i).saturating_sub(floor)))
            })
            .collect();
        let victims_before = stats.victims;
        let (absorbed, buckets) =
            cut_within_group(&members, remaining, bucket_width, &mut |idx, cut| {
                let cap = (power(idx) - cut).max(class(idx).1);
                stats.victims += 1;
                assign(idx, cut, cap);
            });
        if stats.victims > victims_before {
            stats.groups_touched += 1;
        }
        stats.buckets_expanded += buckets;
        remaining = remaining.saturating_sub(absorbed);
    }

    stats.leftover_watts = remaining.as_watts();
    (remaining, stats)
}

/// High-bucket-first within one priority group. Returns the power
/// actually absorbed plus the number of buckets that had to be included
/// before the cut fit, and reports per-server cuts through `assign`.
fn cut_within_group(
    members: &[(usize, Power, Power)],
    needed: Power,
    bucket_width: Power,
    assign: &mut dyn FnMut(usize, Power),
) -> (Power, u32) {
    // Bucket index by current power; iterate buckets from the top.
    let bucket_of = |p: Power| (p.as_watts() / bucket_width.as_watts()).floor() as i64;
    let mut buckets: Vec<i64> = members.iter().map(|&(_, p, _)| bucket_of(p)).collect();
    buckets.sort_unstable();
    buckets.dedup();
    buckets.reverse();

    let mut included: Vec<(usize, Power)> = Vec::new(); // (index, headroom)
    let mut capacity = Power::ZERO;
    let mut expanded = 0u32;
    for b in buckets {
        expanded += 1;
        for &(idx, p, headroom) in members {
            if bucket_of(p) == b && headroom.as_watts() > 0.0 {
                included.push((idx, headroom));
                capacity += headroom;
            }
        }
        if capacity >= needed {
            water_fill(&included, needed, assign);
            return (needed, expanded);
        }
    }
    // Whole group to its floors; the caller escalates the remainder.
    for &(idx, headroom) in &included {
        assign(idx, headroom);
    }
    (capacity, expanded)
}

/// Even cut with per-server bounds: finds `x` with
/// `Σ min(x, headroom_i) = needed` and assigns `min(x, headroom_i)`.
fn water_fill(included: &[(usize, Power)], needed: Power, assign: &mut dyn FnMut(usize, Power)) {
    let mut sorted: Vec<(usize, f64)> = included.iter().map(|&(i, h)| (i, h.as_watts())).collect();
    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite headrooms"));

    let mut remaining = needed.as_watts();
    let mut level = 0.0f64;
    let mut active = sorted.len();
    let mut cuts: Vec<(usize, f64)> = Vec::with_capacity(sorted.len());
    for (k, &(idx, h)) in sorted.iter().enumerate() {
        // Can the remaining active servers all rise to h?
        let step = (h - level) * active as f64;
        if step >= remaining {
            level += remaining / active as f64;
            // Everyone from k onward cuts `level`; earlier ones were
            // already emitted at their bound.
            for &(i2, _) in &sorted[k..] {
                cuts.push((i2, level));
            }
            remaining = 0.0;
            break;
        }
        remaining -= step;
        level = h;
        cuts.push((idx, h)); // bound reached
        active -= 1;
    }
    debug_assert!(
        remaining <= 1e-6,
        "water_fill called with needed > capacity"
    );
    for (idx, c) in cuts {
        if c > 0.0 {
            assign(idx, Power::from_watts(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ServiceClass;

    fn handle(id: u32, name: &str, prio: u8, sla: f64) -> ServerHandle {
        ServerHandle {
            server_id: id,
            service: ServiceClass::new(name, prio, Power::from_watts(sla)),
        }
    }

    fn watts(v: f64) -> Power {
        Power::from_watts(v)
    }

    const BUCKET: Power = Power::from_watts(20.0);

    #[test]
    fn lowest_priority_group_is_cut_first() {
        let servers = vec![
            handle(0, "hadoop", 0, 140.0),
            handle(1, "web", 1, 210.0),
            handle(2, "cache", 3, 260.0),
        ];
        let powers = vec![watts(300.0), watts(300.0), watts(300.0)];
        let (cuts, left) = distribute_power_cut(&servers, &powers, watts(100.0), BUCKET);
        assert_eq!(left, Power::ZERO);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].server_id, 0);
        assert_eq!(cuts[0].cut, watts(100.0));
        assert_eq!(cuts[0].cap, watts(200.0));
    }

    #[test]
    fn escalates_to_next_group_when_sla_binds() {
        let servers = vec![handle(0, "hadoop", 0, 140.0), handle(1, "web", 1, 210.0)];
        let powers = vec![watts(200.0), watts(300.0)];
        // hadoop can only give 60 W; web must cover the other 40 W.
        let (cuts, left) = distribute_power_cut(&servers, &powers, watts(100.0), BUCKET);
        assert_eq!(left, Power::ZERO);
        assert_eq!(cuts.len(), 2);
        let hadoop = cuts.iter().find(|c| c.server_id == 0).unwrap();
        let web = cuts.iter().find(|c| c.server_id == 1).unwrap();
        assert_eq!(hadoop.cut, watts(60.0));
        assert_eq!(hadoop.cap, watts(140.0));
        assert_eq!(web.cut, watts(40.0));
        assert_eq!(web.cap, watts(260.0));
    }

    #[test]
    fn high_bucket_first_spares_light_servers() {
        // Same priority; heavy servers are in a higher bucket, and the
        // cut fits inside it, so light servers are untouched.
        let servers: Vec<ServerHandle> = (0..4).map(|i| handle(i, "web", 1, 100.0)).collect();
        let powers = vec![watts(295.0), watts(290.0), watts(220.0), watts(215.0)];
        let (cuts, left) = distribute_power_cut(&servers, &powers, watts(30.0), BUCKET);
        assert_eq!(left, Power::ZERO);
        let ids: Vec<u32> = cuts.iter().map(|c| c.server_id).collect();
        assert!(
            ids.contains(&0) && ids.contains(&1),
            "heavy servers cut: {ids:?}"
        );
        assert!(
            !ids.contains(&2) && !ids.contains(&3),
            "light servers spared: {ids:?}"
        );
        // Even split across the bucket.
        for c in &cuts {
            assert!((c.cut - watts(15.0)).abs().as_watts() < 1e-9);
        }
    }

    #[test]
    fn expands_buckets_until_cut_fits() {
        let servers: Vec<ServerHandle> = (0..3).map(|i| handle(i, "web", 1, 100.0)).collect();
        let powers = vec![watts(300.0), watts(260.0), watts(220.0)];
        // 250 W cut needs more than the top server's 200 W headroom.
        let (cuts, left) = distribute_power_cut(&servers, &powers, watts(250.0), BUCKET);
        assert_eq!(left, Power::ZERO);
        assert!(cuts.len() >= 2);
        let total: Power = cuts.iter().map(|c| c.cut).sum();
        assert!((total - watts(250.0)).abs().as_watts() < 1e-6);
    }

    #[test]
    fn caps_never_violate_sla_floor() {
        let servers: Vec<ServerHandle> = (0..5).map(|i| handle(i, "web", 1, 210.0)).collect();
        let powers = vec![watts(300.0); 5];
        let (cuts, _) = distribute_power_cut(&servers, &powers, watts(1000.0), BUCKET);
        for c in &cuts {
            assert!(c.cap >= watts(210.0), "cap {c:?} below SLA floor");
        }
    }

    #[test]
    fn reports_unabsorbable_remainder() {
        let servers = vec![handle(0, "web", 1, 210.0)];
        let powers = vec![watts(300.0)];
        let (cuts, left) = distribute_power_cut(&servers, &powers, watts(200.0), BUCKET);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].cut, watts(90.0));
        assert_eq!(left, watts(110.0));
    }

    #[test]
    fn zero_cut_is_a_noop() {
        let servers = vec![handle(0, "web", 1, 210.0)];
        let powers = vec![watts(300.0)];
        let (cuts, left) = distribute_power_cut(&servers, &powers, Power::ZERO, BUCKET);
        assert!(cuts.is_empty());
        assert_eq!(left, Power::ZERO);
    }

    #[test]
    fn servers_below_floor_are_skipped() {
        let servers = vec![handle(0, "web", 1, 210.0), handle(1, "web", 1, 210.0)];
        let powers = vec![watts(200.0), watts(300.0)];
        let (cuts, left) = distribute_power_cut(&servers, &powers, watts(50.0), BUCKET);
        assert_eq!(left, Power::ZERO);
        assert_eq!(cuts.len(), 1);
        assert_eq!(cuts[0].server_id, 1);
    }

    #[test]
    fn cut_conservation_across_groups() {
        let mut servers = Vec::new();
        let mut powers = Vec::new();
        for i in 0..10 {
            servers.push(handle(i, "hadoop", 0, 140.0));
            powers.push(watts(250.0 + (i as f64) * 5.0));
        }
        for i in 10..20 {
            servers.push(handle(i, "web", 1, 210.0));
            powers.push(watts(280.0 + (i as f64)));
        }
        let asked = watts(700.0);
        let (cuts, left) = distribute_power_cut(&servers, &powers, asked, BUCKET);
        let total: Power = cuts.iter().map(|c| c.cut).sum();
        assert!(((total + left) - asked).abs().as_watts() < 1e-6);
        // Caps are consistent with cuts.
        for c in &cuts {
            let p = powers[c.server_id as usize];
            assert!((p - c.cut - c.cap).abs().as_watts() < 1e-6 || c.cap.as_watts() >= 140.0);
        }
    }

    #[test]
    fn figure16_shape_even_cuts_with_floor() {
        // A web row where the cut reaches down to a bucket boundary:
        // every included server's cap is >= the 210 W SLA and heavier
        // servers end up with larger cuts only via the even-split bound.
        let servers: Vec<ServerHandle> = (0..20).map(|i| handle(i, "web", 1, 210.0)).collect();
        let powers: Vec<Power> = (0..20).map(|i| watts(215.0 + 6.0 * i as f64)).collect(); // 215..329
        let (cuts, left) = distribute_power_cut(&servers, &powers, watts(400.0), BUCKET);
        assert_eq!(left, Power::ZERO);
        for c in &cuts {
            assert!(c.cap >= watts(210.0));
        }
        // Servers that were cut are the higher-power ones: the minimum
        // power among cut servers exceeds the maximum among uncut ones
        // minus a bucket width.
        let cut_ids: Vec<u32> = cuts.iter().map(|c| c.server_id).collect();
        let min_cut_power = cut_ids
            .iter()
            .map(|&i| powers[i as usize].as_watts())
            .fold(f64::INFINITY, f64::min);
        let max_uncut_power = (0..20u32)
            .filter(|i| !cut_ids.contains(i))
            .map(|i| powers[i as usize].as_watts())
            .fold(0.0, f64::max);
        assert!(
            min_cut_power + BUCKET.as_watts() > max_uncut_power,
            "cut set must be the high-power end: min cut {min_cut_power}, max uncut {max_uncut_power}"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_inputs_panic() {
        distribute_power_cut(&[handle(0, "web", 1, 210.0)], &[], watts(1.0), BUCKET);
    }

    #[test]
    #[should_panic(expected = "bucket width")]
    fn zero_bucket_panics() {
        distribute_power_cut(&[], &[], watts(1.0), Power::ZERO);
    }

    #[test]
    fn stats_describe_the_walk() {
        // One group, cut fits in the top bucket → 1 group, 1 bucket.
        let servers: Vec<ServerHandle> = (0..4).map(|i| handle(i, "web", 1, 100.0)).collect();
        let powers = vec![watts(295.0), watts(290.0), watts(220.0), watts(215.0)];
        let (cuts, left, stats) =
            distribute_power_cut_with_stats(&servers, &powers, watts(30.0), BUCKET);
        assert_eq!(left, Power::ZERO);
        assert_eq!(stats.groups_touched, 1);
        assert_eq!(stats.buckets_expanded, 1);
        assert_eq!(stats.victims, cuts.len() as u32);
        assert_eq!(stats.leftover_watts, 0.0);

        // Escalates to a second priority group.
        let servers = vec![handle(0, "hadoop", 0, 140.0), handle(1, "web", 1, 210.0)];
        let powers = vec![watts(200.0), watts(300.0)];
        let (_, _, stats) =
            distribute_power_cut_with_stats(&servers, &powers, watts(100.0), BUCKET);
        assert_eq!(stats.groups_touched, 2);
        assert_eq!(stats.victims, 2);

        // Unabsorbable remainder surfaces in leftover_watts.
        let servers = vec![handle(0, "web", 1, 210.0)];
        let powers = vec![watts(300.0)];
        let (_, left, stats) =
            distribute_power_cut_with_stats(&servers, &powers, watts(200.0), BUCKET);
        assert_eq!(stats.leftover_watts, left.as_watts());
        assert!(stats.leftover_watts > 0.0);
    }

    #[test]
    fn stats_variant_matches_plain_variant() {
        let servers: Vec<ServerHandle> = (0..6)
            .map(|i| {
                handle(
                    i,
                    if i < 3 { "hadoop" } else { "web" },
                    (i < 3) as u8,
                    150.0,
                )
            })
            .collect();
        let powers: Vec<Power> = (0..6).map(|i| watts(220.0 + 14.0 * i as f64)).collect();
        let (a_cuts, a_left) = distribute_power_cut(&servers, &powers, watts(180.0), BUCKET);
        let (b_cuts, b_left, _) =
            distribute_power_cut_with_stats(&servers, &powers, watts(180.0), BUCKET);
        assert_eq!(a_cuts, b_cuts);
        assert_eq!(a_left, b_left);
    }

    #[test]
    fn water_fill_exactness() {
        // Needed exactly equals capacity.
        let servers: Vec<ServerHandle> = (0..3).map(|i| handle(i, "web", 1, 100.0)).collect();
        let powers = vec![watts(150.0), watts(160.0), watts(170.0)];
        let capacity = watts(50.0 + 60.0 + 70.0);
        let (cuts, left) = distribute_power_cut(&servers, &powers, capacity, BUCKET);
        assert_eq!(left, Power::ZERO);
        let total: Power = cuts.iter().map(|c| c.cut).sum();
        assert!((total - capacity).abs().as_watts() < 1e-6);
    }
}
