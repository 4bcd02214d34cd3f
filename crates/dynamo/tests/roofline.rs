//! The bytes-per-tick roofline gate.
//!
//! `Fleet::bytes_per_tick` derives the worst-case per-tick DRAM traffic
//! of the fused step from the live lengths of the arrays it streams.
//! The model is analytical — allocation lengths, no clock — so the gate
//! needs neither a tolerance nor a quiet host: only a real layout
//! regression (an array added to the settle stride, a mask unpacked
//! back to `f64`) can move it.

use dynamo::DatacenterBuilder;

/// What the full ~30 MW site streams per tick, in bytes. Growth fails
/// the test; a change that widens the hot set on purpose (a new power
/// domain's columns, say) re-baselines this constant in the same diff.
///
/// Restated once, from 7,422,048, by exactly one term: a leaf's
/// settled flag is a `bool` the leaf owns (768 x 1 B) where it was a
/// bit of twelve fleet-wide packed words (96 B) — +672 B.
const SITE_FUSED_BYTES_PER_TICK: u64 = 7_422_720;

#[test]
fn site_roofline_has_not_grown() {
    // 12 MSBs x 4 SBs x 16 RPPs x 4 racks x 40 servers = 768 leaves,
    // 122,880 servers (Web, the builder's default): the shape of
    // `dynbench`'s two site workloads, which report the same quantity
    // as `dynamo.bytes_per_tick`. Load and seed move no array length.
    let dc = DatacenterBuilder::new()
        .msbs_per_suite(12)
        .sbs_per_msb(4)
        .rpps_per_sb(16)
        .racks_per_rpp(4)
        .servers_per_rack(40)
        .build();
    assert_eq!(dc.fleet().len(), 122_880);
    let fused = dc.fleet().bytes_per_tick().fused;
    assert!(
        fused <= SITE_FUSED_BYTES_PER_TICK,
        "the hot loop grew a memory pass or the hot set widened: \
         {fused} bytes/tick, baseline {SITE_FUSED_BYTES_PER_TICK}"
    );
}
