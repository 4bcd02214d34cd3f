//! Contractual limits (§III-D) cap a leaf and release it when cleared.
//! That churning them on both tiers leaves every device's draw exact
//! and the run equal to the reference oracle at every width is the
//! `contract_churn` case of `schedules.rs`; breaker trips, resets and
//! out-of-band kills are its `fault_churn` case.

mod common;

use common::mixed;
use dcsim::SimDuration;
use dynamo_repro::dynamo::{RunReport, ServicePlan};
use dynamo_repro::workloads::ServiceKind;

#[test]
fn contract_churn_caps_and_releases() {
    let mut spec = mixed([Some(18.0), None, None], 0.0, 53);
    spec.plan = Some(ServicePlan::Mix(vec![
        (ServiceKind::Web, 0.6),
        (ServiceKind::Cache, 0.4),
    ]));
    let mut dc = spec.builder(1).build();
    let leaf = dc.system().leaf_devices()[0];
    dc.run_for(SimDuration::from_secs(60));
    let limit = dc.device_power(leaf) * 0.85;
    dc.system_mut().set_leaf_contract(leaf, Some(limit));
    dc.run_for(SimDuration::from_secs(120));
    let mid = RunReport::from_datacenter(&dc);
    assert!(mid.leaf_cap_events > 0, "contract never capped: {mid}");
    dc.system_mut().set_leaf_contract(leaf, None);
    dc.run_for(SimDuration::from_secs(120));
    let report = RunReport::from_datacenter(&dc);
    assert!(
        report.leaf_uncap_events > 0,
        "clearing the contract never uncapped: {report}"
    );
    assert_eq!(report.breaker_trips, 0, "{report}");
}
