//! Upper-level power controllers and coordination (§III-D).

use std::collections::HashMap;
use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::SimTime;
use powerinfra::Power;
use serde::{Deserialize, Serialize};

use crate::distribution::{distribute_cut, CutAssignment};
use crate::threeband::{three_band_decision, BandDecision, PAPER_BANDS};
use crate::types::Alert;

/// How an upper controller distributes a needed power cut among its
/// children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoordinationPolicy {
    /// The paper's policy (§III-D): children above their power quota
    /// absorb the cut first (high-bucket-first among several
    /// offenders); compliant children are touched only as a last
    /// resort.
    PunishOffenderFirst,
    /// The prior-work baseline (SHIP-style): scale every child's
    /// allowance down proportionally to its current power, regardless
    /// of who exceeded their quota. Used by the coordination ablation.
    UniformScale,
}

/// Bucket width for high-bucket-first among several offenders, as a
/// fraction of the protected device's limit. The paper fixes only the
/// leaf's 20 W server bucket; a child here is a whole device, so the
/// bucket scales with the parent's limit.
const BUCKET_FRAC: f64 = 0.01;

/// Configuration of an [`UpperController`]. The bands are
/// [`PAPER_BANDS`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpperConfig {
    /// The protected device's breaker limit.
    pub physical_limit: Power,
    /// Cut distribution policy (default: the paper's
    /// punish-offender-first).
    pub policy: CoordinationPolicy,
}

impl UpperConfig {
    /// Paper-default configuration for a device with the given limit.
    ///
    /// # Panics
    ///
    /// Panics if `physical_limit` is not strictly positive.
    pub fn new(physical_limit: Power) -> Self {
        assert!(
            physical_limit.as_watts() > 0.0,
            "physical limit must be positive"
        );
        UpperConfig {
            physical_limit,
            policy: CoordinationPolicy::PunishOffenderFirst,
        }
    }

    /// Overrides the coordination policy.
    pub fn with_policy(mut self, policy: CoordinationPolicy) -> Self {
        self.policy = policy;
        self
    }
}

/// What an upper controller learns about one child controller each
/// cycle. Controllers consolidated in one binary share this through
/// memory (§IV); fully distributed deployments would ship it over
/// Thrift — either way this is the whole coordination surface.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChildReport {
    /// The child device's aggregated power last cycle.
    pub power: Power,
    /// The child's power quota — its *planned peak* (§III-D). A child
    /// above its quota is an "offender".
    pub quota: Power,
    /// The child's own breaker limit (its contract is never set above
    /// this — it would be meaningless).
    pub physical_limit: Power,
}

/// A directive for one child after a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChildDirective {
    /// Push this contractual power limit to the child. The child obeys
    /// `min(physical, contractual)` and, if it is itself an upper
    /// controller, recursively propagates further contracts downward.
    SetContract(Power),
    /// Remove the child's contractual limit.
    ClearContract,
    /// Leave the child as is.
    Unchanged,
}

/// What one upper-controller cycle observed and decided.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpperOutcome {
    /// Cycle timestamp.
    pub at: SimTime,
    /// Sum of child powers.
    pub total: Power,
    /// True if capping (contract pushes) happened this cycle.
    pub capped: bool,
    /// True if contracts were cleared this cycle.
    pub uncapped: bool,
    /// One directive per child, in input order.
    pub directives: Vec<ChildDirective>,
}

/// An upper-level power controller: protects a non-leaf device (SB or
/// MSB) by watching child controllers and pushing contractual limits
/// with the punish-offender-first policy (§III-D).
///
/// # Example
///
/// The paper's worked example: parent `P1` (300 KW) with children
/// `C1`, `C2` (200 KW physical, 150 KW quota each); `C1` draws 190 KW,
/// `C2` 130 KW. The cut lands entirely on the offender `C1`:
///
/// ```
/// use dcsim::SimTime;
/// use dynamo_controller::{ChildDirective, ChildReport, UpperConfig, UpperController};
/// use powerinfra::Power;
///
/// let kw = Power::from_kilowatts;
/// let mut p1 = UpperController::new("P1", UpperConfig::new(kw(300.0)), 2);
/// let reports = [
///     ChildReport { power: kw(190.0), quota: kw(150.0), physical_limit: kw(200.0) },
///     ChildReport { power: kw(130.0), quota: kw(150.0), physical_limit: kw(200.0) },
/// ];
/// let out = p1.cycle(SimTime::ZERO, &reports);
/// assert!(out.capped);
/// assert!(matches!(out.directives[0], ChildDirective::SetContract(_)));
/// assert_eq!(out.directives[1], ChildDirective::Unchanged);
/// ```
#[derive(Debug, Clone)]
pub struct UpperController {
    /// Name, shared with whoever built the controller: a controller
    /// named after its device holds that device's one copy.
    name: Arc<str>,
    config: UpperConfig,
    child_count: usize,
    /// Contracts we have pushed, by child index.
    active_contracts: HashMap<usize, Power>,
    /// Contractual limit imposed on *this* controller by its parent.
    contractual_limit: Option<Power>,
    alerts: Vec<Alert>,
    cycles: u64,
}

impl UpperController {
    /// Creates an upper controller over `child_count` children.
    ///
    /// # Panics
    ///
    /// Panics if `child_count` is zero.
    pub fn new(name: impl Into<Arc<str>>, config: UpperConfig, child_count: usize) -> Self {
        assert!(child_count > 0, "upper controller needs at least one child");
        UpperController {
            name: name.into(),
            config,
            child_count,
            active_contracts: HashMap::new(),
            contractual_limit: None,
            alerts: Vec::new(),
            cycles: 0,
        }
    }

    /// The controller's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The configuration in use.
    pub fn config(&self) -> &UpperConfig {
        &self.config
    }

    /// The effective limit: `min(physical, contractual)`.
    pub fn effective_limit(&self) -> Power {
        match self.contractual_limit {
            Some(c) => c.min(self.config.physical_limit),
            None => self.config.physical_limit,
        }
    }

    /// Sets or clears the contractual limit imposed by this controller's
    /// own parent (recursive propagation, §III-D).
    ///
    /// # Panics
    ///
    /// Panics if the limit is not strictly positive.
    pub fn set_contractual_limit(&mut self, limit: Option<Power>) {
        if let Some(l) = limit {
            assert!(
                l.as_watts() > 0.0,
                "contractual limit must be positive, got {l}"
            );
        }
        self.contractual_limit = limit;
    }

    /// Contracts currently pushed to children (child index → limit).
    pub fn active_contracts(&self) -> &HashMap<usize, Power> {
        &self.active_contracts
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Number of completed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Saves the controller's dynamic state, contracts in child-index
    /// order so the bytes do not depend on the map's.
    pub fn save(&self, w: &mut SnapWriter) {
        let mut contracts: Vec<(usize, Power)> = self
            .active_contracts
            .iter()
            .map(|(&i, &p)| (i, p))
            .collect();
        contracts.sort_unstable_by_key(|&(i, _)| i);
        w.put_u64(contracts.len() as u64);
        for (idx, p) in contracts {
            w.put_u64(idx as u64);
            w.put_f64(p.as_watts());
        }
        w.put_opt_f64(self.contractual_limit.map(|p| p.as_watts()));
        w.put_u64(self.alerts.len() as u64);
        for alert in &self.alerts {
            alert.save(w);
        }
        w.put_u64(self.cycles);
    }

    /// Loads state written by [`UpperController::save`]. Configuration
    /// (name, limits, policy, child count) is not part of it — the
    /// controller must be rebuilt from the same config first.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let positive = |what: &str, watts: f64| {
            if watts.is_finite() && watts > 0.0 {
                Ok(Power::from_watts(watts))
            } else {
                Err(SnapError::Corrupt(format!(
                    "{what} must be positive, got {watts}"
                )))
            }
        };
        self.active_contracts.clear();
        let mut prev: Option<usize> = None;
        for _ in 0..r.get_u64()? {
            let idx = r.get_u64()? as usize;
            if prev.is_some_and(|p| p >= idx) {
                return Err(SnapError::Corrupt(
                    "upper contracts not strictly index-sorted".into(),
                ));
            }
            prev = Some(idx);
            let limit = positive("contract limit", r.get_f64()?)?;
            if idx >= self.child_count {
                return Err(SnapError::Corrupt(format!(
                    "contract child index {idx} out of range for {} children",
                    self.child_count
                )));
            }
            self.active_contracts.insert(idx, limit);
        }
        self.contractual_limit = r
            .get_opt_f64()?
            .map(|w| positive("contractual limit", w))
            .transpose()?;
        self.alerts = r.get_vec(Alert::decode)?;
        self.cycles = r.get_count()?;
        Ok(())
    }

    /// Runs one 9-second coordination cycle.
    ///
    /// Aggregates child powers, applies the three-band algorithm against
    /// the effective limit, and on capping distributes the needed cut
    /// with punish-offender-first: children above their quota absorb the
    /// cut first (high-bucket-first among several offenders); only if
    /// the offenders' excess cannot cover it are compliant children
    /// squeezed toward their quota share, with an alert.
    ///
    /// # Panics
    ///
    /// Panics if `reports.len()` differs from the configured child
    /// count.
    pub fn cycle(&mut self, now: SimTime, reports: &[ChildReport]) -> UpperOutcome {
        assert_eq!(
            reports.len(),
            self.child_count,
            "child report count mismatch"
        );
        self.cycles += 1;

        let total: Power = reports.iter().map(|r| r.power).sum();
        let limit = self.effective_limit();
        let decision =
            three_band_decision(total, limit, PAPER_BANDS, !self.active_contracts.is_empty());

        let mut directives = vec![ChildDirective::Unchanged; reports.len()];
        let mut capped = false;
        let mut uncapped = false;

        match decision {
            BandDecision::Cap { total_cut } => {
                capped = true;
                let powers: Vec<Power> = reports.iter().map(|r| r.power).collect();
                let (cuts, leftover) = match self.config.policy {
                    CoordinationPolicy::PunishOffenderFirst => {
                        // Offenders (power > quota) form priority group 0
                        // with an SLA floor at their quota; compliant
                        // children form group 1 with a floor at half
                        // their current power, touched only if the
                        // offenders cannot absorb the cut.
                        let class = |i: usize| {
                            let r = &reports[i];
                            if r.power > r.quota {
                                (0, r.quota)
                            } else {
                                (1, (r.power * 0.5).max(Power::from_watts(1.0)))
                            }
                        };
                        let mut cuts = Vec::new();
                        let (leftover, _) = distribute_cut(
                            reports.len(),
                            class,
                            |i| powers[i],
                            total_cut,
                            self.config.physical_limit * BUCKET_FRAC,
                            &mut |i, cut, cap| {
                                cuts.push(CutAssignment {
                                    server_id: i as u32,
                                    cut,
                                    cap,
                                })
                            },
                        );
                        (cuts, leftover)
                    }
                    CoordinationPolicy::UniformScale => uniform_scale_cuts(&powers, total_cut),
                };
                if leftover.as_watts() > 1.0 {
                    self.alerts.push(Alert {
                        at: now,
                        message: format!(
                            "children cannot absorb {leftover} of a {total_cut} cut; \
                             device {} may trip",
                            self.name
                        ),
                    });
                }
                let mut touched_compliant = false;
                for cut in cuts {
                    let idx = cut.server_id as usize;
                    let contract = cut.cap.min(reports[idx].physical_limit);
                    self.active_contracts.insert(idx, contract);
                    directives[idx] = ChildDirective::SetContract(contract);
                    if reports[idx].power <= reports[idx].quota {
                        touched_compliant = true;
                    }
                }
                if touched_compliant {
                    self.alerts.push(Alert {
                        at: now,
                        message: "offender excess insufficient; compliant children capped too"
                            .to_string(),
                    });
                }
            }
            BandDecision::Uncap => {
                uncapped = true;
                for (&idx, _) in self.active_contracts.iter() {
                    directives[idx] = ChildDirective::ClearContract;
                }
                self.active_contracts.clear();
            }
            BandDecision::Hold => {}
        }

        UpperOutcome {
            at: now,
            total,
            capped,
            uncapped,
            directives,
        }
    }
}

/// SHIP-style baseline: every child gives up the same *fraction* of its
/// power, floored at half the child's draw (matching the compliant-child
/// floor of the offender-first path). Returns per-child cuts and any
/// unabsorbable remainder.
fn uniform_scale_cuts(powers: &[Power], total_cut: Power) -> (Vec<CutAssignment>, Power) {
    let total: Power = powers.iter().copied().sum();
    if total.as_watts() <= 0.0 {
        return (Vec::new(), total_cut);
    }
    let frac = (total_cut.as_watts() / total.as_watts()).min(0.5);
    let cuts: Vec<CutAssignment> = powers
        .iter()
        .enumerate()
        .filter(|(_, p)| p.as_watts() > 0.0)
        .map(|(i, &p)| {
            let cut = p * frac;
            CutAssignment {
                server_id: i as u32,
                cut,
                cap: p - cut,
            }
        })
        .collect();
    let absorbed: Power = cuts.iter().map(|c| c.cut).sum();
    (cuts, total_cut.saturating_sub(absorbed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kw(v: f64) -> Power {
        Power::from_kilowatts(v)
    }

    fn report(power: f64, quota: f64, phys: f64) -> ChildReport {
        ChildReport {
            power: kw(power),
            quota: kw(quota),
            physical_limit: kw(phys),
        }
    }

    /// The §III-D worked example: the entire cut goes to the offender.
    #[test]
    fn paper_example_punishes_the_offender_only() {
        let mut p1 = UpperController::new("P1", UpperConfig::new(kw(300.0)), 2);
        let reports = [report(190.0, 150.0, 200.0), report(130.0, 150.0, 200.0)];
        let out = p1.cycle(SimTime::ZERO, &reports);
        assert!(out.capped);
        // total 320, threshold 297, target 285 → cut 35, all on C1.
        match out.directives[0] {
            ChildDirective::SetContract(c) => {
                assert!((c.as_kilowatts() - 155.0).abs() < 1e-9, "C1 contract {c}");
            }
            other => panic!("C1 should get a contract, got {other:?}"),
        }
        assert_eq!(out.directives[1], ChildDirective::Unchanged);
        assert_eq!(p1.active_contracts().len(), 1);
    }

    #[test]
    fn within_limit_holds() {
        let mut p1 = UpperController::new("P1", UpperConfig::new(kw(300.0)), 2);
        let reports = [report(140.0, 150.0, 200.0), report(140.0, 150.0, 200.0)];
        let out = p1.cycle(SimTime::ZERO, &reports);
        assert!(!out.capped && !out.uncapped);
        assert!(out
            .directives
            .iter()
            .all(|d| *d == ChildDirective::Unchanged));
    }

    #[test]
    fn multiple_offenders_split_by_high_bucket_first() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 3);
        // Two offenders with different overages and one compliant child.
        let reports = [
            report(190.0, 150.0, 200.0),
            report(170.0, 150.0, 200.0),
            report(100.0, 150.0, 200.0),
        ];
        // total 460 ≫ 297 threshold → cut = 460 - 285 = 175 > combined
        // offender excess (40 + 20 = 60) → compliant child also touched.
        let out = p.cycle(SimTime::ZERO, &reports);
        assert!(out.capped);
        match (out.directives[0], out.directives[1]) {
            (ChildDirective::SetContract(c0), ChildDirective::SetContract(c1)) => {
                // Offenders land at their quotas (floors).
                assert!((c0.as_kilowatts() - 150.0).abs() < 1e-6);
                assert!((c1.as_kilowatts() - 150.0).abs() < 1e-6);
            }
            other => panic!("both offenders should be contracted: {other:?}"),
        }
        assert!(matches!(out.directives[2], ChildDirective::SetContract(_)));
        assert!(p.alerts().iter().any(|a| a.message.contains("compliant")));
    }

    #[test]
    fn offenders_with_headroom_spare_compliant_children() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 2);
        // Offender excess (50) covers the needed cut (total 310 → cut 25).
        let reports = [report(200.0, 150.0, 250.0), report(110.0, 150.0, 200.0)];
        let out = p.cycle(SimTime::ZERO, &reports);
        assert!(out.capped);
        assert!(matches!(out.directives[0], ChildDirective::SetContract(_)));
        assert_eq!(out.directives[1], ChildDirective::Unchanged);
        assert!(p.alerts().is_empty());
    }

    #[test]
    fn uncaps_when_power_recedes() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 2);
        let hot = [report(190.0, 150.0, 200.0), report(130.0, 150.0, 200.0)];
        p.cycle(SimTime::ZERO, &hot);
        assert!(!p.active_contracts().is_empty());
        // Below the 90% uncap threshold (270): 120 + 120 = 240.
        let cool = [report(120.0, 150.0, 200.0), report(120.0, 150.0, 200.0)];
        let out = p.cycle(SimTime::from_secs(9), &cool);
        assert!(out.uncapped);
        assert_eq!(out.directives[0], ChildDirective::ClearContract);
        assert!(p.active_contracts().is_empty());
    }

    #[test]
    fn no_uncap_without_active_contracts() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 1);
        let out = p.cycle(SimTime::ZERO, &[report(100.0, 150.0, 200.0)]);
        assert!(!out.uncapped);
        assert_eq!(out.directives[0], ChildDirective::Unchanged);
    }

    #[test]
    fn contract_never_exceeds_child_physical_limit() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 2);
        // Big offender whose computed contract would exceed the small
        // child's physical limit is clamped to it.
        let reports = [report(295.0, 150.0, 200.0), report(20.0, 150.0, 200.0)];
        let out = p.cycle(SimTime::ZERO, &reports);
        if let ChildDirective::SetContract(c) = out.directives[0] {
            assert!(c <= kw(200.0), "contract {c} above child physical limit");
        } else {
            panic!("offender must be contracted");
        }
    }

    #[test]
    fn own_contractual_limit_tightens_decisions() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 2);
        let reports = [report(130.0, 150.0, 200.0), report(130.0, 150.0, 200.0)];
        // 260 under 300 → hold.
        assert!(!p.cycle(SimTime::ZERO, &reports).capped);
        // Parent squeezes us to 250 → 260 over threshold 247.5 → cap.
        p.set_contractual_limit(Some(kw(250.0)));
        assert_eq!(p.effective_limit(), kw(250.0));
        let out = p.cycle(SimTime::from_secs(9), &reports);
        assert!(out.capped);
    }

    #[test]
    fn repeated_hot_cycles_tighten_not_flap() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 2);
        let hot = [report(190.0, 150.0, 200.0), report(130.0, 150.0, 200.0)];
        p.cycle(SimTime::ZERO, &hot);
        let first = p.active_contracts().clone();
        // Power unchanged (child did not comply yet) → contracts stay.
        let out = p.cycle(SimTime::from_secs(9), &hot);
        assert!(out.capped);
        assert_eq!(p.active_contracts().len(), first.len());
    }

    #[test]
    #[should_panic(expected = "report count mismatch")]
    fn wrong_report_count_panics() {
        let mut p = UpperController::new("P", UpperConfig::new(kw(300.0)), 2);
        p.cycle(SimTime::ZERO, &[report(100.0, 150.0, 200.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one child")]
    fn zero_children_panics() {
        UpperController::new("P", UpperConfig::new(kw(300.0)), 0);
    }

    #[test]
    fn uniform_scale_hits_every_child_proportionally() {
        let config = UpperConfig::new(kw(300.0)).with_policy(CoordinationPolicy::UniformScale);
        let mut p = UpperController::new("P", config, 2);
        // Same worked example as the paper: under uniform scaling the
        // compliant child is punished too — the behaviour the paper's
        // policy avoids.
        let reports = [report(190.0, 150.0, 200.0), report(130.0, 150.0, 200.0)];
        let out = p.cycle(SimTime::ZERO, &reports);
        assert!(out.capped);
        let (c0, c1) = match (out.directives[0], out.directives[1]) {
            (ChildDirective::SetContract(a), ChildDirective::SetContract(b)) => (a, b),
            other => panic!("both children should be contracted: {other:?}"),
        };
        // total 320, cut 35 -> frac ~10.9%: both children scaled.
        assert!(c0 < kw(190.0) && c1 < kw(130.0));
        let frac0 = 1.0 - c0.as_kilowatts() / 190.0;
        let frac1 = 1.0 - c1.as_kilowatts() / 130.0;
        assert!(
            (frac0 - frac1).abs() < 1e-9,
            "not proportional: {frac0} vs {frac1}"
        );
    }

    #[test]
    fn uniform_scale_conserves_the_cut() {
        let config = UpperConfig::new(kw(300.0)).with_policy(CoordinationPolicy::UniformScale);
        let mut p = UpperController::new("P", config, 3);
        let reports = [
            report(150.0, 120.0, 200.0),
            report(120.0, 120.0, 200.0),
            report(90.0, 120.0, 200.0),
        ];
        let out = p.cycle(SimTime::ZERO, &reports);
        let contracted: f64 = out
            .directives
            .iter()
            .zip(&reports)
            .filter_map(|(d, r)| match d {
                ChildDirective::SetContract(c) => Some(r.power.as_kilowatts() - c.as_kilowatts()),
                _ => None,
            })
            .sum();
        // total 360 -> cut to target 285 = 75 kW.
        assert!((contracted - 75.0).abs() < 1e-6, "cut sum {contracted}");
    }
}
