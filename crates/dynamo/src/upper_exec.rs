//! The upper controller tier: one [`UpperController`] per SB and MSB,
//! evaluated children-before-parents so parents see fresh child totals.

use std::collections::HashMap;

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::SimTime;
use dynamo_controller::{ChildDirective, ChildReport, UpperConfig, UpperController};
use powerinfra::{DeviceId, DeviceLevel, Power, Topology};

use crate::events::{ControllerEvent, ControllerEventKind};
use crate::failover::Failover;
use crate::leaf_exec::{Leaf, LeafTier};
use crate::obs::Observability;

/// Which tier an upper controller's child belongs to.
#[derive(Debug, Clone, Copy)]
enum ChildRef {
    Leaf(usize),
    Upper(usize),
}

/// The upper tier as parallel arrays, ordered SBs first then MSBs
/// (children before parents).
pub(crate) struct UpperTier {
    pub(crate) devices: Vec<DeviceId>,
    pub(crate) controllers: Vec<UpperController>,
    children: Vec<Vec<ChildRef>>,
    last_total: Vec<Power>,
    /// Planned-peak quotas from topology metadata, by upper index.
    quotas: Vec<Power>,
    pub(crate) index_of: HashMap<DeviceId, usize>,
    /// Child-report scratch reused across cycles.
    report_scratch: Vec<ChildReport>,
}

impl UpperTier {
    /// Builds SB uppers over leaf children, then MSB uppers over SB
    /// uppers, using `leaves` to resolve leaf children by device id.
    pub(crate) fn build(topo: &Topology, leaves: &LeafTier) -> Self {
        let mut devices = Vec::new();
        let mut controllers = Vec::new();
        let mut children: Vec<Vec<ChildRef>> = Vec::new();
        let mut index_of = HashMap::new();
        for sb in topo.devices_at(DeviceLevel::Sb) {
            let dev = topo.device(sb);
            let kids: Vec<ChildRef> = dev
                .children
                .iter()
                .map(|c| ChildRef::Leaf(leaves.index_of[c]))
                .collect();
            if kids.is_empty() {
                continue;
            }
            index_of.insert(sb, controllers.len());
            controllers.push(UpperController::new(
                dev.name.clone(),
                UpperConfig::new(dev.rating),
                kids.len(),
            ));
            children.push(kids);
            devices.push(sb);
        }
        for msb in topo.devices_at(DeviceLevel::Msb) {
            let dev = topo.device(msb);
            let kids: Vec<ChildRef> = dev
                .children
                .iter()
                .filter_map(|c| index_of.get(c).map(|&i| ChildRef::Upper(i)))
                .collect();
            if kids.is_empty() {
                continue;
            }
            index_of.insert(msb, controllers.len());
            controllers.push(UpperController::new(
                dev.name.clone(),
                UpperConfig::new(dev.rating),
                kids.len(),
            ));
            children.push(kids);
            devices.push(msb);
        }

        let n = devices.len();
        let quotas: Vec<Power> = devices.iter().map(|&d| topo.device(d).quota).collect();
        UpperTier {
            devices,
            controllers,
            children,
            last_total: vec![Power::ZERO; n],
            quotas,
            index_of,
            report_scratch: Vec::new(),
        }
    }

    /// Number of upper controllers.
    pub(crate) fn len(&self) -> usize {
        self.controllers.len()
    }

    /// Saves the tier's dynamic state: controller decision state plus
    /// the last child totals parents read. Devices, children and quotas
    /// are topology-derived and rebuilt from config; `report_scratch`
    /// is per-cycle scratch.
    pub(crate) fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.len() as u64);
        for c in &self.controllers {
            c.save(w);
        }
        w.put_u64(self.last_total.len() as u64);
        for p in &self.last_total {
            w.put_f64(p.as_watts());
        }
    }

    /// Loads what [`UpperTier::save`] wrote into a tier built with the
    /// same controllers.
    pub(crate) fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.get_len(self.len(), "upper controllers")?;
        for c in &mut self.controllers {
            c.load(r)?;
        }
        r.get_len(self.len(), "upper totals")?;
        for p in &mut self.last_total {
            *p = Power::from_watts(r.get_f64()?);
        }
        Ok(())
    }

    /// Runs the due uppers in index order. The due list is ascending and
    /// SBs were pushed before MSBs, so children run before parents and
    /// parents see fresh child totals.
    pub(crate) fn run_due(
        &mut self,
        now: SimTime,
        due: &[usize],
        leaves: &mut [Leaf],
        failover: &mut Failover,
        events: &mut Vec<ControllerEvent>,
        obs: &mut Observability,
    ) {
        // Upper trace tracks sit above the leaf tracks.
        let track_base = leaves.len() as u32;
        for &i in due {
            let action = if failover.take_upper(i) {
                Some(ControllerEventKind::Failover)
            } else {
                self.cycle(i, now, leaves)
            };
            let name = self.controllers[i].name_shared();
            obs.record_upper(now, track_base + i as u32, &name, action.as_ref());
            if let Some(kind) = action {
                events.push(ControllerEvent {
                    at: now,
                    device: self.devices[i],
                    controller: name,
                    kind,
                });
            }
        }
    }

    /// Upper `i`'s cycle: reads its children's reports, applies the
    /// directives it decides, and returns its action — contracts
    /// pushed or released — if any.
    fn cycle(
        &mut self,
        i: usize,
        now: SimTime,
        leaves: &mut [Leaf],
    ) -> Option<ControllerEventKind> {
        self.report_scratch.clear();
        for &child in &self.children[i] {
            self.report_scratch.push(match child {
                ChildRef::Leaf(j) => ChildReport {
                    power: leaves[j].last_aggregate,
                    quota: leaves[j].quota,
                    physical_limit: leaves[j].controller.config().physical_limit,
                },
                ChildRef::Upper(j) => ChildReport {
                    power: self.last_total[j],
                    quota: self.quotas[j],
                    physical_limit: self.controllers[j].config().physical_limit,
                },
            });
        }
        let outcome = self.controllers[i].cycle(now, &self.report_scratch);
        self.last_total[i] = outcome.total;

        // Apply directives to children (contract propagation).
        // Indexed access instead of iterating `children[i]` keeps the
        // child list borrow disjoint from the controller mutations
        // below — no per-cycle clone of the child list.
        let mut contracts = 0;
        for (k, &directive) in outcome.directives.iter().enumerate() {
            let limit = match directive {
                ChildDirective::SetContract(l) => {
                    contracts += 1;
                    Some(l)
                }
                ChildDirective::ClearContract => None,
                ChildDirective::Unchanged => continue,
            };
            match self.children[i][k] {
                ChildRef::Leaf(j) => {
                    // The leaf's effective limit moved from outside the
                    // fleet: its next cycle must run for real.
                    leaves[j].quiet = false;
                    leaves[j].controller.set_contractual_limit(limit);
                }
                ChildRef::Upper(j) => self.controllers[j].set_contractual_limit(limit),
            }
        }
        if outcome.capped {
            Some(ControllerEventKind::UpperCapped { contracts })
        } else if outcome.uncapped {
            Some(ControllerEventKind::UpperUncapped)
        } else {
            None
        }
    }
}
