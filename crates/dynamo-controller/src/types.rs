//! Shared controller-facing types.

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{OptF64, SimTime};
use powerinfra::Power;
use serde::{Deserialize, Serialize};

/// What a controller knows about the service running on a server — the
/// "meta-data about all the servers it controls" of §III-C3, reduced to
/// what capping decisions need. Deliberately *not* the workload
/// simulator's service enum: production Dynamo is service-agnostic and
/// consumes exactly this triple from a metadata store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceClass {
    /// Service name for logs and reports.
    pub name: String,
    /// Priority group; *lower* values are capped first.
    pub priority: u8,
    /// SLA floor: the lowest power cap this service may receive.
    pub sla_min_cap: Power,
}

impl ServiceClass {
    /// Creates a service class.
    ///
    /// # Panics
    ///
    /// Panics if `sla_min_cap` is not a positive power.
    pub fn new(name: impl Into<String>, priority: u8, sla_min_cap: Power) -> Self {
        assert!(
            sla_min_cap.is_valid_draw() && sla_min_cap.as_watts() > 0.0,
            "SLA floor must be positive, got {sla_min_cap:?}"
        );
        ServiceClass {
            name: name.into(),
            priority,
            sla_min_cap,
        }
    }
}

/// The distinct service classes a set of leaf controllers draw on,
/// shared behind an `Arc` so that a controller keeps one class index
/// per server and no class of its own. Two classes are estimation peers
/// (§III-C1) when their services have the same name.
#[derive(Debug)]
pub struct ClassTable {
    classes: Vec<ServiceClass>,
    /// Each class's estimation group: the first class with the same
    /// service name, so peers are found by comparing integers.
    peer_group: Vec<u32>,
}

impl ClassTable {
    /// A table over `classes`, indexed in the given order.
    pub fn new(classes: Vec<ServiceClass>) -> Self {
        let peer_group = (0..classes.len())
            .map(|k| {
                let earlier = classes[..k].iter().position(|c| c.name == classes[k].name);
                earlier.unwrap_or(k) as u32
            })
            .collect();
        ClassTable {
            classes,
            peer_group,
        }
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the table has no class.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Class `k`.
    pub fn class(&self, k: u32) -> &ServiceClass {
        &self.classes[k as usize]
    }

    /// Class `k`'s estimation group.
    pub fn peer_group(&self, k: u32) -> u32 {
        self.peer_group[k as usize]
    }
}

/// An `Option<Power>` in eight bytes — a reading, an estimate or a cap,
/// or none — so a leaf controller's per-server columns are one `f64`
/// each where an `Option<Power>` is sixteen bytes. An [`OptF64`] of
/// watts: no valid draw and no cap is NaN.
#[derive(Debug, Clone, Copy)]
pub struct PowerSlot(OptF64);

impl PowerSlot {
    /// No value.
    pub const NONE: PowerSlot = PowerSlot(OptF64::NONE);

    /// A slot holding `power`, which must not be NaN.
    #[inline]
    pub const fn some(power: Power) -> Self {
        PowerSlot(OptF64::some(power.as_watts()))
    }

    /// The value held, if any.
    #[inline]
    pub fn get(self) -> Option<Power> {
        self.0.get().map(Power::from_watts)
    }

    /// Whether the slot holds a value.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0.is_some()
    }
}

impl From<Option<Power>> for PowerSlot {
    fn from(power: Option<Power>) -> Self {
        power.map_or(PowerSlot::NONE, PowerSlot::some)
    }
}

/// A leaf controller's handle on one downstream server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerHandle {
    /// Fleet-wide server id.
    pub server_id: u32,
    /// The service metadata used for performance-aware capping.
    pub service: ServiceClass,
}

/// One capping command computed by the decision logic.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapCommand {
    /// Target server.
    pub server_id: u32,
    /// The power cap to program ("its current power value less its
    /// power-cut", §III-C3).
    pub cap: Power,
}

/// The action a controller took in one cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlAction {
    /// Power is inside the bands; nothing to do.
    Hold,
    /// Capping was triggered; carries the total cut and the commands.
    Capped {
        /// Power removed in aggregate.
        total_cut: Power,
        /// Per-server caps issued.
        commands: Vec<CapCommand>,
    },
    /// Uncapping was triggered; all caps cleared.
    Uncapped,
    /// The aggregation was invalid (too many pull failures); no action
    /// taken, alert raised instead (§III-C1).
    Invalid,
}

impl ControlAction {
    /// True for the `Capped` variant.
    #[cfg(test)]
    pub fn is_capped(&self) -> bool {
        matches!(self, ControlAction::Capped { .. })
    }
}

/// An operator alert (§III-E: exceeding the failure threshold "will
/// instead send an alarm for a human operator to intervene"), held by
/// the controller that raised it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alert {
    /// When the alert fired.
    pub at: SimTime,
    /// Human-readable cause.
    pub message: String,
}

impl Alert {
    /// Writes the alert: when and why.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.at.as_millis());
        w.put_str(&self.message);
    }

    /// An alert as [`Alert::save`] wrote it.
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(Alert {
            at: SimTime::from_millis(r.get_u64()?),
            message: r.get_str()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_class_construction() {
        let c = ServiceClass::new("cache", 3, Power::from_watts(260.0));
        assert_eq!(c.name, "cache");
        assert_eq!(c.priority, 3);
    }

    #[test]
    #[should_panic(expected = "SLA floor must be positive")]
    fn zero_sla_panics() {
        ServiceClass::new("x", 0, Power::ZERO);
    }

    #[test]
    fn a_power_slot_is_an_option_in_eight_bytes() {
        assert_eq!(std::mem::size_of::<PowerSlot>(), 8);
        assert_eq!(PowerSlot::NONE.get(), None);
        for w in [0.0, 210.0] {
            let p = Power::from_watts(w);
            assert_eq!(PowerSlot::from(Some(p)).get(), Some(p));
        }
        assert!(!PowerSlot::from(None).is_some());
    }

    #[test]
    fn control_action_predicates() {
        assert!(ControlAction::Capped {
            total_cut: Power::from_watts(1.0),
            commands: vec![]
        }
        .is_capped());
        assert!(!ControlAction::Hold.is_capped());
        assert!(!ControlAction::Uncapped.is_capped());
        assert!(!ControlAction::Invalid.is_capped());
    }
}
