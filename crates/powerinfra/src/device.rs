//! Power devices and hierarchy levels.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::breaker::Breaker;
use crate::units::Power;

/// Opaque handle to a device within a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DeviceId(pub(crate) u32);

impl DeviceId {
    /// The raw arena index. Stable for the lifetime of the topology.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds a handle from a raw arena index, e.g. when decoding a
    /// snapshot taken against the same topology. The caller is
    /// responsible for the index being in range for the topology it is
    /// used with.
    pub fn from_index(index: usize) -> DeviceId {
        DeviceId(index as u32)
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

/// The level a device occupies in the power delivery hierarchy (Figure 2
/// of the paper). Ordered from the root down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DeviceLevel {
    /// Main Switch Board, 2.5 MW IT rating, backed by a standby generator.
    Msb,
    /// Switch Board, 1.25 MW.
    Sb,
    /// Reactive Power Panel (or PDU breaker in leased datacenters), 190 kW.
    Rpp,
    /// Rack power shelf, 12.6 kW.
    Rack,
}

impl DeviceLevel {
    /// The OCP-specification power rating for this level.
    pub fn default_rating(self) -> Power {
        match self {
            DeviceLevel::Msb => Power::from_megawatts(2.5),
            DeviceLevel::Sb => Power::from_megawatts(1.25),
            DeviceLevel::Rpp => Power::from_kilowatts(190.0),
            DeviceLevel::Rack => Power::from_kilowatts(12.6),
        }
    }

    /// Short label used in reports ("MSB", "SB", "RPP", "Rack").
    pub fn label(self) -> &'static str {
        match self {
            DeviceLevel::Msb => "MSB",
            DeviceLevel::Sb => "SB",
            DeviceLevel::Rpp => "RPP",
            DeviceLevel::Rack => "Rack",
        }
    }

    /// All levels from the root down.
    pub fn all() -> [DeviceLevel; 4] {
        [
            DeviceLevel::Msb,
            DeviceLevel::Sb,
            DeviceLevel::Rpp,
            DeviceLevel::Rack,
        ]
    }
}

impl std::fmt::Display for DeviceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One power device in the delivery hierarchy.
///
/// Fields are public in the "passive data" spirit: a `Device` is a record
/// owned and validated by its [`crate::Topology`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// This device's handle.
    pub id: DeviceId,
    /// Human-readable name, e.g. `"suite0/msb1/sb2/rpp0"`.
    pub name: String,
    /// Hierarchy level.
    pub level: DeviceLevel,
    /// Breaker rating (the physical power limit).
    pub rating: Power,
    /// Planned peak power (the quota used by punish-offender-first
    /// coordination, §III-D). Less than or equal to `rating` when the
    /// parent is oversubscribed.
    pub quota: Power,
    /// The breaker protecting this device.
    pub breaker: Breaker,
    /// Parent device, `None` for the root(s).
    pub parent: Option<DeviceId>,
    /// Child power devices (empty for racks).
    pub children: Vec<DeviceId>,
    /// The servers this device feeds, transitively: one contiguous id
    /// range at every level, which its children's ranges tile in child
    /// order ([`crate::Topology::validate`] checks it).
    pub servers: Range<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratings_match_ocp_spec() {
        assert_eq!(
            DeviceLevel::Msb.default_rating(),
            Power::from_megawatts(2.5)
        );
        assert_eq!(
            DeviceLevel::Sb.default_rating(),
            Power::from_megawatts(1.25)
        );
        assert_eq!(
            DeviceLevel::Rpp.default_rating(),
            Power::from_kilowatts(190.0)
        );
        assert_eq!(
            DeviceLevel::Rack.default_rating(),
            Power::from_kilowatts(12.6)
        );
    }

    #[test]
    fn labels_and_ordering() {
        assert_eq!(DeviceLevel::Msb.label(), "MSB");
        assert!(DeviceLevel::Msb < DeviceLevel::Rack);
        assert_eq!(DeviceLevel::all().len(), 4);
    }

    #[test]
    fn device_id_display() {
        assert_eq!(DeviceId(7).to_string(), "dev#7");
        assert_eq!(DeviceId(7).index(), 7);
    }
}
