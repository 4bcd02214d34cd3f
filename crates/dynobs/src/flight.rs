//! The flight recorder: a fixed ring of the most recent control-plane
//! events and band transitions, dumped to a structured JSON "incident
//! file" when something goes wrong (failover, validator alert, capping
//! episode start, breaker trip).

use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter};

use crate::export::escape_json;
use crate::ring::{Ring, RingRecord};

/// A leaf controller's three-band decision state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Safe band, no action.
    Hold,
    /// Capping band.
    Cap,
    /// Uncapping band.
    Uncap,
    /// Aggregation invalid (too many pull failures).
    Invalid,
}

impl Band {
    /// Compact code, as stored in snapshots.
    pub fn code(self) -> u32 {
        match self {
            Band::Hold => 0,
            Band::Cap => 1,
            Band::Uncap => 2,
            Band::Invalid => 3,
        }
    }

    /// Inverse of [`Band::code`]; `None` for a code no band has.
    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            0 => Some(Band::Hold),
            1 => Some(Band::Cap),
            2 => Some(Band::Uncap),
            3 => Some(Band::Invalid),
            _ => None,
        }
    }

    /// Stable label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Band::Hold => "hold",
            Band::Cap => "cap",
            Band::Uncap => "uncap",
            Band::Invalid => "invalid",
        }
    }
}

/// What a flight record describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightKind {
    /// A leaf issued power cuts.
    LeafCapped {
        /// Total cut in watts.
        cut_watts: f64,
        /// Servers that received a cap command.
        servers: u32,
        /// True if this cycle started a capping episode (no caps were
        /// active before).
        episode_start: bool,
    },
    /// A leaf cleared its caps.
    LeafUncapped,
    /// A leaf's aggregation was invalid.
    LeafInvalid {
        /// Failed pulls in the cycle.
        failures: u32,
    },
    /// An upper controller tightened child contracts.
    UpperCapped {
        /// Contracts set this cycle.
        contracts: u32,
    },
    /// An upper controller released child contracts.
    UpperUncapped,
    /// A controller's primary failed over; the cycle was skipped.
    Failover,
    /// A leaf moved between decision bands.
    BandTransition {
        /// Band before this cycle.
        from: Band,
        /// Band after this cycle.
        to: Band,
    },
    /// The breaker validator raised an alert.
    ValidatorAlert,
    /// A breaker tripped.
    BreakerTrip,
    /// Site utility draw exceeded an active grid curtailment limit past
    /// the economic controller's containment budget.
    CurtailmentViolation {
        /// The curtailed feed limit in force (watts).
        limit_watts: f64,
        /// The utility draw that breached it (watts).
        draw_watts: f64,
    },
}

impl FlightKind {
    /// Stable snake_case name for this record kind, as used in incident
    /// dumps and log lines.
    pub fn label(&self) -> &'static str {
        match self {
            FlightKind::LeafCapped { .. } => "leaf_capped",
            FlightKind::LeafUncapped => "leaf_uncapped",
            FlightKind::LeafInvalid { .. } => "leaf_invalid",
            FlightKind::UpperCapped { .. } => "upper_capped",
            FlightKind::UpperUncapped => "upper_uncapped",
            FlightKind::Failover => "failover",
            FlightKind::BandTransition { .. } => "band_transition",
            FlightKind::ValidatorAlert => "validator_alert",
            FlightKind::BreakerTrip => "breaker_trip",
            FlightKind::CurtailmentViolation { .. } => "curtailment_violation",
        }
    }

    fn encode_snap(&self, w: &mut SnapWriter) {
        match *self {
            FlightKind::LeafCapped {
                cut_watts,
                servers,
                episode_start,
            } => {
                w.put_u8(0);
                w.put_f64(cut_watts);
                w.put_u32(servers);
                w.put_bool(episode_start);
            }
            FlightKind::LeafUncapped => w.put_u8(1),
            FlightKind::LeafInvalid { failures } => {
                w.put_u8(2);
                w.put_u32(failures);
            }
            FlightKind::UpperCapped { contracts } => {
                w.put_u8(3);
                w.put_u32(contracts);
            }
            FlightKind::UpperUncapped => w.put_u8(4),
            FlightKind::Failover => w.put_u8(5),
            FlightKind::BandTransition { from, to } => {
                w.put_u8(6);
                w.put_u32(from.code());
                w.put_u32(to.code());
            }
            FlightKind::ValidatorAlert => w.put_u8(7),
            FlightKind::BreakerTrip => w.put_u8(8),
            FlightKind::CurtailmentViolation {
                limit_watts,
                draw_watts,
            } => {
                w.put_u8(9);
                w.put_f64(limit_watts);
                w.put_f64(draw_watts);
            }
        }
    }

    fn decode_snap(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.get_u8()? {
            0 => FlightKind::LeafCapped {
                cut_watts: r.get_f64()?,
                servers: r.get_u32()?,
                episode_start: r.get_bool()?,
            },
            1 => FlightKind::LeafUncapped,
            2 => FlightKind::LeafInvalid {
                failures: r.get_u32()?,
            },
            3 => FlightKind::UpperCapped {
                contracts: r.get_u32()?,
            },
            4 => FlightKind::UpperUncapped,
            5 => FlightKind::Failover,
            6 => {
                let (from, to) = (r.get_u32()?, r.get_u32()?);
                match (Band::from_code(from), Band::from_code(to)) {
                    (Some(from), Some(to)) => FlightKind::BandTransition { from, to },
                    _ => {
                        return Err(SnapError::Corrupt(format!(
                            "unknown band code in transition {from}->{to}"
                        )))
                    }
                }
            }
            7 => FlightKind::ValidatorAlert,
            8 => FlightKind::BreakerTrip,
            9 => FlightKind::CurtailmentViolation {
                limit_watts: r.get_f64()?,
                draw_watts: r.get_f64()?,
            },
            other => {
                return Err(SnapError::Corrupt(format!(
                    "unknown flight record kind {other}"
                )))
            }
        })
    }

    fn detail_json(&self) -> String {
        match self {
            FlightKind::LeafCapped {
                cut_watts,
                servers,
                episode_start,
            } => format!(
                "{{\"cut_watts\":{cut_watts},\"servers\":{servers},\"episode_start\":{episode_start}}}"
            ),
            FlightKind::LeafInvalid { failures } => format!("{{\"failures\":{failures}}}"),
            FlightKind::UpperCapped { contracts } => format!("{{\"contracts\":{contracts}}}"),
            FlightKind::BandTransition { from, to } => format!(
                "{{\"from\":\"{}\",\"to\":\"{}\"}}",
                from.label(),
                to.label()
            ),
            FlightKind::CurtailmentViolation {
                limit_watts,
                draw_watts,
            } => format!("{{\"limit_watts\":{limit_watts},\"draw_watts\":{draw_watts}}}"),
            _ => "{}".to_string(),
        }
    }
}

/// One flight-recorder entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Simulated time, milliseconds.
    pub at_ms: u64,
    /// Controller track (leaf index, or leaf-count + upper index).
    pub track: u32,
    /// Controller's interned name.
    pub controller: Arc<str>,
    /// What happened.
    pub kind: FlightKind,
}

impl FlightRecord {
    fn to_json(&self) -> String {
        format!(
            "{{\"at_ms\":{},\"track\":{},\"controller\":\"{}\",\"kind\":\"{}\",\"detail\":{}}}",
            self.at_ms,
            self.track,
            escape_json(&self.controller),
            self.kind.label(),
            self.kind.detail_json()
        )
    }
}

impl RingRecord for FlightRecord {
    const KIND: &'static str = "dynobs.FlightRecorder";

    fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.at_ms);
        w.put_u32(self.track);
        w.put_str(&self.controller);
        self.kind.encode_snap(w);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(FlightRecord {
            at_ms: r.get_u64()?,
            track: r.get_u32()?,
            controller: r.get_str()?.into(),
            kind: FlightKind::decode_snap(r)?,
        })
    }
}

/// The flight recorder: the most recent [`FlightRecord`]s, dumped on an
/// incident trigger.
pub type FlightRecorder = Ring<FlightRecord>;

impl Ring<FlightRecord> {
    /// Renders an incident dump: the trigger, when it fired, and the
    /// ring's full contents (oldest first) as structured JSON.
    pub fn incident_json(&self, trigger: &str, at_ms: u64, seq: u64) -> String {
        let mut out = String::with_capacity(128 + self.len() * 128);
        out.push_str(&format!(
            "{{\"incident\":{seq},\"trigger\":\"{}\",\"at_ms\":{at_ms},\"records\":[",
            escape_json(trigger)
        ));
        for (i, r) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcsim::snap::Snapshot;

    fn rec(at_ms: u64, kind: FlightKind) -> FlightRecord {
        FlightRecord {
            at_ms,
            track: 1,
            controller: "leaf-1".into(),
            kind,
        }
    }

    #[test]
    fn band_codes_round_trip() {
        for b in [Band::Hold, Band::Cap, Band::Uncap, Band::Invalid] {
            assert_eq!(Band::from_code(b.code()), Some(b));
        }
        assert_eq!(Band::from_code(4), None);
    }

    #[test]
    fn curtailment_violation_round_trips_and_renders() {
        let mut fr = FlightRecorder::new(2);
        fr.push(rec(
            5000,
            FlightKind::CurtailmentViolation {
                limit_watts: 24_000.0,
                draw_watts: 25_500.0,
            },
        ));
        let bytes = fr.to_snap_bytes();
        let decoded = FlightRecorder::from_snap_bytes(&bytes).unwrap();
        assert_eq!(decoded.iter().next(), fr.iter().next());
        let json = fr.incident_json("curtailment-violation", 5000, 1);
        assert!(json.contains("\"kind\":\"curtailment_violation\""));
        assert!(json.contains("\"limit_watts\":24000"));
    }

    #[test]
    fn incident_json_shape() {
        let mut fr = FlightRecorder::new(4);
        fr.push(rec(
            9000,
            FlightKind::LeafCapped {
                cut_watts: 1250.5,
                servers: 12,
                episode_start: true,
            },
        ));
        fr.push(rec(
            12000,
            FlightKind::BandTransition {
                from: Band::Hold,
                to: Band::Cap,
            },
        ));
        let json = fr.incident_json("failover", 12000, 7);
        assert!(json.starts_with("{\"incident\":7,\"trigger\":\"failover\",\"at_ms\":12000,"));
        assert!(json.contains("\"kind\":\"leaf_capped\""));
        assert!(json.contains("\"episode_start\":true"));
        assert!(json.contains("\"from\":\"hold\",\"to\":\"cap\""));
        assert!(json.ends_with("]}"));
    }
}
