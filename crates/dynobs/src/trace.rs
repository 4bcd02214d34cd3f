//! Cycle tracing: lightweight spans in a bounded ring buffer,
//! exportable as chrome-tracing JSON (load in `chrome://tracing` or
//! Perfetto).

use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter};

use crate::export::escape_json;
use crate::ring::{Ring, RingRecord};

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One full leaf-controller cycle.
    LeafCycle,
    /// The RPC pull phase of a leaf cycle.
    RpcPull,
    /// Power-cut distribution (bucket walk) inside a capping decision.
    Distribution,
    /// Actuation (issuing cap/uncap commands to agents).
    Actuation,
    /// One upper-controller (SB/MSB) cycle.
    UpperCycle,
    /// A skipped cycle due to primary failover.
    Failover,
}

impl SpanKind {
    fn code(self) -> u8 {
        match self {
            SpanKind::LeafCycle => 0,
            SpanKind::RpcPull => 1,
            SpanKind::Distribution => 2,
            SpanKind::Actuation => 3,
            SpanKind::UpperCycle => 4,
            SpanKind::Failover => 5,
        }
    }

    fn from_snap_code(code: u8) -> Result<Self, SnapError> {
        Ok(match code {
            0 => SpanKind::LeafCycle,
            1 => SpanKind::RpcPull,
            2 => SpanKind::Distribution,
            3 => SpanKind::Actuation,
            4 => SpanKind::UpperCycle,
            5 => SpanKind::Failover,
            other => return Err(SnapError::Corrupt(format!("unknown span kind {other}"))),
        })
    }

    /// Stable label used in trace exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::LeafCycle => "leaf_cycle",
            SpanKind::RpcPull => "rpc_pull",
            SpanKind::Distribution => "distribution",
            SpanKind::Actuation => "actuation",
            SpanKind::UpperCycle => "upper_cycle",
            SpanKind::Failover => "failover",
        }
    }
}

/// One completed span, stamped with simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// What was measured.
    pub kind: SpanKind,
    /// Trace track (leaf index, or leaf-count + upper index).
    pub track: u32,
    /// Start, microseconds of simulated time.
    pub start_us: u64,
    /// Duration, microseconds of simulated time.
    pub dur_us: u64,
    /// Owning controller's interned name.
    pub name: Arc<str>,
}

impl RingRecord for SpanRecord {
    const KIND: &'static str = "dynobs.TraceRing";

    fn encode(&self, w: &mut SnapWriter) {
        w.put_u8(self.kind.code());
        w.put_u32(self.track);
        w.put_u64(self.start_us);
        w.put_u64(self.dur_us);
        w.put_str(&self.name);
    }

    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(SpanRecord {
            kind: SpanKind::from_snap_code(r.get_u8()?)?,
            track: r.get_u32()?,
            start_us: r.get_u64()?,
            dur_us: r.get_u64()?,
            name: r.get_str()?.into(),
        })
    }
}

/// The span ring: the most recent [`SpanRecord`]s, for trace export.
pub type TraceRing = Ring<SpanRecord>;

impl Ring<SpanRecord> {
    /// Renders the retained spans as chrome-tracing JSON
    /// (`traceEvents` array of complete `"ph":"X"` events; `ts`/`dur`
    /// are microseconds of simulated time, `tid` is the controller
    /// track).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"dynamo\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{\"controller\":\"{}\"}}}}",
                s.kind.label(),
                s.start_us,
                s.dur_us,
                s.track,
                escape_json(&s.name)
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start_us: u64) -> SpanRecord {
        SpanRecord {
            kind,
            track: 3,
            start_us,
            dur_us: 10,
            name: "leaf-3".into(),
        }
    }

    #[test]
    fn chrome_json_shape() {
        let mut ring = TraceRing::new(4);
        ring.push(span(SpanKind::RpcPull, 1000));
        let json = ring.to_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"name\":\"rpc_pull\""));
        assert!(json.contains("\"ts\":1000"));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"controller\":\"leaf-3\""));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn empty_ring_renders_empty_array() {
        let ring = TraceRing::new(2);
        assert!(ring.is_empty());
        assert_eq!(
            ring.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }
}
