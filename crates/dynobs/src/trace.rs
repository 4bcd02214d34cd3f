//! Cycle tracing: lightweight spans in a bounded ring buffer,
//! exportable as chrome-tracing JSON (load in `chrome://tracing` or
//! Perfetto).

use std::sync::Arc;

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

use crate::export::escape_json;

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

/// Fixed-capacity span ring: `push` overwrites the oldest record once
/// full, so steady-state tracing never allocates.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<SpanRecord>,
    cap: usize,
    next: usize,
    total: u64,
}

impl TraceRing {
    /// A ring holding at most `cap` spans. Capacity is allocated up
    /// front.
    pub fn new(cap: usize) -> Self {
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap: cap.max(1),
            next: 0,
            total: 0,
        }
    }

    /// Appends a span, overwriting the oldest once the ring is full.
    pub fn push(&mut self, record: SpanRecord) {
        if self.buf.len() < self.cap {
            self.buf.push(record);
        } else {
            self.buf[self.next] = record;
        }
        self.next = (self.next + 1) % self.cap;
        self.total += 1;
    }

    /// Overwrites this ring's contents with `other`'s, into this ring's
    /// own buffer: a ring restored from a decoded snapshot keeps its
    /// up-front allocation (a decoded ring's buffer is only as large as
    /// what it holds), so pushes after a resume stay off the heap.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn restore_from(&mut self, other: &TraceRing) {
        assert_eq!(self.cap, other.cap, "trace ring capacity mismatch");
        self.buf.clone_from(&other.buf);
        self.next = other.next;
        self.total = other.total;
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// True if no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total spans ever pushed (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Iterates the retained spans, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanRecord> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }

    /// Renders the retained spans as chrome-tracing JSON
    /// (`traceEvents` array of complete `"ph":"X"` events; `ts`/`dur`
    /// are microseconds of simulated time, `tid` is the controller
    /// track).
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.buf.len() * 128);
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

impl Snapshot for TraceRing {
    const KIND: &'static str = "dynobs.TraceRing";
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.cap as u64);
        w.put_u64(self.next as u64);
        w.put_u64(self.total);
        w.put_u64(self.buf.len() as u64);
        for s in &self.buf {
            w.put_u8(s.kind.code());
            w.put_u32(s.track);
            w.put_u64(s.start_us);
            w.put_u64(s.dur_us);
            w.put_str(&s.name);
        }
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cap = r.get_u64()? as usize;
        let next = r.get_u64()? as usize;
        let total = r.get_u64()?;
        // `cap` is the ring's logical size and, like the record count,
        // untrusted: the buffer is reserved for what the input can back
        // (`get_vec`), never for what the header claims.
        let buf = r.get_vec(|r| {
            let kind = SpanKind::from_snap_code(r.get_u8()?)?;
            Ok(SpanRecord {
                kind,
                track: r.get_u32()?,
                start_us: r.get_u64()?,
                dur_us: r.get_u64()?,
                name: r.get_str()?.into(),
            })
        })?;
        let len = buf.len();
        if cap == 0 || len > cap || next >= cap {
            return Err(SnapError::Corrupt(format!(
                "trace ring geometry invalid: cap {cap}, len {len}, next {next}"
            )));
        }
        Ok(TraceRing {
            buf,
            cap,
            next,
            total,
        })
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
    fn ring_overwrites_oldest_and_iterates_in_order() {
        let mut ring = TraceRing::new(3);
        for t in 0..5 {
            ring.push(span(SpanKind::LeafCycle, t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_recorded(), 5);
        let starts: Vec<u64> = ring.iter().map(|s| s.start_us).collect();
        assert_eq!(starts, vec![2, 3, 4]);
    }

    /// A ring section whose body is `cap, next, total, count` and then
    /// whatever `tail` writes.
    fn section(cap: u64, count: u64, tail: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut body = SnapWriter::new();
        body.put_u64(cap);
        body.put_u64(0);
        body.put_u64(0);
        body.put_u64(count);
        tail(&mut body);
        let body = body.into_bytes();
        let mut w = SnapWriter::new();
        w.put_u32(dcsim::snap::SECTION_MAGIC);
        w.put_str(TraceRing::KIND);
        w.put_u32(TraceRing::VERSION);
        w.put_u64(body.len() as u64);
        w.put_raw(&body);
        w.into_bytes()
    }

    #[test]
    fn forged_capacity_is_a_typed_error_not_an_allocation() {
        // Both header fields promise the moon; the body ends three
        // bytes into the first record.
        let truncated = section(u64::MAX, u64::MAX, |w| w.put_raw(&[0, 1, 2]));
        assert!(matches!(
            TraceRing::from_snap_bytes(&truncated),
            Err(SnapError::UnexpectedEof { .. })
        ));
        // A complete body still has to respect its own geometry.
        let overfull = section(1, 2, |w| {
            for s in [span(SpanKind::LeafCycle, 1), span(SpanKind::RpcPull, 2)] {
                w.put_u8(s.kind.code());
                w.put_u32(s.track);
                w.put_u64(s.start_us);
                w.put_u64(s.dur_us);
                w.put_str(&s.name);
            }
        });
        assert!(matches!(
            TraceRing::from_snap_bytes(&overfull),
            Err(SnapError::Corrupt(_))
        ));
    }

    #[test]
    fn restore_from_keeps_the_up_front_allocation() {
        let mut source = TraceRing::new(64);
        for t in 0..5 {
            source.push(span(SpanKind::LeafCycle, t));
        }
        let decoded = TraceRing::from_snap_bytes(&source.to_snap_bytes()).unwrap();
        assert!(decoded.buf.capacity() < 64, "a decoded ring is input-sized");
        let mut ring = TraceRing::new(64);
        ring.restore_from(&decoded);
        assert!(ring.buf.capacity() >= 64);
        assert_eq!(ring.total_recorded(), 5);
        assert!(ring.iter().eq(source.iter()));
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
