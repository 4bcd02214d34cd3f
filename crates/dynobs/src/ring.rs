//! The one fixed-capacity ring both record sinks are built on:
//! [`crate::TraceRing`] is a `Ring<SpanRecord>` and
//! [`crate::FlightRecorder`] a `Ring<FlightRecord>`. A new record type
//! costs one [`RingRecord`] impl.

use dcsim::snap::{SnapError, SnapReader, SnapWriter, Snapshot};

/// A record a [`Ring`] can hold and snapshot.
pub trait RingRecord: Clone {
    /// Snapshot section kind of a ring of these records.
    const KIND: &'static str;

    /// Writes one record.
    fn encode(&self, w: &mut SnapWriter);

    /// Reads one record written by [`RingRecord::encode`].
    fn decode(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

/// Fixed-capacity ring of the most recent records: `push` overwrites
/// the oldest once full, so steady-state recording never allocates.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Vec<T>,
    cap: usize,
    next: usize,
    total: u64,
}

impl<T: RingRecord> Ring<T> {
    /// A ring holding at most `cap` records (at least one), allocated
    /// up front.
    pub fn new(cap: usize) -> Self {
        Ring {
            buf: Vec::with_capacity(cap),
            cap: cap.max(1),
            next: 0,
            total: 0,
        }
    }

    /// Appends a record, overwriting the oldest once the ring is full.
    pub fn push(&mut self, record: T) {
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
    pub fn restore_from(&mut self, other: &Ring<T>) {
        assert_eq!(self.cap, other.cap, "{} capacity mismatch", T::KIND);
        self.buf.clone_from(&other.buf);
        self.next = other.next;
        self.total = other.total;
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// The ring's fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever pushed (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Iterates the retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

impl<T: RingRecord> Snapshot for Ring<T> {
    const KIND: &'static str = T::KIND;
    const VERSION: u32 = 1;

    fn encode_body(&self, w: &mut SnapWriter) {
        w.put_u64(self.cap as u64);
        w.put_u64(self.next as u64);
        w.put_u64(self.total);
        w.put_u64(self.buf.len() as u64);
        for record in &self.buf {
            record.encode(w);
        }
    }

    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let cap = r.get_u64()? as usize;
        let next = r.get_u64()? as usize;
        let total = r.get_count()?;
        // `cap` is the ring's logical size and, like the record count,
        // untrusted: the buffer is reserved for what the input can back
        // (`get_vec`), never for what the header claims.
        let buf = r.get_vec(T::decode)?;
        let len = buf.len();
        if cap == 0 || len > cap || next >= cap {
            return Err(SnapError::Corrupt(format!(
                "{} geometry invalid: cap {cap}, len {len}, next {next}",
                T::KIND
            )));
        }
        Ok(Ring {
            buf,
            cap,
            next,
            total,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Debug;

    use super::*;
    use crate::{FlightKind, FlightRecord, SpanKind, SpanRecord};

    fn span(stamp: u64) -> SpanRecord {
        SpanRecord {
            kind: SpanKind::LeafCycle,
            track: 3,
            start_us: stamp,
            dur_us: 10,
            name: "leaf-3".into(),
        }
    }

    fn flight(stamp: u64) -> FlightRecord {
        FlightRecord {
            at_ms: stamp,
            track: 1,
            controller: "leaf-1".into(),
            kind: FlightKind::LeafInvalid { failures: 2 },
        }
    }

    /// A ring section whose body is the four header words and then
    /// whatever `tail` writes.
    fn section<T: RingRecord>(
        [cap, next, count]: [u64; 3],
        tail: impl FnOnce(&mut SnapWriter),
    ) -> Vec<u8> {
        let mut body = SnapWriter::new();
        for header in [cap, next, 0, count] {
            body.put_u64(header);
        }
        tail(&mut body);
        let body = body.into_bytes();
        let mut w = SnapWriter::new();
        w.put_u32(dcsim::snap::SECTION_MAGIC);
        w.put_str(Ring::<T>::KIND);
        w.put_u32(Ring::<T>::VERSION);
        w.put_u64(body.len() as u64);
        w.put_raw(&body);
        w.into_bytes()
    }

    /// Everything a ring promises, for records made by `make(stamp)`.
    fn suite<T: RingRecord + PartialEq + Debug>(make: fn(u64) -> T) {
        const CAP: usize = 5;
        // Drop-oldest order and the true count, and a snapshot round
        // trip, at every fill level from empty to wrapped twice.
        let mut ring = Ring::<T>::new(CAP);
        assert!(ring.is_empty());
        for pushed in 0..=2 * CAP as u64 + 1 {
            let held = (pushed as usize).min(CAP);
            assert_eq!((ring.len(), ring.capacity()), (held, CAP));
            assert_eq!(ring.total_recorded(), pushed);
            let oldest = pushed - held as u64;
            assert!(ring
                .iter()
                .eq((oldest..pushed).map(make).collect::<Vec<_>>().iter()));

            let decoded = Ring::<T>::from_snap_bytes(&ring.to_snap_bytes()).unwrap();
            assert!(decoded.iter().eq(ring.iter()));
            assert_eq!(decoded.total_recorded(), pushed);
            assert_eq!(decoded.to_snap_bytes(), ring.to_snap_bytes());
            ring.push(make(pushed));
        }

        // A decoded ring is input-sized; `restore_from` fills the
        // restored ring's own up-front buffer.
        let mut source = Ring::<T>::new(64);
        (0..5).for_each(|t| source.push(make(t)));
        let decoded = Ring::<T>::from_snap_bytes(&source.to_snap_bytes()).unwrap();
        assert!(decoded.buf.capacity() < 64);
        let mut restored = Ring::<T>::new(64);
        restored.restore_from(&decoded);
        assert!(restored.buf.capacity() >= 64);
        assert_eq!(restored.total_recorded(), 5);
        assert!(restored.iter().eq(source.iter()));

        // Forged geometry is a typed error. With `cap` and the count
        // both promising the moon and the body ending three bytes into
        // the first record, that error is the truncation: nothing was
        // reserved for the claim.
        let truncated = section::<T>([u64::MAX, 0, u64::MAX], |w| w.put_raw(&[0, 1, 2]));
        assert!(matches!(
            Ring::<T>::from_snap_bytes(&truncated),
            Err(SnapError::UnexpectedEof { .. })
        ));
        for (geometry, ok) in [
            ([2, 1, 2], true),
            ([0, 0, 0], false), // cap == 0
            ([1, 0, 2], false), // len > cap
            ([2, 2, 2], false), // next >= cap
        ] {
            let records = |w: &mut SnapWriter| (0..geometry[2]).for_each(|t| make(t).encode(w));
            match Ring::<T>::from_snap_bytes(&section::<T>(geometry, records)) {
                Ok(_) => assert!(ok, "{geometry:?} was accepted"),
                Err(e) => assert!(
                    !ok && matches!(e, SnapError::Corrupt(_)),
                    "{geometry:?}: {e}"
                ),
            }
        }
    }

    #[test]
    fn span_ring() {
        suite(span);
    }

    #[test]
    fn flight_ring() {
        suite(flight);
    }
}
