//! The one fixed-capacity ring both record sinks are built on:
//! [`crate::TraceRing`] is a `Ring<SpanRecord>` and
//! [`crate::FlightRecorder`] a `Ring<FlightRecord>`. A new record type
//! costs one [`RingRecord`] impl.

use dcsim::snap::{ConfigDigest, SnapError, SnapReader, SnapWriter};

/// A record a [`Ring`] can hold and save.
///
/// A record holds no name: its kind and track say what recorded it,
/// and the ring's owner looks the name up when it renders text.
pub trait RingRecord: Clone {
    /// What a ring of these records is called in a refusal.
    const NAME: &'static str;

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

    /// Folds the ring's configuration, its capacity, into its
    /// section's digest.
    pub fn fold_config(&self, d: &mut ConfigDigest) {
        d.put_u64(self.cap as u64);
    }

    /// Writes the ring: where the next record goes, the total ever
    /// pushed, and the records it holds. The capacity is configuration
    /// ([`Ring::fold_config`]).
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.next as u64);
        w.put_u64(self.total);
        w.put_u64(self.buf.len() as u64);
        for record in &self.buf {
            record.encode(w);
        }
    }

    /// Loads what [`Ring::save`] wrote into this ring's own buffer, so
    /// pushes after a resume stay off the heap. The header must be one that
    /// pushes into a ring of this capacity write — `next` the total
    /// modulo the capacity, as many records as the total up to the
    /// capacity — or the ring is refused before a record is read: any
    /// other `next` would have the ring, once full, overwrite a record
    /// that is not the oldest.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let (next, total, len) = (r.get_u64()?, r.get_count()?, r.get_u64()?);
        let cap = self.cap as u64;
        if next != total % cap || len != total.min(cap) {
            return Err(SnapError::Corrupt(format!(
                "{} geometry invalid: cap {cap}, len {len}, next {next}, total {total}",
                T::NAME
            )));
        }
        self.buf.clear();
        for _ in 0..len {
            self.buf.push(T::decode(r)?);
        }
        self.next = next as usize;
        self.total = total;
        Ok(())
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
        }
    }

    fn flight(stamp: u64) -> FlightRecord {
        FlightRecord {
            at_ms: stamp,
            track: 3,
            kind: FlightKind::LeafInvalid { failures: 2 },
        }
    }

    /// A ring's bytes: the three header words and then whatever `tail`
    /// writes.
    fn saved(header: [u64; 3], tail: impl FnOnce(&mut SnapWriter)) -> Vec<u8> {
        let mut w = SnapWriter::new();
        header.into_iter().for_each(|word| w.put_u64(word));
        tail(&mut w);
        w.into_bytes()
    }

    /// `bytes` loaded into `ring`, every byte read.
    fn load<T: RingRecord>(ring: &mut Ring<T>, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        ring.load(&mut r)?;
        r.finish(T::NAME)
    }

    fn bytes_of<T: RingRecord>(ring: &Ring<T>) -> Vec<u8> {
        let mut w = SnapWriter::new();
        ring.save(&mut w);
        w.into_bytes()
    }

    /// Everything a ring promises, for records made by `make(stamp)`,
    /// in `record_bytes` bytes.
    fn suite<T>(make: fn(u64) -> T, record_bytes: usize)
    where
        T: RingRecord + PartialEq + Debug,
    {
        const CAP: usize = 5;
        // Drop-oldest order and the true count, and a save -> load ->
        // save round trip, at every fill level from empty to wrapped
        // twice.
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

            let mut loaded = Ring::<T>::new(CAP);
            let bytes = bytes_of(&ring);
            assert_eq!(
                bytes.len(),
                24 + held * record_bytes,
                "no record saves a name"
            );
            load(&mut loaded, &bytes).unwrap();
            assert!(loaded.iter().eq(ring.iter()));
            assert_eq!(loaded.total_recorded(), pushed);
            assert_eq!(bytes_of(&loaded), bytes);
            ring.push(make(pushed));
        }

        // A ring loads into its own up-front buffer, and holds what the
        // ring that saved it held, whatever it held before.
        let mut source = Ring::<T>::new(64);
        (0..5).for_each(|t| source.push(make(t)));
        let mut loaded = Ring::<T>::new(64);
        (0..70).for_each(|t| loaded.push(make(t)));
        load(&mut loaded, &bytes_of(&source)).unwrap();
        assert!(loaded.buf.capacity() >= 64);
        assert_eq!(loaded.total_recorded(), 5);
        assert!(loaded.iter().eq(source.iter()));

        // A body that ends three bytes into the first record is a
        // truncation.
        let truncated = saved([0, CAP as u64, CAP as u64], |w| w.put_raw(&[0, 1, 2]));
        assert!(matches!(
            load(&mut Ring::<T>::new(CAP), &truncated),
            Err(SnapError::UnexpectedEof { .. })
        ));
        // A header pushes never write is a typed error: `[cap, next,
        // total, count]`, `cap` the capacity of the ring it loads into.
        for (header, ok) in [
            ([2, 1, 3, 2], true),
            ([1, 0, 0, 2], false), // len > cap
            ([2, 2, 2, 2], false), // next >= cap
            ([5, 1, 3, 3], false), // next is not total % cap
            ([5, 3, 3, 2], false), // len is not min(total, cap)
            ([5, 0, 10, 5], true), // wrapped twice
        ] {
            let records = |w: &mut SnapWriter| (0..header[3]).for_each(|t| make(t).encode(w));
            let mut ring = Ring::<T>::new(header[0] as usize);
            let bytes = saved([header[1], header[2], header[3]], records);
            match load(&mut ring, &bytes) {
                Ok(()) => assert!(ok, "{header:?} was accepted"),
                Err(e) => assert!(!ok && matches!(e, SnapError::Corrupt(_)), "{header:?}: {e}"),
            }
        }

        // Another capacity is another configuration.
        let mut w = SnapWriter::new();
        w.put_config(|d| ring.fold_config(d));
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.config(T::NAME, |d| Ring::<T>::new(CAP + 1).fold_config(d))
            .unwrap();
        assert!(
            matches!(r.finish(T::NAME), Err(SnapError::Corrupt(m)) if m.contains("configuration"))
        );
    }

    #[test]
    fn span_ring() {
        suite(span, 21);
    }

    #[test]
    fn flight_ring() {
        suite(flight, 17);
    }
}
