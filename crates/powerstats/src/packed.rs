//! A regularly-sampled series kept XOR-packed in memory.

use dcsim::snap::{SnapError, SnapReader, SnapWriter};
use dcsim::{SimDuration, SimTime};

use crate::trace::Trace;

/// Bits per storage block: 512 bytes.
const BLOCK_BITS: usize = 4096;

/// Words per storage block.
const BLOCK_WORDS: usize = BLOCK_BITS / 64;

/// One storage block, most significant bit first in each word.
type Block = [u64; BLOCK_WORDS];

/// A [`Trace`] kept in the XOR-with-predecessor encoding of Facebook's
/// Gorilla store (Pelkonen et al., VLDB 2015): a series that grows one
/// sample at a time and is read whole, decoded into a `Trace`.
///
/// The first value is stored raw. Each later one stores its XOR with
/// the value before it: a `0` bit for a repeat; otherwise a `1`, then
/// a `0` and the XOR's meaningful bits if they fit inside the previous
/// XOR's window of leading and trailing zeros, or a `1`, five bits of
/// leading zeros, six of meaningful length and the meaningful bits.
/// Every `f64` round-trips bit for bit, NaN payloads and signed zeros
/// included. The bits live in fixed 512-byte blocks, so a series never
/// holds more than one block it has not begun to fill.
///
/// # Example
///
/// ```
/// use dcsim::SimDuration;
/// use powerstats::PackedTrace;
///
/// let mut p = PackedTrace::empty(SimDuration::from_secs(3));
/// for v in [100.0, 100.0, 100.0, 130.0] {
///     p.push(v);
/// }
/// assert_eq!(p.decode().values(), &[100.0, 100.0, 100.0, 130.0]);
/// assert!(p.encoded_bits() < 4 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct PackedTrace {
    interval: SimDuration,
    start: SimTime,
    len: usize,
    /// Bits written so far.
    bits: usize,
    /// Each block its own allocation: a `Vec<Block>` would double, and
    /// copy, all the bits as it grew.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<Block>>,
    /// The encoder's state: what the bits decode to at their end.
    window: Window,
}

/// The state a sample is encoded and decoded against: the raw bits of
/// the sample before it, and the leading-zero count and meaningful
/// length of the last XOR written with its window (length 0 before the
/// first).
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    last: u64,
    lead: u32,
    sig: u32,
}

impl PackedTrace {
    /// Creates an empty series that will be filled with
    /// [`PackedTrace::push`].
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn empty(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "trace interval must be positive");
        PackedTrace {
            interval,
            start: SimTime::ZERO,
            len: 0,
            bits: 0,
            blocks: Vec::new(),
            window: Window::default(),
        }
    }

    /// Sets the timestamp of the first sample (default
    /// [`SimTime::ZERO`]).
    pub fn with_start(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Appends a sample.
    pub fn push(&mut self, value: f64) {
        let v = value.to_bits();
        let Window { last, lead, sig } = self.window;
        if self.len == 0 {
            self.put(v, 64);
        } else {
            let xor = v ^ last;
            if xor == 0 {
                self.put(0, 1);
            } else {
                // Five bits hold at most 31 leading zeros; a longer run
                // is stored as meaningful zeros.
                let new_lead = xor.leading_zeros().min(31);
                let trail = xor.trailing_zeros();
                if sig != 0 && new_lead >= lead && trail >= 64 - lead - sig {
                    self.put(0b10, 2);
                    self.put(xor >> (64 - lead - sig), sig);
                } else {
                    let new_sig = 64 - new_lead - trail;
                    // A length of 64 is stored as 0: no XOR written
                    // here is zero, so no length is.
                    let head = 0b11 << 11 | u64::from(new_lead) << 6 | u64::from(new_sig & 63);
                    self.put(head, 13);
                    self.put(xor >> trail, new_sig);
                    (self.window.lead, self.window.sig) = (new_lead, new_sig);
                }
            }
        }
        self.window.last = v;
        self.len += 1;
    }

    /// Appends the low `n` bits of `v` (`n` ≤ 64), most significant
    /// first.
    fn put(&mut self, v: u64, n: u32) {
        debug_assert!(n == 64 || v >> n == 0, "{v:#x} is wider than {n} bits");
        let mut n = n as usize;
        while n > 0 {
            if self.bits == self.blocks.len() * BLOCK_BITS {
                self.blocks.push(Box::new([0; BLOCK_BITS / 64]));
            }
            let at = self.bits % BLOCK_BITS;
            let free = 64 - at % 64;
            let take = n.min(free);
            // The top `take` of the `n` bits left, at the word's next
            // free bits.
            let chunk = (v >> (n - take)) & (u64::MAX >> (64 - take));
            self.blocks[self.bits / BLOCK_BITS][at / 64] |= chunk << (free - take);
            self.bits += take;
            n -= take;
        }
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Timestamp of the first sample.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bits the samples are encoded in (the blocks holding them round
    /// up to 512 bytes).
    pub fn encoded_bits(&self) -> usize {
        self.bits
    }

    /// The samples in order, decoded one at a time.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        let mut bits = self.bits_reader();
        let mut window = Window::default();
        // Every series this type holds decodes to its count, so the
        // walk never ends early.
        (0..self.len).map_while(move |i| window.next(&mut bits, i == 0).map(f64::from_bits))
    }

    /// A read position at the first of this series' bits.
    fn bits_reader(&self) -> Bits<'_> {
        Bits {
            blocks: &self.blocks,
            at: 0,
            end: self.bits,
        }
    }

    /// The series as a [`Trace`] whose buffer holds exactly its samples.
    pub fn decode(&self) -> Trace {
        let mut values = Vec::with_capacity(self.len);
        values.extend(self.values());
        Trace::new(self.interval, values).with_start(self.start)
    }

    /// Writes the series as it is held: its start, its sample count, its
    /// bit count and the words that hold those bits. The encoder's state
    /// is what the bits decode to, and the interval is configuration.
    pub fn save(&self, w: &mut SnapWriter) {
        w.put_u64(self.start.as_millis());
        w.put_u64(self.len as u64);
        w.put_u64(self.bits as u64);
        let words = self.blocks.iter().flat_map(|b| b.iter());
        words
            .take(self.bits.div_ceil(64))
            .for_each(|&word| w.put_u64(word));
    }

    /// Loads what [`PackedTrace::save`] wrote into this series, which
    /// keeps its interval. The words must fit in the input that is left
    /// before a block is taken for them, and they must decode to
    /// exactly the stored count of samples in exactly the stored bits,
    /// with no bit set past them, or the series is refused: a later
    /// decode would stop short, and a later push would write over set
    /// bits.
    pub fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let start = SimTime::from_millis(r.get_u64()?);
        let (len, bits) = (r.get_u64()?, r.get_u64()?);
        let words = bits.div_ceil(64);
        if words > (r.remaining() / 8) as u64 {
            return Err(SnapError::UnexpectedEof {
                context: "packed series",
            });
        }
        let (words, bits) = (words as usize, bits as usize);
        let mut blocks = Vec::with_capacity(words.div_ceil(BLOCK_WORDS));
        let mut last = 0;
        for first in (0..words).step_by(BLOCK_WORDS) {
            let mut block = Box::new([0; BLOCK_WORDS]);
            for word in block.iter_mut().take(words - first) {
                *word = r.get_u64()?;
                last = *word;
            }
            blocks.push(block);
        }
        let refuse = |what: String| {
            SnapError::Corrupt(format!(
                "packed series of {len} samples in {bits} bits {what}"
            ))
        };
        if bits % 64 != 0 && last << (bits % 64) != 0 {
            return Err(refuse("sets bits past its end".into()));
        }
        let mut reader = Bits {
            blocks: &blocks,
            at: 0,
            end: bits,
        };
        let mut window = Window::default();
        let mut decoded = 0u64;
        while decoded < len && window.next(&mut reader, decoded == 0).is_some() {
            decoded += 1;
        }
        if decoded < len {
            return Err(refuse(format!("decodes only {decoded}")));
        }
        if reader.at != bits {
            return Err(refuse(format!(
                "leaves {} bits undecoded",
                bits - reader.at
            )));
        }
        *self = PackedTrace {
            interval: self.interval,
            start,
            len: len as usize,
            bits,
            blocks,
            window,
        };
        Ok(())
    }
}

impl Window {
    /// Decodes the next sample's raw bits from `bits` (the series'
    /// first if `first`), moving the window as the encoder did. `None`
    /// if the bits end first, or hold a window no sample is encoded in.
    fn next(&mut self, bits: &mut Bits<'_>, first: bool) -> Option<u64> {
        if first {
            self.last = bits.get(64)?;
        } else if bits.get(1)? == 1 {
            if bits.get(1)? == 1 {
                let head = bits.get(11)?;
                self.lead = (head >> 6) as u32;
                self.sig = match (head & 63) as u32 {
                    0 => 64,
                    n => n,
                };
            }
            // The encoder reuses a window only once it has one, and
            // writes none wider than the word.
            if self.sig == 0 || self.lead + self.sig > 64 {
                return None;
            }
            self.last ^= bits.get(self.sig)? << (64 - self.lead - self.sig);
        }
        Some(self.last)
    }
}

/// A read position in a [`PackedTrace`]'s blocks, up to its last bit.
struct Bits<'a> {
    blocks: &'a [Box<Block>],
    at: usize,
    end: usize,
}

impl Bits<'_> {
    /// Reads the next `n` bits (`n` ≤ 64), most significant first;
    /// `None` if fewer are left.
    fn get(&mut self, n: u32) -> Option<u64> {
        let mut n = n as usize;
        if self.end - self.at < n {
            return None;
        }
        let mut out = 0u64;
        while n > 0 {
            let word = self.blocks[self.at / BLOCK_BITS][self.at % BLOCK_BITS / 64];
            let free = 64 - self.at % 64;
            let take = n.min(free);
            let chunk = (word >> (free - take)) & (u64::MAX >> (64 - take));
            // `take` is 64 only when `out` is still empty.
            out = if take == 64 {
                chunk
            } else {
                out << take | chunk
            };
            self.at += take;
            n -= take;
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed(values: &[f64]) -> PackedTrace {
        let mut p = PackedTrace::empty(SimDuration::from_secs(3));
        for &v in values {
            p.push(v);
        }
        p
    }

    fn bits(values: impl IntoIterator<Item = f64>) -> Vec<u64> {
        values.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn repeats_cost_one_bit_each() {
        let p = packed(&[250.0; 1000]);
        assert_eq!(p.encoded_bits(), 64 + 999);
        assert_eq!(p.blocks.len(), 1);
        assert_eq!(bits(p.values()), bits([250.0; 1000]));
    }

    #[test]
    fn a_change_inside_the_last_window_reuses_it() {
        // 1.0 ^ 1.5 and 1.5 ^ 1.0 set the same single bit: the second
        // XOR is written in the first one's window.
        let p = packed(&[1.0, 1.5, 1.0]);
        assert_eq!(p.encoded_bits(), 64 + (2 + 11 + 1) + (2 + 1));
        assert_eq!(bits(p.values()), bits([1.0, 1.5, 1.0]));
    }

    #[test]
    fn decode_keeps_start_interval_and_exact_capacity() {
        let p = packed(&[1.0, 2.0, 3.0]).with_start(SimTime::from_secs(6));
        let t = p.decode();
        assert_eq!((t.start(), t.interval()), (p.start(), p.interval()));
        assert_eq!(t.values(), &[1.0, 2.0, 3.0]);
        let empty = PackedTrace::empty(SimDuration::from_secs(3));
        assert!(empty.is_empty() && empty.decode().is_empty());
        assert_eq!(empty.encoded_bits(), 0);
    }

    #[test]
    fn blocks_fill_before_another_is_taken() {
        // Alternating values whose XOR has every bit meaningful: 66
        // bits each after the first 77, so words and blocks are crossed
        // mid-value.
        let a = f64::from_bits(0x8000_0000_0000_0001);
        let b = f64::from_bits(0x7fff_ffff_ffff_fffe);
        let values: Vec<f64> = (0..200).map(|i| if i % 2 == 0 { a } else { b }).collect();
        let p = packed(&values);
        assert_eq!(p.blocks.len(), p.encoded_bits().div_ceil(BLOCK_BITS));
        assert_eq!(bits(p.values()), bits(values));
    }

    fn saved(p: &PackedTrace) -> Vec<u8> {
        let mut w = SnapWriter::new();
        p.save(&mut w);
        w.into_bytes()
    }

    /// `bytes` loaded into an empty series, every byte read.
    fn load(bytes: &[u8]) -> Result<PackedTrace, SnapError> {
        let mut p = PackedTrace::empty(SimDuration::from_secs(3));
        let mut r = SnapReader::new(bytes);
        p.load(&mut r)?;
        r.finish("series").map(|()| p)
    }

    /// A series goes on the wire as held, in the words its bits fill,
    /// and comes back encoding the next push as the original does.
    #[test]
    fn the_wire_is_the_packed_words_and_a_load_pushes_on_alike() {
        let a = f64::from_bits(0x8000_0000_0000_0001);
        let values: Vec<f64> = (0..150)
            .map(|i| match i % 5 {
                0 | 1 => 250.0,
                2 => a,
                _ => i as f64,
            })
            .collect();
        for n in [0, 1, 2, 70, 150] {
            let mut p = packed(&values[..n]).with_start(SimTime::from_secs(9));
            let bytes = saved(&p);
            assert_eq!(bytes.len(), 24 + 8 * p.encoded_bits().div_ceil(64), "{n}");
            let mut back = load(&bytes).unwrap();
            assert_eq!((back.start(), back.len()), (p.start(), n));
            assert_eq!(bits(back.values()), bits(values[..n].iter().copied()));
            for v in [250.0, 250.0, a, -0.0] {
                p.push(v);
                back.push(v);
            }
            assert_eq!(saved(&back), saved(&p), "{n}");
        }
    }

    /// A series whose bits decode to fewer samples than its count, or
    /// leave bits over once the count is decoded, or set a bit past
    /// their end, or hold a window the encoder never writes, is refused;
    /// so is one whose words the input cannot hold, before a block is
    /// taken.
    #[test]
    fn a_series_that_does_not_decode_to_its_count_is_refused() {
        let p = packed(&[1.0, 1.5, 1.0, 1.0, 7.0]);
        let honest = saved(&p);
        let with = |len: u64, bits: u64, words: &[u64]| {
            let mut w = SnapWriter::new();
            [0, len, bits]
                .into_iter()
                .chain(words.iter().copied())
                .for_each(|x| w.put_u64(x));
            w.into_bytes()
        };
        let words: Vec<u64> = honest[24..]
            .chunks(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let (len, bits) = (p.len() as u64, p.encoded_bits() as u64);
        assert!(load(&with(len, bits, &words)).is_ok());
        let refused = |bytes: Vec<u8>, what: &str| match load(&bytes) {
            Err(SnapError::Corrupt(m)) => assert!(m.contains(what), "{m}"),
            other => panic!("expected a refusal naming {what:?}, got {other:?}"),
        };
        refused(with(len + 1, bits, &words), "decodes only 5");
        refused(with(len - 1, bits, &words), "bits undecoded");
        let mut padded = words.clone();
        *padded.last_mut().unwrap() |= 1;
        refused(with(len, bits, &padded), "sets bits past its end");
        // "10" before any "11": a window reused before one was written.
        refused(with(2, 66, &[0, 0b10 << 62]), "decodes only 1");
        // "11", 31 leading zeros and a length of 64: wider than a word.
        refused(
            with(2, 141, &[0, 0b11 << 62 | 31 << 57, 0]),
            "decodes only 1",
        );
        assert!(matches!(
            load(&with(1 << 40, 1 << 46, &words)),
            Err(SnapError::UnexpectedEof { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        PackedTrace::empty(SimDuration::ZERO);
    }
}
