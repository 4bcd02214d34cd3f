//! A regularly-sampled series kept XOR-packed in memory.

use dcsim::{SimDuration, SimTime};

use crate::trace::Trace;

/// Bits per storage block: 512 bytes.
const BLOCK_BITS: usize = 4096;

/// One storage block, most significant bit first in each word.
type Block = [u64; BLOCK_BITS / 64];

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
    /// The raw bits of the last value pushed.
    last: u64,
    /// The leading-zero count and meaningful length of the last XOR
    /// written with its window; length 0 before the first.
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
            last: 0,
            lead: 0,
            sig: 0,
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
        if self.len == 0 {
            self.put(v, 64);
        } else {
            let xor = v ^ self.last;
            if xor == 0 {
                self.put(0, 1);
            } else {
                // Five bits hold at most 31 leading zeros; a longer run
                // is stored as meaningful zeros.
                let lead = xor.leading_zeros().min(31);
                let trail = xor.trailing_zeros();
                if self.sig != 0 && lead >= self.lead && trail >= 64 - self.lead - self.sig {
                    self.put(0b10, 2);
                    self.put(xor >> (64 - self.lead - self.sig), self.sig);
                } else {
                    let sig = 64 - lead - trail;
                    // A length of 64 is stored as 0: no XOR written
                    // here is zero, so no length is.
                    self.put(0b11 << 11 | u64::from(lead) << 6 | u64::from(sig & 63), 13);
                    self.put(xor >> trail, sig);
                    (self.lead, self.sig) = (lead, sig);
                }
            }
        }
        self.last = v;
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
        let mut bits = Bits {
            blocks: &self.blocks,
            at: 0,
        };
        let (mut last, mut lead, mut sig) = (0u64, 0u32, 0u32);
        (0..self.len).map(move |i| {
            if i == 0 {
                last = bits.get(64);
            } else if bits.get(1) == 1 {
                if bits.get(1) == 1 {
                    let head = bits.get(11);
                    lead = (head >> 6) as u32;
                    sig = match (head & 63) as u32 {
                        0 => 64,
                        n => n,
                    };
                }
                last ^= bits.get(sig) << (64 - lead - sig);
            }
            f64::from_bits(last)
        })
    }

    /// The series as a [`Trace`] whose buffer holds exactly its samples.
    pub fn decode(&self) -> Trace {
        let mut values = Vec::with_capacity(self.len);
        values.extend(self.values());
        Trace::new(self.interval, values).with_start(self.start)
    }
}

/// A read position in a [`PackedTrace`]'s blocks.
struct Bits<'a> {
    blocks: &'a [Box<Block>],
    at: usize,
}

impl Bits<'_> {
    /// Reads the next `n` bits (`n` ≤ 64), most significant first.
    fn get(&mut self, n: u32) -> u64 {
        let mut n = n as usize;
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
        out
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

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        PackedTrace::empty(SimDuration::ZERO);
    }
}
