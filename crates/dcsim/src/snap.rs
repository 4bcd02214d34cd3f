//! Versioned binary snapshots of simulation state.
//!
//! A small hand-rolled binary codec (the workspace `serde` is a no-op
//! shim, so nothing here derives anything). A snapshot *section* is:
//!
//! ```text
//! magic  : u32  (0x534E4150, "SNAP")
//! kind   : str  (length-prefixed UTF-8, e.g. "dynamo.DatacenterState")
//! version: u32
//! length : u64  (body byte count)
//! body   : [u8; length]
//! ```
//!
//! Decoding checks magic, kind and version *before* touching the body, so
//! restoring a snapshot written by a newer code revision fails with
//! [`SnapError::VersionMismatch`] instead of corrupting state, and a
//! mis-ordered file fails with [`SnapError::KindMismatch`]. The body
//! length lets a reader skip sections it cannot interpret and guarantees
//! a decoder consumed exactly what the encoder produced
//! ([`SnapError::TrailingBytes`] otherwise).
//!
//! Only the outermost values are framed: `dynamo::DatacenterState` and
//! `dynamo-sim`'s checkpoint implement [`Snapshot`], and their versions
//! are the only ones a reader checks. Everything inside them — a layer,
//! a schedule, a breaker, a ring — writes its body with a `save(&self,
//! &mut SnapWriter)` and reads one back into itself, built from the same
//! configuration, with a `load(&mut self, &mut SnapReader) -> Result<(),
//! SnapError>` that checks each value against the built object as it
//! reads it. A value whose bytes are the whole value (a stream, an
//! alert) may be made by a constructor-style `decode` instead. Nested
//! bodies are never framed and carry no kind and no version: a change
//! to any of them bumps the version of the section that holds it.
//!
//! A part that saves state only meaningful against its configuration
//! (a breaker's heat against its rating, a schedule's next firing
//! against its period) does not store that configuration: its section
//! folds it into one [`ConfigDigest`] word ([`SnapWriter::put_config`]),
//! and the load folds the rebuilt value's the same way
//! ([`SnapReader::config`]). A file written under another configuration
//! is refused for that one word, naming the section.
//!
//! Floating-point values are stored as raw IEEE-754 bits
//! ([`f64::to_bits`]), which is what makes *snapshot → restore → run*
//! bit-identical to the unbroken run: no decimal round-trip, no
//! platform-dependent formatting.

use std::fmt;

/// Magic number opening every snapshot section ("SNAP" in ASCII).
pub const SECTION_MAGIC: u32 = 0x534E_4150;

/// Errors produced while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended in the middle of a value.
    UnexpectedEof {
        /// What the reader was trying to decode.
        context: &'static str,
    },
    /// A section did not start with [`SECTION_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: u32,
    },
    /// A section of one kind appeared where another was expected.
    KindMismatch {
        /// The kind the decoder expected.
        expected: String,
        /// The kind found in the stream.
        found: String,
    },
    /// The section was written by a different (usually newer) revision
    /// of the type. Restoring would corrupt state, so it is refused.
    VersionMismatch {
        /// Section kind.
        kind: String,
        /// Version found in the stream.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// A section body was not fully consumed by its decoder — the
    /// encoder and decoder disagree about the layout.
    TrailingBytes {
        /// Section kind.
        kind: String,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// The bytes decoded but describe a state inconsistent with the
    /// live object being restored (wrong fleet shape, wrong topology…).
    Corrupt(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::UnexpectedEof { context } => {
                write!(f, "snapshot truncated while reading {context}")
            }
            SnapError::BadMagic { found } => {
                write!(f, "bad section magic {found:#010x} (not a snapshot?)")
            }
            SnapError::KindMismatch { expected, found } => {
                write!(f, "expected section '{expected}', found '{found}'")
            }
            SnapError::VersionMismatch {
                kind,
                found,
                supported,
            } => write!(
                f,
                "section '{kind}' has version {found} but this build supports \
                 version {supported}; refusing to restore across a format change"
            ),
            SnapError::TrailingBytes { kind, extra } => {
                write!(f, "section '{kind}' left {extra} undecoded bytes")
            }
            SnapError::Corrupt(msg) => write!(f, "snapshot inconsistent with live state: {msg}"),
        }
    }
}

impl SnapError {
    /// Names the part of the live object a [`SnapError::Corrupt`] was
    /// found in.
    pub fn within(self, part: impl fmt::Display) -> SnapError {
        match self {
            SnapError::Corrupt(msg) => SnapError::Corrupt(format!("{part}: {msg}")),
            other => other,
        }
    }
}

impl std::error::Error for SnapError {}

/// Little-endian binary writer backing [`Snapshot::encode_body`] and
/// every layer's `save`.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its raw IEEE-754 bits. Exact: NaN payloads,
    /// signed zeros and infinities all round-trip.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix (caller encodes framing).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends the [`ConfigDigest`] word of the configuration `fold`
    /// folds: what [`SnapReader::config`] checks on load.
    pub fn put_config(&mut self, fold: impl FnOnce(&mut ConfigDigest)) {
        self.put_u64(ConfigDigest::of(fold));
    }

    /// Appends `Some(f64)` as `1` + bits, `None` as `0`.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_bool(true);
                self.put_f64(x);
            }
            None => self.put_bool(false),
        }
    }
}

/// Bounds-checked little-endian reader over a snapshot byte slice.
///
/// A `load` that finds a section's configuration digest other than the
/// rebuilt object's ([`SnapReader::config`]), or a stored state that
/// object cannot take — a schedule's firing off its grid, a breaker's
/// heat past its trip — notes it ([`SnapReader::mismatch`]) and reads
/// on; [`SnapReader::finish`] reports the first one noted. So a file
/// written under another configuration is refused for the first
/// difference in its *shape* (a count, a tag, a section present or
/// absent) wherever that lies, and for its first differing digest only
/// when the shapes agree.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    mismatch: Option<SnapError>,
}

impl<'a> SnapReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        SnapReader {
            buf: bytes,
            pos: 0,
            mismatch: None,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::UnexpectedEof { context });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads the next `N` bytes.
    fn take_array<const N: usize>(&mut self, context: &'static str) -> Result<[u8; N], SnapError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, context)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take_array("u32")?))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take_array("u64")?))
    }

    /// Reads a `u64` that counts what a run did: events, epochs,
    /// simulated milliseconds. The top half of the range is no such
    /// count, and the arithmetic done on it would overflow.
    pub fn get_count(&mut self) -> Result<u64, SnapError> {
        match self.get_u64()? {
            n if n <= u64::MAX >> 1 => Ok(n),
            n => Err(SnapError::Corrupt(format!("count {n} is out of range"))),
        }
    }

    /// Reads an `f64` stored as raw bits.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a bool; any byte other than 0/1 is corruption.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Corrupt(format!("bad bool byte {other}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let len = self.get_u64()? as usize;
        let b = self.take(len, "str")?;
        String::from_utf8(b.to_vec())
            .map_err(|_| SnapError::Corrupt("invalid UTF-8 in string".into()))
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        self.take(n, "raw bytes")
    }

    /// Reads a `u64` element count that must be `expected`: the length
    /// of the live column the elements load into. Nothing is reserved
    /// for a count, so a forged one costs no memory.
    pub fn get_len(&mut self, expected: usize, what: &str) -> Result<(), SnapError> {
        match self.get_u64()? {
            n if n == expected as u64 => Ok(()),
            n => Err(SnapError::Corrupt(format!(
                "snapshot has {n} {what}, this build has {expected}"
            ))),
        }
    }

    /// Reads the word [`SnapWriter::put_config`] wrote for `section`
    /// and notes a mismatch naming the section if it is not the
    /// [`ConfigDigest`] of the configuration `fold` folds, the rebuilt
    /// value's.
    pub fn config(
        &mut self,
        section: &str,
        fold: impl FnOnce(&mut ConfigDigest),
    ) -> Result<(), SnapError> {
        let (stored, rebuilt) = (self.get_u64()?, ConfigDigest::of(fold));
        if stored != rebuilt {
            self.mismatch(SnapError::Corrupt(format!(
                "{section} configuration is not this build's (digest {stored:#018x} in \
                 snapshot, {rebuilt:#018x} rebuilt)"
            )));
        }
        Ok(())
    }

    /// Notes `e`, a stored value that disagrees with the configuration
    /// of the object being loaded, and reads on. The first one noted is
    /// what [`SnapReader::finish`] returns.
    pub fn mismatch(&mut self, e: SnapError) {
        self.mismatch.get_or_insert(e);
    }

    /// Runs `load`, naming `part` in what it refuses: the error it
    /// returns, and the mismatch it notes if it is the first.
    pub fn within<T>(
        &mut self,
        part: impl fmt::Display,
        load: impl FnOnce(&mut Self) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let first = self.mismatch.is_none();
        let loaded = load(self).map_err(|e| e.within(&part));
        if first {
            self.mismatch = self.mismatch.take().map(|e| e.within(&part));
        }
        loaded
    }

    /// Ends a load of a section of `kind`: every byte read, and no
    /// mismatch noted.
    pub fn finish(self, kind: &str) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::TrailingBytes {
                kind: kind.to_string(),
                extra: self.remaining(),
            });
        }
        self.mismatch.map_or(Ok(()), Err)
    }

    /// Reads an optional `f64` written by [`SnapWriter::put_opt_f64`].
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, SnapError> {
        if self.get_bool()? {
            Ok(Some(self.get_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a `u64` element count followed by that many elements, each
    /// decoded by `elem`.
    ///
    /// The count is untrusted: the vector is pre-sized for no more
    /// elements than fit in the bytes that remain, so a forged count
    /// fails with [`SnapError::UnexpectedEof`] once the input runs out
    /// instead of reserving memory the input could never fill.
    pub fn get_vec<T>(
        &mut self,
        mut elem: impl FnMut(&mut Self) -> Result<T, SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        let n = self.get_u64()? as usize;
        let fits = self.remaining() / std::mem::size_of::<T>().max(1);
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Ok(out)
    }
}

/// The configuration of a section folded into one word, with the
/// `put_*` calls of a [`SnapWriter`]: see the module docs.
///
/// Each value is folded as its 64-bit image through SplitMix64's
/// finaliser, so a configuration has the same word on every platform
/// and Rust version (`std`'s `DefaultHasher` promises neither).
#[derive(Debug, Clone)]
pub struct ConfigDigest {
    h: u64,
}

impl ConfigDigest {
    /// The word of what `fold` folds into a fresh digest.
    fn of(fold: impl FnOnce(&mut ConfigDigest)) -> u64 {
        let mut d = ConfigDigest { h: 0 };
        fold(&mut d);
        d.h
    }

    /// Folds a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        // The golden-ratio step keeps a run of zeros from folding to
        // zero, so its length counts.
        let mut z = (self.h.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ v;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.h = z ^ (z >> 31);
    }

    /// Folds an `f64` as its raw bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// A value that is written to and made again from a versioned, framed
/// binary section: a whole file, or a whole part of one.
///
/// Implementors provide only the body codec; the trait supplies the
/// section framing (magic + kind + version + length) and the version
/// forward-check. Only the outermost values implement it
/// (`dynamo::DatacenterState` and `dynamo-sim`'s checkpoint): what they
/// hold saves its body into a [`SnapWriter`] and loads one into itself
/// from a [`SnapReader`] (see the module docs), nested, unframed, in
/// the body of the section that owns it.
pub trait Snapshot: Sized {
    /// Stable section identifier, e.g. `"dynamo.DatacenterState"`.
    /// Namespaced by crate so kinds never collide across the workspace.
    const KIND: &'static str;
    /// Format version. Bump on any body layout change; old builds then
    /// refuse newer snapshots with a clear [`SnapError::VersionMismatch`].
    const VERSION: u32;

    /// Encodes the body (no framing) into `w`.
    fn encode_body(&self, w: &mut SnapWriter);

    /// Decodes the body (no framing) from `r`.
    fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;

    /// Writes a full framed section. The body is encoded in place and
    /// its length patched in behind it, so no section is copied to be
    /// measured.
    fn write_section(&self, w: &mut SnapWriter) {
        w.put_u32(SECTION_MAGIC);
        w.put_str(Self::KIND);
        w.put_u32(Self::VERSION);
        let at = w.len();
        w.put_u64(0);
        self.encode_body(w);
        let len = (w.len() - at - 8) as u64;
        w.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Reads a full framed section, checking magic, kind, version and
    /// exact body consumption.
    fn read_section(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let magic = r.get_u32()?;
        if magic != SECTION_MAGIC {
            return Err(SnapError::BadMagic { found: magic });
        }
        let kind = r.get_str()?;
        if kind != Self::KIND {
            return Err(SnapError::KindMismatch {
                expected: Self::KIND.to_string(),
                found: kind,
            });
        }
        let version = r.get_u32()?;
        if version != Self::VERSION {
            return Err(SnapError::VersionMismatch {
                kind,
                found: version,
                supported: Self::VERSION,
            });
        }
        let len = r.get_u64()? as usize;
        let body = r.get_raw(len)?;
        let mut br = SnapReader::new(body);
        let value = Self::decode_body(&mut br)?;
        if br.remaining() != 0 {
            return Err(SnapError::TrailingBytes {
                kind: Self::KIND.to_string(),
                extra: br.remaining(),
            });
        }
        Ok(value)
    }

    /// Encodes `self` as a standalone framed byte vector, whose
    /// capacity is its length.
    fn to_snap_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.write_section(&mut w);
        let mut bytes = w.into_bytes();
        bytes.shrink_to_fit();
        bytes
    }

    /// Decodes a value from a standalone framed byte vector, requiring
    /// the entire input to be consumed.
    fn from_snap_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        let value = Self::read_section(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapError::TrailingBytes {
                kind: Self::KIND.to_string(),
                extra: r.remaining(),
            });
        }
        Ok(value)
    }
}

/// Encodes a slice of `u64`s with a length prefix.
pub fn put_u64_slice(w: &mut SnapWriter, xs: &[u64]) {
    w.put_u64(xs.len() as u64);
    for &x in xs {
        w.put_u64(x);
    }
}

/// Encodes a slice of `f64`s (raw bits) with a length prefix.
pub fn put_f64_slice(w: &mut SnapWriter, xs: &[f64]) {
    w.put_u64(xs.len() as u64);
    for &x in xs {
        w.put_f64(x);
    }
}

/// Encodes a slice of bools with a length prefix (one byte each).
pub fn put_bool_slice(w: &mut SnapWriter, xs: &[bool]) {
    w.put_u64(xs.len() as u64);
    for &x in xs {
        w.put_bool(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u64,
        b: f64,
        s: String,
        flag: bool,
    }

    impl Snapshot for Demo {
        const KIND: &'static str = "dcsim.test.Demo";
        const VERSION: u32 = 3;

        fn encode_body(&self, w: &mut SnapWriter) {
            w.put_u64(self.a);
            w.put_f64(self.b);
            w.put_str(&self.s);
            w.put_bool(self.flag);
        }

        fn decode_body(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
            Ok(Demo {
                a: r.get_u64()?,
                b: r.get_f64()?,
                s: r.get_str()?,
                flag: r.get_bool()?,
            })
        }
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let d = Demo {
            a: 42,
            b: -0.0,
            s: "suite0/msb0".into(),
            flag: true,
        };
        let bytes = d.to_snap_bytes();
        let back = Demo::from_snap_bytes(&bytes).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.to_snap_bytes(), bytes);
        // Signed zero survives (a decimal codec would lose it).
        assert_eq!(back.b.to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn version_bump_is_refused_with_clear_error() {
        let d = Demo {
            a: 1,
            b: 2.0,
            s: "x".into(),
            flag: false,
        };
        // Hand-frame the same body under a future version.
        let mut body = SnapWriter::new();
        d.encode_body(&mut body);
        let body = body.into_bytes();
        let mut w = SnapWriter::new();
        w.put_u32(SECTION_MAGIC);
        w.put_str(Demo::KIND);
        w.put_u32(Demo::VERSION + 1);
        w.put_u64(body.len() as u64);
        w.put_raw(&body);
        let err = Demo::from_snap_bytes(&w.into_bytes()).unwrap_err();
        match err {
            SnapError::VersionMismatch {
                kind,
                found,
                supported,
            } => {
                assert_eq!(kind, Demo::KIND);
                assert_eq!(found, Demo::VERSION + 1);
                assert_eq!(supported, Demo::VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn kind_mismatch_and_bad_magic() {
        let d = Demo {
            a: 1,
            b: 2.0,
            s: String::new(),
            flag: false,
        };
        let bytes = d.to_snap_bytes();

        #[derive(Debug)]
        struct Other;
        impl Snapshot for Other {
            const KIND: &'static str = "dcsim.test.Other";
            const VERSION: u32 = 1;
            fn encode_body(&self, _w: &mut SnapWriter) {}
            fn decode_body(_r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(Other)
            }
        }
        assert!(matches!(
            Other::from_snap_bytes(&bytes),
            Err(SnapError::KindMismatch { .. })
        ));
        assert!(matches!(
            Demo::from_snap_bytes(b"garbage!"),
            Err(SnapError::BadMagic { .. }) | Err(SnapError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_detected() {
        let d = Demo {
            a: 9,
            b: 1.5,
            s: "abc".into(),
            flag: true,
        };
        let bytes = d.to_snap_bytes();
        assert!(matches!(
            Demo::from_snap_bytes(&bytes[..bytes.len() - 1]),
            Err(SnapError::UnexpectedEof { .. })
        ));
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(matches!(
            Demo::from_snap_bytes(&extra),
            Err(SnapError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn forged_count_fails_without_reserving() {
        // A count of u64::MAX over 16 bytes of payload: two elements
        // decode, the third hits end of input.
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        w.put_u64(7);
        w.put_u64(8);
        let bytes = w.into_bytes();
        assert!(matches!(
            SnapReader::new(&bytes).get_vec(|r| r.get_u64()),
            Err(SnapError::UnexpectedEof { .. })
        ));
        // Wide elements are bounded by their in-memory size, not by a
        // fixed element cap.
        let wide = SnapReader::new(&bytes).get_vec(|r| Ok([r.get_u64()?; 64]));
        assert!(matches!(wide, Err(SnapError::UnexpectedEof { .. })));
    }

    /// A count must be the live length; a configuration mismatch is
    /// noted, read past, and reported by `finish` after the bytes are
    /// checked.
    #[test]
    fn lengths_mismatches_and_finish() {
        let mut w = SnapWriter::new();
        w.put_u64(3);
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_len(3, "leaves"), Ok(()));
        let err = r.get_len(3, "leaves").unwrap_err();
        assert!(err
            .to_string()
            .contains("snapshot has 18446744073709551615 leaves, this build has 3"));

        let mut r = SnapReader::new(&bytes);
        let named = r.within("part 1", |r| {
            r.mismatch(SnapError::Corrupt("first".into()));
            r.get_u64()
        });
        assert_eq!(named, Ok(3));
        r.within("part 2", |r| {
            r.mismatch(SnapError::Corrupt("second".into()));
            Ok(())
        })
        .unwrap();
        let refused = r.within("part 3", |r| r.get_len(3, "leaves"));
        assert!(
            matches!(refused, Err(SnapError::Corrupt(m)) if m.starts_with("part 3: snapshot has"))
        );
        assert_eq!(
            r.finish("k"),
            Err(SnapError::Corrupt("part 1: first".into()))
        );
        let mut r = SnapReader::new(&bytes);
        r.mismatch(SnapError::Corrupt("first".into()));
        assert!(matches!(
            r.finish("k"),
            Err(SnapError::TrailingBytes { extra: 16, .. })
        ));
        assert_eq!(SnapReader::new(&[]).finish("k"), Ok(()));
    }

    /// A digest word is a pure function of the values folded, in
    /// order, pinned here so a change to the fold shows as a change of
    /// format; a section whose rebuilt word differs is noted, by name.
    #[test]
    fn config_digests_are_pinned_and_checked() {
        let fold = |d: &mut ConfigDigest| {
            d.put_u64(3_000);
            d.put_f64(-0.0);
        };
        assert_eq!(ConfigDigest::of(fold), 0xb00f_fb2f_59a6_7b28);
        assert_ne!(ConfigDigest::of(|d| d.put_u64(0)), ConfigDigest::of(|_| {}));
        assert_ne!(
            ConfigDigest::of(|d| d.put_u64(0)),
            ConfigDigest::of(|d| (0..2).for_each(|_| d.put_u64(0)))
        );
        let mut w = SnapWriter::new();
        w.put_config(fold);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.config("breakers", fold).unwrap();
        assert_eq!(r.finish("k"), Ok(()));
        let mut r = SnapReader::new(&bytes);
        r.config("breakers", |d| d.put_u64(3_000)).unwrap();
        assert!(matches!(
            r.finish("k"),
            Err(SnapError::Corrupt(m)) if m.starts_with("breakers configuration is not this build's")
        ));
    }

    #[test]
    fn slice_helpers_round_trip() {
        let mut w = SnapWriter::new();
        put_u64_slice(&mut w, &[1, 2, 3]);
        put_f64_slice(&mut w, &[f64::INFINITY, -0.0, 3.25]);
        put_bool_slice(&mut w, &[true, false]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_vec(|r| r.get_u64()).unwrap(), vec![1, 2, 3]);
        let fs = r.get_vec(|r| r.get_f64()).unwrap();
        assert_eq!(fs[0], f64::INFINITY);
        assert_eq!(fs[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(fs[2], 3.25);
        assert_eq!(r.get_vec(|r| r.get_bool()).unwrap(), vec![true, false]);
        assert_eq!(r.remaining(), 0);
    }
}
