//! Little-endian byte codec primitives and the frame checksum.
//!
//! Everything on the wire is written through [`ByteWriter`] and read back
//! through [`ByteReader`]; both are deliberately dumb (no varints, no
//! alignment) so the encoded size of a message is a closed-form function
//! of its shape — the property the communication accounting relies on.

use std::fmt;

/// Decoding failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the declared structure did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that remained.
        available: usize,
    },
    /// First frame bytes are not the protocol magic.
    BadMagic(u32),
    /// Frame speaks a protocol version this build does not.
    BadVersion(u8),
    /// Checksum over header + payload does not match the trailer.
    BadChecksum {
        /// Checksum carried by the frame.
        stored: u32,
        /// Checksum recomputed from the received bytes.
        computed: u32,
    },
    /// Unknown message-type discriminant.
    UnknownMsgType(u8),
    /// A length prefix declares a frame larger than the receiver's cap —
    /// rejected before any allocation happens, so a hostile header cannot
    /// make the peer allocate gigabytes.
    FrameTooLarge {
        /// Declared frame length.
        declared: u64,
        /// Receiver's configured maximum.
        max: u64,
    },
    /// Structurally invalid payload (bad length fields, non-UTF-8, ...).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, {available} available"
                )
            }
            WireError::BadMagic(got) => write!(f, "bad magic {got:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: frame says {stored:#010x}, computed {computed:#010x}"
                )
            }
            WireError::UnknownMsgType(t) => write!(f, "unknown message type {t}"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds the cap {max}")
            }
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends little-endian primitives to a growable buffer.
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self { buf: Vec::new() }
    }

    /// An empty writer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` as its IEEE-754 bits, little-endian (lossless).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a length-prefixed (`u32`) run of `f32`s.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_u32(vs.len() as u32);
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Writes a length-prefixed (`u32`) UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes raw bytes with no prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Reads little-endian primitives from a byte slice, tracking position.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current offset from the start of the slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// [`Self::take`] as a fixed-size array, for `from_le_bytes`. The
    /// conversion cannot fail after `take(N)` succeeded, but mapping the
    /// mismatch into [`WireError`] keeps the reader panic-free on any
    /// input.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        <[u8; N]>::try_from(s).map_err(|_| WireError::Truncated {
            needed: N,
            available: s.len(),
        })
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `0`/`1` byte; anything else is corruption, not `true`.
    pub fn get_flag(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::Malformed(format!("flag byte {b}"))),
        }
    }

    /// Reads a `u32`, little-endian.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array::<4>()?))
    }

    /// Reads a `u64`, little-endian.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array::<8>()?))
    }

    /// Reads an `f32` from its IEEE-754 bits, little-endian.
    pub fn get_f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_le_bytes(self.take_array::<4>()?))
    }

    /// Reads a length-prefixed run of `f32`s.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, WireError> {
        let n = self.get_u32()? as usize;
        // Bound check up front so a corrupt length can't trigger a huge
        // allocation before the truncation is noticed.
        if self.remaining() < n * 4 {
            return Err(WireError::Truncated {
                needed: n * 4,
                available: self.remaining(),
            });
        }
        // One bulk take, then a chunked conversion the compiler can
        // vectorise — per-element reads carry position bookkeeping that
        // dominates decode time on multi-megabyte weight frames.
        let raw = self.take(n * 4)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let n = self.get_u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("string field is not UTF-8".into()))
    }

    /// Reads `n` raw bytes.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Fails unless every byte has been consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::Malformed(format!(
                "{} unexpected trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Slice-by-8 lookup tables for [`crc32`], built at compile time.
///
/// `CRC_TABLES[0]` is the classic single-byte table; `CRC_TABLES[j]`
/// advances a byte's contribution `j` extra positions, so eight table
/// lookups retire eight message bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut k = 0;
        while k < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            k += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[j - 1][i];
            t[j][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        j += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
///
/// Detects any single-bit or single-byte corruption of a frame, which the
/// codec property tests exercise directly. Implemented slice-by-8 (eight
/// bytes per table step) because every weight frame is checksummed twice —
/// once on encode, once on decode — and at multi-megabyte model frames the
/// former bit-serial loop dominated round latency on the wire.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut w = ByteWriter::new();
        w.put_u8(0xAB);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(0x0123_4567_89AB_CDEF);
        w.put_f32(-1.5e-7);
        w.put_str("naïve");
        w.put_f32_slice(&[1.0, -2.5, 3.25]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.get_f32().unwrap().to_bits(), (-1.5e-7f32).to_bits());
        assert_eq!(r.get_str().unwrap(), "naïve");
        assert_eq!(r.get_f32_vec().unwrap(), vec![1.0, -2.5, 3.25]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_is_detected() {
        let mut w = ByteWriter::new();
        w.put_u32(7);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..2]);
        assert_eq!(
            r.get_u32(),
            Err(WireError::Truncated {
                needed: 4,
                available: 2
            })
        );
    }

    #[test]
    fn corrupt_vec_length_is_not_a_huge_allocation() {
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(r.get_f32_vec(), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bit_serial_reference() {
        // The pre-table implementation, kept as the ground truth the
        // slice-by-8 tables must reproduce on every length mod 8.
        fn reference(bytes: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &b in bytes {
                crc ^= b as u32;
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..1021u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 63, 64, 1000, 1021] {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn crc32_detects_single_byte_flips() {
        let data = b"federated moment constraints".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            let mut corrupted = data.clone();
            corrupted[i] ^= 0x40;
            assert_ne!(crc32(&corrupted), base, "flip at byte {i} undetected");
        }
    }
}
