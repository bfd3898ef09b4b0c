//! Low-level little-endian binary encoding helpers.
//!
//! All on-disk formats in this workspace (mask files, the array and row
//! stores, the catalog, and the CHI index file) are built from these
//! primitives so their byte layout is explicit and byte-exact — which matters
//! because the disk cost model charges virtual time per byte.

use crate::error::{StorageError, StorageResult};

/// 64-bit checksum of the concatenation-by-parts of `parts`, computed a
/// 32-byte block (four independent 8-byte lanes) at a time.
///
/// Every WAL frame and every index-snapshot segment carries this value over
/// its header and payload; a record whose checksum does not match is treated
/// as torn and discarded. Each step is a bijection of its lane for a fixed
/// input word and of the word for a fixed lane, and so are the length mix
/// and the final fold, so a change confined to one 8-byte word — any single
/// flipped bit or byte — always changes the result. Each part is zero-padded
/// to whole blocks and followed by its own length, which keeps inputs that
/// differ only in trailing zeros (or in where a part ends) apart.
pub fn checksum64(parts: &[&[u8]]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    #[inline(always)]
    fn mix(lane: u64, word: u64) -> u64 {
        lane.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }
    #[inline(always)]
    fn absorb(lanes: &mut [u64; 4], block: &[u8]) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut bytes = [0u8; 8];
            bytes.copy_from_slice(word);
            *lane = mix(*lane, u64::from_le_bytes(bytes));
        }
    }
    let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
    for part in parts {
        let mut blocks = part.chunks_exact(32);
        for block in &mut blocks {
            absorb(&mut lanes, block);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut block = [0u8; 32];
            block[..tail.len()].copy_from_slice(tail);
            absorb(&mut lanes, &block);
        }
        lanes[0] = mix(lanes[0], part.len() as u64);
    }
    let mut hash = lanes.iter().fold(P1, |hash, &lane| mix(hash, lane));
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^ (hash >> 29)
}

/// A cursor over a byte slice with checked little-endian reads.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`; `context` names what is being decoded for
    /// error messages.
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        Self {
            buf,
            pos: 0,
            context,
        }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(StorageError::Truncated {
                context: self.context.to_string(),
                expected: self.pos + n,
                available: self.buf.len(),
            });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a single byte.
    pub fn read_u8(&mut self) -> StorageResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&mut self) -> StorageResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> StorageResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> StorageResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `f32`.
    pub fn read_f32(&mut self) -> StorageResult<f32> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// Reads a little-endian `f64`.
    pub fn read_f64(&mut self) -> StorageResult<f64> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads exactly `n` raw bytes.
    pub fn read_bytes(&mut self, n: usize) -> StorageResult<&'a [u8]> {
        self.take(n)
    }

    /// Reads a fixed 4-byte magic value.
    pub fn read_magic(&mut self) -> StorageResult<[u8; 4]> {
        let b = self.take(4)?;
        Ok([b[0], b[1], b[2], b[3]])
    }

    /// Reads a length-prefixed (u32) vector of little-endian `f32`s.
    pub fn read_f32_vec(&mut self) -> StorageResult<Vec<f32>> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len.checked_mul(4).ok_or_else(|| {
            StorageError::corrupt("f32 vector length overflows addressable size")
        })?)?;
        let mut out = Vec::with_capacity(len);
        for chunk in bytes.chunks_exact(4) {
            out.push(f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        Ok(out)
    }

    /// Reads a length-prefixed (u32) vector of little-endian `u32`s.
    pub fn read_u32_vec(&mut self) -> StorageResult<Vec<u32>> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len.checked_mul(4).ok_or_else(|| {
            StorageError::corrupt("u32 vector length overflows addressable size")
        })?)?;
        let mut out = Vec::with_capacity(len);
        for chunk in bytes.chunks_exact(4) {
            out.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        Ok(out)
    }

    /// Reads a length-prefixed (u32) UTF-8 string.
    pub fn read_string(&mut self) -> StorageResult<String> {
        let len = self.read_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StorageError::corrupt("string payload is not valid UTF-8"))
    }
}

/// A growable little-endian byte buffer with typed append operations.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with a pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Finishes writing and returns the byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Appends a little-endian `f64`.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed (u32) vector of `f32`s.
    pub fn write_f32_vec(&mut self, values: &[f32]) {
        self.write_u32(values.len() as u32);
        for &v in values {
            self.write_f32(v);
        }
    }

    /// Appends a length-prefixed (u32) vector of `u32`s.
    pub fn write_u32_vec(&mut self, values: &[u32]) {
        self.write_u32(values.len() as u32);
        for &v in values {
            self.write_u32(v);
        }
    }

    /// Appends a length-prefixed (u32) UTF-8 string.
    pub fn write_string(&mut self, s: &str) {
        self.write_u32(s.len() as u32);
        self.write_bytes(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4 KiB page of distinct pseudo-random words.
    fn checksum_page() -> Vec<u8> {
        let mut state = 0x1234_5678_9abc_def0u64;
        (0..512)
            .flat_map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state.to_le_bytes()
            })
            .collect()
    }

    #[test]
    fn checksum_changes_on_any_single_bit_flip() {
        let page = checksum_page();
        let base = checksum64(&[&page]);
        assert_eq!(base, checksum64(&[&page]));
        let mut flipped = page.clone();
        for bit in 0..page.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&[&flipped]), base, "bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        // The same holds in a header part and in a part's zero-padded tail.
        let header = &page[..21];
        let base = checksum64(&[header, &page]);
        let mut flipped = header.to_vec();
        for bit in 0..header.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum64(&[&flipped, &page]), base, "header bit {bit}");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn checksum_changes_on_any_swap_of_two_words() {
        let page = checksum_page();
        let base = checksum64(&[&page]);
        let words = page.len() / 8;
        let mut swapped = page.clone();
        let swap = |bytes: &mut [u8], a: usize, b: usize| {
            for i in 0..8 {
                bytes.swap(a * 8 + i, b * 8 + i);
            }
        };
        for a in 0..words {
            for b in a + 1..words {
                swap(&mut swapped, a, b);
                assert_ne!(checksum64(&[&swapped]), base, "words {a} and {b}");
                swap(&mut swapped, a, b);
            }
        }
    }

    #[test]
    fn checksum_changes_with_zero_padding_and_part_boundaries() {
        let page = checksum_page();
        let base = checksum64(&[&page]);
        let mut padded = page.clone();
        for extra in 1..=64 {
            padded.push(0);
            assert_ne!(checksum64(&[&padded]), base, "{extra} zero bytes appended");
        }
        // A page that ends in zeros differs from its truncations too.
        let mut zero_tailed = page.clone();
        zero_tailed[4000..].fill(0);
        let base = checksum64(&[&zero_tailed]);
        for len in 4000..zero_tailed.len() {
            assert_ne!(checksum64(&[&zero_tailed[..len]]), base, "cut to {len}");
        }
        assert_ne!(
            checksum64(&[&page[..21], &page[21..]]),
            checksum64(&[&page])
        );
        assert_ne!(checksum64(&[]), checksum64(&[&[]]));
    }

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.write_u8(7);
        w.write_u16(300);
        w.write_u32(70_000);
        w.write_u64(u64::MAX - 1);
        w.write_f32(0.25);
        w.write_f64(-1.5e300);
        w.write_string("hello");
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u16().unwrap(), 300);
        assert_eq!(r.read_u32().unwrap(), 70_000);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.read_f32().unwrap(), 0.25);
        assert_eq!(r.read_f64().unwrap(), -1.5e300);
        assert_eq!(r.read_string().unwrap(), "hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn round_trip_vectors() {
        let mut w = Writer::new();
        w.write_f32_vec(&[0.1, 0.2, 0.3]);
        w.write_u32_vec(&[1, 2, 3, 4]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert_eq!(r.read_f32_vec().unwrap(), vec![0.1, 0.2, 0.3]);
        assert_eq!(r.read_u32_vec().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn truncated_reads_report_expected_and_available() {
        let bytes = vec![1u8, 2, 3];
        let mut r = Reader::new(&bytes, "header");
        let err = r.read_u32().unwrap_err();
        match err {
            StorageError::Truncated {
                expected,
                available,
                context,
            } => {
                assert_eq!(expected, 4);
                assert_eq!(available, 3);
                assert_eq!(context, "header");
            }
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn invalid_utf8_is_reported_as_corruption() {
        let mut w = Writer::new();
        w.write_u32(2);
        w.write_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "test");
        assert!(matches!(
            r.read_string().unwrap_err(),
            StorageError::Corrupt { .. }
        ));
    }

    #[test]
    fn writer_reports_length() {
        let mut w = Writer::with_capacity(16);
        assert!(w.is_empty());
        w.write_u32(1);
        assert_eq!(w.len(), 4);
    }
}
