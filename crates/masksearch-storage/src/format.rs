//! Binary mask file format.
//!
//! A mask file is a small header followed by the pixel payload:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "MSKF"
//! 4       2     format version (currently 1)
//! 6       1     encoding (0 = raw f32 LE, 1 = compressed, see `compression`)
//! 7       1     reserved (zero)
//! 8       8     mask id
//! 16      4     width
//! 20      4     height
//! 24      8     payload byte length
//! 32      ...   payload
//! ```
//!
//! The header is fixed-size so stores can read metadata without touching the
//! payload, and so the byte counts fed to the disk cost model are exact.

use crate::codec::{Reader, Writer};
use crate::compression;
use crate::error::{StorageError, StorageResult};
use masksearch_core::{Mask, MaskId};

/// Magic bytes identifying a mask file.
pub const MASK_MAGIC: [u8; 4] = *b"MSKF";
/// Current mask file format version.
pub const MASK_FORMAT_VERSION: u16 = 1;
/// Size in bytes of the fixed mask file header.
pub const MASK_HEADER_LEN: usize = 32;

/// How the pixel payload of a mask file is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MaskEncoding {
    /// Raw little-endian `f32` pixels, row-major (4 bytes per pixel).
    #[default]
    Raw,
    /// Losslessly compressed with [`crate::compression`].
    Compressed,
}

impl MaskEncoding {
    fn to_code(self) -> u8 {
        match self {
            MaskEncoding::Raw => 0,
            MaskEncoding::Compressed => 1,
        }
    }

    fn from_code(code: u8) -> StorageResult<Self> {
        match code {
            0 => Ok(MaskEncoding::Raw),
            1 => Ok(MaskEncoding::Compressed),
            other => Err(StorageError::corrupt(format!(
                "unknown mask encoding code {other}"
            ))),
        }
    }
}

/// Parsed header of a mask file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskHeader {
    /// Identifier of the mask stored in the file.
    pub mask_id: MaskId,
    /// Mask width in pixels.
    pub width: u32,
    /// Mask height in pixels.
    pub height: u32,
    /// Payload encoding.
    pub encoding: MaskEncoding,
    /// Payload length in bytes.
    pub payload_len: u64,
}

impl MaskHeader {
    /// Total file size implied by the header (header + payload).
    pub fn file_len(&self) -> u64 {
        MASK_HEADER_LEN as u64 + self.payload_len
    }
}

/// Serialises a mask into the on-disk file format. A raw payload is written
/// straight after the header into the one pre-sized buffer.
pub fn encode_mask(mask_id: MaskId, mask: &Mask, encoding: MaskEncoding) -> Vec<u8> {
    encode_mask_padded(mask_id, mask, encoding, 1).0
}

/// [`encode_mask`] into a buffer zero-padded to a whole number of `block`-byte
/// blocks (at least one): a blob ready to be written as an extent of pages.
/// Returns the buffer and the blob's own length.
pub fn encode_mask_padded(
    mask_id: MaskId,
    mask: &Mask,
    encoding: MaskEncoding,
    block: usize,
) -> (Vec<u8>, usize) {
    let compressed = match encoding {
        MaskEncoding::Raw => None,
        MaskEncoding::Compressed => Some(compression::compress(mask.data())),
    };
    let payload_len = compressed.as_ref().map_or(mask.data().len() * 4, Vec::len);
    let len = MASK_HEADER_LEN + payload_len;
    let padded = len.div_ceil(block).max(1) * block;
    let mut w = Writer::with_capacity(padded);
    w.write_bytes(&MASK_MAGIC);
    w.write_u16(MASK_FORMAT_VERSION);
    w.write_u8(encoding.to_code());
    w.write_u8(0); // reserved
    w.write_u64(mask_id.raw());
    w.write_u32(mask.width());
    w.write_u32(mask.height());
    w.write_u64(payload_len as u64);
    if let Some(payload) = &compressed {
        w.write_bytes(payload);
    }
    let mut blob = w.into_bytes();
    blob.resize(padded, 0);
    if compressed.is_none() {
        for (out, v) in blob[MASK_HEADER_LEN..len]
            .chunks_exact_mut(4)
            .zip(mask.data())
        {
            out.copy_from_slice(&v.to_le_bytes());
        }
    }
    (blob, len)
}

/// Parses only the fixed-size header of a mask file.
pub fn decode_header(bytes: &[u8]) -> StorageResult<MaskHeader> {
    let mut r = Reader::new(bytes, "mask file header");
    let magic = r.read_magic()?;
    if magic != MASK_MAGIC {
        return Err(StorageError::BadMagic {
            path: "<mask file>".to_string(),
            found: magic,
        });
    }
    let version = r.read_u16()?;
    if version > MASK_FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            found: version,
            supported: MASK_FORMAT_VERSION,
        });
    }
    let encoding = MaskEncoding::from_code(r.read_u8()?)?;
    let _reserved = r.read_u8()?;
    let mask_id = MaskId::new(r.read_u64()?);
    let width = r.read_u32()?;
    let height = r.read_u32()?;
    let payload_len = r.read_u64()?;
    Ok(MaskHeader {
        mask_id,
        width,
        height,
        encoding,
        payload_len,
    })
}

/// Parses a full mask file (header + payload) back into a [`Mask`].
pub fn decode_mask(bytes: &[u8]) -> StorageResult<(MaskHeader, Mask)> {
    let header = decode_header(bytes)?;
    let payload_start = MASK_HEADER_LEN;
    let payload_end = payload_start + header.payload_len as usize;
    if bytes.len() < payload_end {
        return Err(StorageError::Truncated {
            context: "mask payload".to_string(),
            expected: payload_end,
            available: bytes.len(),
        });
    }
    let payload = &bytes[payload_start..payload_end];
    let expected_pixels = (header.width as usize) * (header.height as usize);
    let pixels: Vec<f32> = match header.encoding {
        MaskEncoding::Raw => {
            if payload.len() != expected_pixels * 4 {
                return Err(StorageError::corrupt(format!(
                    "raw payload has {} bytes, expected {}",
                    payload.len(),
                    expected_pixels * 4
                )));
            }
            payload
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect()
        }
        MaskEncoding::Compressed => compression::decompress(payload, expected_pixels)
            .ok_or_else(|| StorageError::corrupt("compressed mask payload failed to decode"))?,
    };
    if pixels.len() != expected_pixels {
        return Err(StorageError::corrupt(format!(
            "decoded {} pixels, header claims {}",
            pixels.len(),
            expected_pixels
        )));
    }
    let mask = Mask::new(header.width, header.height, pixels).map_err(|source| {
        StorageError::InvalidMask {
            mask_id: Some(header.mask_id),
            source,
        }
    })?;
    Ok((header, mask))
}

/// Decodes a contiguous row range `[row_start, row_end)` of a *raw-encoded*
/// mask file, given the full file header and the bytes of those rows.
///
/// This is the primitive that lets the TileDB-like array store slice a
/// constant ROI out of every mask while reading only the relevant rows.
pub fn decode_raw_rows(
    header: &MaskHeader,
    row_bytes: &[u8],
    row_start: u32,
    row_end: u32,
) -> StorageResult<Vec<f32>> {
    if header.encoding != MaskEncoding::Raw {
        return Err(StorageError::corrupt(
            "row slicing requires the raw encoding",
        ));
    }
    let rows = (row_end - row_start) as usize;
    let expected = rows * header.width as usize * 4;
    if row_bytes.len() != expected {
        return Err(StorageError::Truncated {
            context: "mask row slice".to_string(),
            expected,
            available: row_bytes.len(),
        });
    }
    Ok(row_bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mask() -> Mask {
        Mask::from_fn(32, 16, |x, y| ((x * y) % 17) as f32 / 17.0)
    }

    #[test]
    fn raw_round_trip() {
        let mask = sample_mask();
        let bytes = encode_mask(MaskId::new(5), &mask, MaskEncoding::Raw);
        assert_eq!(bytes.len(), MASK_HEADER_LEN + 32 * 16 * 4);
        let (header, decoded) = decode_mask(&bytes).unwrap();
        assert_eq!(header.mask_id, MaskId::new(5));
        assert_eq!(header.encoding, MaskEncoding::Raw);
        assert_eq!((header.width, header.height), (32, 16));
        assert_eq!(decoded, mask);
        assert_eq!(header.file_len(), bytes.len() as u64);
    }

    /// The raw payload is every pixel's bit pattern, little-endian, after
    /// the header — NaN payloads, infinities, signed zeros and subnormals
    /// included — and reads back bit for bit.
    #[test]
    fn raw_encoding_keeps_every_bit_pattern() {
        let bits: [u32; 10] = [
            0x7fc0_0000, // quiet NaN
            0x7fa0_0001, // signalling NaN with a payload
            0xffff_ffff, // negative NaN, all payload bits
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x8000_0000, // -0.0
            0x0000_0001, // smallest subnormal
            0x3f7f_ffff, // largest value below 1
            0x3f80_0000, // 1.0
            0xbf00_0000, // -0.5
        ];
        let data: Vec<f32> = (0..5 * 3).map(|i| f32::from_bits(bits[i % 10])).collect();
        let mask = Mask::from_data_unchecked(5, 3, data.clone()).unwrap();
        let bytes = encode_mask(MaskId::new(0x0102_0304_0506_0708), &mask, MaskEncoding::Raw);

        let mut expected = Vec::new();
        expected.extend_from_slice(b"MSKF");
        expected.extend_from_slice(&1u16.to_le_bytes());
        expected.extend_from_slice(&[0, 0]);
        expected.extend_from_slice(&0x0102_0304_0506_0708u64.to_le_bytes());
        expected.extend_from_slice(&5u32.to_le_bytes());
        expected.extend_from_slice(&3u32.to_le_bytes());
        expected.extend_from_slice(&60u64.to_le_bytes());
        for v in &data {
            expected.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        assert_eq!(bytes, expected);
        assert_eq!(bytes.capacity(), bytes.len());

        let header = decode_header(&bytes).unwrap();
        let back = decode_raw_rows(&header, &bytes[MASK_HEADER_LEN..], 0, 3).unwrap();
        let back: Vec<u32> = back.iter().map(|v| v.to_bits()).collect();
        let sent: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(back, sent);
    }

    /// The page-padded form is the same blob followed by zeros up to a
    /// whole number of blocks, in a buffer that never grew: raw (NaN and
    /// signed-zero pixels included) and compressed, for blobs shorter than,
    /// equal to and longer than one block.
    #[test]
    fn padded_blobs_are_the_blob_then_zeros() {
        let hostile = [f32::from_bits(0x7fa0_0001), -0.0, 1.0, f32::NAN, 0.25];
        let masks = [
            Mask::from_data_unchecked(5, 3, (0..15).map(|i| hostile[i % 5]).collect()).unwrap(),
            sample_mask(),
            Mask::from_fn(7, 1, |x, _| x as f32 / 7.0),
        ];
        for mask in &masks {
            for encoding in [MaskEncoding::Raw, MaskEncoding::Compressed] {
                let blob = encode_mask(MaskId::new(3), mask, encoding);
                for block in [1, 64, 92, blob.len(), 4096] {
                    let (padded, len) = encode_mask_padded(MaskId::new(3), mask, encoding, block);
                    assert_eq!(len, blob.len());
                    assert_eq!(padded[..len], blob[..], "{encoding:?}, block {block}");
                    assert!(padded[len..].iter().all(|&b| b == 0));
                    assert_eq!(padded.len() % block, 0);
                    assert!(padded.len() - len < block);
                    assert_eq!(padded.capacity(), padded.len());
                }
            }
        }
    }

    #[test]
    fn compressed_round_trip() {
        let mask = sample_mask();
        let bytes = encode_mask(MaskId::new(77), &mask, MaskEncoding::Compressed);
        let (header, decoded) = decode_mask(&bytes).unwrap();
        assert_eq!(header.encoding, MaskEncoding::Compressed);
        assert_eq!(decoded, mask);
    }

    #[test]
    fn header_only_parse() {
        let mask = sample_mask();
        let bytes = encode_mask(MaskId::new(8), &mask, MaskEncoding::Raw);
        let header = decode_header(&bytes[..MASK_HEADER_LEN]).unwrap();
        assert_eq!(header.mask_id, MaskId::new(8));
        assert_eq!(header.payload_len, 32 * 16 * 4);
    }

    #[test]
    fn corrupt_files_are_rejected() {
        let mask = sample_mask();
        let mut bytes = encode_mask(MaskId::new(1), &mask, MaskEncoding::Raw);

        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(matches!(
            decode_mask(&bad),
            Err(StorageError::BadMagic { .. })
        ));

        // Unsupported version.
        let mut bad = bytes.clone();
        bad[4] = 0xff;
        bad[5] = 0xff;
        assert!(matches!(
            decode_mask(&bad),
            Err(StorageError::UnsupportedVersion { .. })
        ));

        // Unknown encoding.
        let mut bad = bytes.clone();
        bad[6] = 9;
        assert!(matches!(
            decode_mask(&bad),
            Err(StorageError::Corrupt { .. })
        ));

        // Truncated payload.
        bytes.truncate(bytes.len() - 10);
        assert!(matches!(
            decode_mask(&bytes),
            Err(StorageError::Truncated { .. })
        ));
    }

    #[test]
    fn out_of_domain_pixels_are_rejected_at_decode() {
        let mask = sample_mask();
        let mut bytes = encode_mask(MaskId::new(1), &mask, MaskEncoding::Raw);
        // Overwrite the first pixel with 2.0f32.
        let bits = 2.0f32.to_le_bytes();
        bytes[MASK_HEADER_LEN..MASK_HEADER_LEN + 4].copy_from_slice(&bits);
        assert!(matches!(
            decode_mask(&bytes),
            Err(StorageError::InvalidMask { .. })
        ));
    }

    #[test]
    fn row_slice_decoding() {
        let mask = sample_mask();
        let bytes = encode_mask(MaskId::new(1), &mask, MaskEncoding::Raw);
        let header = decode_header(&bytes).unwrap();
        let row_start = 3u32;
        let row_end = 7u32;
        let offset = MASK_HEADER_LEN + (row_start as usize) * 32 * 4;
        let end = MASK_HEADER_LEN + (row_end as usize) * 32 * 4;
        let pixels = decode_raw_rows(&header, &bytes[offset..end], row_start, row_end).unwrap();
        assert_eq!(pixels.len(), 4 * 32);
        assert_eq!(pixels[0], mask.get(0, 3));
        assert_eq!(pixels[4 * 32 - 1], mask.get(31, 6));
        // Wrong slice length is rejected.
        assert!(decode_raw_rows(&header, &bytes[offset..end - 4], row_start, row_end).is_err());
    }
}
