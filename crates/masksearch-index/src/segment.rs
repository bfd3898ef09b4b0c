//! The container of the persisted index file (`masks.chi`):
//! a sequence of self-checksummed segments, so a checkpoint can append the
//! entries that changed instead of rewriting every entry.
//!
//! ```text
//! file    = segment*
//! segment = magic[4] , version u16 , reserved u16 , payload_len u64 , checksum u64 , payload
//! ```
//!
//! The checksum ([`checksum64`]) covers the 16 header bytes before it and
//! the payload. What a payload holds is the index's business; a later
//! segment's entries replace an earlier one's. A reader keeps the longest
//! prefix of valid segments: a torn last append costs only its own entries,
//! which the owner of the file rebuilds. A segment of a newer version than
//! the reader understands is an error wherever it is, once its checksum
//! shows it whole: taking it for a torn tail would keep the older entries it
//! replaces.
//!
//! Files written before this container existed are one bare image —
//! `magic , version , reserved` followed by the same payload, to the end of
//! the file — and still load; nothing can be appended after one.

use masksearch_storage::codec::{checksum64, Writer};
use masksearch_storage::{StorageError, StorageResult};

/// Byte length of a segment's header.
pub(crate) const SEGMENT_HEADER_LEN: usize = 24;

/// Starts a segment: the header with its length and checksum still blank.
/// The caller writes the payload and hands the writer to [`finish`].
pub(crate) fn begin(magic: [u8; 4], version: u16) -> Writer {
    let mut w = Writer::new();
    w.write_bytes(&magic);
    w.write_u16(version);
    w.write_u16(0);
    w.write_u64(0);
    w.write_u64(0);
    w
}

/// Fills in the length and checksum of a segment started by [`begin`].
pub(crate) fn finish(w: Writer) -> Vec<u8> {
    let mut bytes = w.into_bytes();
    let payload_len = (bytes.len() - SEGMENT_HEADER_LEN) as u64;
    bytes[8..16].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = checksum64(&[&bytes[..16], &bytes[SEGMENT_HEADER_LEN..]]);
    bytes[16..24].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

/// The format of the file being read.
pub(crate) struct Format {
    pub magic: [u8; 4],
    /// Newest version understood.
    pub version: u16,
    /// First version written as segments; older files are one bare image.
    pub segmented_since: u16,
    /// Names the file in errors.
    pub what: &'static str,
}

/// The version field of the segment (or bare image) `bytes` starts with,
/// unchecked.
pub(crate) fn version(bytes: &[u8]) -> Option<u16> {
    bytes.get(4..6).map(|v| u16::from_le_bytes([v[0], v[1]]))
}

/// Feeds `each` the version and payload of every valid segment of `bytes`
/// in order, and returns the length of the prefix they span — where the
/// next segment may be appended. A bare pre-segment file is fed whole and
/// reports a prefix of 0. A file whose *first* segment is unreadable is an
/// error, and so is a whole segment of a newer version anywhere; anything
/// else unreadable after the first segment only ends the prefix.
pub(crate) fn read(
    bytes: &[u8],
    format: &Format,
    mut each: impl FnMut(u16, &[u8]) -> StorageResult<()>,
) -> StorageResult<usize> {
    let mut pos = 0;
    while pos < bytes.len() || pos == 0 {
        match segment_at(&bytes[pos..], format, pos == 0) {
            Ok((version, payload)) if version < format.segmented_since => {
                // Only the file as a whole can be a bare image.
                if pos == 0 {
                    each(version, payload)?;
                }
                return Ok(pos);
            }
            Ok((version, payload)) => match each(version, payload) {
                Ok(()) => pos += SEGMENT_HEADER_LEN + payload.len(),
                Err(e) if pos == 0 => return Err(e),
                Err(_) => break,
            },
            Err(e @ StorageError::UnsupportedVersion { .. }) => return Err(e),
            Err(e) if pos == 0 => return Err(e),
            Err(_) => break,
        }
    }
    Ok(pos)
}

/// The version and payload of the segment (or bare image) `bytes` starts
/// with. The version of a `first` segment is checked before anything else
/// (a newer file may be laid out otherwise); a later segment's only once
/// its checksum holds, so a torn append of any version is told apart from
/// a whole newer one.
fn segment_at<'a>(bytes: &'a [u8], format: &Format, first: bool) -> StorageResult<(u16, &'a [u8])> {
    let truncated = |expected: usize| StorageError::Truncated {
        context: format.what.to_string(),
        expected,
        available: bytes.len(),
    };
    let prefix = bytes.get(..8).ok_or_else(|| truncated(8))?;
    if prefix[..4] != format.magic {
        return Err(StorageError::BadMagic {
            path: format!("<{}>", format.what),
            found: [prefix[0], prefix[1], prefix[2], prefix[3]],
        });
    }
    let version = u16::from_le_bytes([prefix[4], prefix[5]]);
    let unsupported = StorageError::UnsupportedVersion {
        found: version,
        supported: format.version,
    };
    if first && version > format.version {
        return Err(unsupported);
    }
    if version < format.segmented_since {
        return Ok((version, &bytes[8..]));
    }
    let header = bytes
        .get(..SEGMENT_HEADER_LEN)
        .ok_or_else(|| truncated(SEGMENT_HEADER_LEN))?;
    let u64_at = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
    let end = usize::try_from(u64_at(8))
        .ok()
        .and_then(|len| len.checked_add(SEGMENT_HEADER_LEN))
        .unwrap_or(usize::MAX);
    let payload = bytes
        .get(SEGMENT_HEADER_LEN..end)
        .ok_or_else(|| truncated(end))?;
    if checksum64(&[&header[..16], payload]) != u64_at(16) {
        return Err(StorageError::corrupt(format!(
            "{} segment fails its checksum",
            format.what
        )));
    }
    if version > format.version {
        return Err(unsupported);
    }
    Ok((version, payload))
}
