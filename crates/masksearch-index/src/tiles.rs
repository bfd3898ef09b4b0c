//! A persistent collection of tile-summary grids — the within-mask
//! counterpart of [`crate::ChiStore`].
//!
//! The CHI store holds one cumulative histogram index *per mask* for the
//! filter stage; the [`TileStore`] holds one [`TileGrid`] per mask for the
//! verification stage's tiled kernel (`masksearch-core`). The durable mask
//! database maintains a `TileStore` on every commit and persists it at
//! checkpoints, so reopened databases serve pre-built summaries instead of
//! rebuilding them from pixels on first verification.
//!
//! The file is a sequence of segments (see `segment.rs`), like the CHI file's. Each
//! segment's payload is
//!
//! ```text
//! tile u32 , count u64 ,
//! count × ( mask_id u64 , mask_width u32 , mask_height u32 ,
//!           tiles × ( min f32 , max f32 , uncountable u32 , (TILE_BINS + 1) × u32 ) )
//! ```

use crate::segment::{self, Format, SEGMENT_HEADER_LEN};
use masksearch_core::{Mask, MaskId, TileGrid, TileSummary, DEFAULT_TILE_SIZE, TILE_BINS};
use masksearch_storage::codec::Reader;
use masksearch_storage::{StorageError, StorageResult};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Magic bytes identifying a tile-summary file.
pub const TILE_MAGIC: [u8; 4] = *b"MSKT";
/// Tile-summary file format version.
///
/// History: v1 — min/max + cumulative histogram per tile; v2 — adds the
/// per-tile uncountable-pixel count (NaN / out-of-domain), needed so a
/// reopened database never serves a summary that would let the kernel
/// classify a NaN-bearing tile all-in. v1 files (written only from
/// validated masks, whose uncountable counts are all zero) load as v2 with
/// zero counts; v3 — a sequence of checksummed segments (see
/// `segment.rs`) with the v2 payload.
pub const TILE_FORMAT_VERSION: u16 = 3;

const FORMAT: Format = Format {
    magic: TILE_MAGIC,
    version: TILE_FORMAT_VERSION,
    segmented_since: 3,
    what: "tile summary file",
};
/// Payload bytes before the entries: the tile size and the count.
const PAYLOAD_HEADER_LEN: usize = 4 + 8;
/// Encoded size of one tile's summary (since v2).
const SUMMARY_LEN: usize = 8 + 4 + 4 * (TILE_BINS + 1);

/// Encoded size of one entry.
fn entry_len(grid: &TileGrid) -> usize {
    8 + 4 + 4 + SUMMARY_LEN * grid.summaries().len()
}

/// A thread-safe collection of per-mask tile grids sharing one tile size.
#[derive(Debug)]
pub struct TileStore {
    tile: u32,
    entries: RwLock<BTreeMap<MaskId, Arc<TileGrid>>>,
}

impl Default for TileStore {
    fn default() -> Self {
        Self::new(DEFAULT_TILE_SIZE)
    }
}

impl TileStore {
    /// Creates an empty store for grids with `tile × tile` pixel tiles.
    pub fn new(tile: u32) -> Self {
        assert!(tile > 0, "tile size must be non-zero");
        Self {
            tile,
            entries: RwLock::new(BTreeMap::new()),
        }
    }

    /// Tile edge length shared by every grid in the store.
    pub fn tile(&self) -> u32 {
        self.tile
    }

    /// Number of summarised masks.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Returns `true` if no masks are summarised.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Returns `true` if `mask_id` has a grid.
    pub fn contains(&self, mask_id: MaskId) -> bool {
        self.entries.read().contains_key(&mask_id)
    }

    /// Retrieves the grid of `mask_id`, if present.
    pub fn get(&self, mask_id: MaskId) -> Option<Arc<TileGrid>> {
        self.entries.read().get(&mask_id).cloned()
    }

    /// Inserts a pre-built grid for `mask_id`, replacing any existing one.
    pub fn insert(&self, mask_id: MaskId, grid: Arc<TileGrid>) {
        self.entries.write().insert(mask_id, grid);
    }

    /// Inserts pre-built grids under one write guard, in order (a later
    /// entry for an id replaces an earlier one). Nothing to insert takes no
    /// lock.
    pub fn insert_many(&self, grids: impl IntoIterator<Item = (MaskId, Arc<TileGrid>)>) {
        let mut grids = grids.into_iter().peekable();
        if grids.peek().is_some() {
            self.entries.write().extend(grids);
        }
    }

    /// Builds and inserts the grid of `mask`, returning it.
    pub fn index_mask(&self, mask_id: MaskId, mask: &Mask) -> Arc<TileGrid> {
        let grid = Arc::new(TileGrid::build_with(mask, self.tile));
        self.entries.write().insert(mask_id, Arc::clone(&grid));
        grid
    }

    /// Removes the grid of `mask_id`, returning it if it existed.
    pub fn remove(&self, mask_id: MaskId) -> Option<Arc<TileGrid>> {
        self.entries.write().remove(&mask_id)
    }

    /// Removes the grids of `mask_ids` under one write guard. An empty slice
    /// takes no lock.
    pub fn remove_many(&self, mask_ids: &[MaskId]) {
        if !mask_ids.is_empty() {
            let mut entries = self.entries.write();
            for id in mask_ids {
                entries.remove(id);
            }
        }
    }

    /// Ids of all summarised masks, ascending.
    pub fn ids(&self) -> Vec<MaskId> {
        self.entries.read().keys().copied().collect()
    }

    /// Total in-memory size of the grid payloads in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.read().values().map(|g| g.byte_size()).sum()
    }

    /// Serialises the store (tile size + every grid) as one segment.
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries = self.entries.read();
        self.encode_segment(
            entries.len(),
            entries.iter().map(|(id, grid)| (*id, &**grid)),
        )
    }

    /// Serialises the grids of those of `ids` that are in the store as one
    /// segment to append to a file of earlier ones; `None` if none is.
    pub fn segment_bytes(&self, ids: impl IntoIterator<Item = MaskId>) -> Option<Vec<u8>> {
        let entries = self.entries.read();
        let present: Vec<(MaskId, &TileGrid)> = ids
            .into_iter()
            .filter_map(|id| entries.get(&id).map(|grid| (id, &**grid)))
            .collect();
        (!present.is_empty()).then(|| self.encode_segment(present.len(), present.into_iter()))
    }

    /// Exactly `self.to_bytes().len()`, without serialising anything.
    pub fn encoded_len(&self) -> u64 {
        let entries = self.entries.read();
        let entry_bytes: usize = entries.values().map(|grid| entry_len(grid)).sum();
        (SEGMENT_HEADER_LEN + PAYLOAD_HEADER_LEN + entry_bytes) as u64
    }

    fn encode_segment<'a>(
        &self,
        count: usize,
        entries: impl Iterator<Item = (MaskId, &'a TileGrid)>,
    ) -> Vec<u8> {
        let mut w = segment::begin(TILE_MAGIC, TILE_FORMAT_VERSION);
        w.write_u32(self.tile);
        w.write_u64(count as u64);
        for (id, grid) in entries {
            let start = w.len();
            w.write_u64(id.raw());
            w.write_u32(grid.mask_width());
            w.write_u32(grid.mask_height());
            for summary in grid.summaries() {
                w.write_f32(summary.min());
                w.write_f32(summary.max());
                w.write_u32(summary.uncountable());
                for &c in summary.cum() {
                    w.write_u32(c);
                }
            }
            debug_assert_eq!(w.len() - start, entry_len(grid));
        }
        segment::finish(w)
    }

    /// Deserialises a store from the bytes of a file: one segment written by
    /// [`TileStore::to_bytes`], any number appended after it, or a bare v1 /
    /// v2 image. A torn or foreign tail is ignored; see
    /// [`TileStore::from_segments`] to learn where it starts.
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<Self> {
        Self::from_segments(bytes).map(|(store, _)| store)
    }

    /// Like [`TileStore::from_bytes`], also returning the length of the
    /// prefix of `bytes` that was loaded — the offset at which the next
    /// segment belongs. It is 0 for a bare v1 / v2 image, which cannot be
    /// appended to. Fails if not even the first segment is readable.
    pub fn from_segments(bytes: &[u8]) -> StorageResult<(Self, usize)> {
        let mut store: Option<TileStore> = None;
        let valid_len = segment::read(bytes, &FORMAT, |version, payload| {
            let mut r = Reader::new(payload, FORMAT.what);
            let tile = r.read_u32()?;
            if tile == 0 {
                return Err(StorageError::corrupt("tile summary file has tile size 0"));
            }
            if store.as_ref().is_some_and(|s| s.tile != tile) {
                return Err(StorageError::corrupt(
                    "tile summary segment of a different tile size",
                ));
            }
            let count = r.read_u64()?;
            let mut decoded = Vec::new();
            for _ in 0..count {
                let id = MaskId::new(r.read_u64()?);
                let width = r.read_u32()?;
                let height = r.read_u32()?;
                if width == 0 || height == 0 {
                    return Err(StorageError::corrupt(format!(
                        "tile grid for mask {id} declares an empty mask"
                    )));
                }
                let tiles =
                    (width.div_ceil(tile) as usize).saturating_mul(height.div_ceil(tile) as usize);
                // Validate the payload really holds `tiles` summaries before
                // allocating: a corrupt width/height must surface as a typed
                // error (so callers can discard and rebuild the file), never
                // as a capacity-overflow panic or an OOM abort.
                let summary_bytes = if version >= 2 {
                    SUMMARY_LEN
                } else {
                    SUMMARY_LEN - 4
                };
                if tiles
                    .checked_mul(summary_bytes)
                    .is_none_or(|needed| needed > r.remaining())
                {
                    return Err(StorageError::corrupt(format!(
                        "tile grid for mask {id} declares more tiles than the file holds"
                    )));
                }
                let mut summaries = Vec::with_capacity(tiles);
                for _ in 0..tiles {
                    let min = r.read_f32()?;
                    let max = r.read_f32()?;
                    // v1 files predate the uncountable-pixel counter; they
                    // were only ever written from validated masks, so zero
                    // is the true count.
                    let uncountable = if version >= 2 { r.read_u32()? } else { 0 };
                    let mut cum = [0u32; TILE_BINS + 1];
                    for slot in cum.iter_mut() {
                        *slot = r.read_u32()?;
                    }
                    summaries.push(TileSummary::from_parts(min, max, uncountable, cum));
                }
                let grid =
                    TileGrid::from_parts(width, height, tile, summaries).ok_or_else(|| {
                        StorageError::corrupt(format!(
                            "tile grid for mask {id} does not match its declared shape"
                        ))
                    })?;
                decoded.push((id, Arc::new(grid)));
            }
            store
                .get_or_insert_with(|| TileStore::new(tile))
                .entries
                .write()
                .extend(decoded);
            Ok(())
        })?;
        let store = store.ok_or_else(|| StorageError::corrupt("tile summary file is empty"))?;
        Ok((store, valid_len))
    }

    /// Persists the store to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> StorageResult<()> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| StorageError::io("writing tile summary file", e))
    }

    /// Loads a store from a file.
    pub fn load(path: impl AsRef<Path>) -> StorageResult<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| StorageError::io("reading tile summary file", e))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{cp, PixelRange, Roi, TileStats};

    fn mask(seed: u32) -> Mask {
        Mask::from_fn(40, 28, |x, y| ((x * 5 + y * 11 + seed) % 23) as f32 / 23.0)
    }

    #[test]
    fn insert_get_remove() {
        let store = TileStore::new(16);
        assert!(store.is_empty());
        store.index_mask(MaskId::new(1), &mask(1));
        store.index_mask(MaskId::new(2), &mask(2));
        assert_eq!(store.len(), 2);
        assert!(store.contains(MaskId::new(1)));
        assert_eq!(store.ids(), vec![MaskId::new(1), MaskId::new(2)]);
        assert!(store.total_bytes() > 0);
        assert!(store.remove(MaskId::new(1)).is_some());
        assert!(store.remove(MaskId::new(1)).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn binary_round_trip_preserves_exact_counts() {
        let store = TileStore::new(16);
        for i in 0..4u64 {
            store.index_mask(MaskId::new(i), &mask(i as u32));
        }
        let decoded = TileStore::from_bytes(&store.to_bytes()).unwrap();
        assert_eq!(decoded.len(), 4);
        assert_eq!(decoded.tile(), 16);
        for i in 0..4u64 {
            let m = mask(i as u32);
            let grid = decoded.get(MaskId::new(i)).unwrap();
            assert_eq!(*grid, *store.get(MaskId::new(i)).unwrap());
            assert!(grid.verify(&m));
            let roi = Roi::new(3, 3, 30, 20).unwrap();
            let range = PixelRange::new(0.25, 0.75).unwrap();
            assert_eq!(
                grid.cp(&m, &roi, &range, &mut TileStats::default()),
                cp(&m, &roi, &range)
            );
        }
    }

    #[test]
    fn file_round_trip_and_corruption() {
        let store = TileStore::default();
        store.index_mask(MaskId::new(7), &mask(7));
        let path = std::env::temp_dir().join(format!(
            "masksearch-tilestore-test-{}.tiles",
            std::process::id()
        ));
        store.save(&path).unwrap();
        let loaded = TileStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.tile(), DEFAULT_TILE_SIZE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'Z';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            TileStore::load(&path),
            Err(StorageError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_shape_fields_error_instead_of_allocating() {
        // Rewrite the first entry's width to a huge value: decoding must
        // return a typed corruption error (the open path discards and
        // rebuilds on Err), not panic or over-allocate.
        let store = TileStore::new(8);
        store.index_mask(MaskId::new(1), &mask(1));
        // A bare v2 image has no checksum to catch the damage first.
        let mut bytes = bare_v2_image(&store);
        // Layout: magic(4) version(2) reserved(2) tile(4) count(8) id(8) width(4).
        let width_offset = 4 + 2 + 2 + 4 + 8 + 8;
        bytes[width_offset..width_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            TileStore::from_bytes(&bytes),
            Err(StorageError::Corrupt { .. })
        ));
    }

    /// The file as a v2 build wrote it: no length, no checksum.
    fn bare_v2_image(store: &TileStore) -> Vec<u8> {
        let mut bytes = TILE_MAGIC.to_vec();
        bytes.extend_from_slice(&[2, 0, 0, 0]);
        bytes.extend_from_slice(&store.to_bytes()[SEGMENT_HEADER_LEN..]);
        bytes
    }

    #[test]
    fn segments_append_and_bare_images_still_load() {
        let store = TileStore::new(8);
        for i in 0..3u64 {
            store.index_mask(MaskId::new(i), &mask(i as u32));
        }
        let mut file = store.to_bytes();
        assert_eq!(file.len() as u64, store.encoded_len());
        let first_len = file.len();
        store.index_mask(MaskId::new(1), &mask(50));
        store.index_mask(MaskId::new(5), &mask(5));
        file.extend_from_slice(&store.segment_bytes([1, 5].map(MaskId::new)).unwrap());
        let (loaded, valid_len) = TileStore::from_segments(&file).unwrap();
        assert_eq!(valid_len, file.len());
        assert_eq!(loaded.ids(), store.ids());
        for id in store.ids() {
            assert_eq!(*loaded.get(id).unwrap(), *store.get(id).unwrap());
        }
        // A torn second segment leaves the first.
        let (torn, valid_len) = TileStore::from_segments(&file[..file.len() - 3]).unwrap();
        assert_eq!(valid_len, first_len);
        assert_eq!(torn.len(), 3);
        assert!(torn.get(MaskId::new(1)).unwrap().verify(&mask(1)));

        let (bare, valid_len) = TileStore::from_segments(&bare_v2_image(&store)).unwrap();
        assert_eq!(valid_len, 0);
        assert_eq!(bare.ids(), store.ids());
        assert!(bare.get(MaskId::new(1)).unwrap().verify(&mask(50)));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let store = TileStore::new(8);
        store.index_mask(MaskId::new(1), &mask(1));
        let bytes = store.to_bytes();
        assert!(TileStore::from_bytes(&bytes[..bytes.len() - 5]).is_err());
    }
}
