//! A collection of CHIs for a dataset, with persistence and incremental
//! insertion.
//!
//! The paper assumes the CHI of every mask is loaded into memory when a
//! MaskSearch session starts and persisted to disk when it ends (§3.2, §3.6).
//! [`ChiStore`] is that collection: a concurrent map from [`MaskId`] to
//! [`Chi`], a single-file binary serialisation, and size accounting used to
//! report index-size/dataset-size ratios (§4.1).
//!
//! The file is a sequence of [`crate::segment`]s. Each segment's payload is
//!
//! ```text
//! cell_width u32 , cell_height u32 , bins u32 , count u64 ,
//! count × ( mask_id u64 , mask_width u32 , mask_height u32 , len u32 , len × u32 )
//! ```
//!
//! and a later segment's entry for a mask replaces an earlier one's, so the
//! durable store can append what changed since its last checkpoint
//! ([`ChiStore::segment_bytes`]) and rewrite the file as one segment
//! ([`ChiStore::to_bytes`]) only when enough of it is dead.

use crate::chi::{Chi, ChiConfig};
use crate::segment::{self, Format, SEGMENT_HEADER_LEN};
use masksearch_core::{Mask, MaskId};
use masksearch_storage::codec::Reader;
use masksearch_storage::{StorageError, StorageResult};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes identifying a CHI index file.
pub const CHI_MAGIC: [u8; 4] = *b"MSKI";
/// CHI index file format version.
///
/// History: v1 — one bare image of every index; v2 — a sequence of
/// checksummed segments (see [`crate::segment`]) with the same payload.
pub const CHI_FORMAT_VERSION: u16 = 2;

const FORMAT: Format = Format {
    magic: CHI_MAGIC,
    version: CHI_FORMAT_VERSION,
    segmented_since: 2,
    what: "chi index file",
};
/// Payload bytes before the entries: the configuration and the count.
const PAYLOAD_HEADER_LEN: usize = 12 + 8;

/// Encoded size of one entry.
fn entry_len(chi: &Chi) -> usize {
    8 + 4 + 4 + 4 + 4 * chi.data().len()
}

/// A thread-safe collection of per-mask CHIs sharing one configuration.
#[derive(Debug)]
pub struct ChiStore {
    config: ChiConfig,
    entries: RwLock<BTreeMap<MaskId, Arc<Chi>>>,
    /// Bumped (under the entries write lock) by every removal. Lets callers
    /// that built an index from pixels loaded *before* a concurrent
    /// overwrite detect the conflict instead of installing stale bounds —
    /// see [`ChiStore::index_mask_if_current`].
    removals: AtomicU64,
}

/// A read guard over a [`ChiStore`] for batched lookups (see
/// [`ChiStore::reader`]).
#[derive(Debug)]
pub struct ChiReader<'a> {
    entries: parking_lot::RwLockReadGuard<'a, BTreeMap<MaskId, Arc<Chi>>>,
}

impl ChiReader<'_> {
    /// The index of `mask_id`, if present — borrowed from the guard, so no
    /// reference count is touched.
    pub fn get(&self, mask_id: MaskId) -> Option<&Chi> {
        self.entries.get(&mask_id).map(Arc::as_ref)
    }
}

impl ChiStore {
    /// Creates an empty store for indexes built with `config`.
    pub fn new(config: ChiConfig) -> Self {
        Self {
            config,
            entries: RwLock::new(BTreeMap::new()),
            removals: AtomicU64::new(0),
        }
    }

    /// The configuration shared by every index in the store.
    pub fn config(&self) -> &ChiConfig {
        &self.config
    }

    /// Number of indexed masks.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Returns `true` if no masks are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// Returns `true` if `mask_id` has an index.
    pub fn contains(&self, mask_id: MaskId) -> bool {
        self.entries.read().contains_key(&mask_id)
    }

    /// Retrieves the index of `mask_id`, if present.
    pub fn get(&self, mask_id: MaskId) -> Option<Arc<Chi>> {
        self.entries.read().get(&mask_id).cloned()
    }

    /// Takes a read guard for a batch of lookups: one lock acquisition (and
    /// no `Arc` clone per hit) amortised over a whole candidate chunk — the
    /// filter stage's hot loop. Writers block while the reader is held, so
    /// hold it only across CPU-bound work.
    pub fn reader(&self) -> ChiReader<'_> {
        ChiReader {
            entries: self.entries.read(),
        }
    }

    /// Inserts a pre-built index for `mask_id`, replacing any existing one.
    pub fn insert(&self, mask_id: MaskId, chi: Chi) {
        self.entries.write().insert(mask_id, Arc::new(chi));
    }

    /// Builds and inserts the index of `mask` under the store's
    /// configuration (the §3.6 incremental-indexing step), returning it.
    pub fn index_mask(&self, mask_id: MaskId, mask: &Mask) -> Arc<Chi> {
        let chi = Arc::new(Chi::build(mask, &self.config));
        self.entries.write().insert(mask_id, Arc::clone(&chi));
        chi
    }

    /// Removes the index of `mask_id`, returning it if it existed.
    pub fn remove(&self, mask_id: MaskId) -> Option<Arc<Chi>> {
        let mut entries = self.entries.write();
        self.removals.fetch_add(1, Ordering::Relaxed);
        entries.remove(&mask_id)
    }

    /// The current removal generation (see [`ChiStore::index_mask_if_current`]).
    pub fn removal_generation(&self) -> u64 {
        self.removals.load(Ordering::Relaxed)
    }

    /// Builds and inserts the index of `mask` only if no removal has
    /// happened since `generation` (taken via
    /// [`ChiStore::removal_generation`] *before* the mask was loaded) and no
    /// index exists yet. Returns whether the index was installed.
    ///
    /// This is the incremental-indexing race guard: a removal between the
    /// generation snapshot and this call means the loaded pixels may predate
    /// an overwrite or delete, so installing bounds built from them could
    /// corrupt the filter stage. The generation check runs under the same
    /// write lock that removals bump under, so there is no window.
    pub fn index_mask_if_current(&self, mask_id: MaskId, mask: &Mask, generation: u64) -> bool {
        let chi = Arc::new(Chi::build(mask, &self.config));
        let mut entries = self.entries.write();
        if self.removals.load(Ordering::Relaxed) != generation || entries.contains_key(&mask_id) {
            return false;
        }
        entries.insert(mask_id, chi);
        true
    }

    /// Ids of all indexed masks, ascending.
    pub fn ids(&self) -> Vec<MaskId> {
        self.entries.read().keys().copied().collect()
    }

    /// Total in-memory size of the index payloads in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.read().values().map(|c| c.byte_size()).sum()
    }

    /// Serialises the store (configuration + every index) as one segment.
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries = self.entries.read();
        self.encode_segment(entries.len(), entries.iter().map(|(id, chi)| (*id, &**chi)))
    }

    /// Serialises the indexes of those of `ids` that are in the store as one
    /// segment to append to a file of earlier ones; `None` if none is.
    pub fn segment_bytes(&self, ids: impl IntoIterator<Item = MaskId>) -> Option<Vec<u8>> {
        let entries = self.entries.read();
        let present: Vec<(MaskId, &Chi)> = ids
            .into_iter()
            .filter_map(|id| entries.get(&id).map(|chi| (id, &**chi)))
            .collect();
        (!present.is_empty()).then(|| self.encode_segment(present.len(), present.into_iter()))
    }

    /// Exactly `self.to_bytes().len()`, without serialising anything.
    pub fn encoded_len(&self) -> u64 {
        let entries = self.entries.read();
        let entry_bytes: usize = entries.values().map(|chi| entry_len(chi)).sum();
        (SEGMENT_HEADER_LEN + PAYLOAD_HEADER_LEN + entry_bytes) as u64
    }

    fn encode_segment<'a>(
        &self,
        count: usize,
        entries: impl Iterator<Item = (MaskId, &'a Chi)>,
    ) -> Vec<u8> {
        let mut w = segment::begin(CHI_MAGIC, CHI_FORMAT_VERSION);
        w.write_u32(self.config.cell_width());
        w.write_u32(self.config.cell_height());
        w.write_u32(self.config.bins());
        w.write_u64(count as u64);
        for (id, chi) in entries {
            let start = w.len();
            w.write_u64(id.raw());
            w.write_u32(chi.mask_width());
            w.write_u32(chi.mask_height());
            w.write_u32_vec(chi.data());
            debug_assert_eq!(w.len() - start, entry_len(chi));
        }
        segment::finish(w)
    }

    /// Deserialises a store from the bytes of a file: one segment written by
    /// [`ChiStore::to_bytes`], any number appended after it, or a bare v1
    /// image. A torn or foreign tail is ignored; see
    /// [`ChiStore::from_segments`] to learn where it starts.
    pub fn from_bytes(bytes: &[u8]) -> StorageResult<Self> {
        Self::from_segments(bytes).map(|(store, _)| store)
    }

    /// Like [`ChiStore::from_bytes`], also returning the length of the
    /// prefix of `bytes` that was loaded — the offset at which the next
    /// segment belongs. It is 0 for a bare v1 image, which cannot be
    /// appended to. Fails if not even the first segment is readable.
    pub fn from_segments(bytes: &[u8]) -> StorageResult<(Self, usize)> {
        let mut store: Option<ChiStore> = None;
        let valid_len = segment::read(bytes, &FORMAT, |_, payload| {
            let mut r = Reader::new(payload, FORMAT.what);
            let cell_width = r.read_u32()?;
            let cell_height = r.read_u32()?;
            let bins = r.read_u32()?;
            let config = ChiConfig::new(cell_width, cell_height, bins).ok_or_else(|| {
                StorageError::corrupt("chi index file has a zero-sized configuration")
            })?;
            if store.as_ref().is_some_and(|s| s.config != config) {
                return Err(StorageError::corrupt(
                    "chi index segment of a different configuration",
                ));
            }
            let count = r.read_u64()?;
            let mut decoded = Vec::new();
            for _ in 0..count {
                let id = MaskId::new(r.read_u64()?);
                let width = r.read_u32()?;
                let height = r.read_u32()?;
                let data = r.read_u32_vec()?;
                let chi = Chi::from_parts(config, width, height, data).ok_or_else(|| {
                    StorageError::corrupt(format!(
                        "chi payload for mask {id} does not match its declared shape"
                    ))
                })?;
                decoded.push((id, Arc::new(chi)));
            }
            store
                .get_or_insert_with(|| ChiStore::new(config))
                .entries
                .write()
                .extend(decoded);
            Ok(())
        })?;
        let store = store.ok_or_else(|| StorageError::corrupt("chi index file is empty"))?;
        Ok((store, valid_len))
    }

    /// Persists the store to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> StorageResult<()> {
        std::fs::write(path.as_ref(), self.to_bytes())
            .map_err(|e| StorageError::io("writing chi index file", e))
    }

    /// Loads a store from a file.
    pub fn load(path: impl AsRef<Path>) -> StorageResult<Self> {
        let bytes = std::fs::read(path.as_ref())
            .map_err(|e| StorageError::io("reading chi index file", e))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{cp, PixelRange, Roi};

    fn mask(seed: u32) -> Mask {
        Mask::from_fn(24, 24, |x, y| ((x * 7 + y * 3 + seed) % 19) as f32 / 19.0)
    }

    fn config() -> ChiConfig {
        ChiConfig::new(8, 8, 8).unwrap()
    }

    #[test]
    fn insert_get_remove() {
        let store = ChiStore::new(config());
        assert!(store.is_empty());
        store.index_mask(MaskId::new(1), &mask(1));
        store.index_mask(MaskId::new(2), &mask(2));
        assert_eq!(store.len(), 2);
        assert!(store.contains(MaskId::new(1)));
        assert!(!store.contains(MaskId::new(3)));
        assert_eq!(store.ids(), vec![MaskId::new(1), MaskId::new(2)]);
        assert!(store.get(MaskId::new(2)).is_some());
        assert!(store.remove(MaskId::new(1)).is_some());
        assert!(store.remove(MaskId::new(1)).is_none());
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn guarded_install_refuses_after_a_removal() {
        let store = ChiStore::new(config());
        store.index_mask(MaskId::new(1), &mask(1));

        // Simulate incremental indexing racing an overwrite: the generation
        // is snapshotted, then a removal (the overwrite's eviction) happens
        // before the install.
        let generation = store.removal_generation();
        store.remove(MaskId::new(1));
        assert!(!store.index_mask_if_current(MaskId::new(1), &mask(1), generation));
        assert!(!store.contains(MaskId::new(1)));

        // With a fresh snapshot and no interleaved removal, it installs.
        let generation = store.removal_generation();
        assert!(store.index_mask_if_current(MaskId::new(1), &mask(2), generation));
        assert!(store.contains(MaskId::new(1)));
        // ...but never overwrites an existing entry.
        assert!(!store.index_mask_if_current(MaskId::new(1), &mask(3), generation));
    }

    #[test]
    fn indexed_bounds_bracket_exact_values() {
        let store = ChiStore::new(config());
        let m = mask(5);
        let chi = store.index_mask(MaskId::new(5), &m);
        let roi = Roi::new(3, 3, 20, 17).unwrap();
        let range = PixelRange::new(0.3, 0.7).unwrap();
        let b = chi.cp_bounds(&roi, &range);
        let exact = cp(&m, &roi, &range);
        assert!(b.lower <= exact && exact <= b.upper);
    }

    #[test]
    fn total_bytes_accounts_every_index() {
        let store = ChiStore::new(config());
        store.index_mask(MaskId::new(1), &mask(1));
        store.index_mask(MaskId::new(2), &mask(2));
        // 24x24 mask with 8x8 cells -> 3x3 cells x 8 bins x 4 bytes = 288.
        assert_eq!(store.total_bytes(), 2 * 288);
    }

    #[test]
    fn binary_round_trip() {
        let store = ChiStore::new(config());
        for i in 0..5u64 {
            store.index_mask(MaskId::new(i), &mask(i as u32));
        }
        let bytes = store.to_bytes();
        let decoded = ChiStore::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.len(), 5);
        assert_eq!(decoded.config(), store.config());
        for i in 0..5u64 {
            assert_eq!(
                *decoded.get(MaskId::new(i)).unwrap(),
                *store.get(MaskId::new(i)).unwrap()
            );
        }
    }

    #[test]
    fn file_round_trip_and_corruption() {
        let store = ChiStore::new(config());
        store.index_mask(MaskId::new(9), &mask(9));
        let path = std::env::temp_dir().join(format!(
            "masksearch-chistore-test-{}.idx",
            std::process::id()
        ));
        store.save(&path).unwrap();
        let loaded = ChiStore::load(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        // Corrupt the file and confirm a typed error.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] = b'Z';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            ChiStore::load(&path),
            Err(StorageError::BadMagic { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_index_file_is_rejected() {
        let store = ChiStore::new(config());
        store.index_mask(MaskId::new(1), &mask(1));
        let bytes = store.to_bytes();
        assert!(ChiStore::from_bytes(&bytes[..bytes.len() - 8]).is_err());
        assert!(ChiStore::from_bytes(&[]).is_err());
    }

    /// The file as a v1 build wrote it: no length, no checksum.
    fn bare_v1_image(store: &ChiStore) -> Vec<u8> {
        let mut bytes = CHI_MAGIC.to_vec();
        bytes.extend_from_slice(&[1, 0, 0, 0]);
        bytes.extend_from_slice(&store.to_bytes()[SEGMENT_HEADER_LEN..]);
        bytes
    }

    #[test]
    fn appended_segments_replace_earlier_entries_and_a_torn_tail_is_dropped() {
        let store = ChiStore::new(config());
        for i in 0..4u64 {
            store.index_mask(MaskId::new(i), &mask(i as u32));
        }
        let mut file = store.to_bytes();
        assert_eq!(file.len() as u64, store.encoded_len());
        let first_len = file.len();

        // Overwrite mask 1, add mask 9, append both as a second segment (an
        // id that is not in the store is skipped).
        store.index_mask(MaskId::new(1), &mask(100));
        store.index_mask(MaskId::new(9), &mask(9));
        assert!(store.segment_bytes([MaskId::new(77)]).is_none());
        let second = store.segment_bytes([1, 9, 77].map(MaskId::new)).unwrap();
        file.extend_from_slice(&second);
        let (loaded, valid_len) = ChiStore::from_segments(&file).unwrap();
        assert_eq!(valid_len, file.len());
        assert_eq!(loaded.ids(), store.ids());
        for id in store.ids() {
            assert_eq!(*loaded.get(id).unwrap(), *store.get(id).unwrap());
        }

        // Every cut and every flipped byte inside the second segment leaves
        // exactly the first one.
        for damage in 0..second.len() {
            let (cut, _) = ChiStore::from_segments(&file[..first_len + damage]).unwrap();
            let mut flipped = file.clone();
            flipped[first_len + damage] ^= 0x40;
            let (flip, flip_len) = ChiStore::from_segments(&flipped).unwrap();
            for loaded in [cut, flip] {
                assert_eq!(loaded.len(), 4, "damage at {damage}");
                assert_eq!(
                    *loaded.get(MaskId::new(1)).unwrap(),
                    Chi::build(&mask(1), &config())
                );
            }
            assert_eq!(flip_len, first_len);
        }
        // Damage to the first segment is an error, not an empty store.
        let mut flipped = file.clone();
        flipped[first_len - 1] ^= 0x40;
        assert!(ChiStore::from_segments(&flipped).is_err());
    }

    #[test]
    fn bare_v1_images_load_and_cannot_be_appended_to() {
        let store = ChiStore::new(config());
        for i in 0..3u64 {
            store.index_mask(MaskId::new(i), &mask(i as u32));
        }
        let v1 = bare_v1_image(&store);
        let (loaded, valid_len) = ChiStore::from_segments(&v1).unwrap();
        assert_eq!(valid_len, 0);
        assert_eq!(loaded.ids(), store.ids());
        assert_eq!(
            *loaded.get(MaskId::new(2)).unwrap(),
            *store.get(MaskId::new(2)).unwrap()
        );
        assert!(ChiStore::from_bytes(&v1[..v1.len() - 8]).is_err());
        // A version from the future is refused, not guessed at.
        let mut future = store.to_bytes();
        future[4] = CHI_FORMAT_VERSION as u8 + 1;
        assert!(matches!(
            ChiStore::from_bytes(&future),
            Err(StorageError::UnsupportedVersion { .. })
        ));
    }
}
