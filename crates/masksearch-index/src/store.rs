//! A collection of CHIs for a dataset, with persistence and incremental
//! insertion.
//!
//! The paper assumes the CHI of every mask is loaded into memory when a
//! MaskSearch session starts and persisted to disk when it ends (§3.2, §3.6).
//! [`ChiStore`] is that collection: a concurrent map from [`MaskId`] to the
//! mask's index, a single-file binary serialisation, and size accounting used
//! to report index-size/dataset-size ratios (§4.1).
//!
//! ## In memory
//!
//! The filter stage reads every candidate's cells, so where they live is its
//! memory-access pattern. All cells sit in two slabs of fixed-size chunks,
//! one of 16-bit counts and one of 32-bit counts; an ordered map takes a
//! [`MaskId`] to its slot — mask shape, grid shape, and the run holding the
//! cells in the slab of the width its shape sets ([`count_bytes`]) — and a
//! lookup hands out a [`ChiView`] borrowing that run: no allocation per
//! mask, no reference count, two pointer hops after the map. Masks of
//! different shapes share a slab (a run is as long as its mask's grid
//! needs). A freed run is reused by the next index of exactly that width and
//! length, an overwrite whose grid keeps its width and length rewrites its
//! run, and a slab grows a chunk at a time, so growth never copies cells.
//! Runs are only reused at their own length: a store whose masks keep
//! changing shape keeps the chunks its old shapes filled.
//!
//! ## Versions
//!
//! Readers never lock the entries. What they read is a [`ChiVersion`]: the
//! slot map (a [`CowMap`]) and the two slabs' chunks and chunk groups, each
//! behind an `Arc`, pinned by [`ChiStore::reader`] with one `Arc` clone and
//! immutable from then on. A write (one call: a batch of removals and
//! installs) clones the current version, which shares every map node,
//! group and chunk with it, changes the clone — a map leaf, group or chunk
//! still shared is copied the first time the batch writes to it, and only
//! then — and swaps it in. So a write costs what its batch touches plus one
//! pointer per group of chunks, it never waits for a reader, and a reader
//! sees each write whole or not at all. A version's
//! chunks and leaves that no later version shares are freed when its last
//! reader lets go. Writers are serialised among themselves.
//!
//! ## Stamps
//!
//! A slot records the [`Stamp`] of the pixels its index was built from: the
//! commit that installed them, as the store that holds them numbers its
//! commits. Every install names it — [`ChiStore::apply`] the stamp of the
//! commit it follows, [`ChiStore::index_mask_if_current`] that of the
//! pixels it was built from — except that an index read from a file, or
//! installed by [`ChiStore::insert`] or [`ChiStore::index_mask`], carries
//! [`RECOVERED`], the stamp of the pixels a store holds when it opens. A
//! reader that counts pixels under an index — the cell kernel of
//! verification — checks that the stamp the store reported with the pixels
//! it read is the slot's: the index then summarises exactly those pixels.
//!
//! ## On disk
//!
//! The file is a sequence of segments (see `segment.rs`). Each segment's
//! payload is
//!
//! ```text
//! cell_width u32 , cell_height u32 , bins u32 , count u64 ,
//! count × ( mask_id u64 , mask_width u32 , mask_height u32 , len u32 , len × cell )
//! ```
//!
//! where a `cell` is a `u16` if `mask_width · mask_height ≤ 65,535` and a
//! `u32` otherwise (version 3; versions 1 and 2 store every cell as a
//! `u32`, and load into the width the shape sets). A later segment's entry
//! for a mask replaces an earlier one's — whatever their versions — so the
//! durable store can append what changed since its last checkpoint
//! ([`ChiStore::segment_bytes`]) and rewrite the file as one segment
//! ([`ChiStore::to_bytes`]) only when enough of it is dead.

use crate::chi::{count_bytes, narrow, Cells, Chi, ChiConfig, ChiOver, ChiView, Count};
use crate::segment::{self, Format, SEGMENT_HEADER_LEN};
use masksearch_core::{Mask, MaskId};
use masksearch_storage::codec::Reader;
use masksearch_storage::{CowMap, IdCursor, Stamp, StorageError, StorageResult, RECOVERED};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Magic bytes identifying a CHI index file.
pub const CHI_MAGIC: [u8; 4] = *b"MSKI";
/// CHI index file format version.
///
/// History: v1 — one bare image of every index; v2 — a sequence of
/// checksummed segments (see `segment.rs`) with the same payload; v3 — the
/// same, each entry's cells 16 or 32 bits wide as its mask's shape sets.
pub const CHI_FORMAT_VERSION: u16 = 3;

/// Whether the CHI file `bytes` begins in an older format than
/// [`CHI_FORMAT_VERSION`]: whatever [`ChiStore::from_segments`] loads from
/// it is then worth writing again in the current one. (A file that begins
/// in the current format holds nothing older: earlier builds refuse it.)
pub fn outdated_format(bytes: &[u8]) -> bool {
    segment::version(bytes).is_some_and(|version| version < CHI_FORMAT_VERSION)
}

const FORMAT: Format = Format {
    magic: CHI_MAGIC,
    version: CHI_FORMAT_VERSION,
    segmented_since: 2,
    what: "chi index file",
};
/// Payload bytes before the entries: the configuration and the count.
const PAYLOAD_HEADER_LEN: usize = 12 + 8;
/// Encoded bytes of one entry before its cells.
const ENTRY_HEADER_LEN: usize = 8 + 4 + 4 + 4;

/// Counts in a chunk of a slab: 32 or 64 KiB, sixteen 2 or 4 KiB indexes —
/// what a write copies when it changes a chunk a pinned version still
/// shares. An index longer than this gets a chunk of its own length.
const CHUNK_WORDS: usize = 1 << 14;

/// Chunks per group of a slab's directory: a version holds one pointer per
/// group, and a write copies the group of each chunk it changes, so neither
/// grows with the store.
const GROUP_CHUNKS: usize = 64;

/// Where a run of cells starts: chunk and word offset inside it.
type Run = (u32, u32);

/// `shared`, copied first if another version still holds it.
fn unique<U: Clone>(shared: &mut Arc<[U]>) -> &mut [U] {
    if Arc::get_mut(shared).is_none() {
        *shared = Arc::from(&shared[..]);
    }
    Arc::get_mut(shared).expect("just made unique")
}

/// The cells of every index of one count width, in chunks that are never
/// moved or resized, [`GROUP_CHUNKS`] to a group; chunks and groups are
/// shared between the versions that have not changed them.
#[derive(Debug)]
struct Slab<T> {
    groups: Vec<Arc<[Arc<[T]>]>>,
}

impl<T> Clone for Slab<T> {
    fn clone(&self) -> Self {
        Self {
            groups: self.groups.clone(),
        }
    }
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self { groups: Vec::new() }
    }
}

impl<T: Count> Slab<T> {
    fn chunk(&self, chunk: u32) -> &Arc<[T]> {
        let chunk = chunk as usize;
        &self.groups[chunk / GROUP_CHUNKS][chunk % GROUP_CHUNKS]
    }

    fn chunk_count(&self) -> usize {
        self.groups.last().map_or(0, |last| {
            (self.groups.len() - 1) * GROUP_CHUNKS + last.len()
        })
    }

    fn push(&mut self, chunk: Arc<[T]>) {
        match self.groups.last_mut() {
            Some(last) if last.len() < GROUP_CHUNKS => {
                let mut grown = last.to_vec();
                grown.push(chunk);
                *last = grown.into();
            }
            _ => self.groups.push(Arc::from([chunk])),
        }
    }

    fn cells(&self, (chunk, offset): Run, len: usize) -> &[T] {
        &self.chunk(chunk)[offset as usize..offset as usize + len]
    }

    /// The run's cells to write, copying their chunk (and its group) first
    /// if another version still shares it.
    fn cells_mut(&mut self, (chunk, offset): Run, len: usize) -> &mut [T] {
        let chunk = chunk as usize;
        let group = unique(&mut self.groups[chunk / GROUP_CHUNKS]);
        let chunk = unique(&mut group[chunk % GROUP_CHUNKS]);
        &mut chunk[offset as usize..offset as usize + len]
    }
}

/// Which words of a slab are free: the writer's side of it, never read by
/// a reader.
#[derive(Debug, Default)]
struct Space {
    /// Words of the last chunk handed out so far.
    used: usize,
    /// Freed runs by their length.
    free: HashMap<usize, Vec<Run>>,
}

impl Space {
    /// A run of `len` words: the last one freed at that length, else the
    /// next words of the last chunk, else the start of a new chunk. Its
    /// contents are whatever was there.
    fn alloc<T: Count>(&mut self, slab: &mut Slab<T>, len: usize) -> Run {
        if let Some(run) = self.free.get_mut(&len).and_then(Vec::pop) {
            return run;
        }
        let chunks = slab.chunk_count();
        if chunks == 0 || self.used + len > slab.chunk(chunks as u32 - 1).len() {
            slab.push(vec![T::default(); len.max(CHUNK_WORDS)].into());
            self.used = 0;
        }
        let run = ((slab.chunk_count() - 1) as u32, self.used as u32);
        self.used += len;
        run
    }

    fn release(&mut self, run: Run, len: usize) {
        self.free.entry(len).or_default().push(run);
    }
}

/// Free space of both slabs (see [`Space`]).
#[derive(Debug, Default)]
struct Spaces {
    narrow: Space,
    wide: Space,
}

/// One mask's entry: its shape, its grid's, where its cells are (in the
/// slab of the width its shape sets), and the commit that installed it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    mask_width: u32,
    mask_height: u32,
    cells_x: u32,
    cells_y: u32,
    run: Run,
    stamp: Stamp,
}

impl Slot {
    fn narrow(&self) -> bool {
        narrow(self.mask_width, self.mask_height)
    }
}

/// A run of cells to fill, at the width of the index being installed.
type CellsMut<'a> = Cells<&'a mut [u16], &'a mut [u32]>;

/// One version of a [`ChiStore`]'s indexes: immutable once published, read
/// without a lock (see the module docs).
#[derive(Debug, Clone)]
pub struct ChiVersion {
    config: ChiConfig,
    slots: CowMap<MaskId, Slot>,
    narrow: Slab<u16>,
    wide: Slab<u32>,
}

/// A pinned version of a [`ChiStore`] for batched lookups (see
/// [`ChiStore::reader`]).
pub type ChiReader = Arc<ChiVersion>;

impl ChiVersion {
    fn new(config: ChiConfig) -> Self {
        Self {
            config,
            slots: CowMap::new(),
            narrow: Slab::default(),
            wide: Slab::default(),
        }
    }

    /// Number of indexed masks.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if no masks are indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Returns `true` if `mask_id` has an index.
    pub fn contains(&self, mask_id: MaskId) -> bool {
        self.slots.contains_key(&mask_id)
    }

    /// The index of `mask_id`, if present — its cells borrowed from the
    /// version, so nothing is copied and no reference count is touched.
    pub fn get(&self, mask_id: MaskId) -> Option<ChiView<'_>> {
        let slot = self.slots.get(&mask_id)?;
        Some(self.view(slot))
    }

    /// The index of `mask_id`, if present, with the stamp of the commit that
    /// installed it (see the module docs).
    pub fn get_stamped(&self, mask_id: MaskId) -> Option<(ChiView<'_>, Stamp)> {
        let slot = self.slots.get(&mask_id)?;
        Some((self.view(slot), slot.stamp))
    }

    /// A cursor answering [`ChiVersion::get`] for a run of ids, cheapest
    /// when they come ascending (see [`IdCursor`]).
    pub fn cursor(&self) -> ChiCursor<'_> {
        ChiCursor {
            version: self,
            slots: IdCursor::new(&self.slots),
        }
    }

    fn words(&self, slot: &Slot) -> usize {
        slot.cells_x as usize * slot.cells_y as usize * self.config.bins() as usize
    }

    fn view(&self, slot: &Slot) -> ChiView<'_> {
        let words = self.words(slot);
        let cells = match slot.narrow() {
            true => Cells::Narrow(self.narrow.cells(slot.run, words)),
            false => Cells::Wide(self.wide.cells(slot.run, words)),
        };
        ChiOver::from_grid(
            self.config,
            (slot.mask_width, slot.mask_height),
            (slot.cells_x, slot.cells_y),
            cells,
        )
    }

    fn views(&self) -> impl Iterator<Item = (MaskId, ChiView<'_>)> {
        self.slots.iter().map(|(id, slot)| (*id, self.view(slot)))
    }

    /// Removes the index of `mask_id`, giving its run back; returns whether
    /// it existed.
    fn remove(&mut self, space: &mut Spaces, mask_id: MaskId) -> bool {
        let Some(slot) = self.slots.remove(&mask_id) else {
            return false;
        };
        let words = self.words(&slot);
        match slot.narrow() {
            true => space.narrow.release(slot.run, words),
            false => space.wide.release(slot.run, words),
        }
        true
    }

    /// Installs the index of a `mask_width × mask_height` mask for
    /// `mask_id`, stamped `stamp`; `fill` writes every one of its cells. An
    /// index whose grid is as long and as wide as the one it replaces takes
    /// over its run.
    fn put(
        &mut self,
        space: &mut Spaces,
        mask_id: MaskId,
        (mask_width, mask_height): (u32, u32),
        stamp: Stamp,
        fill: impl FnOnce(CellsMut<'_>),
    ) {
        let mut slot = Slot {
            mask_width,
            mask_height,
            cells_x: self.config.cells_x(mask_width),
            cells_y: self.config.cells_y(mask_height),
            run: (0, 0),
            stamp,
        };
        let words = self.words(&slot);
        slot.run = match self.slots.get(&mask_id).copied() {
            Some(old) if self.words(&old) == words && old.narrow() == slot.narrow() => old.run,
            old => {
                if old.is_some() {
                    self.remove(space, mask_id);
                }
                match slot.narrow() {
                    true => space.narrow.alloc(&mut self.narrow, words),
                    false => space.wide.alloc(&mut self.wide, words),
                }
            }
        };
        fill(match slot.narrow() {
            true => Cells::Narrow(self.narrow.cells_mut(slot.run, words)),
            false => Cells::Wide(self.wide.cells_mut(slot.run, words)),
        });
        self.slots.insert(mask_id, slot);
    }

    fn put_chi(&mut self, space: &mut Spaces, mask_id: MaskId, chi: &Chi, stamp: Stamp) {
        assert_eq!(*chi.config(), self.config, "index of another configuration");
        self.put(
            space,
            mask_id,
            (chi.mask_width(), chi.mask_height()),
            stamp,
            |cells| match (cells, chi.cells()) {
                (Cells::Narrow(to), Cells::Narrow(from)) => to.copy_from_slice(from),
                (Cells::Wide(to), Cells::Wide(from)) => to.copy_from_slice(from),
                _ => unreachable!("a mask's shape sets the width of its index"),
            },
        );
    }
}

/// A lookup cursor over a [`ChiVersion`] (see [`ChiVersion::cursor`]).
pub struct ChiCursor<'a> {
    version: &'a ChiVersion,
    slots: IdCursor<'a, Slot>,
}

impl<'a> ChiCursor<'a> {
    /// The index of `mask_id`, exactly as [`ChiVersion::get`] answers.
    pub fn seek(&mut self, mask_id: MaskId) -> Option<ChiView<'a>> {
        let slot = self.slots.seek(mask_id)?;
        Some(self.version.view(slot))
    }
}

/// A thread-safe collection of per-mask CHIs sharing one configuration.
#[derive(Debug)]
pub struct ChiStore {
    config: ChiConfig,
    /// The published version. The lock is held only to clone or swap the
    /// pointer, never across a read or a write of the entries.
    current: RwLock<Arc<ChiVersion>>,
    /// Serialises writers, and holds the free space they allocate from.
    writer: Mutex<Spaces>,
    /// Bumped (under the writer lock) by every write that removes. Lets
    /// callers that built an index from pixels loaded *before* a concurrent
    /// overwrite detect the conflict instead of installing stale bounds —
    /// see [`ChiStore::index_mask_if_current`].
    removals: AtomicU64,
}

impl ChiStore {
    /// Creates an empty store for indexes built with `config`.
    pub fn new(config: ChiConfig) -> Self {
        Self::from_version(ChiVersion::new(config), Spaces::default())
    }

    fn from_version(version: ChiVersion, space: Spaces) -> Self {
        Self {
            config: version.config,
            current: RwLock::new(Arc::new(version)),
            writer: Mutex::new(space),
            removals: AtomicU64::new(0),
        }
    }

    /// Applies one write to a clone of the current version and publishes
    /// it; `write` returns whether it changed anything.
    fn write(&self, write: impl FnOnce(&mut ChiVersion, &mut Spaces) -> bool) -> bool {
        let mut space = self.writer.lock();
        let mut next = ChiVersion::clone(&self.current.read());
        if !write(&mut next, &mut space) {
            return false;
        }
        let superseded = std::mem::replace(&mut *self.current.write(), Arc::new(next));
        // What only the superseded version held is freed here, outside the
        // pointer's lock, or by its last reader.
        drop(superseded);
        true
    }

    /// The configuration shared by every index in the store.
    pub fn config(&self) -> &ChiConfig {
        &self.config
    }

    /// Number of indexed masks.
    pub fn len(&self) -> usize {
        self.reader().len()
    }

    /// Returns `true` if no masks are indexed.
    pub fn is_empty(&self) -> bool {
        self.reader().is_empty()
    }

    /// Returns `true` if `mask_id` has an index.
    pub fn contains(&self, mask_id: MaskId) -> bool {
        self.reader().contains(mask_id)
    }

    /// A copy of the index of `mask_id`, if present. Bounds are computed
    /// from a [`ChiStore::reader`]'s views, which copy nothing.
    pub fn get(&self, mask_id: MaskId) -> Option<Arc<Chi>> {
        self.reader()
            .get(mask_id)
            .map(|view| Arc::new(view.to_chi()))
    }

    /// Pins the current version for a batch of lookups: one `Arc` clone.
    /// Nothing a writer does afterwards changes what it reads, and holding
    /// it blocks no writer (see the module docs).
    pub fn reader(&self) -> ChiReader {
        self.current.read().clone()
    }

    /// Inserts a pre-built index for `mask_id`, replacing any existing one,
    /// stamped [`RECOVERED`] (see the module docs).
    ///
    /// # Panics
    /// Panics if `chi` was built under another configuration than the
    /// store's.
    pub fn insert(&self, mask_id: MaskId, chi: Chi) {
        self.apply(&[], [(mask_id, chi)], RECOVERED);
    }

    /// Removes the indexes of `removed`, then installs `installed` (in
    /// order; a later entry for an id replaces an earlier one) stamped
    /// `stamp`, and publishes the result as one version: a reader sees all
    /// of the batch or none of it. A non-empty `removed` counts as one
    /// removal for [`ChiStore::index_mask_if_current`].
    ///
    /// # Panics
    /// Panics if an index was built under another configuration than the
    /// store's.
    pub fn apply(
        &self,
        removed: &[MaskId],
        installed: impl IntoIterator<Item = (MaskId, Chi)>,
        stamp: Stamp,
    ) {
        let mut installed = installed.into_iter().peekable();
        if removed.is_empty() && installed.peek().is_none() {
            return;
        }
        self.write(|next, space| {
            if !removed.is_empty() {
                self.removals.fetch_add(1, Ordering::Relaxed);
            }
            for &mask_id in removed {
                next.remove(space, mask_id);
            }
            for (mask_id, chi) in installed {
                next.put_chi(space, mask_id, &chi, stamp);
            }
            true
        });
    }

    /// Builds and inserts the index of `mask` under the store's
    /// configuration, stamped [`RECOVERED`] (see the module docs), and
    /// returns it.
    pub fn index_mask(&self, mask_id: MaskId, mask: &Mask) -> Chi {
        let chi = Chi::build(mask, &self.config);
        self.write(|next, space| {
            next.put_chi(space, mask_id, &chi, RECOVERED);
            true
        });
        chi
    }

    /// Removes the index of `mask_id`; returns whether it existed.
    pub fn remove(&self, mask_id: MaskId) -> bool {
        self.remove_many(&[mask_id]) == 1
    }

    /// Removes the indexes of `mask_ids` as one version, counting as one
    /// removal for [`ChiStore::index_mask_if_current`]; returns how many
    /// existed. An empty slice changes nothing.
    pub fn remove_many(&self, mask_ids: &[MaskId]) -> usize {
        if mask_ids.is_empty() {
            return 0;
        }
        let mut removed = 0;
        self.write(|next, space| {
            self.removals.fetch_add(1, Ordering::Relaxed);
            removed = mask_ids
                .iter()
                .filter(|&&mask_id| next.remove(space, mask_id))
                .count();
            removed > 0
        });
        removed
    }

    /// The current removal generation (see [`ChiStore::index_mask_if_current`]).
    pub fn removal_generation(&self) -> u64 {
        self.removals.load(Ordering::Relaxed)
    }

    /// Builds the index of `mask`, whose pixels carry `stamp`, and installs
    /// it stamped so (the §3.6 incremental-indexing step) only if no removal
    /// has happened since `generation` (taken via
    /// [`ChiStore::removal_generation`] *before* the mask was loaded) and no
    /// index exists yet. Returns whether the index was installed.
    ///
    /// This is the incremental-indexing race guard: a removal between the
    /// generation snapshot and this call means the loaded pixels may predate
    /// an overwrite or delete, so installing bounds built from them could
    /// corrupt the filter stage. The generation check runs under the same
    /// writer lock that removals bump under, so there is no window.
    pub fn index_mask_if_current(
        &self,
        mask_id: MaskId,
        mask: &Mask,
        stamp: Stamp,
        generation: u64,
    ) -> bool {
        let chi = Chi::build(mask, &self.config);
        self.write(|next, space| {
            if self.removals.load(Ordering::Relaxed) != generation || next.contains(mask_id) {
                return false;
            }
            next.put_chi(space, mask_id, &chi, stamp);
            true
        })
    }

    /// Ids of all indexed masks, ascending.
    pub fn ids(&self) -> Vec<MaskId> {
        self.reader().slots.keys().copied().collect()
    }

    /// Total in-memory size of the index payloads in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.reader().views().map(|(_, chi)| chi.byte_size()).sum()
    }

    /// Serialises the store (configuration + every index) as one segment.
    pub fn to_bytes(&self) -> Vec<u8> {
        let version = self.reader();
        self.encode_segment(version.len(), version.views())
    }

    /// Serialises the indexes of those of `ids` that are in the store as one
    /// segment to append to a file of earlier ones; `None` if none is.
    pub fn segment_bytes(&self, ids: impl IntoIterator<Item = MaskId>) -> Option<Vec<u8>> {
        let reader = self.reader();
        let present: Vec<(MaskId, ChiView<'_>)> = ids
            .into_iter()
            .filter_map(|id| reader.get(id).map(|chi| (id, chi)))
            .collect();
        (!present.is_empty()).then(|| self.encode_segment(present.len(), present.into_iter()))
    }

    /// Exactly `self.to_bytes().len()`, without serialising anything.
    pub fn encoded_len(&self) -> u64 {
        let version = self.reader();
        let cells: u64 = version.views().map(|(_, chi)| chi.byte_size()).sum();
        let headers = SEGMENT_HEADER_LEN + PAYLOAD_HEADER_LEN + ENTRY_HEADER_LEN * version.len();
        headers as u64 + cells
    }

    fn encode_segment<'a>(
        &self,
        count: usize,
        entries: impl Iterator<Item = (MaskId, ChiView<'a>)>,
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
            let cells = chi.cells();
            w.write_u32(cells.len() as u32);
            match cells {
                Cells::Narrow(counts) => counts.iter().for_each(|&c| w.write_u16(c)),
                Cells::Wide(counts) => counts.iter().for_each(|&c| w.write_u32(c)),
            }
            debug_assert_eq!(
                (w.len() - start) as u64,
                ENTRY_HEADER_LEN as u64 + chi.byte_size()
            );
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
        // Built in place: nothing shares the version until it is returned.
        let mut store: Option<(ChiVersion, Spaces)> = None;
        let valid_len = segment::read(bytes, &FORMAT, |version, payload| {
            let mut r = Reader::new(payload, FORMAT.what);
            let cell_width = r.read_u32()?;
            let cell_height = r.read_u32()?;
            let bins = r.read_u32()?;
            let config = ChiConfig::new(cell_width, cell_height, bins).ok_or_else(|| {
                StorageError::corrupt("chi index file has a zero-sized configuration")
            })?;
            if store.as_ref().is_some_and(|(s, _)| s.config != config) {
                return Err(StorageError::corrupt(
                    "chi index segment of a different configuration",
                ));
            }
            // A segment loads whole or not at all: check every entry before
            // the first one reaches the slab.
            let count = r.read_u64()?;
            let mut decoded = Vec::new();
            for _ in 0..count {
                let id = MaskId::new(r.read_u64()?);
                let shape = (r.read_u32()?, r.read_u32()?);
                let words = r.read_u32()? as usize;
                // Before version 3 every cell is 32 bits wide.
                let width = match version {
                    ..=2 => 4,
                    _ => count_bytes(shape.0, shape.1) as usize,
                };
                let cells = r.read_bytes(words.checked_mul(width).ok_or_else(|| {
                    StorageError::corrupt("chi payload length overflows addressable size")
                })?)?;
                let mismatch = || {
                    StorageError::corrupt(format!(
                        "chi payload for mask {id} does not match its declared shape"
                    ))
                };
                if words as u64 != config.count_len(shape.0, shape.1) {
                    return Err(mismatch());
                }
                // A 32-bit cell of a mask of 16-bit counts must fit 16 bits.
                if width == 4
                    && narrow(shape.0, shape.1)
                    && cells.chunks_exact(4).any(|le| {
                        u32::from_le_bytes(le.try_into().expect("4 bytes")) > u32::from(u16::MAX)
                    })
                {
                    return Err(mismatch());
                }
                decoded.push((id, shape, width, cells));
            }
            if r.remaining() != 0 {
                return Err(StorageError::corrupt(
                    "chi index segment has bytes after its last entry",
                ));
            }
            let (version, space) =
                store.get_or_insert_with(|| (ChiVersion::new(config), Spaces::default()));
            for (id, shape, width, bytes) in decoded {
                version.put(space, id, shape, RECOVERED, |cells| match cells {
                    Cells::Narrow(cells) => decode(cells, bytes, width),
                    Cells::Wide(cells) => decode(cells, bytes, width),
                });
            }
            Ok(())
        })?;
        let (version, space) =
            store.ok_or_else(|| StorageError::corrupt("chi index file is empty"))?;
        Ok((Self::from_version(version, space), valid_len))
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

/// Fills `cells` from `bytes`, little-endian cells `width` bytes wide.
fn decode<T: Count>(cells: &mut [T], bytes: &[u8], width: usize) {
    for (cell, le) in cells.iter_mut().zip(bytes.chunks_exact(width)) {
        *cell = T::of(match *le {
            [a, b] => u32::from(u16::from_le_bytes([a, b])),
            [a, b, c, d] => u32::from_le_bytes([a, b, c, d]),
            _ => unreachable!("cells are 2 or 4 bytes wide"),
        });
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
        assert!(store.remove(MaskId::new(1)));
        assert!(!store.remove(MaskId::new(1)));
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
        assert!(!store.index_mask_if_current(MaskId::new(1), &mask(1), 1, generation));
        assert!(!store.contains(MaskId::new(1)));

        // With a fresh snapshot and no interleaved removal, it installs.
        let generation = store.removal_generation();
        assert!(store.index_mask_if_current(MaskId::new(1), &mask(2), 2, generation));
        assert!(store.contains(MaskId::new(1)));
        // ...but never overwrites an existing entry.
        assert!(!store.index_mask_if_current(MaskId::new(1), &mask(3), 3, generation));
        assert_eq!(store.reader().get_stamped(MaskId::new(1)).unwrap().1, 2);
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
        // 24x24 mask with 8x8 cells -> 3x3 cells x 8 bins x 2 bytes (a mask
        // of 576 pixels keeps 16-bit counts) = 144.
        assert_eq!(store.total_bytes(), 2 * 144);
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

    /// The payload as versions 1 and 2 wrote it: every cell 32 bits wide.
    fn wide_payload(store: &ChiStore, w: &mut masksearch_storage::codec::Writer) {
        let config = store.config();
        for v in [config.cell_width(), config.cell_height(), config.bins()] {
            w.write_u32(v);
        }
        w.write_u64(store.len() as u64);
        for (id, chi) in store.reader().views() {
            w.write_u64(id.raw());
            w.write_u32(chi.mask_width());
            w.write_u32(chi.mask_height());
            w.write_u32_vec(&chi.cells().to_wide());
        }
    }

    /// The file as a v1 build wrote it: no length, no checksum.
    fn bare_v1_image(store: &ChiStore) -> Vec<u8> {
        let mut w = masksearch_storage::codec::Writer::new();
        w.write_bytes(&CHI_MAGIC);
        w.write_u16(1);
        w.write_u16(0);
        wide_payload(store, &mut w);
        w.into_bytes()
    }

    #[test]
    fn a_version_2_count_too_wide_for_its_shape_is_an_error() {
        // One entry of a 24x24 mask whose 32-bit cells all count 65,536: no
        // 576-pixel mask does, and 16 bits cannot hold it.
        let mut w = segment::begin(CHI_MAGIC, 2);
        for v in [8, 8, 8] {
            w.write_u32(v);
        }
        w.write_u64(1);
        w.write_u64(1);
        w.write_u32(24);
        w.write_u32(24);
        w.write_u32_vec(&[65_536; 3 * 3 * 8]);
        assert!(ChiStore::from_segments(&segment::finish(w)).is_err());
    }

    #[test]
    fn an_overwrite_that_changes_width_moves_slabs_and_frees_its_run() {
        let config = ChiConfig::new(8, 8, 4).unwrap();
        let store = ChiStore::new(config);
        let narrow_mask = Mask::constant(255, 257, 0.99).unwrap();
        let wide_mask = Mask::constant(256, 256, 0.99).unwrap();
        let (id, other) = (MaskId::new(1), MaskId::new(2));
        store.index_mask(id, &narrow_mask);
        let run = |id| store.reader().slots.get(&id).unwrap().run;
        let narrow_run = run(id);
        store.index_mask(id, &wide_mask);
        {
            assert!(!store.reader().slots.get(&id).unwrap().narrow());
            let space = store.writer.lock();
            assert_eq!(
                space.narrow.free[&(config.count_len(255, 257) as usize)],
                [narrow_run]
            );
            assert!(space.wide.free.values().all(Vec::is_empty));
        }
        assert_eq!(*store.get(id).unwrap(), Chi::build(&wide_mask, &config));
        // The next narrow index of that length takes the freed run.
        store.index_mask(other, &narrow_mask);
        assert_eq!(run(other), narrow_run);
        assert!(store.writer.lock().narrow.free.values().all(Vec::is_empty));
        assert_eq!(
            *store.get(other).unwrap(),
            Chi::build(&narrow_mask, &config)
        );
        // And back: the wide run is freed, and the narrow one is the
        // mask's again.
        store.remove(other);
        store.index_mask(id, &narrow_mask);
        assert_eq!(run(id), narrow_run);
        assert_eq!(store.writer.lock().wide.free.values().flatten().count(), 1);
    }

    #[test]
    fn a_write_copies_only_the_chunks_it_touches_and_a_pin_keeps_the_old_ones() {
        let store = ChiStore::new(config());
        // 72 counts an index: 300 of them fill two chunks.
        store.apply(
            &[],
            (0..300u64).map(|i| (MaskId::new(i), Chi::build(&mask(i as u32), &config()))),
            1,
        );
        let pinned = store.reader();
        assert_eq!(pinned.narrow.chunk_count(), 2);
        let first = Arc::downgrade(pinned.narrow.chunk(0));

        store.index_mask(MaskId::new(3), &mask(300));
        store.remove(MaskId::new(7));
        let now = store.reader();
        assert!(!Arc::ptr_eq(pinned.narrow.chunk(0), now.narrow.chunk(0)));
        assert!(Arc::ptr_eq(pinned.narrow.chunk(1), now.narrow.chunk(1)));
        // The pinned version answers as it did; the store moved on.
        assert_eq!(
            pinned.get(MaskId::new(3)).unwrap().to_chi(),
            Chi::build(&mask(3), &config())
        );
        assert!(pinned.contains(MaskId::new(7)) && !now.contains(MaskId::new(7)));
        assert_eq!(
            now.get(MaskId::new(3)).unwrap().to_chi(),
            Chi::build(&mask(300), &config())
        );

        drop(now);
        assert!(first.upgrade().is_some());
        drop(pinned);
        assert!(
            first.upgrade().is_none(),
            "a superseded chunk outlived its last pin"
        );
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

    /// `file` with a segment of version 4 appended, its payload that of a
    /// one-entry segment.
    fn with_v4_segment(file: &[u8]) -> (Vec<u8>, usize) {
        let next = ChiStore::new(config());
        next.index_mask(MaskId::new(1), &mask(77));
        let mut v4 = next.to_bytes();
        v4[4..6].copy_from_slice(&4u16.to_le_bytes());
        let checksum =
            masksearch_storage::codec::checksum64(&[&v4[..16], &v4[SEGMENT_HEADER_LEN..]]);
        v4[16..24].copy_from_slice(&checksum.to_le_bytes());
        ([file, &v4].concat(), v4.len())
    }

    #[test]
    fn a_whole_newer_segment_after_a_valid_prefix_is_an_error() {
        let store = ChiStore::new(config());
        store.index_mask(MaskId::new(1), &mask(1));
        let (file, _) = with_v4_segment(&store.to_bytes());
        assert!(matches!(
            ChiStore::from_segments(&file),
            Err(StorageError::UnsupportedVersion {
                found: 4,
                supported: CHI_FORMAT_VERSION
            })
        ));
    }

    #[test]
    fn a_torn_newer_segment_after_a_valid_prefix_ends_it() {
        let store = ChiStore::new(config());
        store.index_mask(MaskId::new(1), &mask(1));
        let first = store.to_bytes();
        let (file, v4_len) = with_v4_segment(&first);
        for cut in [1, 8, SEGMENT_HEADER_LEN, v4_len - 1] {
            let (loaded, valid_len) = ChiStore::from_segments(&file[..first.len() + cut]).unwrap();
            assert_eq!(valid_len, first.len(), "cut at {cut}");
            assert_eq!(
                *loaded.get(MaskId::new(1)).unwrap(),
                Chi::build(&mask(1), &config())
            );
        }
        let mut flipped = file.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        assert_eq!(ChiStore::from_segments(&flipped).unwrap().1, first.len());
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
