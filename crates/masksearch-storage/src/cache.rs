//! A byte-budgeted LRU cache of decoded masks.
//!
//! The paper assumes "the database of masks is too large to fit in memory"
//! (§3); the cache makes that assumption explicit and tunable. The
//! verification stage of the executor reads masks through this cache so that
//! multi-query workloads (§4.5) benefit from recently verified masks without
//! ever exceeding a configured memory budget.
//!
//! An entry is a decoded mask with the [`Stamp`] its store reported with it
//! ([`CachedMask`]) — every store stamps its pixels, and a refresh after a
//! commit takes that commit's stamp — so verification can tell whether a CHI
//! it pinned summarises exactly the cached pixels. The byte budget counts
//! pixels.
//!
//! ## Admission
//!
//! An explicit load ([`MaskCache::get_or_load`]) is always admitted.
//! Verification asks first ([`MaskCache::lookup_for_verify`]): a miss is
//! admitted only when the same mask already missed once and the masks that
//! missed since would still fit in the budget beside it — the "ghost" list
//! of first misses, aged by the bytes that missed after them. A scan larger
//! than the cache therefore admits nothing and evicts nothing (every mask's
//! second miss comes a whole scan later), while a working set that fits is
//! resident after its second lap. A miss that is not admitted costs one
//! short critical section; the verifier counts the mask's pixels where the
//! store holds them instead (see `MaskStore::read_rows`).

use crate::error::StorageResult;
use crate::store::Stamp;
use masksearch_core::{Mask, MaskId};
use masksearch_obs::counters as obs_counters;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};

/// Statistics describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of lookups satisfied by the cache.
    pub hits: u64,
    /// Number of lookups that had to load the mask.
    pub misses: u64,
    /// Number of masks evicted to stay under the byte budget.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when no lookups have happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A cached mask and the stamp of the pixels it was loaded (or refreshed)
/// with.
#[derive(Debug, Clone)]
pub struct CachedMask {
    /// The decoded pixels.
    pub mask: Arc<Mask>,
    /// The commit that installed them.
    pub stamp: Stamp,
}

/// What the cache answers when the verification stage is about to count
/// pixels of a mask (see [`MaskCache::lookup_for_verify`]).
#[derive(Debug)]
pub enum VerifyLookup {
    /// Resident: verify on the cached mask.
    Hit(CachedMask),
    /// Its second recent miss: load it whole through
    /// [`MaskCache::get_or_load`], which admits it.
    Admit,
    /// Its first recent miss (or it cannot fit): verify without the cache.
    Bypass,
}

/// Masks that missed once and were not admitted: what a second miss is
/// recognised by. Aged in bytes, so "recent" means "could still be
/// resident, had the misses since all been admitted".
#[derive(Default)]
struct Ghosts {
    /// Bytes of every first miss so far — the clock ghosts age by.
    missed_bytes: u64,
    /// `missed_bytes` at each id's first miss.
    first_miss: HashMap<MaskId, u64>,
    /// Length at which expired ghosts are next swept out.
    sweep_at: usize,
}

impl Ghosts {
    /// Records a verify miss of a `bytes`-byte mask. `true` when it is the
    /// mask's second miss and the first misses from its own on add up to at
    /// most `window` bytes; the ghost is consumed either way.
    fn second_miss(&mut self, mask_id: MaskId, bytes: u64, window: u64) -> bool {
        if let Some(at) = self.first_miss.remove(&mask_id) {
            if self.missed_bytes - at <= window {
                return true;
            }
        }
        if self.first_miss.len() >= self.sweep_at {
            // Amortised: each sweep leaves room for as many inserts as it
            // kept ghosts, so the list stays within twice what `window`
            // bytes of masks can be.
            let oldest = self.missed_bytes.saturating_sub(window);
            self.first_miss.retain(|_, at| *at >= oldest);
            self.sweep_at = (self.first_miss.len() * 2).max(64);
        }
        self.first_miss.insert(mask_id, self.missed_bytes);
        self.missed_bytes += bytes;
        false
    }
}

struct Entry {
    mask: CachedMask,
    bytes: u64,
    last_used: u64,
}

/// A single-flight slot: one per mask id currently being loaded. The first
/// misser (the *leader*) loads and decompresses; concurrent missers of the
/// same id block here instead of duplicating the load.
enum FlightOutcome {
    /// The leader is still loading.
    Pending,
    /// The leader finished. `Some` carries a result safe to share;
    /// `None` means the waiter must restart its lookup (the load failed,
    /// raced an invalidation of this id, or the cache is not sharing).
    Done(Option<CachedMask>),
}

struct Flight {
    state: std::sync::Mutex<FlightOutcome>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            state: std::sync::Mutex::new(FlightOutcome::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader completes, returning its shared result.
    fn wait(&self) -> Option<CachedMask> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*state {
                FlightOutcome::Done(result) => return result.clone(),
                FlightOutcome::Pending => {
                    state = self.cv.wait(state).unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    fn complete(&self, result: Option<CachedMask>) {
        *self.state.lock().unwrap_or_else(PoisonError::into_inner) = FlightOutcome::Done(result);
        self.cv.notify_all();
    }
}

/// Deregisters and completes the leader's flight on every exit path —
/// including an unwinding load — so waiters can never hang on a flight
/// whose leader is gone.
struct FlightGuard<'a> {
    cache: &'a MaskCache,
    mask_id: MaskId,
    slot: Arc<Flight>,
    /// Set by the leader on success when the loaded value is safe to share
    /// with the waiters; `None` sends them back around the lookup loop.
    shared: Option<CachedMask>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.cache.lock().flights.remove(&self.mask_id);
        self.slot.complete(self.shared.take());
    }
}

/// Entries the per-id invalidation log may hold before collapsing into the
/// coarse `invalidated_floor` fallback.
const INVALIDATION_LOG_CAP: usize = 4096;

struct Inner {
    entries: HashMap<MaskId, Entry>,
    /// Loads currently in flight, keyed by mask id (single-flight: the
    /// first misser loads, concurrent missers of the same id wait).
    flights: HashMap<MaskId, Arc<Flight>>,
    clock: u64,
    used_bytes: u64,
    ghosts: Ghosts,
    /// Bumped by every invalidation. `get_or_load` loads outside the lock;
    /// comparing against the per-id log on re-entry keeps a load that raced
    /// with an invalidation of the *same* mask from caching stale pixels,
    /// without penalising loads of unrelated masks during steady ingestion.
    generation: u64,
    /// Generation at which each mask was last invalidated. Bounded: when it
    /// grows past [`INVALIDATION_LOG_CAP`] it is cleared and
    /// `invalidated_floor` takes over for older in-flight loads.
    invalidated: HashMap<MaskId, u64>,
    /// Loads that started at or below this generation skip caching
    /// entirely (conservative fallback after a log collapse or `clear`).
    invalidated_floor: u64,
}

/// A least-recently-used mask cache with a byte budget.
///
/// A budget of zero disables caching entirely (every lookup is a miss), which
/// is how experiments reproduce the paper's cold-cache setting ("we clear the
/// OS page cache before each query execution", §4.2).
pub struct MaskCache {
    capacity_bytes: u64,
    inner: Mutex<Inner>,
    // Statistics only: they publish nothing, so `Relaxed`, and a miss that
    // bypasses the cache counts itself without the mutex.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl MaskCache {
    /// Creates a cache bounded by `capacity_bytes` of decoded mask data.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                flights: HashMap::new(),
                clock: 0,
                used_bytes: 0,
                ghosts: Ghosts::default(),
                generation: 0,
                invalidated: HashMap::new(),
                invalidated_floor: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cache that never stores anything (cold-cache behaviour).
    pub fn disabled() -> Self {
        Self::new(0)
    }

    /// Acquires the cache mutex, charging the wait to the global
    /// lock-contention counters (`cache_lock_wait_us` / `cache_lock_acquires`)
    /// so profiles can tell cache contention apart from load time.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        obs_counters::timed_acquire(
            &obs_counters::CACHE_LOCK_WAIT_US,
            &obs_counters::CACHE_LOCK_ACQUIRES,
            || self.inner.try_lock(),
            || self.inner.lock(),
        )
    }

    /// Configured byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// Bytes currently held by the cache.
    pub fn used_bytes(&self) -> u64 {
        self.lock().used_bytes
    }

    /// Number of cached masks.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Returns `true` if the cache holds no masks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current cache statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Removes every cached mask (statistics are preserved).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.generation += 1;
        inner.invalidated_floor = inner.generation;
        inner.invalidated.clear();
        inner.entries.clear();
        inner.used_bytes = 0;
    }

    /// Looks up a mask with its stamp, or loads both with `load` on a miss
    /// and caches the result (evicting least-recently-used entries if
    /// needed). This is the lookup the verification executor uses.
    ///
    /// Loads are **single-flight per mask id**: when several threads miss on
    /// the same id concurrently, exactly one runs `load` (decode and
    /// decompress once); the others block until it finishes and share its
    /// result. A failed or invalidation-raced load sends the waiters back
    /// through the lookup, so an error never poisons the id and a waiter
    /// never observes pixels older than a write it arrived after.
    pub fn get_or_load(
        &self,
        mask_id: MaskId,
        load: impl FnOnce() -> StorageResult<(Mask, Stamp)>,
    ) -> StorageResult<CachedMask> {
        let load = || {
            let (mask, stamp) = load()?;
            Ok(CachedMask {
                mask: Arc::new(mask),
                stamp,
            })
        };
        if self.capacity_bytes == 0 {
            // Caching disabled (the cold-cache experimental setting): every
            // lookup loads for itself; sharing would warm what must be cold.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return load();
        }
        let mut load = Some(load);
        loop {
            let flight = {
                let mut inner = self.lock();
                inner.clock += 1;
                let clock = inner.clock;
                if let Some(entry) = inner.entries.get_mut(&mask_id) {
                    entry.last_used = clock;
                    let mask = entry.mask.clone();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(mask);
                }
                match inner.flights.get(&mask_id) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        // This thread is the leader for the id.
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight::new());
                        inner.flights.insert(mask_id, Arc::clone(&flight));
                        let generation = inner.generation;
                        drop(inner);
                        return self.load_as_leader(
                            mask_id,
                            flight,
                            generation,
                            load.take().expect("leader runs once"),
                        );
                    }
                }
            };
            // Another thread is already loading this id; wait for it (off
            // the cache lock) and share its result.
            if let Some(mask) = flight.wait() {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(mask);
            }
            // The leader's load failed, raced an invalidation, or was not
            // shareable: start the lookup over. If this thread still holds
            // its own `load`, it may become the next leader and surface its
            // own error.
        }
    }

    /// The leader's half of a single-flight load: runs `load`, publishes the
    /// result to the cache and to any waiters, and returns it. The flight is
    /// deregistered (and waiters released) on *every* exit, including an
    /// unwinding `load`.
    fn load_as_leader(
        &self,
        mask_id: MaskId,
        slot: Arc<Flight>,
        generation_before: u64,
        load: impl FnOnce() -> StorageResult<CachedMask>,
    ) -> StorageResult<CachedMask> {
        let mut guard = FlightGuard {
            cache: self,
            mask_id,
            slot,
            shared: None,
        };
        // Load outside the lock so concurrent misses for different masks do
        // not serialise on the cache mutex.
        let mask = load()?;
        let bytes = mask.mask.byte_size();
        let mut inner = self.lock();
        let invalidated_since = generation_before < inner.invalidated_floor
            || inner
                .invalidated
                .get(&mask_id)
                .is_some_and(|&gen| gen > generation_before);
        if invalidated_since {
            // An invalidation of THIS mask (a store write) raced with the
            // load: what we loaded may predate the write, so hand it to the
            // caller but do not cache it — and do not share it with waiters,
            // who may have arrived after the write.
            return Ok(mask);
        }
        guard.shared = Some(mask.clone());
        if bytes > self.capacity_bytes {
            // Too large to cache: return (and share) without caching.
            return Ok(mask);
        }
        inner.clock += 1;
        let clock = inner.clock;
        // Evict until the new entry fits.
        while inner.used_bytes + bytes > self.capacity_bytes && !inner.entries.is_empty() {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(id, _)| *id)
                .expect("non-empty cache has a minimum");
            if let Some(evicted) = inner.entries.remove(&victim) {
                inner.used_bytes -= evicted.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.used_bytes += bytes;
        inner.entries.insert(
            mask_id,
            Entry {
                mask: mask.clone(),
                bytes,
                last_used: clock,
            },
        );
        Ok(mask)
    }

    /// The verification stage's lookup for a mask of `mask_bytes` pixel
    /// bytes: the resident copy, or whether this miss should load the mask
    /// whole and admit it (see the module docs on admission). A miss takes
    /// the mutex once, briefly — or not at all when the mask could never
    /// fit (a disabled cache included) — and never evicts.
    pub fn lookup_for_verify(&self, mask_id: MaskId, mask_bytes: u64) -> VerifyLookup {
        if self.capacity_bytes == 0 || mask_bytes > self.capacity_bytes {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return VerifyLookup::Bypass;
        }
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.entries.get_mut(&mask_id) {
            entry.last_used = clock;
            self.hits.fetch_add(1, Ordering::Relaxed);
            return VerifyLookup::Hit(entry.mask.clone());
        }
        if inner
            .ghosts
            .second_miss(mask_id, mask_bytes, self.capacity_bytes)
        {
            // The whole-mask load that follows counts this miss.
            return VerifyLookup::Admit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        VerifyLookup::Bypass
    }

    /// Returns the cached mask and its stamp without loading, if present.
    pub fn peek(&self, mask_id: MaskId) -> Option<CachedMask> {
        let inner = self.lock();
        inner.entries.get(&mask_id).map(|e| e.mask.clone())
    }

    /// Drops the cached copy of a mask (used when it is overwritten or
    /// deleted in the backing store). Returns `true` if an entry was removed.
    ///
    /// Also records the invalidation, so an in-flight `get_or_load` of this
    /// mask whose load raced with the invalidation will not install a stale
    /// copy (loads of other masks are unaffected).
    pub fn invalidate(&self, mask_id: MaskId) -> bool {
        let mut inner = self.lock();
        inner.log_invalidation(mask_id);
        inner.drop_entry(mask_id)
    }

    /// Brings the cached copy of a mask in line with `mask`, which the
    /// backing store now holds in its place, installed by commit `stamp`: a
    /// resident copy that nobody is reading is overwritten **in place** (same allocation, so a stream of
    /// overwrites of hot masks causes no allocator traffic and no reloads);
    /// one that is shared, or of another shape, is dropped as by
    /// [`MaskCache::invalidate`]. Never adds an entry. Like an invalidation
    /// it is recorded, so a load of this mask that was in flight — and may
    /// have read the old pixels — will not be cached. Returns `true` if the
    /// cache now holds the new pixels.
    pub fn refresh(&self, mask_id: MaskId, mask: &Mask, stamp: Stamp) -> bool {
        let mut inner = self.lock();
        inner.log_invalidation(mask_id);
        let refreshed = inner.entries.get_mut(&mask_id).is_some_and(|entry| {
            let cached = &mut entry.mask;
            let replaced =
                Arc::get_mut(&mut cached.mask).is_some_and(|own| own.overwrite_with(mask));
            if replaced {
                cached.stamp = stamp;
            }
            replaced
        });
        if !refreshed {
            inner.drop_entry(mask_id);
        }
        refreshed
    }
}

impl Inner {
    /// Records that `mask_id` changed in the backing store just now.
    fn log_invalidation(&mut self, mask_id: MaskId) {
        self.generation += 1;
        let generation = self.generation;
        if self.invalidated.len() >= INVALIDATION_LOG_CAP {
            // Collapse the log: anything still in flight becomes
            // conservatively uncacheable instead of unboundedly tracked.
            self.invalidated.clear();
            self.invalidated_floor = generation;
        }
        self.invalidated.insert(mask_id, generation);
    }

    /// Removes the entry of `mask_id`; returns whether there was one.
    fn drop_entry(&mut self, mask_id: MaskId) -> bool {
        match self.entries.remove(&mask_id) {
            Some(entry) => {
                self.used_bytes -= entry.bytes;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask(seed: u32) -> Mask {
        Mask::from_fn(8, 8, |x, y| ((x + y + seed) % 5) as f32 / 5.0)
    }

    #[test]
    fn hit_after_load() {
        let cache = MaskCache::new(1024 * 1024);
        let id = MaskId::new(1);
        let loaded = cache.get_or_load(id, || Ok((mask(1), 1))).unwrap();
        assert_eq!(*loaded.mask, mask(1));
        let again = cache
            .get_or_load(id, || panic!("should be a cache hit"))
            .unwrap();
        assert_eq!(*again.mask, mask(1));
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hit_rate(), 0.5);
    }

    #[test]
    fn invalidate_drops_entries_and_frees_budget() {
        let cache = MaskCache::new(1024 * 1024);
        let id = MaskId::new(7);
        cache.get_or_load(id, || Ok((mask(7), 1))).unwrap();
        assert!(cache.peek(id).is_some());
        assert!(cache.used_bytes() > 0);
        assert!(cache.invalidate(id));
        assert!(cache.peek(id).is_none());
        assert_eq!(cache.used_bytes(), 0);
        assert!(!cache.invalidate(id));
    }

    #[test]
    fn refresh_overwrites_unshared_entries_in_place_and_drops_the_rest() {
        let cache = MaskCache::new(1024 * 1024);
        let id = MaskId::new(7);
        // Nothing resident: nothing is added.
        assert!(!cache.refresh(id, &mask(1), 1));
        assert!(cache.is_empty());

        // Resident and unshared: same allocation, new pixels and the stamp
        // of the commit that installed them, the same budget share.
        let pixels = cache
            .get_or_load(id, || Ok((mask(1), 1)))
            .unwrap()
            .mask
            .data()
            .as_ptr();
        let used = cache.used_bytes();
        assert!(cache.refresh(id, &mask(2), 2));
        let cached = cache.peek(id).unwrap();
        assert_eq!(*cached.mask, mask(2));
        assert_eq!(cached.mask.data().as_ptr(), pixels);
        assert_eq!(cached.stamp, 2);
        assert_eq!(cache.used_bytes(), used);

        // A reader still holds the mask: its pixels must not change under
        // it, so the entry is dropped instead.
        let held = cached.mask;
        assert!(!cache.refresh(id, &mask(3), 3));
        assert_eq!(*held, mask(2));
        assert!(cache.peek(id).is_none());
        assert_eq!(cache.used_bytes(), 0);

        // Another shape cannot reuse the allocation.
        cache.get_or_load(id, || Ok((mask(3), 1))).unwrap();
        assert!(!cache.refresh(id, &Mask::zeros(4, 4), 4));
        assert!(cache.peek(id).is_none());
    }

    #[test]
    fn load_racing_a_refresh_is_not_cached() {
        // A load that may have read the old pixels finishes after the
        // refresh: it must not replace the refreshed entry (or install
        // itself where the refresh dropped one).
        let cache = MaskCache::new(1024 * 1024);
        let (id, other) = (MaskId::new(3), MaskId::new(4));
        cache.get_or_load(other, || Ok((mask(9), 1))).unwrap();
        let stale = cache
            .get_or_load(id, || {
                assert!(!cache.refresh(id, &mask(5), 2));
                assert!(cache.refresh(other, &mask(6), 2));
                Ok((mask(3), 1))
            })
            .unwrap();
        assert_eq!(*stale.mask, mask(3));
        assert!(cache.peek(id).is_none(), "stale mask must not be cached");
        assert_eq!(*cache.peek(other).unwrap().mask, mask(6));
    }

    #[test]
    fn load_racing_an_invalidation_is_not_cached() {
        // Simulate a store write landing between a miss and the load
        // completing: the load closure itself invalidates the id. The stale
        // result must be returned to the caller but never installed.
        let cache = MaskCache::new(1024 * 1024);
        let id = MaskId::new(3);
        let stale = cache
            .get_or_load(id, || {
                cache.invalidate(id);
                Ok((mask(3), 1))
            })
            .unwrap();
        assert_eq!(*stale.mask, mask(3));
        assert!(cache.peek(id).is_none(), "stale mask must not be cached");
        // The next lookup reloads and caches the fresh value.
        let fresh = cache.get_or_load(id, || Ok((mask(4), 1))).unwrap();
        assert_eq!(*fresh.mask, mask(4));
        assert_eq!(*cache.peek(id).unwrap().mask, mask(4));
    }

    #[test]
    fn invalidating_other_masks_does_not_block_caching() {
        // Steady ingestion invalidates a stream of unrelated ids; a load in
        // flight for a different mask must still be cached.
        let cache = MaskCache::new(1024 * 1024);
        let id = MaskId::new(10);
        let loaded = cache
            .get_or_load(id, || {
                for other in 0..5u64 {
                    cache.invalidate(MaskId::new(other));
                }
                Ok((mask(10), 1))
            })
            .unwrap();
        assert_eq!(*loaded.mask, mask(10));
        assert!(
            cache.peek(id).is_some(),
            "unrelated invalidations must not prevent caching"
        );
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        // Each 8x8 mask is 256 pixel bytes; a budget of 600 holds two
        // entries.
        let cache = MaskCache::new(600);
        for i in 0..3u64 {
            cache
                .get_or_load(MaskId::new(i), || Ok((mask(i as u32), 1)))
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.used_bytes() <= 600);
        assert_eq!(cache.stats().evictions, 1);
        // Mask 0 was least recently used, so it is gone; 1 and 2 remain.
        assert!(cache.peek(MaskId::new(0)).is_none());
        assert!(cache.peek(MaskId::new(1)).is_some());
        assert!(cache.peek(MaskId::new(2)).is_some());
    }

    /// One verification of mask `id` as the executor does it: look up,
    /// load whole through the cache only when told to admit.
    fn verify(cache: &MaskCache, id: u64) -> &'static str {
        match cache.lookup_for_verify(MaskId::new(id), 256) {
            VerifyLookup::Hit(_) => "hit",
            VerifyLookup::Bypass => "bypass",
            VerifyLookup::Admit => {
                cache
                    .get_or_load(MaskId::new(id), || Ok((mask(id as u32), 1)))
                    .unwrap();
                "admit"
            }
        }
    }

    #[test]
    fn a_scan_larger_than_the_cache_admits_nothing() {
        // Room for three 8x8 masks; four are scanned lap after lap. Each
        // mask's second miss comes a whole lap (1024 missed bytes) after its
        // first, which the 800-byte budget could not have held on to.
        let cache = MaskCache::new(800);
        for lap in 0..5 {
            for id in 0..4 {
                assert_eq!(verify(&cache, id), "bypass", "lap {lap} mask {id}");
            }
        }
        assert!(cache.is_empty());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 20,
                evictions: 0
            }
        );
    }

    #[test]
    fn a_working_set_that_fits_is_resident_after_its_second_lap() {
        let cache = MaskCache::new(800);
        let lap = |cache: &MaskCache| [verify(cache, 0), verify(cache, 1)];
        assert_eq!(lap(&cache), ["bypass", "bypass"]);
        assert_eq!(lap(&cache), ["admit", "admit"]);
        assert_eq!(lap(&cache), ["hit", "hit"]);
        // Each miss counted once, by the lookup or by the admitting load.
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 4,
                evictions: 0
            }
        );
        // A scan passing through does not disturb the residents.
        for id in 10..30 {
            assert_eq!(verify(&cache, id), "bypass");
        }
        assert_eq!(lap(&cache), ["hit", "hit"]);
        assert_eq!(cache.stats().evictions, 0);
    }

    #[test]
    fn masks_that_cannot_fit_bypass_without_a_ghost() {
        let disabled = MaskCache::disabled();
        assert_eq!(verify(&disabled, 1), "bypass");
        assert_eq!(verify(&disabled, 1), "bypass");
        assert_eq!(disabled.stats().misses, 2);
        let small = MaskCache::new(200);
        assert_eq!(verify(&small, 1), "bypass");
        assert_eq!(verify(&small, 1), "bypass");
        assert!(small.inner.lock().ghosts.first_miss.is_empty());
    }

    #[test]
    fn the_ghost_list_stays_within_what_the_budget_could_hold() {
        // Budget for 8 masks of 256 pixel bytes: however many distinct
        // masks miss, at most twice that many ghosts (and the sweep floor)
        // are remembered.
        let cache = MaskCache::new(8 * 256);
        for id in 0..10_000 {
            assert_eq!(verify(&cache, id), "bypass");
        }
        assert!(cache.inner.lock().ghosts.first_miss.len() <= 64);
        // The most recent ones are still recognised.
        assert_eq!(verify(&cache, 9_999), "admit");
        assert_eq!(verify(&cache, 5_000), "bypass");
    }

    #[test]
    fn recency_is_updated_on_hit() {
        // Room for two 8x8 masks of 256 pixel bytes.
        let cache = MaskCache::new(600);
        cache
            .get_or_load(MaskId::new(0), || Ok((mask(0), 1)))
            .unwrap();
        cache
            .get_or_load(MaskId::new(1), || Ok((mask(1), 1)))
            .unwrap();
        // Touch 0 so it becomes most recent, then insert 2 -> 1 is evicted.
        cache.get_or_load(MaskId::new(0), || panic!("hit")).unwrap();
        cache
            .get_or_load(MaskId::new(2), || Ok((mask(2), 1)))
            .unwrap();
        assert!(cache.peek(MaskId::new(0)).is_some());
        assert!(cache.peek(MaskId::new(1)).is_none());
    }

    #[test]
    fn disabled_cache_never_stores() {
        let cache = MaskCache::disabled();
        cache
            .get_or_load(MaskId::new(1), || Ok((mask(1), 1)))
            .unwrap();
        assert!(cache.is_empty());
        // Second lookup is a miss again.
        cache
            .get_or_load(MaskId::new(1), || Ok((mask(1), 1)))
            .unwrap();
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn load_errors_propagate_and_are_not_cached() {
        let cache = MaskCache::new(1024);
        let err = cache.get_or_load(MaskId::new(1), || {
            Err(crate::error::StorageError::MaskNotFound(MaskId::new(1)))
        });
        assert!(err.is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_readers_share_a_single_load() {
        // Eight readers miss on the same id at once: exactly one runs the
        // load (one decode + decompress); the other seven wait on the
        // flight and share its result as hits.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let cache = Arc::new(MaskCache::new(1024 * 1024));
        let id = MaskId::new(42);
        let loads = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(8));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let loads = Arc::clone(&loads);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    let got = cache
                        .get_or_load(id, || {
                            loads.fetch_add(1, Ordering::SeqCst);
                            // Slow load: the other readers must pile up
                            // behind the flight, not race past it.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            Ok((mask(42), 1))
                        })
                        .unwrap();
                    assert_eq!(*got.mask, mask(42));
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(
            loads.load(Ordering::SeqCst),
            1,
            "single-flight: one load per id"
        );
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn failed_flight_releases_waiters_to_retry() {
        // A leader whose load fails must not wedge the id: waiters retry,
        // one becomes the next leader, and its successful load is shared.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let cache = Arc::new(MaskCache::new(1024 * 1024));
        let id = MaskId::new(9);
        let attempts = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(Barrier::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let attempts = Arc::clone(&attempts);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    cache.get_or_load(id, || {
                        if attempts.fetch_add(1, Ordering::SeqCst) == 0 {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            Err(crate::error::StorageError::MaskNotFound(id))
                        } else {
                            Ok((mask(9), 1))
                        }
                    })
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results.iter().filter(|r| r.is_err()).count(), 1);
        assert!(results.iter().filter(|r| r.is_ok()).count() >= 3);
        assert!(
            attempts.load(Ordering::SeqCst) <= 2,
            "after the failure, at most one retry load runs"
        );
        assert_eq!(*cache.peek(id).unwrap().mask, mask(9));
    }

    #[test]
    fn clear_keeps_statistics() {
        let cache = MaskCache::new(1024 * 1024);
        cache
            .get_or_load(MaskId::new(1), || Ok((mask(1), 1)))
            .unwrap();
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 1);
    }
}
