//! Parallel bulk construction of CHIs for a whole dataset.
//!
//! The "vanilla MaskSearch" configuration of the paper (§3.6, the *MS* line
//! of Figure 11) builds the index of every mask ahead of time. For `N` masks
//! of `w × h` pixels the cost is `O(N · w · h)`; the builder spreads that
//! over worker threads pulling mask ids from a shared queue, reading masks
//! through a [`MaskStore`].

use crate::chi::{Chi, ChiConfig};
use crate::store::ChiStore;
use masksearch_core::MaskId;
use masksearch_storage::{MaskStore, StorageResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Options controlling a bulk index build.
#[derive(Debug, Clone, Copy)]
pub struct BuildOptions {
    /// Number of worker threads. Zero or one means single-threaded.
    pub threads: usize,
}

impl Default for BuildOptions {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Builds the CHI of every mask in `ids`, loading masks from `store`.
///
/// Returns the populated [`ChiStore`], each index stamped like the pixels
/// it was built from. Masks are loaded through the store (and therefore
/// charged to its I/O cost model), mirroring the paper's accounting where
/// up-front index construction time is attributed to the 0-th query of a
/// workload (Figure 11).
pub fn build_chi_store(
    store: &dyn MaskStore,
    ids: &[MaskId],
    config: ChiConfig,
    options: BuildOptions,
) -> StorageResult<ChiStore> {
    let chi_store = ChiStore::new(config);
    // Each index is stamped like the pixels it was built from.
    let index = |id: MaskId| -> StorageResult<()> {
        let (mask, stamp) = store.get_stamped(id)?;
        chi_store.apply(&[], [(id, Chi::build(&mask, &config))], stamp);
        Ok(())
    };
    let threads = options.threads.max(1).min(ids.len().max(1));
    if threads <= 1 {
        for &id in ids {
            index(id)?;
        }
        return Ok(chi_store);
    }

    let next = AtomicUsize::new(0);
    let first_error: Mutex<Option<masksearch_storage::StorageError>> = Mutex::new(None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ids.len() {
                    break;
                }
                if first_error.lock().is_some() {
                    break;
                }
                if let Err(e) = index(ids[i]) {
                    let mut slot = first_error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                    break;
                }
            });
        }
    });

    if let Some(err) = first_error.into_inner() {
        return Err(err);
    }
    Ok(chi_store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use masksearch_core::{cp, Mask, PixelRange, Roi};
    use masksearch_storage::MemoryMaskStore;

    fn populated_store(n: u64) -> (MemoryMaskStore, Vec<MaskId>) {
        let store = MemoryMaskStore::for_tests();
        let mut ids = Vec::new();
        for i in 0..n {
            let mask = Mask::from_fn(32, 32, |x, y| ((x + y + i as u32) % 23) as f32 / 23.0);
            let id = MaskId::new(i);
            store.put(id, &mask).unwrap();
            ids.push(id);
        }
        (store, ids)
    }

    #[test]
    fn single_threaded_build_indexes_everything() {
        let (store, ids) = populated_store(8);
        let chi_store = build_chi_store(
            &store,
            &ids,
            ChiConfig::new(8, 8, 8).unwrap(),
            BuildOptions { threads: 1 },
        )
        .unwrap();
        assert_eq!(chi_store.len(), 8);
        assert_eq!(store.io_stats().masks_loaded(), 8);
        // Every index carries the stamp of the pixels it was built from.
        for &id in &ids {
            let installed = chi_store.reader().get_stamped(id).unwrap().1;
            assert_eq!(installed, store.get_stamped(id).unwrap().1);
        }
    }

    #[test]
    fn parallel_build_matches_serial_build() {
        let (store, ids) = populated_store(32);
        let config = ChiConfig::new(8, 8, 16).unwrap();
        let serial = build_chi_store(&store, &ids, config, BuildOptions { threads: 1 }).unwrap();
        let parallel = build_chi_store(&store, &ids, config, BuildOptions { threads: 4 }).unwrap();
        assert_eq!(parallel.len(), serial.len());
        for &id in &ids {
            assert_eq!(*parallel.get(id).unwrap(), *serial.get(id).unwrap());
        }
        // Sanity: bounds from a parallel-built index bracket the exact value.
        let mask = store.get(ids[3]).unwrap();
        let roi = Roi::new(5, 5, 30, 30).unwrap();
        let range = PixelRange::new(0.4, 0.9).unwrap();
        let b = parallel.get(ids[3]).unwrap().cp_bounds(&roi, &range);
        let exact = cp(&mask, &roi, &range);
        assert!(b.lower <= exact && exact <= b.upper);
    }

    #[test]
    fn missing_masks_abort_the_build_with_an_error() {
        let (store, mut ids) = populated_store(4);
        ids.push(MaskId::new(999));
        let result = build_chi_store(
            &store,
            &ids,
            ChiConfig::default(),
            BuildOptions { threads: 2 },
        );
        assert!(result.is_err());
        let result = build_chi_store(
            &store,
            &ids,
            ChiConfig::default(),
            BuildOptions { threads: 1 },
        );
        assert!(result.is_err());
    }

    #[test]
    fn empty_id_list_builds_empty_store() {
        let (store, _) = populated_store(2);
        let chi_store =
            build_chi_store(&store, &[], ChiConfig::default(), BuildOptions::default()).unwrap();
        assert!(chi_store.is_empty());
    }
}
