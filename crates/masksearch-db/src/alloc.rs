//! The free-space map of the page file, kept as runs of contiguous pages.

use crate::page::PageNo;
use masksearch_storage::{StorageError, StorageResult};
use std::collections::BTreeMap;

/// Free pages below the database's page count, as maximal runs: start →
/// length, no two runs adjacent. The representation is canonical — it
/// depends only on *which* pages are free — so releasing what was allocated
/// restores it exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct FreeRuns {
    runs: BTreeMap<PageNo, u64>,
}

impl FreeRuns {
    /// The free space of a database spanning `page_count` pages of which
    /// page 0 and `extents` (start, pages) are in use, validating that no
    /// extent escapes the database or overlaps another.
    pub fn derive(
        page_count: u64,
        extents: impl Iterator<Item = (PageNo, u32)>,
    ) -> StorageResult<Self> {
        let mut used: Vec<(PageNo, u64)> = extents
            .map(|(start, pages)| (start, u64::from(pages)))
            .collect();
        used.sort_unstable();
        let mut runs = BTreeMap::new();
        // First page not yet accounted for; page 0 is the meta page.
        let mut next: PageNo = 1;
        for (start, pages) in used {
            if start < next {
                return Err(StorageError::corrupt(format!(
                    "page {start} is claimed by two extents"
                )));
            }
            let end = start
                .checked_add(pages)
                .filter(|&end| end <= page_count)
                .ok_or_else(|| {
                    StorageError::corrupt(format!(
                        "extent of {pages} pages at page {start} escapes the database \
                         ({page_count} pages)"
                    ))
                })?;
            if start > next {
                runs.insert(next, start - next);
            }
            next = end;
        }
        if page_count > next {
            runs.insert(next, page_count - next);
        }
        Ok(Self { runs })
    }

    /// Takes `pages` contiguous pages from the first run long enough,
    /// extending the database (`page_count`) when there is none.
    pub fn allocate(&mut self, page_count: &mut u64, pages: u32) -> PageNo {
        let pages = u64::from(pages);
        let fit = self
            .runs
            .iter()
            .find(|(_, &len)| len >= pages)
            .map(|(&start, &len)| (start, len));
        match fit {
            Some((start, len)) => {
                self.runs.remove(&start);
                if len > pages {
                    self.runs.insert(start + pages, len - pages);
                }
                start
            }
            None => {
                let start = *page_count;
                *page_count += pages;
                start
            }
        }
    }

    /// Returns an extent to the free space, merging it with its neighbours.
    pub fn release(&mut self, start: PageNo, pages: u32) {
        let (mut start, mut len) = (start, u64::from(pages));
        if let Some((&before, &before_len)) = self.runs.range(..start).next_back() {
            debug_assert!(before + before_len <= start, "released pages were free");
            if before + before_len == start {
                self.runs.remove(&before);
                start = before;
                len += before_len;
            }
        }
        if let Some(after_len) = self.runs.remove(&(start + len)) {
            len += after_len;
        }
        if len > 0 {
            self.runs.insert(start, len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(free: &FreeRuns) -> Vec<(PageNo, u64)> {
        free.runs.iter().map(|(&s, &l)| (s, l)).collect()
    }

    #[test]
    fn derive_finds_the_gaps_and_rejects_bad_extents() {
        let free = FreeRuns::derive(20, [(5, 3), (1, 2), (10, 4)].into_iter()).unwrap();
        assert_eq!(runs(&free), vec![(3, 2), (8, 2), (14, 6)]);
        assert_eq!(
            runs(&FreeRuns::derive(2, [(1, 1)].into_iter()).unwrap()),
            vec![]
        );
        // Overlap, page 0, and escaping the database are corruption.
        assert!(FreeRuns::derive(20, [(5, 3), (7, 2)].into_iter()).is_err());
        assert!(FreeRuns::derive(20, [(0, 1)].into_iter()).is_err());
        assert!(FreeRuns::derive(20, [(18, 3)].into_iter()).is_err());
        assert!(FreeRuns::derive(20, [(u64::MAX, 2)].into_iter()).is_err());
    }

    #[test]
    fn release_merges_with_both_neighbours() {
        let mut free = FreeRuns::default();
        free.release(10, 2);
        free.release(14, 2);
        assert_eq!(runs(&free), vec![(10, 2), (14, 2)]);
        free.release(12, 2);
        assert_eq!(runs(&free), vec![(10, 6)]);
        free.release(5, 5);
        free.release(16, 1);
        assert_eq!(runs(&free), vec![(5, 12)]);
    }

    #[test]
    fn releasing_what_was_allocated_restores_the_map_exactly() {
        let start = FreeRuns::derive(40, [(1, 2), (6, 10), (20, 1), (30, 10)].into_iter()).unwrap();
        let mut free = start.clone();
        let mut page_count = 40u64;
        let taken: Vec<(PageNo, u32)> = [2u32, 3, 4, 9, 1, 13]
            .into_iter()
            .map(|n| (free.allocate(&mut page_count, n), n))
            .collect();
        assert_ne!(free, start);
        // What came from extending the database is given back by shrinking
        // it again; what came from a run, by releasing it.
        for &(at, n) in taken.iter().rev().filter(|(at, _)| *at < 40) {
            free.release(at, n);
        }
        assert_eq!(free, start);
    }
}
