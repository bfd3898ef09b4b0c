//! A lookup cursor over a [`CowMap`] keyed by mask id.
//!
//! The filter stage looks up every candidate of a statement in two ordered
//! maps — the catalog's records and the CHI store's slots — and candidate
//! lists come out of selection resolution ascending. A point lookup descends
//! the tree from the root each time; the cursor remembers where the last
//! lookup ended and, when the next id is at or just after that place, walks
//! the leaves forward instead. Any other id (smaller, or far ahead) costs one
//! ranged descent, what a point lookup costs, so the answers are those of
//! `get` in every order and a sparse or descending list is never scanned.

use crate::cow_map::{CowMap, Iter};
use masksearch_core::MaskId;

/// How far past the current entry an id may lie and still be walked to.
/// Ids are distinct integers, so the walk takes at most this many steps —
/// about what one descent costs.
const NEAR: u64 = 8;

/// A cursor answering `get` over a [`CowMap`] keyed by [`MaskId`].
pub struct IdCursor<'a, V> {
    map: &'a CowMap<MaskId, V>,
    ahead: Iter<'a, MaskId, V>,
    /// The first entry with an id at or after `floor`.
    at: Option<(&'a MaskId, &'a V)>,
    /// The id sought last; `None` before the first `seek`.
    floor: Option<MaskId>,
}

impl<'a, V: Clone> IdCursor<'a, V> {
    /// A cursor over `map`, not yet positioned.
    pub fn new(map: &'a CowMap<MaskId, V>) -> Self {
        Self {
            map,
            ahead: Iter::default(),
            at: None,
            floor: None,
        }
    }

    /// The value of `id`, exactly as `map.get(&id)` answers.
    pub fn seek(&mut self, id: MaskId) -> Option<&'a V> {
        // At or after the last id sought, and no further than `NEAR` past
        // the current entry (nothing left at all is nothing at `id` either).
        let walk = self.floor.is_some_and(|floor| floor <= id)
            && self
                .at
                .is_none_or(|(at, _)| *at >= id || id.raw() - at.raw() <= NEAR);
        if walk {
            while self.at.is_some_and(|(at, _)| *at < id) {
                self.at = self.ahead.next();
            }
        } else {
            self.map.reposition(&mut self.ahead, id);
            self.at = self.ahead.next();
        }
        self.floor = Some(id);
        self.at.filter(|(at, _)| **at == id).map(|(_, value)| value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_equals_get_in_any_order() {
        let map: CowMap<MaskId, u64> = (0..400u64)
            .filter(|i| i % 7 != 3 && !(100..140).contains(i))
            .map(|i| (MaskId::new(i * 3), i))
            .collect();
        let ascending: Vec<u64> = (0..1300).collect();
        let strided: Vec<u64> = (0..1300).step_by(5).collect();
        let descending: Vec<u64> = (0..1300).rev().collect();
        let repeated: Vec<u64> = (0..600).flat_map(|i| [i, i, i + 2, i]).collect();
        let scattered: Vec<u64> = (0..2000u64).map(|i| (i * 7919) % 1300).collect();
        for ids in [ascending, strided, descending, repeated, scattered] {
            let mut cursor = IdCursor::new(&map);
            for id in ids.into_iter().map(MaskId::new) {
                assert_eq!(cursor.seek(id), map.get(&id), "id {id}");
            }
        }
        let empty = CowMap::<MaskId, u64>::new();
        assert_eq!(IdCursor::new(&empty).seek(MaskId::new(1)), None);
    }
}
