//! An ordered map whose copies share everything they have not changed.
//!
//! A [`CowMap`] is a B+ tree of `Arc`-shared nodes. Cloning the map clones
//! one `Arc`; a change to a clone copies only the nodes on the path to the
//! key it changes that are still shared with another copy (a leaf of at
//! most [`LEAF_MAX`] entries and at most [`BRANCH_MAX`] child pointers per
//! level above it), and a node that is already the clone's own is changed
//! in place. So a writer can take the map readers hold, apply a batch to
//! its clone and publish the result: what that costs grows with the batch,
//! not with the map, and a reader still holding the old map sees it
//! unchanged until it lets go — the last holder of a node frees it.
//!
//! Lookups descend from the root; [`CowMap::range_from`] walks the leaves
//! in key order. Every leaf is at the same depth. A removal that leaves a
//! node under a quarter full merges it into a neighbour when the two fit in
//! one node.

use std::fmt;
use std::sync::Arc;

/// Most entries a leaf holds.
pub const LEAF_MAX: usize = 64;
/// Most children a branch holds.
pub const BRANCH_MAX: usize = 32;

#[derive(Clone)]
enum Node<K, V> {
    Leaf(Vec<(K, V)>),
    /// Children with the smallest key each holds.
    Branch(Vec<Child<K, V>>),
}

/// A branch's child and the smallest key it holds.
type Child<K, V> = (K, Arc<Node<K, V>>);

impl<K: Copy, V> Node<K, V> {
    fn len(&self) -> usize {
        match self {
            Node::Leaf(entries) => entries.len(),
            Node::Branch(children) => children.len(),
        }
    }

    fn max_len(&self) -> usize {
        match self {
            Node::Leaf(_) => LEAF_MAX,
            Node::Branch(_) => BRANCH_MAX,
        }
    }

    fn first_key(&self) -> K {
        match self {
            Node::Leaf(entries) => entries[0].0,
            Node::Branch(children) => children[0].0,
        }
    }
}

/// The child of `children` whose keys `key` falls among.
fn child_index<K: Ord, N>(children: &[(K, N)], key: &K) -> usize {
    children
        .partition_point(|(k, _)| k <= key)
        .saturating_sub(1)
}

/// Splits `items` once it holds more than `max`, returning the right half.
/// An item just appended at the end leaves the left node full, so keys that
/// arrive ascending fill their leaves.
fn split_if_over<T>(items: &mut Vec<T>, max: usize, inserted_at: usize) -> Option<Vec<T>> {
    (items.len() > max).then(|| {
        let mid = if inserted_at + 1 == items.len() {
            max
        } else {
            items.len() / 2
        };
        items.split_off(mid)
    })
}

/// A copy-on-write ordered map (see the module docs).
pub struct CowMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

impl<K, V> Clone for CowMap<K, V> {
    fn clone(&self) -> Self {
        Self {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        Self { root: None, len: 0 }
    }
}

impl<K: Ord + Copy + fmt::Debug, V: Clone + fmt::Debug> fmt::Debug for CowMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Ord + Copy, V: Clone> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the map has no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                Node::Branch(children) => node = &children[child_index(children, key)].1,
                Node::Leaf(entries) => {
                    let i = entries.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
                    return Some(&entries[i].1);
                }
            }
        }
    }

    /// Returns `true` if `key` has an entry.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Sets the value of `key`, returning the one it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(root) = &mut self.root else {
            self.root = Some(Arc::new(Node::Leaf(vec![(key, value)])));
            self.len = 1;
            return None;
        };
        let (old, split) = insert_into(root, key, value);
        if let Some(right) = split {
            let left = self.root.take().expect("the root was just split");
            self.root = Some(Arc::new(Node::Branch(vec![
                (left.first_key(), left),
                right,
            ])));
        }
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes `key`, returning its value. A key that is not there copies
    /// nothing.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        if !self.contains_key(key) {
            return None;
        }
        let root = self.root.as_mut().expect("the key is there");
        let old = remove_from(root, key);
        self.len -= 1;
        // A branch left with one child gives way to it; an empty leaf, to
        // nothing.
        loop {
            let next = match self.root.as_deref() {
                Some(Node::Branch(children)) if children.len() == 1 => Some(children[0].1.clone()),
                Some(Node::Leaf(entries)) if entries.is_empty() => None,
                _ => break,
            };
            self.root = next;
        }
        old
    }

    /// Every entry in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter::default();
        if let Some(root) = self.root.as_deref() {
            iter.descend(root);
        }
        iter
    }

    /// The entries with a key at or after `key`, in key order.
    pub fn range_from(&self, key: K) -> Iter<'_, K, V> {
        let mut iter = Iter::default();
        self.reposition(&mut iter, key);
        iter
    }

    /// Points `iter` at the entries with a key at or after `key`, as
    /// [`CowMap::range_from`] does, reusing its allocation.
    pub fn reposition<'a>(&'a self, iter: &mut Iter<'a, K, V>, key: K) {
        iter.stack.clear();
        iter.leaf = [].iter();
        let Some(mut node) = self.root.as_deref() else {
            return;
        };
        loop {
            match node {
                Node::Branch(children) => {
                    let i = child_index(children, &key);
                    iter.stack.push(children[i + 1..].iter());
                    node = &children[i].1;
                }
                Node::Leaf(entries) => {
                    let i = entries.partition_point(|(k, _)| *k < key);
                    iter.leaf = entries[i..].iter();
                    return;
                }
            }
        }
    }

    /// A map of `entries`, which must come in strictly ascending key order,
    /// built bottom-up from full nodes without a search: what a bulk load
    /// costs instead of one descent per entry.
    ///
    /// # Panics
    /// Panics if a key is not greater than the one before it.
    pub fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> Self {
        let mut level: Vec<Child<K, V>> = Vec::new();
        let mut leaf: Vec<(K, V)> = Vec::with_capacity(LEAF_MAX);
        let mut len = 0;
        let mut last: Option<K> = None;
        for (key, value) in entries {
            assert!(last.is_none_or(|last| last < key), "keys out of order");
            last = Some(key);
            leaf.push((key, value));
            len += 1;
            if leaf.len() == LEAF_MAX {
                let full = std::mem::replace(&mut leaf, Vec::with_capacity(LEAF_MAX));
                level.push((full[0].0, Arc::new(Node::Leaf(full))));
            }
        }
        if !leaf.is_empty() {
            level.push((leaf[0].0, Arc::new(Node::Leaf(leaf))));
        }
        while level.len() > 1 {
            let mut children = level.into_iter().peekable();
            let mut parents = Vec::new();
            while children.peek().is_some() {
                let branch: Vec<Child<K, V>> = children.by_ref().take(BRANCH_MAX).collect();
                parents.push((branch[0].0, Arc::new(Node::Branch(branch))));
            }
            level = parents;
        }
        Self {
            root: level.pop().map(|(_, root)| root),
            len,
        }
    }

    /// Every key in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.iter().map(|(k, _)| k)
    }

    /// Every value in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }
}

impl<K: Ord + Copy, V: Clone> FromIterator<(K, V)> for CowMap<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut map = Self::new();
        for (key, value) in entries {
            map.insert(key, value);
        }
        map
    }
}

fn insert_into<K: Ord + Copy, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    key: K,
    value: V,
) -> (Option<V>, Option<Child<K, V>>) {
    match Arc::make_mut(node) {
        Node::Leaf(entries) => match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => (Some(std::mem::replace(&mut entries[i].1, value)), None),
            Err(i) => {
                entries.insert(i, (key, value));
                let split = split_if_over(entries, LEAF_MAX, i)
                    .map(|right| (right[0].0, Arc::new(Node::Leaf(right))));
                (None, split)
            }
        },
        Node::Branch(children) => {
            let i = child_index(children, &key);
            let (old, split) = insert_into(&mut children[i].1, key, value);
            if key < children[i].0 {
                children[i].0 = key;
            }
            let split = split.and_then(|right| {
                children.insert(i + 1, right);
                split_if_over(children, BRANCH_MAX, i + 1)
                    .map(|right| (right[0].0, Arc::new(Node::Branch(right))))
            });
            (old, split)
        }
    }
}

/// Removes `key`, which is in the subtree.
fn remove_from<K: Ord + Copy, V: Clone>(node: &mut Arc<Node<K, V>>, key: &K) -> Option<V> {
    match Arc::make_mut(node) {
        Node::Leaf(entries) => {
            let i = entries.binary_search_by(|(k, _)| k.cmp(key)).ok()?;
            Some(entries.remove(i).1)
        }
        Node::Branch(children) => {
            let i = child_index(children, key);
            let old = remove_from(&mut children[i].1, key);
            if children[i].1.len() == 0 {
                children.remove(i);
            } else {
                children[i].0 = children[i].1.first_key();
                merge_if_small(children, i);
            }
            old
        }
    }
}

/// Merges child `i` into a neighbour when it is under a quarter full and
/// the two fit in one node.
fn merge_if_small<K: Ord + Copy, V: Clone>(children: &mut Vec<Child<K, V>>, i: usize) {
    let small = &children[i].1;
    if small.len() * 4 >= small.max_len() {
        return;
    }
    let j = if i + 1 < children.len() {
        i + 1
    } else if i > 0 {
        i - 1
    } else {
        return;
    };
    let (left, right) = (i.min(j), i.max(j));
    if children[left].1.len() + children[right].1.len() > small.max_len() {
        return;
    }
    let (_, right) = children.remove(right);
    match (
        Arc::make_mut(&mut children[left].1),
        Arc::unwrap_or_clone(right),
    ) {
        (Node::Leaf(into), Node::Leaf(from)) => into.extend(from),
        (Node::Branch(into), Node::Branch(from)) => into.extend(from),
        _ => unreachable!("every leaf is at the same depth"),
    }
}

/// An iterator over a [`CowMap`]'s entries in key order.
pub struct Iter<'a, K, V> {
    /// The children still to visit at each level above the leaf.
    stack: Vec<std::slice::Iter<'a, Child<K, V>>>,
    leaf: std::slice::Iter<'a, (K, V)>,
}

impl<K, V> Default for Iter<'_, K, V> {
    /// An iterator over nothing.
    fn default() -> Self {
        Self {
            stack: Vec::new(),
            leaf: [].iter(),
        }
    }
}

impl<'a, K, V> Iter<'a, K, V> {
    /// Positions the iterator at the first entry of `node`.
    fn descend(&mut self, mut node: &'a Node<K, V>) {
        loop {
            match node {
                Node::Branch(children) => {
                    let mut rest = children.iter();
                    let (_, first) = rest.next().expect("a branch has children");
                    self.stack.push(rest);
                    node = first;
                }
                Node::Leaf(entries) => {
                    self.leaf = entries.iter();
                    return;
                }
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some((k, v)) = self.leaf.next() {
                return Some((k, v));
            }
            let next = loop {
                let level = self.stack.last_mut()?;
                match level.next() {
                    Some((_, child)) => break child,
                    None => {
                        self.stack.pop();
                    }
                }
            };
            self.descend(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Keys in a scattered order that covers `0..n` once.
    fn scattered(n: u64) -> impl Iterator<Item = u64> {
        (0..n).map(move |i| (i * 7919) % n)
    }

    fn assert_same(map: &CowMap<u64, u64>, model: &BTreeMap<u64, u64>) {
        assert_eq!(map.len(), model.len());
        assert!(map
            .iter()
            .map(|(k, v)| (*k, *v))
            .eq(model.iter().map(|(k, v)| (*k, *v))));
        for probe in [0, 1, 63, 64, 65, 500, 4095, 5000] {
            assert_eq!(map.get(&probe), model.get(&probe));
            assert!(map
                .range_from(probe)
                .map(|(k, v)| (*k, *v))
                .eq(model.range(probe..).map(|(k, v)| (*k, *v))));
        }
    }

    #[test]
    fn agrees_with_a_btree_map_through_inserts_and_removals() {
        let mut map = CowMap::new();
        let mut model = BTreeMap::new();
        for k in scattered(4096) {
            assert_eq!(map.insert(k, k * 2), model.insert(k, k * 2));
        }
        for k in (0..4096).step_by(3) {
            assert_eq!(map.insert(k, k + 1), model.insert(k, k + 1));
        }
        assert_same(&map, &model);
        for k in scattered(4096).filter(|k| k % 5 != 0) {
            assert_eq!(map.remove(&k), model.remove(&k));
        }
        assert_eq!(map.remove(&1), None);
        assert_same(&map, &model);
        for k in (0..4096).step_by(5) {
            assert_eq!(map.remove(&k), model.remove(&k));
        }
        assert!(map.is_empty() && map.root.is_none());
    }

    #[test]
    fn a_bulk_load_equals_inserts_and_takes_later_ones() {
        for n in [0u64, 1, 63, 64, 65, 2047, 2048, 2049, 70_000] {
            let mut map: CowMap<u64, u64> = CowMap::from_sorted((0..n).map(|k| (k * 2, k)));
            let mut model: BTreeMap<u64, u64> = (0..n).map(|k| (k * 2, k)).collect();
            assert_same(&map, &model);
            for k in [0, 3, n, n * 2 + 1] {
                assert_eq!(map.insert(k, 7), model.insert(k, 7));
            }
            assert_eq!(map.remove(&2), model.remove(&2));
            assert_same(&map, &model);
        }
    }

    #[test]
    #[should_panic(expected = "keys out of order")]
    fn a_bulk_load_refuses_unsorted_keys() {
        let _ = CowMap::from_sorted((0..70u64).map(|k| (k.min(66), ())));
    }

    #[test]
    fn ascending_inserts_fill_their_leaves() {
        let map: CowMap<u64, ()> = (0..LEAF_MAX as u64 * 8).map(|k| (k, ())).collect();
        let Some(Node::Branch(children)) = map.root.as_deref() else {
            panic!("eight leaves need a branch");
        };
        assert_eq!(children.len(), 8);
        assert!(children.iter().all(|(_, leaf)| leaf.len() == LEAF_MAX));
    }

    #[test]
    fn a_clone_is_unchanged_by_writes_to_the_original_and_shares_the_rest() {
        let mut map: CowMap<u64, u64> = (0..2000).map(|k| (k, k)).collect();
        let pinned = map.clone();
        map.insert(5, 99);
        map.remove(&1500);
        map.insert(9999, 1);
        assert!(pinned
            .iter()
            .map(|(k, v)| (*k, *v))
            .eq((0..2000).map(|k| (k, k))));
        assert_eq!(map.get(&5), Some(&99));
        // Only the paths to the three keys were copied: every other leaf is
        // the same allocation in both.
        let leaves = |m: &CowMap<u64, u64>| -> Vec<*const Node<u64, u64>> {
            let mut out = Vec::new();
            let mut stack = vec![m.root.as_ref().unwrap().clone()];
            while let Some(node) = stack.pop() {
                match &*node {
                    Node::Branch(children) => stack.extend(children.iter().map(|c| c.1.clone())),
                    Node::Leaf(_) => out.push(Arc::as_ptr(&node)),
                }
            }
            out
        };
        let (old, new) = (leaves(&pinned), leaves(&map));
        let shared = new.iter().filter(|leaf| old.contains(leaf)).count();
        assert!(
            shared + 3 >= old.len(),
            "{shared} of {} leaves shared",
            old.len()
        );
    }
}
