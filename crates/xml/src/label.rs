//! Label interning.
//!
//! Every element tag in a document is mapped to a dense [`LabelId`] so the
//! mining and matching code can compare labels with a single integer
//! comparison and index per-label tables with plain vectors.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Interned identifier of an element label (tag name).
///
/// Ids are dense: the first distinct label interned receives id 0, the next
/// id 1, and so on. This makes `Vec<T>` indexed by `LabelId` a natural
/// per-label table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LabelId(pub u32);

impl LabelId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A bidirectional mapping between label strings and dense [`LabelId`]s.
///
/// Each name is stored once, shared by the id-to-name vector and the
/// name-to-id map, so interning a label allocates its name once and a
/// clone copies the two tables but no name.
///
/// # Examples
///
/// ```
/// use tl_xml::LabelInterner;
///
/// let mut interner = LabelInterner::new();
/// let a = interner.intern("book");
/// let b = interner.intern("author");
/// assert_ne!(a, b);
/// assert_eq!(interner.intern("book"), a);
/// assert_eq!(interner.resolve(a), "book");
/// assert_eq!(interner.len(), 2);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LabelInterner {
    names: Vec<Arc<str>>,
    ids: HashMap<Arc<str>, LabelId>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id. Repeated calls with the same string
    /// return the same id.
    pub fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = LabelId(u32::try_from(self.names.len()).expect("more than u32::MAX labels"));
        let name: Arc<str> = name.into();
        self.names.push(Arc::clone(&name));
        self.ids.insert(name, id);
        id
    }

    /// Looks up an already-interned label without inserting.
    pub fn get(&self, name: &str) -> Option<LabelId> {
        self.ids.get(name).copied()
    }

    /// Returns the string for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this interner.
    pub fn resolve(&self, id: LabelId) -> &str {
        &self.names[id.index()]
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no label has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (LabelId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (LabelId(i as u32), &**s))
    }

    /// Interns every label of `other` (in `other`'s id order) and returns
    /// the translation table: `map[other_id.index()]` is the id the same
    /// string carries in `self`.
    ///
    /// Growth is prefix-consistent — ids already assigned in `self` never
    /// change — so repeatedly extending one shared interner from a sequence
    /// of documents yields a label universe that depends only on the
    /// sequence order, not on how the work was later sharded. This is the
    /// property corpus mining relies on to make summary merging a pure
    /// count addition.
    pub fn extend_from(&mut self, other: &LabelInterner) -> Vec<LabelId> {
        other.names.iter().map(|name| self.intern(name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut it = LabelInterner::new();
        let a = it.intern("x");
        let b = it.intern("x");
        assert_eq!(a, b);
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn ids_are_dense_in_insertion_order() {
        let mut it = LabelInterner::new();
        assert_eq!(it.intern("a"), LabelId(0));
        assert_eq!(it.intern("b"), LabelId(1));
        assert_eq!(it.intern("c"), LabelId(2));
        assert_eq!(it.intern("b"), LabelId(1));
    }

    #[test]
    fn resolve_round_trips() {
        let mut it = LabelInterner::new();
        let names = ["alpha", "beta", "gamma", "delta"];
        let ids: Vec<_> = names.iter().map(|n| it.intern(n)).collect();
        for (id, name) in ids.iter().zip(names.iter()) {
            assert_eq!(it.resolve(*id), *name);
        }
    }

    #[test]
    fn get_does_not_insert() {
        let mut it = LabelInterner::new();
        assert_eq!(it.get("missing"), None);
        assert!(it.is_empty());
        let id = it.intern("present");
        assert_eq!(it.get("present"), Some(id));
        assert_eq!(it.len(), 1);
    }

    #[test]
    fn iter_yields_all_pairs_in_order() {
        let mut it = LabelInterner::new();
        it.intern("one");
        it.intern("two");
        let pairs: Vec<_> = it.iter().map(|(id, s)| (id.0, s.to_owned())).collect();
        assert_eq!(pairs, vec![(0, "one".to_owned()), (1, "two".to_owned())]);
    }

    #[test]
    fn extend_from_translates_and_is_prefix_consistent() {
        let mut target = LabelInterner::new();
        target.intern("a");
        target.intern("b");
        let mut other = LabelInterner::new();
        other.intern("b");
        other.intern("c");
        let map = target.extend_from(&other);
        // other's "b" (id 0) maps onto target's existing id 1; "c" is fresh.
        assert_eq!(map, vec![LabelId(1), LabelId(2)]);
        assert_eq!(target.get("a"), Some(LabelId(0)), "existing ids unchanged");
        assert_eq!(target.resolve(LabelId(2)), "c");
        // Extending again is a no-op translation.
        assert_eq!(target.extend_from(&other), map);
    }

    #[test]
    fn unicode_labels_are_supported() {
        let mut it = LabelInterner::new();
        let id = it.intern("ação");
        assert_eq!(it.resolve(id), "ação");
    }
}
